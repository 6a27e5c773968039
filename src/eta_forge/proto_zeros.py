"""Scanning vertical lines for proto-zeros of the finite eta sums.

A proto-zero at fixed sigma is a strict local minimum of |eta_n(sigma+it)|
on the t-grid, polished by ``refine_zero``'s Newton (``finite_eta._line_newton``).
The grid values come from ``finite_eta._line``: the double table where it
certifies, one big-float table per run of cancelling points elsewhere.  Each state
b^(-sigma-it) turns by e^(-ih ln b) per grid step h (ln b = 2 pi hbar_b, below), so
the kernel steps both tables along the line, filling afresh only on a miss.
The "decay" of a record is the imaginary offset d of the ordinate that would
deepen the minimum, from the first-order Newton step (see ``scan_line``).

The resolving power of a finite eta is set by its largest participating
prime p through the local constant hbar_p = ln(p) / (2 pi): the smallest
oscillatory interval in t it can resolve is 1 / hbar_p.  Grid steps are
validated against that scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .finite_eta import (Family, FiniteEtaSpec, _FastPowers, _line, _line_newton, _taylor,
                         _terms, derivative, evaluate)
from .hasse_global import ZeroRecord
from .numerics import PrecisionContext, _coerce_real, _count, _fast_only

__all__ = [
    "PlanckInfo",
    "ScanConfig",
    "ProtoZeroRecord",
    "CloudComparison",
    "is_prime",
    "planck_resolution",
    "default_step",
    "scan_line",
    "proto_cloud",
    "compare_to_global",
]

# The first 13 primes as bases decide every p below this bound (Sorenson and Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# About 1000x the longest line a test or benchmark scans (n = 20 on [1, 100]).
_MAX_GRID_POINTS = 1_000_000


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin (exact for everything we accept); p at or above
    ``_MR_EXACT_BELOW`` raises DomainError."""
    if not isinstance(p, int) or p < 2:
        return False
    if p >= _MR_EXACT_BELOW:
        raise DomainError(f"{p} is at or above {_MR_EXACT_BELOW}, where Miller-Rabin "
                          "on the first 13 primes is not proved exact")
    for small in _MR_BASES:
        if p == small:
            return True
        if p % small == 0:
            return False
    r = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2**r, d odd
    d = (p - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PlanckInfo:
    p: int              # the prime
    hbar_p: float       # ln(p) / (2 pi)
    resolution: float   # 1 / hbar_p, smallest resolvable t-interval


def planck_resolution(p: int) -> PlanckInfo:
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    hbar = math.log(p) / (2.0 * math.pi)
    return PlanckInfo(p=p, hbar_p=hbar, resolution=1.0 / hbar)


def _largest_participating_prime(spec: FiniteEtaSpec) -> int | None:
    return next((q for q in range(max(spec.bases, default=1), 1, -1) if is_prime(q)), None)


def default_step(spec: FiniteEtaSpec) -> float:
    """Resolution of the largest participating prime, divided by 20."""
    p = _largest_participating_prime(spec)
    if p is None:
        raise DomainError(
            f"family {spec.family.value} n={spec.n} has no oscillatory base; "
            "nothing to scan")
    return planck_resolution(p).resolution / 20.0


@dataclass(frozen=True)
class ScanConfig:
    spec: FiniteEtaSpec
    sigma: float
    t_min: float
    t_max: float
    step: float

    def __post_init__(self):
        for name in ("sigma", "t_min", "t_max", "step"):  # real numbers, through the fast gate
            object.__setattr__(self, name, _coerce_real(getattr(self, name), name))
        if not self.t_min < self.t_max:
            raise DomainError(f"need t_min < t_max, got [{self.t_min}, {self.t_max}]")
        if not self.step > 0:
            raise DomainError("step must be positive")
        points = (self.t_max - self.t_min) / self.step + 1
        if not points <= _MAX_GRID_POINTS:  # also refuses inf and nan
            raise DomainError(
                f"scan grid of {points:.6g} points exceeds the limit of {_MAX_GRID_POINTS}")
        p = _largest_participating_prime(self.spec)
        if p is not None:
            limit = planck_resolution(p).resolution / 10.0
            if self.step > limit * (1 + 1e-12):
                raise DomainError(
                    f"step {self.step} coarser than resolution/10 = {limit:.6g} "
                    f"of the largest participating prime {p}")


@dataclass(frozen=True)
class ProtoZeroRecord:
    spec: FiniteEtaSpec
    sigma: float
    t: float
    magnitude: float   # |eta_n(sigma + i t)| at the polished minimum
    decay: float       # imaginary t-offset that would deepen the minimum
    magnitude_err: float = math.inf  # bound on |magnitude - |eta_n||; inf: none given


@dataclass(frozen=True)
class CloudComparison:
    per_n_distance: dict   # n -> nearest |t_proto - t_zero|
    centroid_t: float      # weight-2^-(n+1) average of the nearest t per n
    centroid_distance: float


def scan_line(cfg: ScanConfig, ctx: PrecisionContext = PrecisionContext(),
              jobs: int = 1) -> list[ProtoZeroRecord]:
    """All strict grid minima of |eta(sigma+it)|, polished by Newton on the line.

    The grid values come from the line kernel; ``_line_newton``, on a Taylor model of the double
    table, polishes each minimum within a grid step, which stays if it raises.  The magnitude and
    the decay, Re(eta / eta') (the imaginary part of a Newton step in the complex ordinate t), come
    from ``evaluate`` and ``derivative``; the magnitude's bound is evaluate's plus 2**-52 magnitude
    for the rounding of abs.  Fast tier only (else DomainError); ``jobs`` does nothing.
    """
    _fast_only(ctx, "scan_line")
    spec, sigma, coefs = cfg.spec, cfg.sigma, _terms(cfg.spec.family, cfg.spec.n)

    count = int(math.floor((cfg.t_max - cfg.t_min) / cfg.step + 1e-9)) + 1
    ts = [cfg.t_min + i * cfg.step for i in range(count)]
    vals = list(map(abs, _line(coefs, sigma, ts, ctx)))

    records = []
    for i in range(1, count - 1):
        if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]:
            try:
                t_star = _line_newton(lambda t, reach: _taylor(_FastPowers(complex(sigma, t)),
                                                               coefs, reach),
                                      ts[i], cfg.step, cfg.step)[0]
            except (ConvergenceError, OverflowError):  # no minimum ahead, or beyond doubles
                t_star = ts[i]
            s_star = complex(sigma, t_star)
            res = evaluate(spec, s_star, ctx)
            val = res.value.to_complex()
            dval = derivative(spec, s_star, ctx).value.to_complex()
            decay, mag = (val / dval).real if dval != 0 else 0.0, abs(val)
            records.append(ProtoZeroRecord(spec, sigma, t_star, mag, decay,
                                           magnitude_err=res.abs_err + 2.0 ** -52 * mag))
    records.sort(key=lambda r: r.t)
    return records


def proto_cloud(n_max: int, sigma: float, t_center: float, half_width: float,
                ctx: PrecisionContext = PrecisionContext(),
                jobs: int = 1) -> list[ProtoZeroRecord]:
    """Union of scan_line over n = 1..n_max around t_center, tagged by n.

    A degenerate window (half_width = 0) yields an empty cloud.  Fast tier
    only, as ``scan_line``.  ``jobs`` has no effect.
    """
    _fast_only(ctx, "proto_cloud")
    n_max = _count(n_max, "n_max", 1)
    sigma, t_center, half_width = (_coerce_real(x, name) for x, name in (
        (sigma, "sigma"), (t_center, "t_center"), (half_width, "half_width")))
    if half_width < 0:
        raise DomainError("half_width must be >= 0")
    if half_width == 0:
        return []
    out = []
    for n in range(1, n_max + 1):
        spec = FiniteEtaSpec(Family.HASSE, n)
        cfg = ScanConfig(spec=spec, sigma=sigma,
                         t_min=t_center - half_width, t_max=t_center + half_width,
                         step=default_step(spec))
        out.extend(scan_line(cfg, ctx, jobs=jobs))  # each sorted by t: out by (n, t)
    return out


def compare_to_global(records: list[ProtoZeroRecord], zero: ZeroRecord) -> CloudComparison:
    """Descriptive distances between a proto-zero cloud and one true zero.

    Per index n, the nearest record's |t - t_zero|; plus the centroid of
    those nearest ordinates under the series weights 2^(-(n+1)) and its
    distance to the zero.  Purely descriptive, no assertion.
    """
    if not records:
        raise DomainError("empty record list")
    nearest: dict[int, ProtoZeroRecord] = {}
    for r in records:
        n = r.spec.n
        if n not in nearest or abs(r.t - zero.t) < abs(nearest[n].t - zero.t):
            nearest[n] = r
    per_n = {n: abs(r.t - zero.t) for n, r in sorted(nearest.items())}
    wsum = sum(0.5 ** (n + 1) for n in nearest)
    centroid = sum(0.5 ** (n + 1) * r.t for n, r in nearest.items()) / wsum
    return CloudComparison(per_n_distance=per_n, centroid_t=centroid,
                           centroid_distance=abs(centroid - zero.t))
