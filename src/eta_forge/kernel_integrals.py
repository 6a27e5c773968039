"""Kernel integrals L_n(s) and the closed-form identities they satisfy.

For x > 0 the two kernels are, in factored form,

    HASSE:  (x+1)(x+2)...(x+n+1)            (degree n+1)
    HSTAR:  (x^2+1)(x^2+4)...(x^2+n^2)      (degree 2n)

and L_n(s) = integral_0^infty x^(s-1) / kernel(x) dx converges on the
window 0 < Re(s) < n+1 (HASSE) resp. 0 < Re(s) < 2n (HSTAR).  The library
checks these against their closed forms

    HASSE:  pi / sin(pi s)     * eta_n(1-s)    / n!
    HSTAR:  pi / sin(pi s / 2) * zhstar_n(-s)  / (2n)!

where eta_n / zhstar_n are the finite sums of :mod:`eta_forge.finite_eta`.

Quadrature scheme: split the integral at x = 1, substitute x -> 1/x on
the outer piece (which turns it into another endpoint-singular integral
over (0, 1]), and apply tanh-sinh (double exponential) quadrature to each
piece.  The singular factor u^(s-1) is evaluated in log space so that
small Re(s) neither overflows nor loses the oscillatory phase.

Inside a guard radius of 1e-3 around an integer (HASSE) or even integer
(HSTAR) the closed form is 0/0 at the pole-free points; there it is
evaluated by a three-term local expansion of the finite sum against the
sine factor.  Near any other integer the sine pole is genuine and a
PoleError is raised.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, PoleError, RangeError
from .finite_eta import Family, FiniteEtaSpec, derivative, evaluate
from .numerics import ComplexPoint, PrecisionContext, _coerce_complex

__all__ = [
    "QuadratureResult",
    "IdentityResidual",
    "kernel_value",
    "convergence_window",
    "integrate_L",
    "rhs_closed_form",
    "verify_identity",
    "POLE_GUARD_RADIUS",
    "EVALUATION_BUDGET",
]

POLE_GUARD_RADIUS = 1e-3
EVALUATION_BUDGET = 200_000
_T_CUTOFF = 7.0  # |t| beyond which tanh-sinh weights underflow doubles
_MAX_LEVEL = 11


@dataclass(frozen=True)
class QuadratureResult:
    value: ComplexPoint
    abs_err_estimate: float  # >= 0, inflated when the budget was exhausted
    evaluations: int

    def __post_init__(self):
        if not (math.isfinite(self.abs_err_estimate) and self.abs_err_estimate >= 0):
            raise DomainError(f"bad error estimate {self.abs_err_estimate}")
        if self.evaluations < 1:
            raise DomainError("evaluation count must be positive")


@dataclass(frozen=True)
class IdentityResidual:
    lhs: ComplexPoint | None   # integral
    rhs: ComplexPoint | None   # closed form
    residual: float            # |lhs - rhs| / max(1, |rhs|)
    skipped: bool = False
    reason: str | None = None


def kernel_value(family: Family, n: int, x: float) -> float:
    """Kernel at real x > 0, evaluated as the factored product."""
    if not x > 0:
        raise DomainError(f"kernel argument must be positive, got {x}")
    if family is Family.HSTAR and n < 1:
        raise DomainError("HSTAR requires n >= 1")
    if n < 0:
        raise DomainError("n must be >= 0")
    p = 1.0
    if family is Family.HASSE:
        for j in range(1, n + 2):
            p *= x + j
    else:
        x2 = x * x
        for k in range(1, n + 1):
            p *= x2 + k * k
    if math.isinf(p):
        raise RangeError(f"kernel overflow at x={x}, n={n}")
    return p


def convergence_window(family: Family, n: int) -> tuple[float, float]:
    if family is Family.HASSE:
        return (0.0, float(n + 1))
    return (0.0, float(2 * n))


# ---------------------------------------------------------------------------
# tanh-sinh quadrature on (0, 1) for integrands u^(s-1) * g(u)
# ---------------------------------------------------------------------------

_node_cache: dict[int, list[tuple[float, float, float, float]]] = {}


def _nodes(level: int):
    """Nodes ordered center-outward: (u, ln_u, ln_u + ln(1-u), pi*cosh t)."""
    cached = _node_cache.get(level)
    if cached is not None:
        return cached
    h = 1.0 / (1 << level)
    out = []
    j = 0
    while True:
        t = j * h
        if j > 0 and t > _T_CUTOFF:
            break
        ch = math.cosh(t)
        m = math.pi * math.sinh(t)
        # u = 1/(1+e^-m); computed through logs so tiny u keeps full accuracy
        if m < 700:
            ln_u = -math.log1p(math.exp(-m))
        else:
            ln_u = -math.exp(-m)
        ln_1mu = -m + ln_u
        u = math.exp(ln_u)
        pc = math.pi * ch
        out.append((u, ln_u, ln_u + ln_1mu, pc))
        if j > 0:
            # mirror node at -t: u and 1-u swap roles
            u_neg = math.exp(ln_1mu)
            out.append((u_neg, ln_1mu, ln_u + ln_1mu, pc))
        j += 1
    _node_cache[level] = out
    return out


def _tanh_sinh_power(g, s_minus_1: complex, tol: float, budget: int):
    """integral_0^1 u^(s-1) g(u) du.

    Returns (value, err_estimate, evals, exhausted).  g must be smooth and
    bounded on [0, 1]; the singular endpoint factor is folded into the
    weight in log space.
    """
    evals = 0
    prev = None
    value = 0.0 + 0.0j
    delta = math.inf
    abs_acc = 0.0
    exhausted = False
    for level in range(_MAX_LEVEL + 1):
        h = 1.0 / (1 << level)
        total = 0.0 + 0.0j
        abs_acc = 0.0
        small_run = 0
        cutoff = 1e-18
        for u, ln_u, ln_w, pc in _nodes(level):
            expo = s_minus_1 * ln_u + ln_w
            if expo.real < -745.0:
                term = 0.0 + 0.0j
            else:
                term = cmath.exp(expo) * (pc * h) * g(u)
            evals += 1
            total += term
            mag = abs(term)
            abs_acc += mag
            if mag < cutoff * (abs_acc + 1e-300):
                small_run += 1
                if small_run >= 4:
                    break
            else:
                small_run = 0
            if evals >= budget:
                exhausted = True
                break
        value = total
        if prev is not None:
            delta = abs(value - prev)
            if delta <= tol:
                break
        if exhausted:
            break
        prev = value
    floor = abs_acc * 2.0 ** -50
    base = delta if math.isfinite(delta) else abs(value)
    err = base + floor
    if exhausted:
        err = 8.0 * err + abs(value) * 1e-6  # inflated: budget ran out
    return value, err, evals, exhausted


def integrate_L(family: Family, n: int, s, ctx: PrecisionContext = PrecisionContext(),
                tol_abs: float | None = None, budget: int = EVALUATION_BUDGET) -> QuadratureResult:
    """Quadrature value of L_n(s) inside the convergence window.

    The absolute error estimate targets max(1e-12, target_rel_err * |value|)
    unless ``tol_abs`` overrides it.  The evaluation budget caps integrand
    calls; exceeding it returns the best estimate with an inflated bound.
    """
    sc = _coerce_complex(s)
    lo, hi = convergence_window(family, n)
    if not (lo < sc.real < hi):
        raise DomainError(
            f"Re(s) = {sc.real} outside convergence window ({lo}, {hi}) "
            f"for family {family.value}, n = {n}"
        )
    # The post-condition allows max(1e-12, target_rel_err * |value|); aiming
    # at the 1e-12 floor is always at least as tight.
    tol = 1e-12 if tol_abs is None else tol_abs

    if family is Family.HASSE:
        def g1(u, _n=n):
            return 1.0 / kernel_value(Family.HASSE, _n, u) if u > 0 else 1.0 / math.factorial(_n + 1)

        def g2(u, _n=n):
            p = 1.0
            for j in range(1, _n + 2):
                p *= 1.0 + j * u
            return 1.0 / p

        beta = complex(n + 1) - sc
    else:
        def g1(u, _n=n):
            if u > 0:
                return 1.0 / kernel_value(Family.HSTAR, _n, u)
            return 1.0 / math.factorial(_n) ** 2

        def g2(u, _n=n):
            p = 1.0
            u2 = u * u
            for k in range(1, _n + 1):
                p *= 1.0 + k * k * u2
            return 1.0 / p

        beta = complex(2 * n) - sc

    half = budget // 2
    v1, e1, c1, _ = _tanh_sinh_power(g1, sc - 1.0, tol / 2, half)
    v2, e2, c2, _ = _tanh_sinh_power(g2, beta - 1.0, tol / 2, half)
    value = v1 + v2
    return QuadratureResult(ComplexPoint(value.real, value.imag), e1 + e2, c1 + c2)


# ---------------------------------------------------------------------------
# closed form with guarded pole-free limits
# ---------------------------------------------------------------------------

def _pole_free_points(family: Family, n: int) -> set[int]:
    """Integers inside the window where the finite-sum zero cancels the
    sine pole: s = 1..n (HASSE), s = 2, 4, ..., 2n-2 (HSTAR)."""
    if family is Family.HASSE:
        return set(range(1, n + 1))
    return set(range(2, 2 * n - 1, 2))


def _nearest_sine_pole(family: Family, sc: complex) -> complex:
    if family is Family.HASSE:
        return complex(round(sc.real), 0.0)
    return complex(2 * round(sc.real / 2), 0.0)


def _limit_expansion(family: Family, n: int, s0: int, eps: complex,
                     ctx: PrecisionContext) -> complex:
    """Three-term expansion of the 0/0 ratio around pole-free point s0."""
    # finite-sum base point, sine frequency, sign index, scale mult / m!
    if family is Family.HASSE:
        w0, freq, sign_index, mult, m = 1 - s0, math.pi, s0, 1.0, n
    else:
        w0, freq, sign_index, mult, m = -s0, math.pi / 2.0, s0 // 2, 2.0, 2 * n
    spec = FiniteEtaSpec(family, n)
    d1, d2, d3 = (derivative(spec, complex(w0), ctx, order=k).value.to_complex()
                  for k in (1, 2, 3))
    num = -d1 + (eps / 2) * d2 - (eps * eps / 6) * d3
    sine_corr = 1.0 + (freq * eps) ** 2 / 6.0
    sign = -1.0 if sign_index % 2 else 1.0
    return sign * mult * num * sine_corr / math.factorial(m)


def rhs_closed_form(family: Family, n: int, s, ctx: PrecisionContext = PrecisionContext()) -> ComplexPoint:
    """Closed form of L_n(s); takes the finite limit at pole-free points.

    Raises PoleError (with the nearest pole) inside the guard radius of a
    genuine pole of the sine prefactor.
    """
    if family is Family.HSTAR and n < 1:
        raise DomainError("HSTAR requires n >= 1")
    sc = _coerce_complex(s)
    pole = _nearest_sine_pole(family, sc)
    dist = abs(sc - pole)
    if dist < POLE_GUARD_RADIUS:
        s0 = int(pole.real)
        if s0 in _pole_free_points(family, n):
            v = _limit_expansion(family, n, s0, sc - pole, ctx)
            return ComplexPoint(v.real, v.imag)
        raise PoleError(
            f"closed form has a genuine pole at s = {s0} "
            f"(family {family.value}, n = {n})", location=pole,
        )
    spec = FiniteEtaSpec(family, n)
    if family is Family.HASSE:
        eta = evaluate(spec, complex(1) - sc, ctx).value.to_complex()
        v = math.pi / cmath.sin(math.pi * sc) * eta / math.factorial(n)
    else:
        zh = evaluate(spec, -sc, ctx).value.to_complex()
        v = math.pi / cmath.sin(math.pi * sc / 2.0) * zh / math.factorial(2 * n)
    return ComplexPoint(v.real, v.imag)


def verify_identity(family: Family, n: int, s, ctx: PrecisionContext = PrecisionContext(),
                    budget: int = EVALUATION_BUDGET) -> IdentityResidual:
    """Residual between the quadrature and the closed form at one point.

    Identity failures are reported in the residual, never raised.  Points
    inside a pole-guard annulus are marked skipped (the closed form there
    is a 0/0 limit, still computed when possible, but the point does not
    count toward a sweep).
    """
    sc = _coerce_complex(s)
    lhs = integrate_L(family, n, sc, ctx, budget=budget)
    pole = _nearest_sine_pole(family, sc)
    dist = abs(sc - pole)
    skipped = False
    reason = None
    if dist < POLE_GUARD_RADIUS:
        skipped = True
        s0 = int(pole.real)
        if s0 in _pole_free_points(family, n):
            reason = f"inside pole-guard annulus of pole-free point s = {s0} (0/0 limit)"
        else:
            reason = f"inside pole-guard radius of genuine pole at s = {s0}"
            return IdentityResidual(lhs.value, None, math.inf, True, reason)
    rhs = rhs_closed_form(family, n, sc, ctx)
    diff = abs(lhs.value.to_complex() - rhs.to_complex())
    residual = diff / max(1.0, abs(rhs.to_complex()))
    return IdentityResidual(lhs.value, rhs, residual, skipped, reason)
