"""Kernel integrals L_n(s) and the closed-form identities they satisfy.

Both finite families come from one construction over the bases b of
their finite sum (``FiniteEtaSpec.bases``) and a pole spacing q:

    kernel(x)    = prod_b (x^q + b^q)
    L_n(s)       = integral_0^infty x^(s-1) / kernel(x) dx,  0 < Re(s) < q * #bases
    closed form  = pi / sin(pi s / q) * eta(w(s)) / m!

    HASSE:  q = 1, b = 1..n+1, w(s) = 1 - s, m = n    ((x+1)...(x+n+1))
    HSTAR:  q = 2, b = 1..n,   w(s) = -s,    m = 2n   ((x^2+1)...(x^2+n^2))

where eta is the family's finite sum from :mod:`eta_forge.finite_eta`.
``_describe`` is the only place that tells the two families apart.

Quadrature scheme: split the integral at x = 1, substitute x -> 1/x on
the outer piece (which turns it into another endpoint-singular integral
over (0, 1] with integrand u^(q #bases - s - 1) / prod_b (1 + b^q u^q)),
and apply tanh-sinh (double exponential) quadrature to each piece.  The
singular factor u^(s-1) is evaluated in log space so that small Re(s)
neither overflows nor loses the oscillatory phase.

The sine poles are the multiples of q.  Those strictly inside the window
are pole-free points: the finite sum vanishes there and cancels the pole.
Inside a guard radius of 1e-3 around one of them the closed form is 0/0
and is evaluated by a three-term local expansion of the finite sum
against the sine factor.  Near any other multiple of q the sine pole is
genuine and a PoleError is raised.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConvergenceError, DomainError, PoleError, RangeError
from .finite_eta import Family, FiniteEtaSpec, derivative, evaluate
from .numerics import ComplexPoint, PrecisionContext, _coerce_complex, _fast_only

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
    abs_err_estimate: float  # >= 0
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
    residual: float            # |lhs - rhs| / max(1, |rhs|); inf when rhs is None
    skipped: bool = False
    reason: str | None = None


@dataclass(frozen=True)
class _KernelFamily:
    """One finite family as the kernel, window and closed form see it."""

    spec: FiniteEtaSpec
    q: int                                  # pole spacing, the power of x and b
    powers: tuple[int, ...]                 # b^q for each base b, exact
    argument: Callable[[complex], complex]  # finite-sum argument w(s)
    m: int                                  # the closed form divides by m!

    @property
    def window(self) -> tuple[float, float]:
        return (0.0, float(self.q * len(self.powers)))


def _describe(family: Family, n: int) -> _KernelFamily:
    """The one place that tells the families apart; FiniteEtaSpec checks n."""
    spec = FiniteEtaSpec(family, n)
    if family is Family.HASSE:
        q, argument, m = 1, (lambda w: complex(1) - w), n
    else:
        q, argument, m = 2, operator.neg, 2 * n
    return _KernelFamily(spec, q, tuple(b ** q for b in spec.bases), argument, m)


def _power(x: float, q: int) -> float:
    """x^q as a product, so x^2 rounds once like x * x (pow may not)."""
    return x * x if q == 2 else x


def _kernel(k: _KernelFamily, x: float) -> float:
    xq = _power(x, k.q)
    p = 1.0
    for bq in k.powers:
        p *= xq + bq
    if math.isinf(p):
        raise RangeError(f"kernel overflow at x={x}, n={k.spec.n}")
    return p


def kernel_value(family: Family, n: int, x: float) -> float:
    """Kernel at real x > 0, evaluated as the factored product."""
    if not x > 0:
        raise DomainError(f"kernel argument must be positive, got {x}")
    return _kernel(_describe(family, n), x)


def convergence_window(family: Family, n: int) -> tuple[float, float]:
    return _describe(family, n).window


# ---------------------------------------------------------------------------
# tanh-sinh quadrature on (0, 1) for integrands u^(s-1) * g(u)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _nodes(level: int) -> tuple[tuple[float, float, float, float], ...]:
    """Nodes ordered center-outward: (u, ln_u, ln_u + ln(1-u), pi*cosh t)."""
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
    return tuple(out)


def _tanh_sinh_power(g, s_minus_1: complex, tol: float, budget: int):
    """integral_0^1 u^(s-1) g(u) du.

    Returns (value, err_estimate, evals); evals reaches ``budget`` only
    when the budget ran out.  g must be smooth and bounded on [0, 1]; the
    singular endpoint factor is folded into the weight in log space.
    """
    evals = 0
    prev = None
    value = 0.0 + 0.0j
    delta = math.inf
    abs_acc = 0.0
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
                break
        value = total
        if prev is not None:
            delta = abs(value - prev)
        if delta <= tol or evals >= budget:
            break
        prev = value
    floor = abs_acc * 2.0 ** -50
    base = delta if math.isfinite(delta) else abs(value)
    return value, base + floor, evals


def integrate_L(family: Family, n: int, s, ctx: PrecisionContext = PrecisionContext(),
                tol_abs: float | None = None, budget: int = EVALUATION_BUDGET) -> QuadratureResult:
    """Quadrature value of L_n(s) inside the convergence window.

    The absolute error estimate targets max(1e-12, target_rel_err * |value|)
    unless ``tol_abs`` overrides it.  The evaluation budget caps integrand
    calls; when it runs out, ConvergenceError carries the estimate reached
    (``best``, a QuadratureResult).
    Double precision only: an extended context raises DomainError.
    """
    _fast_only(ctx, "integrate_L")
    sc = _coerce_complex(s)
    k = _describe(family, n)
    lo, hi = k.window
    if not (lo < sc.real < hi):
        raise DomainError(
            f"Re(s) = {sc.real} outside convergence window ({lo}, {hi}) "
            f"for family {family.value}, n = {n}"
        )
    # The post-condition allows max(1e-12, target_rel_err * |value|); aiming
    # at the 1e-12 floor is always at least as tight.
    tol = 1e-12 if tol_abs is None else tol_abs

    def g1(u):  # 1 / kernel(u); at u = 0 the exact product of the b^q
        return 1.0 / _kernel(k, u) if u > 0 else 1.0 / math.prod(k.powers)

    def g2(u):  # u^(q #bases) / kernel(1/u) = 1 / prod_b (1 + b^q u^q)
        uq = _power(u, k.q)
        p = 1.0
        for bq in k.powers:
            p *= 1.0 + bq * uq
        return 1.0 / p

    beta = complex(hi) - sc
    half = budget // 2
    v1, e1, c1 = _tanh_sinh_power(g1, sc - 1.0, tol / 2, half)
    v2, e2, c2 = _tanh_sinh_power(g2, beta - 1.0, tol / 2, half)
    value = v1 + v2
    result = QuadratureResult(ComplexPoint(value.real, value.imag), e1 + e2, c1 + c2)
    if max(c1, c2) >= half:
        raise ConvergenceError(f"L_n(s) at s={sc}: the budget of {budget} evaluations ran out",
                               best=result)
    return result


# ---------------------------------------------------------------------------
# closed form with guarded pole-free limits
# ---------------------------------------------------------------------------

def _nearest_sine_pole(k: _KernelFamily, sc: complex) -> complex:
    return complex(k.q * round(sc.real / k.q), 0.0)


def _limit_expansion(k: _KernelFamily, s0: int, eps: complex, ctx: PrecisionContext) -> complex:
    """Three-term expansion of the 0/0 ratio around pole-free point s0."""
    d1, d2, d3 = (derivative(k.spec, complex(k.argument(s0)), ctx, order=j).value.to_complex()
                  for j in (1, 2, 3))
    num = -d1 + (eps / 2) * d2 - (eps * eps / 6) * d3
    sine_corr = 1.0 + (math.pi / k.q * eps) ** 2 / 6.0
    sign = -1.0 if (s0 // k.q) % 2 else 1.0
    return sign * float(k.q) * num * sine_corr / math.factorial(k.m)


def rhs_closed_form(family: Family, n: int, s, ctx: PrecisionContext = PrecisionContext()) -> ComplexPoint:
    """Closed form of L_n(s); takes the finite limit at pole-free points.

    Raises PoleError (with the nearest pole) inside the guard radius of a
    genuine pole of the sine prefactor.  Double precision only: an extended
    context raises DomainError.
    """
    _fast_only(ctx, "rhs_closed_form")
    k = _describe(family, n)
    sc = _coerce_complex(s)
    pole = _nearest_sine_pole(k, sc)
    if abs(sc - pole) < POLE_GUARD_RADIUS:
        s0 = int(pole.real)
        if 0 < s0 < k.window[1]:
            v = _limit_expansion(k, s0, sc - pole, ctx)
            return ComplexPoint(v.real, v.imag)
        raise PoleError(
            f"closed form has a genuine pole at s = {s0} "
            f"(family {family.value}, n = {n})", location=pole,
        )
    eta = evaluate(k.spec, k.argument(sc), ctx).value.to_complex()
    phase = math.pi * sc
    if k.q != 1:  # a complex division by 1 would turn inf + iy into inf + i nan
        phase /= k.q
    try:
        v = math.pi / cmath.sin(phase) * eta / math.factorial(k.m)
    except (ValueError, OverflowError):  # pi s beyond double range
        raise RangeError(f"the closed form's sine factor is out of double range at s = {sc}") from None
    return ComplexPoint(v.real, v.imag)


def verify_identity(family: Family, n: int, s, ctx: PrecisionContext = PrecisionContext(),
                    budget: int = EVALUATION_BUDGET) -> IdentityResidual:
    """Residual between the quadrature and the closed form at one point.

    Identity failures are reported in the residual, never raised.  Points
    inside a pole-guard annulus are marked skipped (the closed form there
    is a 0/0 limit, still computed when possible, but the point does not
    count toward a sweep).  Near a genuine pole rhs_closed_form raises
    PoleError; the point is skipped with rhs None and residual inf.
    """
    sc = _coerce_complex(s)
    lhs = integrate_L(family, n, sc, ctx, budget=budget)
    try:
        rhs = rhs_closed_form(family, n, sc, ctx)
    except PoleError as exc:
        reason = f"inside pole-guard radius of genuine pole at s = {int(exc.location.real)}"
        return IdentityResidual(lhs.value, None, math.inf, True, reason)
    pole = _nearest_sine_pole(_describe(family, n), sc)
    skipped = abs(sc - pole) < POLE_GUARD_RADIUS
    reason = (f"inside pole-guard annulus of pole-free point s = {int(pole.real)} (0/0 limit)"
              if skipped else None)
    diff = abs(lhs.value.to_complex() - rhs.to_complex())
    residual = diff / max(1.0, abs(rhs.to_complex()))
    return IdentityResidual(lhs.value, rhs, residual, skipped, reason)
