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
neither overflows nor loses the oscillatory phase.  The levels are nested
(Takahasi and Mori 1974; Bailey, Jeyabalan and Li 2005): level L at
spacing 2^-L sums only the nodes it adds to level L-1 (``_nodes``), and
the s-independent factor pi cosh(t) g(u) of each node is one table per
kernel, piece and level (``_weights``), so a node costs one complex exp
and one multiply per s.  When the level cap (or the budget) ends a piece
with the error estimate above the target, integrate_L refuses.

The sine poles are the multiples of q.  Those strictly inside the window
are pole-free points s = qj: the finite sum vanishes there and cancels the
pole.  The sine is reduced exactly by its nearest pole
(``numerics._sin_pi``), so next to a pole-free point the closed form keeps
its relative accuracy while both factors vanish, and at the point itself it
is the limit -q (-1)^j eta'(w(qj)) / m!.  Within a guard radius of 1e-3 of
any other multiple of q the sine pole is genuine and a PoleError is raised.
"""

from __future__ import annotations

import cmath
import math
import operator
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial

from .errors import ConvergenceError, DomainError, PoleError, RangeError
from .finite_eta import Family, FiniteEtaSpec, derivative, evaluate
from .numerics import ComplexPoint, PrecisionContext, _coerce_complex, _fast_only, _sin_pi

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
# nested tanh-sinh quadrature on (0, 1) for integrands u^(s-1) * g(u)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _nodes(level: int) -> tuple[array, array, array]:
    """The nodes ``level`` adds, t = j 2^-level for every j at level 0 and odd j
    above, ordered center-outward: (ln u, ln u + ln(1-u), pi cosh t) as arrays."""
    h = 1.0 / (1 << level)
    ln_us, ln_ws, pcs = array("d"), array("d"), array("d")
    j = 0 if level == 0 else 1
    while j == 0 or j * h <= _T_CUTOFF:
        t = j * h
        m = math.pi * math.sinh(t)
        # u = 1/(1+e^-m); computed through logs so tiny u keeps full accuracy
        ln_u = -math.log1p(math.exp(-m)) if m < 700 else -math.exp(-m)
        ln_1mu = -m + ln_u
        for a in ((ln_u, ln_1mu) if j else (ln_u,)):  # the node at -t swaps u and 1-u
            ln_us.append(a)
            ln_ws.append(ln_u + ln_1mu)
            pcs.append(math.pi * math.cosh(t))
        j += 1 if level == 0 else 2
    return ln_us, ln_ws, pcs


@lru_cache(maxsize=512)
def _weights(family: Family, n: int, outer: bool, level: int) -> array:
    """pi cosh(t) g(u) at the nodes of ``_nodes(level)``, for one kernel's piece:
    g(u) = 1 / kernel(u) inside (at u = 0 the exact product of the b^q), and
    g(u) = u^(q #bases) / kernel(1/u) = 1 / prod_b (1 + b^q u^q) outside."""
    k = _describe(family, n)
    ln_us, _, pcs = _nodes(level)
    out = array("d")
    for ln_u, pc in zip(ln_us, pcs):
        u = math.exp(ln_u)
        if outer:
            out.append(pc / math.prod(1.0 + bq * _power(u, k.q) for bq in k.powers))
        else:
            out.append(pc / (_kernel(k, u) if u > 0 else math.prod(k.powers)))
    return out


def _tanh_sinh_power(weights, s: complex, tol: float, budget: int):
    """integral_0^1 u^(s-1) g(u) du, where ``weights(level)`` is the table of
    pi cosh(t) g(u) at the nodes of ``_nodes(level)``; g smooth and bounded.

    Nested levels (module docstring): T_L is 2^-L times the running sum of
    every term so far, and a term is exp((s-1) ln u + ln(u(1-u))) times its
    table entry.  Each level's outward run stops after four terms below 1e-18
    of the running sum of |terms|; the levels stop once |T_L - T_(L-1)| <= tol,
    at the budget, or at _MAX_LEVEL.  Returns (value, err_estimate, evals): the
    last change plus 2^-50 h sum |terms| plus g(u_0) u_0^Re(s) / |s| for the piece below
    the last node u_0, and the terms summed, which reach ``budget`` only when it ran out.
    """
    evals, total, abs_acc, delta, s_minus_1 = 0, 0j, 0.0, math.inf, s - 1.0
    for level in range(_MAX_LEVEL + 1):
        ln_us, ln_ws, _ = _nodes(level)
        small_run = 0
        for ln_u, ln_w, w in zip(ln_us, ln_ws, weights(level)):
            expo = s_minus_1 * ln_u + ln_w
            term = cmath.exp(expo) * w if expo.real >= -745.0 else 0j
            evals += 1
            total += term
            mag = abs(term)
            abs_acc += mag
            if mag < 1e-18 * (abs_acc + 1e-300):
                small_run += 1
                if small_run >= 4:
                    break
            else:
                small_run = 0
            if evals >= budget:
                break
        value = total / (1 << level)
        if level:
            delta = abs(value - prev)
        if delta <= tol or evals >= budget:
            break
        prev = value
    base = delta if math.isfinite(delta) else abs(value)
    ln_us, _, pcs = _nodes(0)  # the last node, t = -_T_CUTOFF: least u
    cut = weights(0)[-1] / pcs[-1] * math.exp(s.real * ln_us[-1]) / abs(s)
    return value, base + abs_acc / (1 << level) * 2.0 ** -50 + cut, evals


def integrate_L(family: Family, n: int, s, ctx: PrecisionContext = PrecisionContext(),
                tol_abs: float | None = None, budget: int = EVALUATION_BUDGET) -> QuadratureResult:
    """Quadrature value of L_n(s) inside the convergence window.

    The absolute error estimate meets max(tol_abs or 1e-12, target_rel_err *
    |value|), or ConvergenceError carries the result reached (``best``, a
    QuadratureResult): when the evaluation budget, which caps the integrand
    terms summed, runs out, or when the estimate misses that target, as when
    the level cap stops a piece before its stopping rule.
    Double precision only: an extended context raises DomainError.
    """
    _fast_only(ctx, "integrate_L")
    sc, (lo, hi) = _coerce_complex(s), _describe(family, n).window
    if not (lo < sc.real < hi):
        raise DomainError(
            f"Re(s) = {sc.real} outside convergence window ({lo}, {hi}) "
            f"for family {family.value}, n = {n}"
        )
    if not math.isfinite(sc.imag * _nodes(0)[0][-1]):  # the phase at the least node, u ~ e^-1722
        raise RangeError(f"L_n(s) at s={sc}: the integrand's phase is beyond the double range")
    # The post-condition allows max(1e-12, target_rel_err * |value|); aiming
    # at the 1e-12 floor is always at least as tight.
    tol = 1e-12 if tol_abs is None else tol_abs
    half = budget // 2
    v1, e1, c1 = _tanh_sinh_power(partial(_weights, family, n, False), sc, tol / 2, half)
    v2, e2, c2 = _tanh_sinh_power(partial(_weights, family, n, True), complex(hi) - sc,
                                  tol / 2, half)
    value, err = v1 + v2, min(e1 + e2, 1e308)  # a cut past the doubles: |s| ~ 0
    result = QuadratureResult(ComplexPoint(value.real, value.imag), err, c1 + c2)
    if max(c1, c2) >= half:
        raise ConvergenceError(f"L_n(s) at s={sc}: the budget of {budget} evaluations ran out",
                               best=result)
    target = max(tol, ctx.target_rel_err * abs(value))
    if not err <= target:
        raise ConvergenceError(f"L_n(s) at s={sc}: the error estimate {err:.3g} is above "
                               f"the target {target:.3g}", best=result)
    return result


# ---------------------------------------------------------------------------
# closed form, with the limit at pole-free points
# ---------------------------------------------------------------------------

def _nearest_sine_pole(k: _KernelFamily, sc: complex) -> complex:
    return complex(k.q * round(sc.real / k.q), 0.0)


def rhs_closed_form(family: Family, n: int, s, ctx: PrecisionContext = PrecisionContext()) -> ComplexPoint:
    """Closed form of L_n(s); takes the finite limit at pole-free points.

    Raises PoleError (with the nearest pole) inside the guard radius of a genuine
    pole of the sine prefactor, and RangeError where the sine or m! leaves the doubles.
    Double precision only: an extended context raises DomainError.
    """
    _fast_only(ctx, "rhs_closed_form")
    k, sc = _describe(family, n), _coerce_complex(s)
    if k.m > 170:
        raise RangeError(f"the closed form's {k.m}! is beyond the double range")
    pole = _nearest_sine_pole(k, sc)
    if abs(sc - pole) < POLE_GUARD_RADIUS and not 0 < pole.real < k.window[1]:
        raise PoleError(f"closed form has a genuine pole at s = {int(pole.real)} "
                        f"(family {family.value}, n = {n})", location=pole)
    if sc == pole:  # the pole-free point s = qj: the limit -q (-1)^j eta'(w(qj))
        d = derivative(k.spec, k.argument(sc), ctx, order=1).value.to_complex()
        v = (k.q if int(pole.real) // k.q % 2 else -k.q) * d
    else:
        eta = evaluate(k.spec, k.argument(sc), ctx).value.to_complex()
        v = math.pi / _sin_pi(sc / k.q) * eta  # the sine leaves the doubles from |Im s| / q ~ 226
    v /= math.factorial(k.m)
    return ComplexPoint(v.real, v.imag)


def verify_identity(family: Family, n: int, s, ctx: PrecisionContext = PrecisionContext(),
                    budget: int = EVALUATION_BUDGET) -> IdentityResidual:
    """Residual between the quadrature and the closed form at one point.

    Identity failures are reported in the residual, never raised.  Points
    inside a pole-guard annulus are marked skipped (the closed form there
    is a 0/0 limit, still computed when possible, but the point does not
    count toward a sweep).  Near a genuine pole rhs_closed_form raises
    PoleError; the point is skipped with rhs None and residual inf, and lhs
    is the quadrature's value, or its ``best`` if integrate_L refused.
    """
    sc = _coerce_complex(s)
    refusal = None
    try:
        lhs = integrate_L(family, n, sc, ctx, budget=budget)
    except ConvergenceError as exc:  # refused unless a genuine pole skips the point
        lhs, refusal = exc.best, exc
    try:
        rhs = rhs_closed_form(family, n, sc, ctx)
    except PoleError as exc:
        reason = f"inside pole-guard radius of genuine pole at s = {int(exc.location.real)}"
        return IdentityResidual(lhs.value, None, math.inf, True, reason)
    if refusal is not None:
        raise refusal
    pole = _nearest_sine_pole(_describe(family, n), sc)
    skipped = abs(sc - pole) < POLE_GUARD_RADIUS
    reason = (f"inside pole-guard annulus of pole-free point s = {int(pole.real)} (0/0 limit)"
              if skipped else None)
    diff = abs(lhs.value.to_complex() - rhs.to_complex())
    residual = diff / max(1.0, abs(rhs.to_complex()))
    return IdentityResidual(lhs.value, rhs, residual, skipped, reason)
