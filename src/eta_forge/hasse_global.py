"""Globally convergent alternating zeta (eta) series, the zeta function it
induces, the reflection identity residual, and Newton refinement of
critical-line zeros.

The global eta is summed as

    eta(s) = sum_{n>=0} 2^(-(n+1)) * eta_n(s)

where eta_n are the HASSE finite sums.  The series converges for every s;
the weights 2^(-(n+1)) also cancel the binomial growth of the terms, so
the weighted fast-tier rounding error stays near machine epsilon even
though an individual eta_n loses ~n bits to cancellation.  zeta is then
eta(s) / (1 - 2^(1-s)).

Stopping rule: stop once three consecutive weighted terms fall below
max(target_rel_err * |partial sum|, per-term noise floor); the noise
floor is needed because at a zero of eta the relative test alone can
never trigger.  The claimed tail bound is eight times the last term
magnitude plus the accumulated rounding bound.

Fast-tier validity envelope: |Im s| <= 60.  Beyond that the guard digits
erode and an extended-precision context is required.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath as mp

from .errors import ConvergenceError, DomainError, SingularPrefactorError
from .finite_eta import Family, FiniteEtaSpec, _eval_extended, _eval_fast
from .numerics import ComplexPoint, PrecisionContext, _coerce_complex, cgamma, csin

__all__ = [
    "GlobalEvalResult",
    "ZeroRecord",
    "eta_global",
    "zeta_global",
    "functional_equation_residual",
    "refine_zero",
    "SERIES_CAP",
    "CAPTURE_THRESHOLD",
]

SERIES_CAP = 400
FAST_T_ENVELOPE = 60.0
CAPTURE_THRESHOLD = 0.5   # |eta| at the Newton start must be below this
NEWTON_MAX_STEP = 0.5
NEWTON_MAX_ITER = 50
CAPTURE_RADIUS = 1.0      # escape beyond |t - t0| > this aborts
REFINE_TOL = 1e-10
EXCLUSION_RADIUS = 1e-6   # around zeros of the prefactor 1 - 2^(1-s)
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class GlobalEvalResult:
    value: ComplexPoint
    terms_used: int
    tail_bound: float


@dataclass(frozen=True)
class ZeroRecord:
    t: float             # ordinate on the critical line
    residual_eta: float  # |eta(1/2 + i t)| after refinement
    iterations: int


def _check_envelope(sc: complex, ctx: PrecisionContext):
    if ctx.is_fast and abs(sc.imag) > FAST_T_ENVELOPE:
        raise DomainError(
            f"|Im s| = {abs(sc.imag)} beyond the fast-tier envelope {FAST_T_ENVELOPE}; "
            "use an extended PrecisionContext"
        )


def _series(s, ctx: PrecisionContext, order: int = 0,
            series_cap: int = SERIES_CAP) -> GlobalEvalResult:
    sc = _coerce_complex(s)
    _check_envelope(sc, ctx)
    tol = ctx.target_rel_err
    with mp.workprec(ctx.working_bits + 16):
        if ctx.is_fast:
            def finite(spec):
                return _eval_fast(spec, sc, order)
            total, last, unit = 0.0 + 0.0j, 0.0, 2.0 ** -53
        else:
            # per-term guard bits cover the weighted cancellation
            sm = mp.mpc(sc)
            neg_sigma = max(0.0, -sc.real)

            def finite(spec):
                bits = ctx.working_bits + 48 + int(neg_sigma * math.log2(spec.n + 2))
                return _eval_extended(spec, sm, bits, order)
            total, last, unit = mp.mpc(0), mp.mpf(0), 0.0
        errsum = 0.0
        run = 0
        for n in range(series_cap + 1):
            v, _max_term, e = finite(FiniteEtaSpec(Family.HASSE, n))
            w = 0.5 ** (n + 1)  # exact in a double while n < 1074
            term = w * v
            total += term
            werr = w * e
            errsum += werr
            rounding = abs(total) * unit  # zero on the extended tier
            last = abs(term)
            if last <= max(tol * abs(total), werr + rounding):
                run += 1
                if run == 3:
                    return GlobalEvalResult(ComplexPoint(total.real, total.imag), n + 1,
                                            float(8 * last) + errsum + float(8 * rounding))
            else:
                run = 0
        raise ConvergenceError(
            f"series cap {series_cap} reached without meeting the stopping rule",
            best=GlobalEvalResult(ComplexPoint(total.real, total.imag),
                                  series_cap + 1, float(8 * last) + errsum))


def eta_global(s, ctx: PrecisionContext = PrecisionContext(),
               series_cap: int = SERIES_CAP) -> GlobalEvalResult:
    """Partial sum of the weighted series with its claimed tail bound."""
    return _series(s, ctx, order=0, series_cap=series_cap)


def _eta_global_d1(s, ctx: PrecisionContext) -> GlobalEvalResult:
    """Termwise-differentiated series (d/ds of every finite sum)."""
    return _series(s, ctx, order=1)


def _prefactor_center(sc: complex) -> complex | None:
    """Nearest zero of 1 - 2^(1-s), i.e. s = 1 + 2 pi i k / ln 2."""
    if abs(sc.real - 1.0) > EXCLUSION_RADIUS:
        return None
    k = round(sc.imag * _LN2 / (2.0 * math.pi))
    center = complex(1.0, 2.0 * math.pi * k / _LN2)
    return center if abs(sc - center) < EXCLUSION_RADIUS else None


def zeta_global(s, ctx: PrecisionContext = PrecisionContext(),
                series_cap: int = SERIES_CAP) -> GlobalEvalResult:
    """zeta via eta(s) / (1 - 2^(1-s)).

    Refuses the exclusion disks (radius 1e-6) around the prefactor zeros
    s = 1 and s = 1 + 2 pi i k / ln 2: no removable-singularity limits
    are attempted there.
    """
    sc = _coerce_complex(s)
    center = _prefactor_center(sc)
    if center is not None:
        raise SingularPrefactorError(
            f"s = {sc} lies inside the exclusion disk around the prefactor zero "
            f"at {center}", center=center)
    eta = eta_global(sc, ctx, series_cap=series_cap)
    if ctx.is_fast:
        pref = 1.0 - cmath.exp((1.0 - sc) * _LN2)
        v = eta.value.to_complex() / pref
        tail = eta.tail_bound / abs(pref) + abs(v) * 2.4e-16 * (3.0 + abs(1.0 - sc))
        return GlobalEvalResult(ComplexPoint(v.real, v.imag), eta.terms_used, tail)
    with mp.workprec(ctx.working_bits + 8):
        pref = 1 - mp.exp((1 - mp.mpc(sc)) * mp.log(2))
        v = eta.value.to_mpc() / pref
        tail = eta.tail_bound / float(abs(pref)) + float(abs(v)) * float(mp.mpf(2) ** (4 - ctx.working_bits))
        return GlobalEvalResult(ComplexPoint(mp.mpf(v.real), mp.mpf(v.imag)),
                                eta.terms_used, tail)


# ---------------------------------------------------------------------------
# reflection identity residual
# ---------------------------------------------------------------------------

def functional_equation_residual(s, ctx: PrecisionContext = PrecisionContext()) -> float:
    """Relative residual of zeta(s)/zeta(1-s) against
    (2 pi)^(s-1) * 2 sin(pi s / 2) * Gamma(1 - s).

    Near even integers the right side is evaluated in the reflected form
    (2 pi)^(s-1) * pi / (cos(pi s / 2) * Gamma(s)), which is the same
    meromorphic function but avoids the 0 * inf product of the displayed
    form when Gamma(1-s) sits on a pole that the sine zero cancels.
    """
    sc = _coerce_complex(s)
    z_s = zeta_global(sc, ctx)
    z_1ms = zeta_global(1.0 - sc, ctx)
    z1 = z_1ms.value.to_complex()
    if abs(z1) < 1e-8:
        raise DomainError(
            f"zeta(1-s) = {z1} within 1e-8 of zero at s = {sc}; ratio undefined")
    lhs = z_s.value.to_complex() / z1
    two_pi = 2.0 * math.pi
    nearest_even = 2 * round(sc.real / 2.0)
    if abs(sc - nearest_even) < 0.25:
        gam = cgamma(ComplexPoint(sc.real, sc.imag), ctx).to_complex()
        cosv = cmath.cos(math.pi * sc / 2.0)
        rhs = two_pi ** (sc - 1.0) * math.pi / (cosv * gam)
    else:
        gam = cgamma(ComplexPoint(1.0 - sc.real, -sc.imag), ctx).to_complex()
        sinv = csin(ComplexPoint(sc.real * math.pi / 2.0, sc.imag * math.pi / 2.0), ctx).to_complex()
        rhs = two_pi ** (sc - 1.0) * 2.0 * sinv * gam
    if abs(rhs) < 1e-280:
        raise DomainError("right side vanishes; relative residual undefined")
    return abs(lhs - rhs) / abs(rhs)


# ---------------------------------------------------------------------------
# Newton refinement of critical-line zeros
# ---------------------------------------------------------------------------

def refine_zero(t_initial: float, ctx: PrecisionContext = PrecisionContext()) -> ZeroRecord:
    """Newton-refine a critical-line ordinate from a capture point.

    Requires |eta(1/2 + i t_initial)| <= 0.5 (ordinate already near a
    zero).  Each step is the complex Newton update for t -> eta(1/2+it),
    clamped to |dt| <= 0.5; escaping |t - t0| > 1 or failing to reach
    residual 1e-10 in 50 iterations raises ConvergenceError.
    """
    t0 = float(t_initial)
    start = eta_global(complex(0.5, t0), ctx).value.to_complex()
    if abs(start) > CAPTURE_THRESHOLD:
        raise DomainError(
            f"|eta(1/2 + {t0}i)| = {abs(start):.3g} above capture threshold "
            f"{CAPTURE_THRESHOLD}; start closer to a zero")
    t = complex(t0, 0.0)
    iterations = 0
    for _ in range(NEWTON_MAX_ITER):
        s = complex(0.5 - t.imag, t.real)  # s = 1/2 + i t with complex t
        g = eta_global(s, ctx).value.to_complex()
        gp = _eta_global_d1(s, ctx).value.to_complex()
        if gp == 0:
            raise ConvergenceError("derivative vanished during refinement", best=t.real)
        dt = 1j * g / gp
        if abs(dt) > NEWTON_MAX_STEP:
            dt *= NEWTON_MAX_STEP / abs(dt)
        t += dt
        iterations += 1
        if abs(t.real - t0) > CAPTURE_RADIUS:
            raise ConvergenceError(
                f"escaped capture interval around t0 = {t0} (reached {t.real})",
                best=t.real)
        if abs(dt) < 1e-13 * max(1.0, abs(t)):
            break
    t_ref = t.real
    residual = abs(eta_global(complex(0.5, t_ref), ctx).value.to_complex())
    if residual > REFINE_TOL:
        raise ConvergenceError(
            f"no convergence: residual {residual:.3g} above {REFINE_TOL} "
            f"after {iterations} iterations", best=t_ref)
    return ZeroRecord(t=t_ref, residual_eta=residual, iterations=iterations)
