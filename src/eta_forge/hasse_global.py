"""The zeta function by Euler-Maclaurin, eta = (1 - 2^(1-s)) zeta from it, the reflection
identity residual, and Newton refinement of critical-line zeros.

zeta, by Euler-Maclaurin (Edwards 1974, 6.4): H = sum_{n<N} n^-s + N^-s / 2 is one dot with
coefficients 2, ..., 2, 1 at scale 1/2 on one power table of :mod:`eta_forge.finite_eta` (n
transcendentals on the double table, one per prime base in big floats), plus N^-s from it times
D(s) = N/(s-1) + Q(s), Q = sum_{k<=K} B_2k/(2k)! s (s+1) ... (s+2k-2) N^(1-2k) (``_em_factor``);
wherever sigma + 2K + 1 > 0 the remainder is at most |s+2K+1| / (sigma+2K+1) times the first
omitted term, so this one sum serves the whole plane.  N + K is the length that ``_em_plan``
picks, the cap bounds and terms_used reports.

eta = P zeta, P = 1 - 2^(1-s) = 1 - 2 2^-s a two-term sum on the finite sums' ladder, whose
first rung reads zeta's own double table and which escalates near P's zeros 1 + 2 pi i k / ln 2,
where eta vanishes; the bound composes P's (tol/8 of |P|), zeta's (3 tol/4 of |zeta|) and the
product's rounding.  Within 1/2 of s = 1, where P cancels, P = g (s-1) instead, s - 1 exact and
g = P/(s-1) = ln 2 sum_j (-x)^j/(j+1)!, x = (s-1) ln 2.  Within 2^-wb of 1, where zeta's pole
term may leave the doubles, eta = g F is g within |g| |s-1|: F = (s-1) zeta = 1 + sum_n (-1)^n gamma_n
(s-1)^(n+1) / n!, gamma_0 = 0.577 and |gamma_n| <= 4 (n-1)! / pi^n (Berndt 1972), so |F - 1| <
|s-1| there, and eta(1) = ln 2.  At s = -m both are exact rationals, zeta(-m) = -B_(m+1) / (m+1)
from ``_ratios``, rounded once (in Python's int and Fraction arithmetic on the fast tier).

Ladder: each pass is one rung of :mod:`eta_forge.finite_eta` over the coefficients, scaled
exactly by 1/2, with s at full precision in big floats.  The fast tier accepts the double table
when remainder + rounding <= target, else takes big floats at the finite sums' first precision
(``_first_bits``, read off the double table), which is how Re s << 0 gets honest values; the
extended tier starts in big floats.  A length beyond the cap raises ConvergenceError (best: the
sum at the cap); s, values or fast-tier terms beyond the double range, 65536 bits, or Re s <=
-2 cap - 1 raise RangeError.  These alone bound the fast tier: on the line the cap ends it near
1/2 + 1500i.

Newton (``refine_zero``) runs over real t on a Taylor model of zeta about a point of the line:
the head's (``finite_eta._taylor``), with its bound, plus the Taylor coefficients of N^-s D(s)
(``_em_taylor``); its steps stay uncertified, and the final residual is certified off the last
model.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .errors import ConvergenceError, DomainError, RangeError, SingularPrefactorError
from .finite_eta import (_MAX_SUM_BITS, _FastPowers, _evaluate, _first_bits, _horner,
                         _line_newton, _more_bits, _rung, _taylor)
from .numerics import (ComplexPoint, PrecisionContext, _coerce_complex, _coerce_mpc, _cos, _count,
                       _fast_only, _mpmath, _sin, _workprec, cgamma)

mp = _mpmath(globals(), "from_man_exp", "mpc_add", "mpc_mul", "mpc_pos", "mpc_to_complex",
             "mpf_shift", "round_nearest", "to_int")

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
CAPTURE_THRESHOLD = 0.5   # |eta| at the Newton start must be below this
NEWTON_MAX_STEP = 0.5
CAPTURE_RADIUS = 1.0      # escape beyond |t - t0| > this aborts
REFINE_TOL = 1e-10
EXCLUSION_RADIUS = 1e-6   # around zeta's pole s = 1
_LN2, _LN_2PI = math.log(2.0), math.log(2.0 * math.pi)
_P = (1, -2)  # P(s) = 1 - 2^(1-s) as a sum over the bases 1 and 2


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


def _em_bounds(sc: complex, end: int):
    """(K, x, A) for each K < end with x = sigma + 2K + 1 > 0: Edwards' bound on the remainder at
    (N, K) is exp(A - x ln N), A = ln (|s (s+1) ... (s+2K)| |s+2K+1| / x) + ln |B_2K+2| / (2K+2)!,
    with |B_2j| / (2j)! = 2 zeta(2j) / (2 pi)^2j and ln zeta(2j) < 1/2."""
    tt, log = sc.imag * sc.imag, math.log
    prod = log(math.hypot(sc.real, sc.imag) or 5e-324)  # ln |s (s+1) ... (s+2K)|
    x, c = sc.real + 1, _LN2 + 0.5 - 2 * _LN_2PI  # x, and the Bernoulli factor's bound, at K = 0
    for k in range(end):
        if x > 0:  # tt / x / x: inf, not the NaN of inf / inf
            yield k, x, prod + 0.5 * math.log1p(tt / x / x) + c
        q = (x * x + tt) * ((x + 1) * (x + 1) + tt)  # a factor 0 in doubles is at most 2^-52 |s|
        prod, x, c = prod + (0.5 * log(q) if q else log(-sc.real / 2 ** 52)), x + 2, c - 2 * _LN_2PI


def _em_plan(sc: complex, goal: float, cap: int, m: int | None = None) -> tuple[int, int, float]:
    """(N + K, K, log bound) by ``_em_bounds``: the least N + K whose bound is within ``goal``
    (beyond cap + 1 if none is), or the split of N + K = m with the least bound; both are convex
    in K, so the scan stops past the least."""
    if max(0, math.floor(-(sc.real + 1) / 2) + 1) > cap:  # the least K with x > 0
        raise RangeError(f"s = {sc} needs more Euler-Maclaurin corrections than cap {cap}")
    log, exp, floor = math.log, math.exp, math.floor
    log_goal, best = (log(goal) if goal > 0.0 else -math.inf), None
    for k, x, a in _em_bounds(sc, m or cap + 2):
        n = m - k if m else 1 if a <= log_goal else floor(exp(min((a - log_goal) / x, 709))) + 1
        cost = a - x * log(n) if m else n + k
        if best and cost > best[0]:
            break
        if not best or cost < best[0]:
            best = (cost, n, k, a, x)
    _, n, k, a, x = best
    return n + k, k, a - x * log(n)


_ROW, _RATIOS = [0, 1], [None, (1, 12, 1 / 12)]  # the boustrophedon row ending in T_1; b_1 / b_0


def _ratios(k: int) -> list[tuple[int, int, float]]:
    """[None, r_1, ..., r_k, ...]: r_j = (p, q, p / q rounded) = b_j / b_(j-1), b_j = B_2j / (2j)!
    = (-1)^(j-1) 2j T_j / (4^j (4^j - 1) (2j)!) and b_0 = 1, from the tangent numbers T_j (Brent
    and Harvey 2011), the last entries of the odd rows of Seidel's boustrophedon, grown to k."""
    while len(_RATIOS) <= k:
        j, last = len(_RATIOS), _ROW[-1]  # last: T_(j-1)
        _ROW[:] = accumulate(reversed(list(accumulate(reversed(_ROW), initial=0))), initial=0)
        r = Fraction(-_ROW[-1] * (4 ** (j - 1) - 1), 8 * (j - 1) * last * (4 ** j - 1) * (2 * j - 1))
        _RATIOS.append((r.numerator, r.denominator, r.numerator / r.denominator))
    return _RATIOS


def _em_factor(s, sc: complex, n: int, k: int, bits: int | None):
    """(D, bound) of D(s) = n/(s-1) + sum_(j<=k) B_2j/(2j)! s (s+1) ... (s+2j-2) n^(1-2j), each term
    the last times (s+2j-3) (s+2j-2) / n^2 and r_j (``_ratios``).  In doubles (bits None), under 10
    roundings per term, 9 for n/(s-1) and one per sum: (12k + 16) units of sum |terms|.  Else in
    integers of u = 2^-bits, s and each product truncated (< sqrt 2 u): the error e in u grows by
    each factor's size and, for s's truncation, by sqrt 2 |T| (|T| bounded in doubles)."""
    ratios = _ratios(k)
    if bits is None:
        d = n / (s - 1)
        size, term = abs(d), s / n
        for j in range(1, k + 1):
            term *= ratios[j][2]
            d, size = d + term, size + abs(term)
            term = term * (s + (2 * j - 1)) * (s + 2 * j) / (n * n)
        return d, (12 * k + 16) * size * 2.0 ** -53
    one, grow, s = 1 << bits, 1.0 + 2.0 ** -40, _coerce_mpc(s)  # grow: doubles' sizes rounded up
    sr, si = (to_int(mpf_shift(v._mpf_, bits)) for v in (s.real, s.imag))
    den = (sr - one) ** 2 + si ** 2  # n / (s - 1) = n conj(s - 1) / |s - 1|^2
    dr, di = (n * (sr - one) << 2 * bits) // den, (-n * si << 2 * bits) // den
    size = float(abs(s - 1)) / grow  # rounded down; inf, not OverflowError, past doubles
    err = 2.0 * n / size / size + 2.0  # and s's truncation
    # T = s n, so that T_1 = T r_1 / n^2 as each later term is the last times its factors
    tr, ti, e, mag = sr * n, si * n, 1.5 * n, math.hypot(sc.real, sc.imag) * n * grow
    for j in range(1, k + 1):
        for c in (2 * j - 3, 2 * j - 2) if j > 1 else ():  # times s + c
            cr, size = sr + (c << bits), math.hypot(sc.real + c, sc.imag) * grow
            tr, ti = (tr * cr - ti * si) >> bits, (tr * si + ti * cr) >> bits
            e, mag = e * (size + 1.0) + 1.5 * mag + 1.5, mag * size
        p, q, r = ratios[j]
        tr, ti, size = tr * p // (q * n * n), ti * p // (q * n * n), abs(r) * grow / (n * n)
        e, mag = e * size + 1.5, mag * size
        dr, di, err = dr + tr, di + ti, err + e
    return (mp.make_mpc((from_man_exp(dr, -bits), from_man_exp(di, -bits))),
            math.ldexp(err, -bits) + 2.0 ** -1070)


def _series(s, ctx: PrecisionContext, series_cap: int = SERIES_CAP, floor: float = 0.0,
            powers: _FastPowers | None = None) -> GlobalEvalResult:
    """zeta by Euler-Maclaurin (module docstring) within target_rel_err * max(|value|, floor):
    ``floor`` 0 asks for a relative bound, 1 for an absolute one; a double table at s passed in
    ``powers`` takes the first rung."""
    sc, series_cap = _coerce_complex(s), _count(series_cap, "series_cap")
    tol, wb, neg = ctx.target_rel_err, ctx.working_bits, max(0.0, -sc.real)
    s_hi = sc if ctx.is_fast else _coerce_mpc(s)

    def longer(p):  # the plan p, or one term more than n
        return p if p[0] > n else _em_plan(sc, 0.0, series_cap, n + 1)

    n, k, log_rem = _em_plan(sc, 0.5 * tol * (floor or 1.0), series_cap)  # |value| guessed as 1
    # big floats start from terms up to n^neg and a value near 1
    bits = None if ctx.is_fast else wb + 16 + math.ceil((1 + neg) * math.log2(n))
    while True:
        m, k, log_rem = ((n, k, log_rem) if n <= series_cap + 1
                         else _em_plan(sc, 0.0, series_cap, series_cap + 1))
        if bits is None and _LN2 + (1 + neg) * math.log(m - k) > 709:  # every partial sum
            raise RangeError(f"the series at s={sc} leaves the double range")
        # H at scale 1/2, rounded to the rung's bits: N^-s D(s) meets it there, then round to wb
        value, err, powers = _rung((2,) * (m - k - 1) + (1,), s_hi, 0, bits or wb, bits, powers,
                                   0.5)
        top, top_err = powers.entry(m - k) if powers else (1, 0.0)  # none: err is inf
        dd, d_err = _em_factor(s_hi, sc, m - k, k, bits)
        if bits is None:
            value += top * dd
        else:  # at bits, then rounded to wb (wb 53: to the nearest double), on libmp's tuples
            rnd = round_nearest
            value = mpc_add(value._mpc_, mpc_mul(top._mpc_, dd._mpc_, bits, rnd), bits, rnd)
            value = (mpc_to_complex(value, rnd=rnd) if ctx.is_fast
                     else mp.make_mpc(mpc_pos(value, wb, rnd)))
        tm, dm, mag, u = float(abs(top)), float(abs(dd)), float(abs(value)), 0.5 ** (bits or wb)
        err += dm * top_err + (tm + top_err) * d_err + 8 * u * (tm * dm + mag)
        if not math.isfinite(mag):  # the rung's range rule, with N^-s D(s)
            raise RangeError(f"the sum at s={sc} leaves the double range")
        err += 2.0 ** (1 - wb) * mag if bits else 0.0  # the rounding to wb
        rem = math.exp(log_rem) if log_rem < 709.0 else math.inf
        result = GlobalEvalResult(ComplexPoint(value.real, value.imag), m, rem + err)
        if n > m:
            raise ConvergenceError(f"s={sc} needs more than the {m} terms of series cap "
                                   f"{series_cap} for a bound within the target", best=result)
        target = tol * max(mag, floor)
        if rem + err <= target:
            return result
        if err < target:  # the value is smaller than guessed: a longer sum spares the bits
            p = _em_plan(sc, 0.9 * (target - err), series_cap)
            if p[0] <= series_cap + 1:
                n, k, log_rem = longer(p)
                continue
        if rem > 0.5 * target and err < mag:  # else a remainder that leaves half the target to
            n, k, log_rem = longer(_em_plan(sc, 0.5 * target, series_cap))  # the rounding
            continue
        if bits and not target > 0.0:  # a double table that cancels to 0 measures nothing
            raise RangeError(f"the sum at s={sc} vanishes in doubles: no relative bound")
        step = (_first_bits(wb, powers, max(mag, floor), 0.5) if bits is None
                else _more_bits(bits, err, target))
        bits, powers = math.ceil(step) if step <= _MAX_SUM_BITS else math.inf, None


def _pole_factor(s_hi, ctx: PrecisionContext):
    """(g, bound) of g = (1 - 2^(1-s)) / (s - 1) = ln 2 sum_j (-x)^j / (j+1)!, x = (s - 1) ln 2,
    for |s - 1| < 1/2, at the working precision: summed from the smallest term, the terms and the
    sum are within 8 units of |g| (each term's rounding grows by under 4 units a step, weighted by
    |x|^j / (j+1)! <= 0.35^j / (j+1)!), and the rest after a term below 2^-wb within 2 of it."""
    wb = ctx.working_bits
    with _workprec(ctx):
        ln2 = _LN2 if ctx.is_fast else mp.ln2
        x, terms = (s_hi - 1) * -ln2, [1]
        while abs(terms[-1]) > 2.0 ** -wb:
            terms.append(terms[-1] * x / (len(terms) + 1))
        g = sum(reversed(terms)) * ln2
    return g, (8 * float(abs(g)) + 2 * float(abs(terms[-1]))) * 2.0 ** -wb


def _exact(z: Fraction, ctx: PrecisionContext, terms: int, name: str) -> GlobalEvalResult:
    """The rational z rounded once to the working bits (Python's correctly rounded quotient on the
    fast tier), charged 2^-wb |value| unless that is exact."""
    wb = ctx.working_bits
    try:
        v = (z.numerator / z.denominator if ctx.is_fast
             else mp.fdiv(z.numerator, z.denominator, prec=wb))
    except OverflowError:
        v = math.inf
    if not math.isfinite(mag := float(abs(v))):  # the rung's range rule
        raise RangeError(f"{name} lies outside the double range")
    d = z.denominator
    exact = d & (d - 1) == 0 and abs(z.numerator).bit_length() <= wb
    point = ComplexPoint(v, 0.0) if ctx.is_fast else ComplexPoint(v, mp.mpf(0))
    return GlobalEvalResult(point, terms, 0.0 if exact else mag * 2.0 ** -wb)


def _zeta_at(m: int) -> Fraction:
    """zeta(-m) = -B_(m+1) / (m+1) exactly (-1/2 at m = 0) from ``_ratios``: zeta(1 - 2j) =
    -(2j - 1)! B_2j / (2j)!, and zeta(-2j) = 0."""
    j = (m + 1) // 2
    return (Fraction(-1, 2) if m == 0 else Fraction(0) if m % 2 == 0 else
            -math.factorial(m) * math.prod(Fraction(p, q) for p, q, _ in _ratios(j)[1:j + 1]))


def _integer(s_hi, series_cap: int) -> int | None:
    """m where s = -m, 0 <= m <= 2 series_cap, else None."""
    if s_hi.imag != 0 or not -2 * series_cap <= s_hi.real <= 0 or s_hi.real != int(s_hi.real):
        return None
    return -int(s_hi.real)


def eta_global(s, ctx: PrecisionContext = PrecisionContext(),
               series_cap: int = SERIES_CAP) -> GlobalEvalResult:
    """eta(s) = (1 - 2^(1-s)) zeta(s) (module docstring) with its bound; terms_used is zeta's N + K.
    A target below 2^(7 - wb) leaves the parts' roundings no room: eta is then taken with 16 more
    bits at a quarter of it and rounded once, within the target since PrecisionContext keeps it at
    2^(1 - wb) or more."""
    sc, series_cap = _coerce_complex(s), _count(series_cap, "series_cap")
    tol, wb = ctx.target_rel_err, ctx.working_bits
    with _workprec(ctx):
        s_hi = sc if ctx.is_fast else _coerce_mpc(s)
    if (m := _integer(s_hi, series_cap)) is not None:
        return _exact((1 - 2 ** (m + 1)) * _zeta_at(m), ctx, 1 + (m + 1) // 2, f"eta({-m})")
    if not tol >= 2.0 ** (7 - wb):
        res = eta_global(s_hi, PrecisionContext(wb + 16, tol / 4), series_cap)
        v = res.value.to_mpc()
        with mp.workprec(wb):
            v = complex(v) if ctx.is_fast else +v
        point = ComplexPoint(v.real, v.imag)
        return GlobalEvalResult(point, res.terms_used, res.tail_bound + abs(point) * 2.0 ** -wb)
    if near := abs(sc - 1) < 0.5:  # P = g (s - 1), s - 1 exact (on doubles by Sterbenz's lemma)
        g, g_err = _pole_factor(s_hi, ctx)
        w = sc - 1 if ctx.is_fast else mp.fsub(s_hi, 1, exact=True)
        if (dist := float(abs(w))) < 2.0 ** -wb:  # eta = g F, |F - 1| < |s - 1| there
            return GlobalEvalResult(ComplexPoint(g.real, g.imag), 0, g_err + float(abs(g)) * dist)
    table = _FastPowers(sc) if ctx.is_fast else None  # zeta's double table, and P's first rung
    try:  # the sum first: its rules refuse s beyond its reach
        part = _series(s_hi, PrecisionContext(wb, 0.75 * tol), series_cap, powers=table)
    except ConvergenceError as exc:
        part = exc
    if near:
        with _workprec(ctx):
            a = g * w
        a_err = dist * g_err + 4 * float(abs(a)) * 2.0 ** -wb
    else:
        a, a_err = _evaluate(_P, s_hi, ctx, 0, tol / 8, table)

    def times(part: GlobalEvalResult) -> GlobalEvalResult:  # a part: the product, rounded
        b = part.value.to_complex() if ctx.is_fast else part.value.to_mpc()
        with _workprec(ctx):
            v = a * b
        am, bm = float(abs(a)), float(abs(b))
        bound = am * part.tail_bound + (bm + part.tail_bound) * a_err + 4 * am * bm * 2.0 ** -wb
        return GlobalEvalResult(ComplexPoint(v.real, v.imag), part.terms_used, bound)
    if isinstance(part, ConvergenceError):
        raise ConvergenceError(str(part), best=times(part.best)) from None
    return times(part)


def zeta_global(s, ctx: PrecisionContext = PrecisionContext(),
                series_cap: int = SERIES_CAP) -> GlobalEvalResult:
    """zeta by Euler-Maclaurin on the whole plane (module docstring; terms_used is N + K).  At
    s = -m, m <= 2 series_cap, the remainder vanishes at N = 1, K = ceil(m/2), and zeta(-m) is
    taken exactly and rounded once.  A target below 2^(6 - wb) is refused, and so is the exclusion
    disk (radius 1e-6) about the pole s = 1."""
    sc, series_cap = _coerce_complex(s), _count(series_cap, "series_cap")
    if abs(sc - 1.0) < EXCLUSION_RADIUS:
        raise SingularPrefactorError(f"s = {sc} lies in the exclusion disk at 1", center=1.0)
    tol, wb = ctx.target_rel_err, ctx.working_bits
    if not tol >= 2.0 ** (6 - wb):  # else the roundings of the sum would fill the target
        raise DomainError(f"zeta needs target_rel_err >= 2^(6 - {wb}), got {tol}")
    with _workprec(ctx):
        s_hi = sc if ctx.is_fast else _coerce_mpc(s)
    if (m := _integer(s_hi, series_cap)) is None:
        return _series(s_hi, ctx, series_cap=series_cap)
    return _exact(_zeta_at(m), ctx, 1 + (m + 1) // 2, f"zeta({-m})")


# ---------------------------------------------------------------------------
# reflection identity residual
# ---------------------------------------------------------------------------

def functional_equation_residual(s, ctx: PrecisionContext = PrecisionContext()) -> float:
    """Relative residual of zeta(s)/zeta(1-s) against
    (2 pi)^(s-1) * 2 sin(pi s / 2) * Gamma(1 - s).

    Near even integers the right side is evaluated in the reflected form
    (2 pi)^(s-1) * pi / (cos(pi s / 2) * Gamma(s)), which is the same
    meromorphic function but avoids the 0 * inf product of the displayed
    form when Gamma(1-s) sits on a pole that the sine zero cancels.  Both
    sides are formed in doubles on the fast tier and in mpmath at the
    working precision on the extended tier.
    """
    sc, fast, wb = _coerce_complex(s), ctx.is_fast, ctx.working_bits
    value = ComplexPoint.to_complex if fast else ComplexPoint.to_mpc
    with _workprec(ctx):
        s_hi = sc if fast else _coerce_mpc(s)
    s_1 = 1.0 - sc if fast else mp.fsub(1, s_hi, prec=wb)
    z_s = value(zeta_global(s_hi, ctx).value)
    z1 = value(zeta_global(s_1, ctx).value)
    if abs(z1) < 1e-8:
        raise DomainError(
            f"zeta(1-s) = {complex(z1)} within 1e-8 of zero at s = {sc}; ratio undefined")
    reflected = abs(sc - 2 * round(sc.real / 2.0)) < 0.25  # near an even integer
    gam = value(cgamma(s_hi if reflected else s_1, ctx))
    with _workprec(ctx):  # the extended tier's roundings
        pi, cos, sin = (math.pi, _cos, _sin) if fast else (mp.pi, mp.cos, mp.sin)
        lhs, half = z_s / z1, pi * s_hi / 2
        scale = (2 * pi) ** (s_hi - 1)
        rhs = scale * pi / (cos(half) * gam) if reflected else scale * 2 * sin(half) * gam
    if abs(rhs) < 1e-280:
        raise DomainError("right side vanishes; relative residual undefined")
    return float(abs(lhs - rhs) / abs(rhs))


# ---------------------------------------------------------------------------
# Newton refinement of critical-line zeros
# ---------------------------------------------------------------------------

def _em_taylor(s: complex, n: int, k: int):
    """The Taylor coefficients in d of N^-(s+d) D(s+d) about s (N = n, D as in ``_em_factor``), for
    Newton's model: N^-s e^(-d ln N) times n/(w + d), w = s - 1, and q(d) = Q(s + d) of degree
    2k - 1, formed by Horner to degree 10 (its coefficients fall by about 100 a degree at |d| <= 1).
    Returns coefs(top, ln N, degree) = [c_0, ..., c_degree] for top = N^-s: c_j = N^-s ((n/w) u_j
    + sum_i q_i (-ln N)^(j-i) / (j-i)!), u_j = (-ln N)^j / j! - u_(j-1) / w."""
    ratios, w, v = _ratios(k), s - 1, [1.0] + [0.0] * 10
    for j in range(k - 1, 0, -1):  # R_j = 1 + r_(j+1) (s + 2j - 1 + d) (s + 2j + d) / n^2 R_(j+1)
        r, y1, y2 = ratios[j + 1][2] / (n * n), s + (2 * j - 1), s + 2 * j
        a, b = r * y1 * y2, r * (y1 + y2)
        v = [a * x + b * y + r * z for x, y, z in zip(v, [0.0] + v, [0.0, 0.0] + v)]
        v[0] += 1
    r = ratios[1][2] / n  # q = r_1 (s + d) / n R_1
    q = [r * (s * x + y) for x, y in zip(v, [0.0] + v)]

    def coefs(top: complex, ln_n: float, degree: int) -> list[complex]:
        e, u, c = [1.0], 0j, []  # e_j = (-ln N)^j / j!
        for j in range(degree + 1):
            e.append(-e[-1] * ln_n / (j + 1))
            u = e[j] - u / w
            c.append(top * (n / w * u + sum(map(mul, q[:j + 1], e[j::-1]))))
        return c
    return coefs


def refine_zero(t_initial: float, ctx: PrecisionContext = PrecisionContext()) -> ZeroRecord:
    """Newton-refine a critical-line ordinate from a capture point.

    Requires |eta(1/2 + i t_initial)| <= 0.5 (ordinate already near a zero).  Newton runs
    over real t (``finite_eta._line_newton``), so it stays on the line, with |dt| <= 0.5 and
    zeta by Horner on one Taylor model per disk (``_em_taylor``); only the final residual |eta|
    = |P| |zeta| is certified: H off the last model, N^-s and 2^-s turned from its table and D(s)
    anew, where their bounds and Euler-Maclaurin's remainder meet the absolute target, else by a
    fresh sum.  Escaping |t - t0|
    > 1, a non-positive curvature of |zeta|**2 or failing to reach residual 1e-10 in 50
    iterations raises ConvergenceError; an extended context raises DomainError.  zeta's length
    bounds the reach: past t = 1500 or so the sum needs more than the cap (ConvergenceError).
    """
    _fast_only(ctx, "refine_zero")
    if (t0 := _coerce_complex(t_initial)).imag:
        raise DomainError(f"t_initial must be real, got {t_initial!r}")
    t0, tol, last = t0.real, ctx.target_rel_err, []

    def model_at(t: float, reach):  # zeta's model about 1/2 + i t
        table = _FastPowers(complex(0.5, t))  # filled by _taylor
        m, k, _ = _em_plan(table.s, 2.0 ** -53, SERIES_CAP)  # its zero within a unit of zeta's
        if m > SERIES_CAP + 1:
            raise ConvergenceError(f"zeta at 1/2 + {t}i needs more than the {SERIES_CAP + 1} "
                                   f"terms of series cap {SERIES_CAP}", best=t)
        n, tail = m - k, _em_taylor(table.s, m - k, k)
        coefs = (2,) * (n - 1) + (1,)
        scale = 2.0 ** (1 - max(coefs).bit_length())  # the head's 2^-k sum c_b p_b is 2^(1-k) H

        def zeta_reach(a0, a1, size):  # the radius from zeta's a_0 and a_1
            c0, c1 = tail(table.entry(n)[0], table.log[n - 1], 1)
            return reach(a0 + scale * c0, a1 + scale * c1, size)
        head = _taylor(table, coefs, zeta_reach)
        c = tail(table.entry(n)[0], table.log[n - 1], len(head.a) - 1)
        model = head._replace(a=[a + scale * x for a, x in zip(head.a, c)])
        if t == t0 and (start := abs((1 - 2 * table.entry(2)[0]) * model.a[0]) / scale
                        ) > CAPTURE_THRESHOLD:  # the capture check, on |P zeta|
            raise DomainError(f"|eta(1/2 + {t0}i)| = {start:.3g} above capture threshold "
                              f"{CAPTURE_THRESHOLD}; start closer to a zero")
        last[:] = table, head, n, k, scale
        return model

    t, iterations, _ = _line_newton(model_at, t0, NEWTON_MAX_STEP, CAPTURE_RADIUS)
    table, head, n, k, scale = last  # zeta at t: H off the head's model, N^-s D(s) anew
    d, s = t - table.s.imag, complex(0.5, t)
    e = (t - (d - (d - t))) - (table.s.imag + (d - t))  # d's rounding
    g, _, _, bound = _horner(head, 1j * d, e)

    def turned(b: int):  # b^-s at s from the centre's entry, turned by -d ln b: ln b, d, exp
        (p, p_err), ln_b = table.entry(b), table.log[b - 1]
        return (p * cmath.exp(-1j * d * ln_b),
                p_err + abs(p) * (2 * (abs(d) + abs(e)) * ln_b + 4) * 2.0 ** -53)
    (top, top_err), (two, two_err) = turned(n), turned(2)
    dd, d_err = _em_factor(s, s, n, k, None)
    rem = next(a - x * math.log(n) for j, x, a in _em_bounds(s, k + 1) if j == k)
    z = g / scale + top * dd
    z_err = (bound / scale + abs(dd) * top_err + (abs(top) + top_err) * d_err
             + 4 * 2.0 ** -53 * (abs(top * dd) + abs(z)) + math.exp(rem))
    p, p_err = 1 - 2 * two, 2 * two_err + 2.0 ** -52 * abs(1 - 2 * two)  # P, rounded once
    err = abs(p) * z_err + abs(z) * p_err + 4 * 2.0 ** -53 * abs(p * z)
    residual = (abs(p * z) if abs(d) < head.rho and err <= tol
                else abs(p) * abs(_series(s, ctx, floor=0.9 / abs(p)).value.to_complex()))
    if residual > REFINE_TOL:
        raise ConvergenceError(
            f"no convergence: residual {residual:.3g} above {REFINE_TOL} "
            f"after {iterations} iterations", best=t)
    return ZeroRecord(t=t, residual_eta=residual, iterations=iterations)
