"""Globally convergent alternating zeta (eta) series, the zeta function (by
Euler-Maclaurin, or from eta left of Re s = 0), the reflection identity
residual, and Newton refinement of critical-line zeros.

eta(s) = sum_{n>=0} 2^-(n+1) eta_n(s) over the HASSE finite sums converges
for every s; zeta is eta(s) / (1 - 2^(1-s)) left of Re s = 0 only.  The
partial sum of n terms is one weighted Dirichlet sum with integer weights c_k
and divisor d,

    S(s) = (1/d) sum_{k<n} c_k (k+1)^-s,

taken as one dot product with one power table of :mod:`eta_forge.finite_eta`:
n transcendentals on the double table, one per prime base in big floats,
and O(n) multiply-adds.  ``_weights`` holds two sets, chosen by Re s:

- Re s >= 1/2, Borwein's (2000, Algorithm 2): c_k = (-1)^k (d_n - d_k) and
  d = d_n, where d_k = sum_{i<=k} n (n+i-1)! 4^i / ((n-i)! (2i)!), each
  summand an integer; |eta - S| <= 2 (3 + sqrt 8)^-n / |Gamma(s)|.
- Re s < 1/2, Euler's transform (Sondow 1994), S = sum_{m<n} 2^-(m+1) eta_m:
  c_k = (-1)^k sum_{j>k} C(n, j) and d = 2^n.  For Re s > -n,
  eta - S = Gamma(s)^-1 int_0^1 (-ln y)^(s-1) ((1-y)/2)^n / (1+y) dy, so
  |eta - S| <= 2^-n (1/(sigma+n) + Gamma(sigma, 1)) / |Gamma(s)|.

|Gamma(x)/Gamma(x+it)|^2 = prod_k (1 + t^2/(x+k)^2) <= (1 + t^2/x^2) sinh(pi t)/(pi t)
bounds 1/|Gamma| after a shift to x >= 1 (it is 0 at the poles of Gamma,
where the sum is exact).  The bound falls by 3 + sqrt 8 or by at least 2
per term; n makes it half the target with |value| guessed as 1; a smaller
|value| first gets a longer sum, within the cap, then more bits.  Newton
runs over real t on a bounded Taylor model of S; its steps stay uncertified.

zeta on Re s >= 0, by Euler-Maclaurin (Edwards 1974, 6.4): sum_{n<N} n^-s +
N^-s / 2 is one dot with coefficients 2, ..., 2, 1 at scale 1/2 on the same
table, plus N^-s from it times D(s) = N/(s-1) + sum_{k<=K} B_2k/(2k)! s (s+1)
... (s+2k-2) N^(1-2k) (``_em_factor``); the remainder is at most
|s+2K+1| / (sigma+2K+1) times the first omitted term.  N + K is the length
that ``_em_plan`` picks, the cap bounds and terms_used reports.

Ladder: each pass is one rung of :mod:`eta_forge.finite_eta` over the
weights, scaled exactly by 2^-e, 2^e >= d, with s at full precision in big
floats; a d that is not 2^e (Borwein's) then takes one product by 2^e / d,
charged 4 units of 2^-wb of |value|.  The fast tier accepts the double
table when remainder + rounding <= target, else takes big floats at the
finite sums' first precision (``_first_bits``, read off the double table),
which is how Re s << 0 gets honest values; the extended tier starts in big
floats.  A length beyond the cap raises ConvergenceError (best: the sum at
the cap); s or fast-tier terms beyond the double range, or more than 65536
bits, raise RangeError.  These alone bound the fast tier: Borwein's divisor
d_n, about 2^(2.54 n), leaves the doubles past 1/2 + 421i (n = 397), and the
binomial weights reach the cap near |Im s| = 150 on Re s = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_shift, to_int

from .errors import ConvergenceError, DomainError, RangeError, SingularPrefactorError
from .finite_eta import (_MAX_SUM_BITS, _FastPowers, _evaluate, _first_bits, _line_newton,
                         _more_bits, _rung)
from .numerics import (ComplexPoint, PrecisionContext, _coerce_complex, _coerce_mpc, _count,
                       _fast_only, cgamma)

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
EXCLUSION_RADIUS = 1e-6   # around zeros of the prefactor 1 - 2^(1-s)
_LN2, _LN_2PI = math.log(2.0), math.log(2.0 * math.pi)
_BORWEIN_RATE = math.log(3.0 + math.sqrt(8.0))  # Borwein's bound falls by 3 + sqrt 8 per term
_GAMMA_MIN = 0.8856  # Gamma(x) > 0.8856 for every x > 0 (its minimum is 0.885603...)


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


def _borwein(sc: complex) -> bool:
    """Whether the series at s takes Borwein's weights (Re s >= 1/2, where their bound holds)."""
    return sc.real >= 0.5


@lru_cache(maxsize=64)
def _weights(n: int, borwein: bool) -> tuple[tuple[int, ...], int]:
    """(c, d): the n weights c_k for bases k + 1 and the divisor d of S (module docstring)."""
    if borwein:
        d, term = [1], 1  # d_i, and its last summand n (n+i-1)! 4^i / ((n-i)! (2i)!), an integer
        for i in range(n):
            term = term * 2 * (n + i) * (n - i) // ((i + 1) * (2 * i + 1))
            d.append(d[-1] + term)
        return tuple((-1) ** k * (d[n] - x) for k, x in enumerate(d[:n])), d[n]
    out, tail, c = [], 0, 1  # c = C(n, j) for j = n, n - 1, ..., 1
    for j in range(n, 0, -1):
        tail += c
        out.append(-tail if j % 2 == 0 else tail)  # base j has the sign (-1)^(j-1)
        c = c * j // (n - j + 1)
    return tuple(reversed(out)), 1 << n


def _remainder(sc: complex, n: int) -> float:
    """The natural log of the bound on |eta - S| for S of n terms (module docstring)."""
    sigma, tau = sc.real, abs(sc.imag)
    if sigma + n <= 0:
        return math.inf  # the remainder integral diverges
    m = max(0, math.ceil(1.0 - sigma))  # 1/Gamma(z) = z (z+1) ... (z+m-1) / Gamma(z+m)
    y = math.pi * tau  # log sinh(y)/y, bounded above
    log_g = (y - math.log(2.0 * y) if y > 20.0 else math.log(math.sinh(y) / y) if y else 0.0)
    # log of Gamma(sigma + m) / |Gamma(s)| times 2 (3 + sqrt 8)^-n / 0.8856 (Borwein) or 2^-n
    borwein = _borwein(sc)
    x = ((math.log(2.0 / _GAMMA_MIN) - n * _BORWEIN_RATE if borwein else -n * _LN2)
         + math.log(math.hypot(1.0, tau / (sigma + m))) + 0.5 * log_g)
    for j in range(m):
        d = math.hypot(sigma + j, tau)
        if d == 0.0:
            return -math.inf  # a pole of Gamma: the sum is exact
        x += math.log(d)
    if not borwein:  # Gamma(x, 1) <= Gamma(x) (m = 0) or 1/e (x <= 1); Gamma >= 0.8856
        gamma_1 = 1.0 if m == 0 else 1.0 / math.e / _GAMMA_MIN
        x += math.log(1.0 / (_GAMMA_MIN * (sigma + n)) + gamma_1)
    return math.inf if math.isnan(x) else x  # NaN: inf - inf, where pi |Im s| passes doubles


def _length(sc: complex, goal: float, series_cap: int) -> int:
    """The least n whose remainder bound is within ``goal``, or series_cap + 2 beyond the cap."""
    beyond, log_goal = series_cap + 2, (math.log(goal) if goal > 0.0 else -math.inf)
    lowest = n = max(1, math.floor(-sc.real) + 1)
    if n < beyond:  # the bound falls by rate or more per term: one jump, then steps back
        excess = _remainder(sc, n) - log_goal if goal > 0.0 else math.inf
        rate = _BORWEIN_RATE if _borwein(sc) else _LN2  # in nats per term
        n += math.ceil(min(max(excess, 0.0) / rate, beyond))
    while lowest < n < beyond and _remainder(sc, n - 1) <= log_goal:
        n -= 1
    return min(n, beyond)


def _em_plan(sc: complex, goal: float, cap: int, m: int | None = None) -> tuple[int, int, float]:
    """(N + K, K, log bound): the least N + K whose bound is within ``goal`` (beyond cap + 1 if
    none is), or the split of N + K = m with the least bound.  Both are convex in K: the scan
    stops past the least.  Edwards' bound is exp(A - x ln N), x = sigma + 2K + 1, A =
    ln (|s (s+1) ... (s+2K)| |s+2K+1| / x) + ln |B_2K+2| / (2K+2)!, where |B_2j| / (2j)! =
    2 zeta(2j) / (2 pi)^2j and ln zeta(2j) < 1/2."""
    tt, log, exp, log1p, floor = sc.imag * sc.imag, math.log, math.exp, math.log1p, math.floor
    prod = log(math.hypot(sc.real, sc.imag)) if sc else -math.inf  # ln |s (s+1) ... (s+2K)|
    log_goal, best = (log(goal) if goal > 0.0 else -math.inf), None
    x, c = sc.real + 1, _LN2 + 0.5 - 2 * _LN_2PI  # x, and the Bernoulli factor's bound, at K = 0
    for k in range(m or cap + 2):
        a = prod + 0.5 * log1p(tt / x / x) + c  # tt / x / x: inf, not the NaN of inf / inf
        n = m - k if m else 1 if a <= log_goal else floor(exp(min((a - log_goal) / x, 709))) + 1
        cost = a - x * log(n) if m else n + k
        if best and cost > best[0]:
            break
        if not best or cost < best[0]:
            best = (cost, n, k, a, x)
        prod += 0.5 * log((x * x + tt) * ((x + 1) * (x + 1) + tt))
        x, c = x + 2, c - 2 * _LN_2PI
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
    size = math.hypot(sc.real - 1, sc.imag)  # hypot: inf, not OverflowError, past doubles
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


def _series(s, ctx: PrecisionContext, series_cap: int = SERIES_CAP, tol: float | None = None,
            floor: float = 0.0, powers: _FastPowers | None = None,
            em: bool = False) -> GlobalEvalResult:
    """S within tol * max(|value|, floor): ``floor`` 0 asks for a relative bound, 1
    for an absolute one; a double table passed in ``powers`` takes the first rung.
    ``em`` takes zeta's Euler-Maclaurin sum (Re s >= 0) for eta's series."""
    sc, series_cap = _coerce_complex(s), _count(series_cap, "series_cap")
    if not cmath.isfinite(sc):  # a finite ComplexPoint beyond the double range
        raise RangeError(f"s = {s} is beyond the double range of the series length")
    tol, wb, neg = ctx.target_rel_err if tol is None else tol, ctx.working_bits, max(0.0, -sc.real)
    s_hi, borwein = (sc if ctx.is_fast else _coerce_mpc(s)), _borwein(sc)

    def plan(goal: float, m: int | None = None):
        """(n, K, log bound) of the least n within goal, or of n = m terms."""
        if em:
            return _em_plan(sc, goal, series_cap, m)
        n = m or _length(sc, goal, series_cap)
        return n, 0, _remainder(sc, n)

    def longer(p):  # the plan p, or one term more than n
        return p if p[0] > n else plan(0.0, n + 1)

    n, k, log_rem = plan(0.5 * tol * max(1.0, floor))  # |value| guessed as 1
    # big floats start from terms up to n^neg and a value near 1
    bits = None if ctx.is_fast else wb + 16 + math.ceil((1 + neg) * math.log2(n))
    while True:
        m, k, log_rem = (n, k, log_rem) if n <= series_cap + 1 else plan(0.0, series_cap + 1)
        coefs, d = ((2,) * (m - k - 1) + (1,), 2) if em else _weights(m, borwein)
        e = (d - 1).bit_length()  # the rung scales exactly by 2^-e, 2^e >= d: an mpf past 2^-1074
        w, c = (0.5 ** e if bits is None else mp.ldexp(1, -e)), (1 << e) / d
        if bits is None and e * _LN2 + (1 + neg) * math.log(m) > 709:  # every partial sum
            raise RangeError(f"the series at s={sc} leaves the double range")
        value, err, powers = _rung(coefs, s_hi, 0, bits or wb if em else wb, bits, powers, w)
        value = complex(value) if ctx.is_fast and not em else value  # em: after the rounding to wb
        if d != 1 << e:  # times 2^e / d: c and each part rounded in doubles, or one quotient
            value = (value * c if ctx.is_fast
                     else mp.fdiv(mp.fmul(value, 1 << e, exact=True), d, prec=wb))
            err = err * c + float(abs(value)) * 2.0 ** (2 - wb)
        if em:  # plus N^-s D(s), N^-s from the table (none: the integer route at s = 0, or err inf)
            top, top_err = powers.entry(m - k) if powers else (1, 0.0)
            dd, d_err = _em_factor(s_hi, sc, m - k, k, bits)
            if bits is None:
                value += top * dd
            else:  # the head was rounded to the rung's bits: the parts meet there, then round to wb
                with mp.workprec(bits):
                    value += top * dd
                with mp.workprec(wb):
                    value = complex(value) if ctx.is_fast else +value  # wb 53: to nearest double
            tm, dm, mag, u = float(abs(top)), float(abs(dd)), float(abs(value)), 0.5 ** (bits or wb)
            err += dm * top_err + (tm + top_err) * d_err + 8 * u * (tm * dm + mag)
            err += 2.0 ** (1 - wb) * mag if bits else 0.0  # the rounding to wb
        mag = float(abs(value))
        rem = math.exp(log_rem) if log_rem < 709.0 else math.inf
        result = GlobalEvalResult(ComplexPoint(value.real, value.imag), m, rem + err)
        if n > m:
            raise ConvergenceError(f"s={sc} needs more than the {m} terms of series cap "
                                   f"{series_cap} for a bound within the target", best=result)
        target = tol * max(mag, floor)
        if rem + err <= target:
            return result
        if err < target:  # the value is smaller than guessed: a longer sum spares the bits
            p = plan(0.9 * (target - err))
            if p[0] <= series_cap + 1:
                n, k, log_rem = longer(p)
                continue
        if rem > 0.5 * target:  # else a remainder that leaves half the target to the rounding
            n, k, log_rem = longer(plan(0.5 * target))
            continue
        if not target > 0.0:
            raise RangeError(f"the sum at s={sc} vanishes in doubles: no relative bound")
        step = (_first_bits(wb, powers, max(mag, floor), w * c) if bits is None
                else _more_bits(bits, err, target))
        bits, powers = math.ceil(step) if step <= _MAX_SUM_BITS else math.inf, None


def eta_global(s, ctx: PrecisionContext = PrecisionContext(),
               series_cap: int = SERIES_CAP) -> GlobalEvalResult:
    """Partial sum of the weighted series with its claimed tail bound."""
    return _series(s, ctx, series_cap=series_cap)


def _prefactor_center(sc: complex) -> complex | None:
    """Nearest zero of 1 - 2^(1-s), i.e. s = 1 + 2 pi i k / ln 2."""
    if abs(sc.real - 1.0) > EXCLUSION_RADIUS:
        return None
    k = round(sc.imag * _LN2 / (2.0 * math.pi))
    center = complex(1.0, 2.0 * math.pi * k / _LN2)
    return center if abs(sc - center) < EXCLUSION_RADIUS else None


def zeta_global(s, ctx: PrecisionContext = PrecisionContext(),
                series_cap: int = SERIES_CAP) -> GlobalEvalResult:
    """zeta by Euler-Maclaurin on Re s >= 0 (module docstring; terms_used is N + K), and via
    eta(s) / (1 - 2^(1-s)) left of it, where eta's length bounds the reach.

    There the prefactor is the Dirichlet sum 1^-s - 2 * 2^-s on the finite sums'
    ladder, within a quarter of the target; the division is charged
    2^(3 - wb) |zeta| at the working bits wb, and eta gets what both leave.  A
    target below 2^(6 - wb) is refused on both routes, and so are the exclusion
    disks (radius 1e-6) around the prefactor zeros s = 1 and s = 1 + 2 pi i k / ln 2:
    no removable-singularity limits are attempted there.
    """
    sc = _coerce_complex(s)
    center = _prefactor_center(sc)
    if center is not None:
        raise SingularPrefactorError(
            f"s = {sc} lies inside the exclusion disk around the prefactor zero "
            f"at {center}", center=center)
    tol, wb = ctx.target_rel_err, ctx.working_bits
    if not tol >= 2.0 ** (6 - wb):  # else the roundings below would fill the target
        raise DomainError(f"zeta needs target_rel_err >= 2^(6 - {wb}), got {tol}")
    if sc.real >= 0.0:
        return _series(s, ctx, series_cap=series_cap, em=True)
    pref, pref_err = _evaluate((1, -2), s, ctx, 0, tol / 4)
    pref_mag, div = float(abs(pref)), 2.0 ** (3 - wb)  # Smith's division in doubles: < 7 ulp
    eta = _series(s, ctx, series_cap=series_cap, tol=tol - 2.0 * (pref_err / pref_mag + div))
    v = eta.value.to_complex() / pref if ctx.is_fast else mp.fdiv(eta.value.to_mpc(), pref, prec=wb)
    mag = float(abs(v))
    tail = (eta.tail_bound + mag * pref_err) / (pref_mag - pref_err) + mag * div
    return GlobalEvalResult(ComplexPoint(v.real, v.imag), eta.terms_used, tail)


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
    sc = _coerce_complex(s)
    fast, wb = ctx.is_fast, ctx.working_bits
    value = ComplexPoint.to_complex if fast else ComplexPoint.to_mpc
    s_hi = sc if fast else _coerce_mpc(s)
    s_1 = 1.0 - sc if fast else mp.fsub(1, s_hi, prec=wb)
    z_s = value(zeta_global(s_hi, ctx).value)
    z1 = value(zeta_global(s_1, ctx).value)
    if abs(z1) < 1e-8:
        raise DomainError(
            f"zeta(1-s) = {complex(z1)} within 1e-8 of zero at s = {sc}; ratio undefined")
    reflected = abs(sc - 2 * round(sc.real / 2.0)) < 0.25  # near an even integer
    gam = value(cgamma(s_hi if reflected else s_1, ctx))
    with mp.workprec(wb):  # the extended tier's roundings; cmath ignores it
        pi, cos, sin = (math.pi, cmath.cos, cmath.sin) if fast else (mp.pi, mp.cos, mp.sin)
        lhs, half = z_s / z1, pi * s_hi / 2
        scale = (2 * pi) ** (s_hi - 1)
        rhs = scale * pi / (cos(half) * gam) if reflected else scale * 2 * sin(half) * gam
    if abs(rhs) < 1e-280:
        raise DomainError("right side vanishes; relative residual undefined")
    return float(abs(lhs - rhs) / abs(rhs))


# ---------------------------------------------------------------------------
# Newton refinement of critical-line zeros
# ---------------------------------------------------------------------------

def refine_zero(t_initial: float, ctx: PrecisionContext = PrecisionContext()) -> ZeroRecord:
    """Newton-refine a critical-line ordinate from a capture point.

    Requires |eta(1/2 + i t_initial)| <= 0.5 (ordinate already near a zero).  Newton runs
    over real t (``finite_eta._line_newton``), so it stays on the line, with |dt| <= 0.5 and
    S by Horner on one Taylor model per disk; only the final residual is certified.
    Escaping |t - t0| > 1, a non-positive curvature of |S|**2 or failing to reach residual
    1e-10 in 50 iterations raises ConvergenceError; an extended context raises DomainError.
    S is eta's series, so its length bounds the reach: past t = 421 Borwein's divisor leaves
    the doubles (RangeError).
    """
    _fast_only(ctx, "refine_zero")
    t0 = float(t_initial)

    def table_at(t: float):  # S's double table about 1/2 + i t, and its weights
        table = _FastPowers(complex(0.5, t))  # filled by _series' first rung, to an absolute bound
        start = abs(_series(table.s, ctx, floor=1.0, powers=table).value.to_complex())
        if t == t0 and start > CAPTURE_THRESHOLD:  # the capture check
            raise DomainError(f"|eta(1/2 + {t0}i)| = {start:.3g} above capture threshold "
                              f"{CAPTURE_THRESHOLD}; start closer to a zero")
        return table, _weights(len(table.re), _borwein(table.s))[0]  # the weights _series took

    t, iterations = _line_newton(table_at, t0, NEWTON_MAX_STEP, CAPTURE_RADIUS)
    residual = abs(_series(complex(0.5, t), ctx, floor=1.0).value.to_complex())
    if residual > REFINE_TOL:
        raise ConvergenceError(
            f"no convergence: residual {residual:.3g} above {REFINE_TOL} "
            f"after {iterations} iterations", best=t)
    return ZeroRecord(t=t, residual_eta=residual, iterations=iterations)
