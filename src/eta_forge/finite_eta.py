"""The two finite eta families and their exact trivial zeros.

Family HASSE with index n is the alternating binomial sum

    sum_{k=0}^{n} (-1)^k C(n, k) (k+1)^(-s)

(Hasse's globally convergent series for eta is sum_n 2^-(n+1) eta_n);
family HSTAR with index n is

    sum_{k=1}^{n} (-1)^(k-1) C(2n, n+k) k^(-s),

the finite sum induced by the harmonic kernel of degree 2n.  Both are
entire in s.  HASSE vanishes exactly at s = 0, -1, ..., -(n-1); HSTAR at
s = -2, -4, ..., -2(n-1).  Those zeros are checked in exact rational
arithmetic, never in floating point.

Summation: each tier fills a power table p_b = b^(-s), with ln b, for the bases b = 1,
2, ...: one ``cmath.exp`` per base in doubles, with ln b in double-double from an integer
series (``_log_dd``), and in big floats one fixed-point exp and cos/sin per prime base, by
libmp's own kernels (b^(-s) is completely multiplicative), with every entry in fixed-point
integers (``_ExtPowers``).  The dot product with the exact integer coefficients (times
(-ln b)^k at order k) is ``math.fsum`` in doubles (each component rounded once) and an exact
integer sum in big floats.  A table grows one base at a time, so a global series that lengthens
keeps its powers, and one table serves every order.  One rung (``_rung``) takes each such sum, for
these finite sums and for the global series alike: the double table at s rounded to a double
(t ln b in double-double, about 2|Re s| ln n + 8 units of 2^-53 per term at any practical
t), or big floats at given bits with s at full precision.  At order 0 and an integer s <= 0
it sums the integer powers exactly, so a trivial zero is an exact 0 with bound 0.  It rounds
the exact integer sum, of integer powers or of a big-float table, once to the working precision,
charged only when inexact: on the fast tier by Python's correctly rounded int / int, ties to even
as in mpmath, and above it by libmp's ``from_man_exp`` to nearest, as ``mp.mpc`` at those bits
rounds, so no mpmath number is formed before the rounding.  A double table with a term
beyond the double range, or a value below its normal range, cannot measure: its bound is
infinite.  A big-float value outside the normal double range (a flush to
0 would look exact), a bound beyond it, an inexact 0 whose bound lies below it, or a sum
needing over 65536 bits raises RangeError.

Certification ladder (``_evaluate``), for any sum with integer
coefficients: a result is returned only when its bound is within
tol * |value|, so a sum that cancels is never passed on the strength of
its largest term.  The double table runs first on both tiers; on the
fast tier it may be the answer, on both it measures the cancellation.
Big floats start at wb + 16 + log2(sum |terms| / |value|) bits read off
it (``_first_bits``), and retry with more bits while the bound misses.

Line kernel (``_line``, fast tier): a grid point of sigma + it keeps its double table under
the ladder's test.  Each b^(-s) only turns along the line, so the table is stepped by
h = t - t_prev where h is exact (t <= 2 t_prev, Sterbenz): ``_FastPowers.step`` turns the
terms c_b p_b of the table's last order-0 dot, one complex list rounded once as that dot rounds
them, by b^(-ih) from one rotation table per h, keeps sum |terms|, and charges every term the
fill's error model once and per step that table's plus sqrt(5) units for the product; a stepped
table serves that sum only.  A miss fills a fresh table only where its bound, the stepped one
less the steps' charge, could pass; else the first big-float precision is read off the stepped
table, so a run of misses fills one table.
Each run of misses then fills one big-float table at its first point, at the run's largest
first precision plus log2 of the depth D its steps reach plus 2, and steps it the same way, below
t = 0 too, as its error model does not grow with |s| (``_ExtPowers.step``, one rotation table per
h and fixed point).  A stepped value that misses refills the table there at ``_more_bits``; only
a fresh table that misses takes ``_evaluate``.
Newton's model (``_taylor``, Odlyzko and Schoenhage 1988, over either table) is
S(s + d) = sum_(j<=K) a_j d^j + R_K, a_j = sum_b c_b p_b (-ln b)^j / j! 2^-k
(2^k > |c_b|, so that Newton's squares stay in doubles), to the first K >= 1 whose |R_K| <=
sum_b |c_b p_b| (rho ln b)^(K+1) / (K+1)! e^(rho ln b) meets the caller's goal.  ``_horner``
gives S, S', S''/2 and S's bound at |d| <= rho: R_K, the a_j's errors (fill + shift |d|)
e^(top |d|) + trunc sum_(1<=j<=K) |d|^j (``_orders``), 2 units per step of sum |a_j| |d|^j (4
for a skew d), and an offset's rounding.
"""

from __future__ import annotations

import cmath
import enum
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import mul

from .errors import ConvergenceError, DomainError, RangeError, VerificationError
from .numerics import (ComplexPoint, PrecisionContext, _coerce_complex, _coerce_mpc, _count,
                       _mpmath, _workprec)

mp = _mpmath(globals(), "cos_sin_basecase", "exp_basecase", "from_man_exp", "ln2_fixed",
             "pi_fixed", "round_nearest", "round_up")

__all__ = [
    "Family",
    "FiniteEtaSpec",
    "ExactRational",
    "EtaValue",
    "evaluate",
    "evaluate_exact",
    "trivial_zero_report",
    "derivative",
]

# Exact rationals are stdlib fractions: reduced, positive denominator.
ExactRational = Fraction

# A big-float sum that would need more working bits is refused (RangeError).
_MAX_SUM_BITS = 1 << 16
_TINY = 2.0 ** -1022  # the smallest normal double
_LN_BITS = 180  # the fractional bits of ``_ln_fixed``
_MAX_ORDER = 60  # the top degree of a Taylor model
_Model = namedtuple("_Model", "a rho k fill shift trunc top tail")  # a Taylor model, ``_taylor``


class Family(enum.Enum):
    HASSE = "hasse"
    HSTAR = "hstar"


@dataclass(frozen=True)
class FiniteEtaSpec:
    """Family selector plus index n.

    HSTAR requires n >= 1 (its kernel has degree 2n and an empty sum
    otherwise).  HASSE allows n = 0, which is the constant 1.
    """

    family: Family
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "index n"))
        if self.family is Family.HSTAR and self.n < 1:
            raise DomainError("HSTAR requires n >= 1")

    @property
    def bases(self) -> range:
        """The integer bases k appearing as k**(-s)."""
        if self.family is Family.HASSE:
            return range(1, self.n + 2)
        return range(1, self.n + 1)


@dataclass(frozen=True)
class EtaValue:
    """A finite-sum value with its attached absolute error bound."""

    value: ComplexPoint
    abs_err: float


@lru_cache(maxsize=None)
def _terms(family: Family, n: int) -> tuple[int, ...]:
    """Signed exact binomial coefficient of each base in ``spec.bases``, in order.

    In both families the coefficient of base b has the sign (-1)**(b-1).
    """
    if family is Family.HASSE:
        return tuple((-1) ** k * math.comb(n, k) for k in range(n + 1))
    return tuple((-1) ** (k - 1) * math.comb(2 * n, n + k) for k in range(1, n + 1))


_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's constant for 53-bit doubles


def _split(a: float) -> tuple[float, float]:
    """a = hi + lo with 26-bit halves, so that products of halves are exact
    (Veltkamp; the halves are NaN once |a| > 2**996)."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@lru_cache(maxsize=None)
def _ln_fixed(b: int) -> int:
    """ln b in integers of 2^-_LN_BITS (Brent and Zimmermann 2010, 4.2): a prime p = 2^k (1 + x)
    / (1 - x), 2^k nearest p (1 for p = 2), takes k ln 2 + 2 atanh x, x = (p - 2^k) / (p + 2^k),
    |x| <= 1/3, by the series in |x| with each term floored; a composite the sum of its factors'."""
    if (q := _least_factor(b)) < b:
        return _ln_fixed(q) + _ln_fixed(b // q)
    k = round(math.log2(b)) if b > 2 else 0
    p, r = b - (1 << k), b + (1 << k)
    term, total, j = (abs(p) << _LN_BITS + 1) // r, 0, 1  # term: 2 |x|^j, j odd
    while term:
        total, term, j = total + term // j, term * p * p // (r * r), j + 2
    return (k * _ln_fixed(2) if k else 0) + (total if p >= 0 else -total)


@lru_cache(maxsize=None)
def _log_dd(b: int) -> tuple[float, float, float, float]:
    """ln b as a double-double hi + lo, with the Veltkamp halves of hi for Dekker's TwoProduct:
    ln b rounded to 128 bits, hi that to nearest and lo the rest to nearest."""
    x = _ln_fixed(b)
    e = max(0, x.bit_length() - 128)
    x = (x + (1 << e >> 1)) >> e  # to nearest at 128 bits
    top = float(x)
    hi = math.ldexp(top, e - _LN_BITS)
    return (hi, math.ldexp(x - int(top), e - _LN_BITS)) + _split(hi)


def _trunc(v: int, k: int) -> int:
    """v 2**-k as an integer: truncated toward 0 for k >= 0, exact for k < 0."""
    return (v >> k if v >= 0 else -(-v >> k)) if k >= 0 else v << -k


class _FastPowers:
    """Fast-tier power table p_b = b**(-s) for b = 1, 2, ..., with ln b.

    The table grows one base at a time (one ``cmath.exp`` per base) as
    :meth:`dot` asks for more, so a global series that lengthens keeps its
    powers, and every order k sums over the same table.  The phase t * ln b
    (t = Im s) is formed as ph + pe in double-double (Dekker's TwoProduct
    of t and the cached ln b, plus t times its low part); one ``cmath.exp``
    takes ph and the residue pe is applied as a first-order rotation, so
    the per-term error does not grow with t until (|s| ln b 2**-52)**2 does,
    or :meth:`step` turns the terms of its last sum up its vertical line.
    """

    def __init__(self, s: complex):
        self.s, self.moved, self.charge, self.last = s, 0.0, 0.0, None  # moved: per-term step error
        self.re, self.im, self.mag, self.log, self.terms = [], [], [], [], None

    def _grow(self, size: int):
        assert self.terms is None, "a stepped table serves only its own sum"
        sigma, t = self.s.real, self.s.imag
        t_hi, t_lo = _split(t)
        for b in range(len(self.re) + 1, size + 1):
            hi, lo, h_hi, h_lo = _log_dd(b)
            ph = t * hi
            # t * ln b - ph: the exact rounding error of t * hi, plus t * lo
            pe = (((t_hi * h_hi - ph) + t_hi * h_lo + t_lo * h_hi) + t_lo * h_lo) + t * lo
            z = cmath.exp(complex(-sigma * hi, -ph))
            p = complex(z.real + pe * z.imag, z.imag - pe * z.real)  # times exp(-i pe)
            self.re.append(p.real)
            self.im.append(p.imag)
            self.mag.append(abs(p))
            self.log.append(hi)

    def _rel(self, size: int, order: int) -> float:
        """The per-term relative error of a sum over the first ``size`` entries at ``order``."""
        max_log = math.log(size)
        phase = abs(self.s) * max_log
        drift = phase * 2.0 ** -52  # squared as a product: inf, not OverflowError, at huge |s|
        return ((2.0 * abs(self.s.real) * max_log + 8.0 + 2.0 * order) * 2.0 ** -53
                + phase * 2.0 ** -100 + drift * drift)

    def step(self, rot: _FastPowers) -> tuple[complex, float]:
        """The last dot, of order 0, at s + i h, ``rot`` = _FastPowers(i h): its terms c_b p_b, each
        rounded once as that dot rounds it, times b**(-i h) as one complex list; ``sum_abs`` kept.
        Each term is charged the fill's model at its s once, and per step rot's own plus sqrt(5)
        units for the product (Brent, Percival and Zimmermann 2007).  Serves that sum only."""
        if self.terms is None:  # the first step: the fill's terms, and their error model
            assert self.last is not None, "sum_abs is kept from an order-0 dot only"
            coefs, self.fill = self.last, self._rel(len(self.last), 0) + 2.0 ** -52
            self.terms = list(map(complex, map(mul, coefs, self.re), map(mul, coefs, self.im)))
        if len(rot.re) < len(self.terms):  # rot's charge per step: its _rel covers any shorter table
            rot._grow(len(self.terms))
            rot.charge = rot._rel(len(self.terms), 0) + math.sqrt(5.0) * 2.0 ** -53
            rot.turn = list(map(complex, rot.re, rot.im))
        self.terms = terms = list(map(mul, self.terms, rot.turn))
        self.moved += rot.charge
        self.s += rot.s
        return (complex(math.fsum([z.real for z in terms]), math.fsum([z.imag for z in terms])),
                self.sum_abs * (self.fill + self.moved))

    def dot(self, coefs: tuple[int, ...], order: int = 0) -> tuple[complex, float]:
        """(value, abs_err bound) of sum_i coefs[i] * p_(i+1) * (-ln(i+1))**order.

        The bound is the per-term error model (transcendental, phase and product
        roundings) over the summed magnitudes, kept as ``sum_abs``
        for :func:`_first_bits`; ``math.fsum`` rounds each component once.
        Raises OverflowError beyond the double range.
        """
        self._grow(len(coefs))
        self.last = None if order else coefs  # the coefs whose terms step keeps
        if order:
            coefs = [c * (-x) ** order for c, x in zip(coefs, self.log)]
        self.sum_abs = sum(map(mul, map(abs, coefs), self.mag))
        if self.sum_abs == math.inf:
            raise OverflowError("finite sum beyond the double range")
        val = complex(math.fsum(map(mul, coefs, self.re)), math.fsum(map(mul, coefs, self.im)))
        return val, self.sum_abs * (self._rel(len(coefs), order) + 2.0 ** -52)

    def entry(self, b: int) -> tuple[complex, float]:
        """A filled b**(-s) and its bound: the dot's per-term model, plus 2**-1070 for a flush."""
        self._grow(b)
        p = complex(self.re[b - 1], self.im[b - 1])
        return p, abs(p) * self._rel(b, 0) + 2.0 ** -1070

    def _orders(self, coefs, cs, k: int):
        """``_taylor``'s arithmetic in doubles on cs = c_b 2^-k.  Of sum |c_b p_b|, fill: the dot's
        bound plus 3 units (fsum, j! past 22, division); shift: 2^-52 top (ln b, each order)."""
        self._grow(n := len(cs))
        neg, fill = [-x for x in self.log], self._rel(n, 0) + 5 * 2.0 ** -53
        return (self.log[:n], self.mag[:n], list(map(mul, cs, self.re)),
                list(map(mul, cs, self.im)), lambda v: list(map(mul, v, neg)),
                lambda xs, ys, j: complex(math.fsum(xs) / j, math.fsum(ys) / j),
                lambda size, top: (size * fill, 2.0 ** -52 * top * size, 0.0))


@lru_cache(maxsize=None)
def _least_factor(b: int) -> int:
    """The least prime factor of b >= 2."""
    return next((q for q in range(2, math.isqrt(b) + 1) if b % q == 0), b)


@lru_cache(maxsize=None)
def _prime_log(q: int, prec: int):
    """ln q at ``prec`` bits: a value depends on (q, prec) only, not on earlier calls."""
    with mp.workprec(prec):
        return mp.log(q)


class _ExtPowers:
    """Extended-tier power table in fixed point: b**(-s) = (X_b + i Y_b) u and ln b = L_b u,
    u = 2**-f, in Python integers; the interface of :class:`_FastPowers`.

    Only a prime q takes an exp: -s ln q = x + i y in integers of 2**-g, g = wp + 20 guard bits,
    wp = f + 8 + log2 max(ln q, |s| ln q), from s at full precision and ln q by ``_prime_log`` at
    wp rounded up to a multiple of 64; x and |y| reduced by ln 2 and pi/2 (Brent and Zimmermann
    2010, 4.3) for libmp's ``exp_basecase`` (not at Re s = 0) and ``cos_sin_basecase``, each
    assumed within 64 units of 2**-g (tested), then e cos and e sin truncated at u.  A composite
    b = q r, q its least prime factor, takes the product of the entries of q and r (b**(-s) is
    completely multiplicative), and L_q + L_r.  Every truncation is toward 0 and t's sign enters
    only the sine's, so conj(s) gives the conjugate table bit for bit.  The first fill sets f =
    bits + sigma log2 n for sigma > 0, at most bits + 1100 (below every double), so that its
    u sum |c_b| <= 2**-bits sum |terms|.  A term beyond 2**_MAX_SUM_BITS, or a prime needing more
    bits, raises RangeError before any integer is formed.  With m_b = max(1, |b**(-s)|) and D =
    floor(log2 n) >= Omega(b), an entry is off by alpha m_b, 1 + alpha <= ((1 + 0.06 u) (1 +
    sqrt(2) u)**2)**D (a prime's exp and truncation, then per product the two errors, their
    product and one truncation), and L_b by 1.01 D u.  A step (``step``) is one more such product
    per entry, by a rotation table of modulus 1 and its own D = floor(log2 n): D grows by that
    D + 1 (``depth``), and the table no longer grows.  The dot's sums are exact; its bound
    (4 + 2k) D u sum |c_b| (ln b)**k m_b at order k covers 1.03 (alpha + 1.5 k D u) that sum."""

    def __init__(self, s, bits: int):
        self.s, self.bits, self.x, self.depth = _coerce_mpc(s), bits, None, 0

    def _grow(self, size: int):
        s = self.s
        if self.x is None:  # base 1, at the fixed point set by the first fill
            self.f = self.bits + math.ceil(min(1100.0, max(0.0, float(s.real) * math.log2(size))))
            self.x, self.y, self.log = [1 << self.f], [0], [0]
        if len(self.x) >= size:
            return
        assert not self.depth, "a stepped table does not grow"
        f, e_s = self.f, max(0, mp.mag(s))  # |s| <= 2**e_s
        if -s.real * math.log2(size) > _MAX_SUM_BITS \
                or f + 8 + size.bit_length().bit_length() + e_s > _MAX_SUM_BITS:
            raise RangeError(f"a sum of {size} terms at s={s} is beyond {_MAX_SUM_BITS} bits")
        (neg, sm, se, _), (tneg, tm, te, _) = s._mpc_  # sigma = +-sm 2**se, |t| = tm 2**te
        for b in range(len(self.x) + 1, size + 1):
            q, r = _least_factor(b) - 1, b // _least_factor(b) - 1
            if r == 0:  # a prime: -s ln q = x + i y at g bits, then its exp and cos/sin
                g = f + 28 + b.bit_length().bit_length() + e_s  # wp + 20 guard bits
                _, lm, le, _ = _prime_log(b, -((20 - g) // 64) * 64)._mpf_  # ln q = lm 2**le
                n, x = divmod(_trunc((sm if neg else -sm) * lm, -se - le - g), ln2_fixed(g))
                k, y = divmod(_trunc(tm * lm, -te - le - g), pi_fixed(g - 1))  # |y| mod pi/2
                e, v = exp_basecase(x, g) if x else 1 << g, cos_sin_basecase(y, g)
                v += (-v[0], -v[1])  # cos(y + k pi/2) = v[-k % 4], -sgn(t) sin = v[2 tneg - 1 - k]
                x, y = (_trunc(e * v[i & 3], 2 * g - f - n) for i in (-k, 2 * tneg - 1 - k))
                lnb = _trunc(lm, -le - f)
            else:  # b = q r: the product of the entries of q and r
                x = self.x[q] * self.x[r] - self.y[q] * self.y[r]
                y = self.x[q] * self.y[r] + self.y[q] * self.x[r]
                x, y = (x >> f if x >= 0 else -(-x >> f)), (y >> f if y >= 0 else -(-y >> f))
                lnb = self.log[q] + self.log[r]
            self.x.append(x)
            self.y.append(y)
            self.log.append(lnb)

    def step(self, rot: _ExtPowers):
        """Moves the full table to s + i h, ``rot`` = _ExtPowers(i h, f): each entry times rot's,
        truncated toward 0 (conj(s) still gives the conjugate table), and D grows by rot's D + 1."""
        f, n = self.f, len(self.x)
        rot._grow(n)
        xs, ys = [], []
        for x, y, c, e in zip(self.x, self.y, rot.x, rot.y):
            re, im = x * c - y * e, x * e + y * c
            xs.append(re >> f if re >= 0 else -(-re >> f))
            ys.append(im >> f if im >= 0 else -(-im >> f))
        self.x, self.y, self.s = xs, ys, self.s + rot.s
        self.depth += max(1, n.bit_length() - 1) + 1

    def dot(self, coefs: tuple[int, ...], order: int = 0, scale: float = 1.0, exact: bool = False):
        """(value, abs_err bound) in mpmath: the exact sum, and the bound times ``scale`` = 2**j;
        ``exact``: the value as the integers [X, Y, e] of (X + i Y) 2**e."""
        self._grow(len(coefs))
        f, exp = self.f, -self.f * (order + 1)
        if order:
            coefs = [c * (-x) ** order for c, x in zip(coefs, self.log)]
        total = [sum(map(mul, coefs, self.x)), sum(map(mul, coefs, self.y)), exp]
        # >= sum |c_b| (ln b)**k m_b u**-(k+1); sigma < 0: |p_b| <= 2 (|X_b| + |Y_b|) u
        weight = (2 * sum(abs(c) * (abs(x) + abs(y)) for c, x, y in zip(coefs, self.x, self.y))
                  if self.s.real < 0 else sum(map(abs, coefs)) << f)
        units = (4 + 2 * order) * (max(1, len(coefs).bit_length() - 1) + self.depth)
        bound = from_man_exp(weight * units, exp - f + int(math.log2(scale)), 53, round_up)
        if not exact:
            total = mp.make_mpc(tuple(from_man_exp(v, exp) for v in total[:2]))
        return total, mp.make_mpf(bound)

    def entry(self, b: int):
        """A filled b**(-s) and its bound 4 D u m_b, D = floor(log2 b) + depth, plus 2**-1070."""
        p = mp.make_mpc(tuple(from_man_exp(v[b - 1], -self.f) for v in (self.x, self.y)))
        units = 4 * (max(1, b.bit_length() - 1) + self.depth) * max(1.0, float(abs(p)))
        return p, math.ldexp(units, -self.f) + 2.0 ** -1070

    def _orders(self, coefs, cs, k: int):
        """``_taylor``'s arithmetic in integers of 2^-f, floored.  fill: the dot's bound; shift:
        L_b's 1.01 D units doubled, of sum_b |c_b p_b|; trunc: 1.5 (n + 1) e^top 2^-(f+k)."""
        fill, f, n = float(mp.ldexp(self.dot(coefs)[1], -k)), self.f, len(coefs)  # fills the table
        logs, unit, sigma = [x / (1 << f) for x in self.log[:n]], 1 << (f + k), float(self.s.real)
        return (logs, [math.exp(-sigma * x) for x in logs],
                list(map(mul, coefs, self.x)), list(map(mul, coefs, self.y)),
                lambda v: [x * -g >> f for x, g in zip(v, self.log)],
                lambda xs, ys, j: complex(sum(xs) // j / unit, sum(ys) // j / unit),
                lambda size, top: (fill, math.ldexp(2 * n.bit_length() * size, -f),
                                   math.ldexp(1.5 * (n + 1) * math.exp(top), -f - k)))


def _integer_sum(coefs: tuple[int, ...], s, order: int) -> int | None:
    """sum_b coefs[b-1] * b**(-s) in exact integers, when order is 0 and s
    is an integer <= 0 whose terms have at most _MAX_SUM_BITS bits; else None."""
    if order or s.imag != 0 or s.real > 0 or s.real != int(s.real) \
            or -s.real * math.log2(len(coefs)) > _MAX_SUM_BITS:
        return None
    m = -int(s.real)
    return sum(c * b ** m for b, c in enumerate(coefs, 1))


def _more_bits(bits: float, err: float, target: float) -> float:
    """Working bits for the next big-float sum, whose bound falls as
    2**-bits, after one at ``bits`` gave the bound ``err`` above ``target``."""
    return bits + max(16.0, 8.0 + math.log2(err / target)) if target > 0.0 else math.inf


def _round(x: int, exp: int) -> tuple[float, bool]:
    """(x 2**exp, exp <= 0, to the nearest double, whether that rounded): Python's int / int rounds
    correctly, ties to even as mpmath at 53 bits; inf beyond the double range."""
    try:
        v = x / (d := 1 << -exp)
    except OverflowError:
        return math.inf, True
    n, m = v.as_integer_ratio()
    return v, n * d != x * m


def _first_bits(wb: int, powers, mag: float, scale: float = 1.0) -> float:
    """The first big-float precision after the double table ``powers`` measured |value|
    = ``mag`` for ``scale`` times its last sum: wb + 16 plus the log2(sum |terms| /
    |value|) bits that cancel; wb + 16 when it could not measure (None, or 0)."""
    if powers is None or not mag > 0.0:
        return wb + 16.0
    return wb + 16 + math.log2(powers.sum_abs * scale / mag)


def _rung(coefs: tuple[int, ...], s, order: int, wb: int, bits: float | None = None,
          powers=None, scale: float = 1.0):
    """One rung (module docstring): (value, abs_err bound, power table) of
    ``scale``, an exact power of two, times sum_b coefs[b-1] b**(-s) (-ln b)**order,
    rounded to ``wb`` bits.  ``bits`` None takes the double table, else big
    floats at ceil(bits) bits; a table passed back in ``powers`` is grown,
    and a double table that cannot measure is dropped (None)."""
    total, err = _integer_sum(coefs, s, order), 0.0
    if total is None and bits is None:
        try:
            powers = powers or _FastPowers(complex(s))
            total, err = powers.dot(coefs, order)
        except (OverflowError, ValueError):  # a term, the sum or the phase beyond doubles
            return 0j, math.inf, None
        v = complex(total.real * scale, total.imag * scale)  # below _TINY it may have flushed
        return (v, err * scale, powers) if abs(v) >= _TINY else (0j, math.inf, None)
    if total is None:
        if not bits <= _MAX_SUM_BITS:
            raise RangeError(f"a sum of {len(coefs)} terms at s={s} needs more than "
                             f"{_MAX_SUM_BITS} working bits")
        powers = powers or _ExtPowers(s, math.ceil(bits))
        # the exact (X + i Y) 2**e, rounded once below (by from_man_exp as mp.mpc rounds, wb > 53)
        total, err = powers.dot(coefs, order, scale, True)
    x, y, e = total if isinstance(total, list) else (total, 0, 0)
    if wb > 53:  # scale, a power of two, exact in the exponent
        e += int(math.log2(scale))
        v = tuple(from_man_exp(c, e, wb, round_nearest) for c in (x, y))
        inexact = v != (from_man_exp(x, e), from_man_exp(y, e))
        v = mp.make_mpc(v)
    else:  # to doubles: Python rounds once
        (x, r), (y, i) = _round(x, e), _round(y, e)
        v, inexact = complex(x * scale, y * scale), r or i
    mag, bound = float(abs(v)), float(err)
    if inexact:
        bound += mag * 2.0 ** -wb
    if (err or inexact) and bound < _TINY:  # rounded below the normal range: cover that
        bound += 2.0 ** -1073
    if not (math.isfinite(mag) and math.isfinite(bound)) or ((v or inexact) and mag < _TINY) \
            or (err and not v and bound < _TINY):  # an inexact 0 that may be below it too
        raise RangeError(f"a sum of {len(coefs)} terms at s={s}: value or bound outside the "
                         "normal double range")
    return v, bound, powers


def _taylor(powers, coefs: tuple[int, ...], reach) -> _Model:
    """The Taylor model (module docstring) of sum_b c_b p_b over ``powers`` about its s, with
    (rho, goal) = reach(a_0, a_1, sum_b |c_b p_b| 2**-k); ConvergenceError past _MAX_ORDER."""
    k = max(map(abs, coefs)).bit_length()  # |c_b| 2**-k < 1: Newton squares the model's values
    cs = [c / (1 << k) for c in coefs]  # c_b 2**-k
    logs, ps, xs, ys, step, total, errors = powers._orders(coefs, cs, k)  # ln b, |p_b|: doubles
    if not (size := sum(mags := list(map(mul, map(abs, cs), ps)))) < math.inf:
        raise OverflowError("Taylor model terms beyond the double range")  # mags: |c_b p_b| 2**-k
    a, fact, top = [total(xs, ys, 1)], 1, logs[-1] * (1 + 2.0 ** -50)
    for j in range(1, _MAX_ORDER + 1):  # a_j: running products by -ln b, totals over j!
        xs, ys, fact = step(xs), step(ys), fact * j
        a.append(total(xs, ys, fact))
        if j == 1:  # the caller's radius and goal, and R_0's terms at rho
            rho, goal = reach(*a, size)
            z = [rho * x for x in logs]
            rest = [m * math.exp(v) * v for m, v in zip(mags, z)]
        rest = list(map(mul, rest, z))  # R_j's terms times (j + 1)!
        if not sum(rest) > goal * fact * (j + 1):
            return _Model(a, rho, k, *errors(size, top), top, sum(rest) / fact / (j + 1))
    raise ConvergenceError(f"no Taylor model of degree {_MAX_ORDER} within {goal:.3g}")


def _horner(model: _Model, d: complex, e: float | None = 0.0):
    """(f, f', f''/2, bound on f's error) of the model, times 2**-k, at an offset d, |d| <= rho;
    e: the rounding of the offset that d stands for, or None for no bound (Newton's steps)."""
    a, skew = model.a, bool(d.real and d.imag)  # skew: a product by d rounds twice, |d| once
    g, gp, gpp, size, slope, geo = a[-1], 0j, 0j, abs(a[-1]), 0.0, 0.0
    for x in reversed(a[:-1]):
        g, gp, gpp = g * d + x, gp * d + g, gpp * d + gp
    if e is None:
        return g, gp, gpp, None
    r = math.nextafter(abs(d), math.inf) if e or skew else abs(d)
    for x in reversed(a[:-1]):  # the bound's sums of |a_j| r**j
        size, slope, geo = size * r + abs(x), slope * r + size, geo * r + r
    err = (model.fill + model.shift * r) * math.exp(model.top * r) + model.trunc * geo
    moved = abs(e) * (slope + len(a) * err / r) if e else 0.0  # slope: sum j |a_j| r**(j-1)
    units = (2 + 2 * skew) * len(a)  # Horner's roundings of sum |a_j| r**j
    return g, gp, gpp, err + model.tail + moved + units * (2.0 ** -53 * size + 2.0 ** -1074)


def _line_newton(model_at, t0: float, max_step: float, radius: float):
    """(t, iterations, last model): Newton on h'(t) = 0, h(t) = |f(sigma + i t)|**2, over real t
    from t0, on the Taylor model model_at(t, reach) builds about sigma + i t, ``reach`` as
    ``_taylor``'s (rho = 2 min(|a_0 / a_1|, max_step): a zero's Kantorovich radius or two grid
    steps; tail 2**-60 sum |c_b p_b|).  Steps (Newton's on f at a simple zero) are clamped to
    max_step, and stop below 1e-13 max(1, |t|) or after 50; |t - t0| > radius or h'' <= 0:
    ConvergenceError."""
    t, tc, model = t0, None, None
    for iterations in range(1, 51):
        if model is None or abs(t - tc) > model.rho:  # no model yet, or the iterate left its disk
            tc, model = t, model_at(t, lambda a0, a1, size: (  # rho, goal
                2.0 * (min(abs(a0 / a1), max_step) if a1 else max_step), 2.0 ** -60 * size))
        g, gp, gpp, _ = _horner(model, 1j * (t - tc), None)
        g = g.conjugate()  # conj f; f' = i g', f'' = -2 g'': h'/2 = -Im(g g'), h''/2 = curv
        curv = abs(gp) ** 2 - 2.0 * (g * gpp).real
        if not curv > 0.0:
            raise ConvergenceError(f"|f|**2 has curvature {curv} at t = {t}", best=t)
        dt = max(-max_step, min((g * gp).imag / curv, max_step))
        t += dt
        if abs(t - t0) > radius:
            raise ConvergenceError(f"escaped capture interval around t0 = {t0} (reached {t})",
                                   best=t)
        if abs(dt) < 1e-13 * max(1.0, abs(t)):
            break
    return t, iterations, model


def _line(coefs: tuple[int, ...], sigma: float, ts, ctx: PrecisionContext):
    """Fast-tier values of sum_b coefs[b-1] b**(-(sigma + i t)) at the increasing
    ordinates ``ts``, each within ctx.target_rel_err * |value| (module docstring)."""
    vals, bits, tol, rots, powers, wb = [], {}, ctx.target_rel_err, {}, None, ctx.working_bits
    for i, t in enumerate(ts):
        keep = powers and ts[i - 1] <= t <= 2.0 * ts[i - 1]
        if keep:  # step by an exact h (Sterbenz)
            h = t - ts[i - 1]
            v, err = powers.step(rots.get(h) or rots.setdefault(h, _FastPowers(complex(0.0, h))))
            # _rung's test; a miss refills where the bound less the steps' charge could pass
            keep = abs(v) >= _TINY and (err <= tol * abs(v) < math.inf
                                        or err - powers.sum_abs * powers.moved > tol * abs(v))
        if not keep:
            v, err, powers = _rung(coefs, complex(sigma, t), 0, wb)
        vals.append(complex(v))
        if not err <= tol * float(abs(v)) < math.inf:
            bits[i] = _first_bits(wb, powers, float(abs(v)))
    for _, run in groupby(enumerate(bits), lambda p: p[1] - p[0]):  # the runs of misses
        run, table = [i for _, i in run], None  # its steps take D to len(run) (D + 1) at most
        prec = max(bits[i] for i in run) + math.log2(len(run) * max(2, len(coefs).bit_length())) + 2
        for i in run:
            s = complex(sigma, ts[i])
            if table and (ts[i] <= 2.0 * ts[i - 1] or 2.0 * ts[i] <= ts[i - 1]):  # Sterbenz
                key = (ts[i] - ts[i - 1], table.f)  # h exact for either sign; one table per h, f
                table.step(rots.get(key) or rots.setdefault(key, _ExtPowers(1j * key[0], table.f)))
                v, err, _ = _rung(coefs, s, 0, wb, prec, table)
                if err <= tol * abs(v) < math.inf:
                    vals[i] = v
                    continue
                prec = _more_bits(prec, err, tol * abs(v))  # a miss refills at more bits
            v, err, table = _rung(coefs, s, 0, wb, prec)
            vals[i] = v if err <= tol * abs(v) < math.inf else _evaluate(coefs, s, ctx, 0, tol)[0]
    return vals


def _evaluate(coefs: tuple[int, ...], s, ctx: PrecisionContext, order: int, tol: float,
              powers: _FastPowers | None = None):
    """(value, abs_err bound) of sum_b coefs[b-1] b**(-s) (-ln b)**order within
    tol * |value| (the ladder of the module docstring); the value is a complex
    on the fast tier and an mpmath complex on the extended tier.  A double
    table at s passed in ``powers`` takes the first rung."""
    wb, bits = ctx.working_bits, None  # bits: first the integer route or the double table
    with _workprec(ctx):
        s_hi = _coerce_complex(s) if ctx.is_fast else _coerce_mpc(s)
    while True:  # then big floats with more bits while the bound misses the target
        v, err, powers = _rung(coefs, s_hi, order, wb, bits, powers if bits is None else None)
        mag = float(abs(v))
        # a NaN or an infinity never certifies; on the extended tier the double table only measures
        if err <= tol * mag < math.inf and (ctx.is_fast or not isinstance(powers, _FastPowers)):
            return (complex(v) if ctx.is_fast else v), err
        bits = (_first_bits(wb, powers, mag) if bits is None
                else _more_bits(bits, err, tol * mag))


def evaluate(spec: FiniteEtaSpec, s, ctx: PrecisionContext = PrecisionContext()) -> EtaValue:
    """Value of the finite sum with an attached absolute error bound.

    Meets ``ctx.target_rel_err`` relative to |value| (an exact zero has
    bound 0); escalates to big-floats when the fast tier cannot certify that.
    """
    v, err = _evaluate(_terms(spec.family, spec.n), s, ctx, 0, ctx.target_rel_err)
    return EtaValue(ComplexPoint(v.real, v.imag), err)


def derivative(spec: FiniteEtaSpec, s, ctx: PrecisionContext = PrecisionContext(),
               order: int = 1) -> EtaValue:
    """Termwise s-derivative of the finite sum (same error contract).

    Each summand base**(-s) differentiates to (-ln base)**order * base**(-s).
    """
    order = _count(order, "order", 1)
    v, err = _evaluate(_terms(spec.family, spec.n), s, ctx, order, ctx.target_rel_err)
    return EtaValue(ComplexPoint(v.real, v.imag), err)


def evaluate_exact(spec: FiniteEtaSpec, m: int) -> Fraction:
    """Exact rational value at an integer argument s = m.

    At m <= 0 the summands are integers; at m > 0 they are exact
    reciprocals of integer powers.  No rounding anywhere.
    """
    if not isinstance(m, int):
        raise DomainError(f"argument must be an integer, got {m!r}")
    total = Fraction(0)
    for coef, base in zip(_terms(spec.family, spec.n), spec.bases):
        total += Fraction(coef) * Fraction(base) ** (-m)
    return total


def trivial_zero_report(spec: FiniteEtaSpec) -> list[tuple[int, Fraction]]:
    """Evaluate every claimed trivial zero exactly and assert it is zero.

    HASSE: arguments 0, -1, ..., -(n-1).  HSTAR: -2, -4, ..., -2(n-1).
    Returns the full (argument, exact value) list so a failure would be
    inspectable; raises VerificationError on any nonzero entry.
    """
    if spec.family is Family.HASSE:
        args = [-m for m in range(spec.n)]
    else:
        args = [-2 * m for m in range(1, spec.n)]
    report = [(a, evaluate_exact(spec, a)) for a in args]
    for a, v in report:
        if v != 0:
            raise VerificationError(
                f"claimed trivial zero fails: family={spec.family.value} n={spec.n} "
                f"argument {a} gives {v}"
            )
    return report

