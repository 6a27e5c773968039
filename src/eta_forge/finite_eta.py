"""The two finite eta families and their exact trivial zeros.

Family HASSE with index n is the alternating binomial sum

    sum_{k=0}^{n} (-1)^k C(n, k) (k+1)^(-s)

(the building block of the globally convergent series in
:mod:`eta_forge.hasse_global`); family HSTAR with index n is

    sum_{k=1}^{n} (-1)^(k-1) C(2n, n+k) k^(-s),

the finite sum induced by the harmonic kernel of degree 2n.  Both are
entire in s.  HASSE vanishes exactly at s = 0, -1, ..., -(n-1); HSTAR at
s = -2, -4, ..., -2(n-1).  Those zeros are checked in exact rational
arithmetic, never in floating point.

Summation: each tier fills a power table p_b = b^(-s), with ln b, for the
bases b = 1, 2, ...: one transcendental per base on the fast tier, one per
prime base in big floats (b^(-s) is completely multiplicative), then takes
the dot product with the exact integer coefficients (times (-ln b)^k at order k):
``math.fsum`` on the fast tier (each component rounded once), ``mp.fdot``
on the extended tier.  A table grows one base at a time, so a global
series that lengthens keeps its powers, and one table serves every order.
One rung (``_rung``) takes each such sum, for these finite sums and for
the global series alike: the double table at s rounded to a double
(t ln b in double-double, about 2|Re s| ln n + 8 units of 2^-53 per
term at any practical t), or big floats at given bits with s at full
precision.  At order 0 and an integer s <= 0 it sums the integer powers
exactly, so a trivial zero is an exact 0 with bound 0.  It rounds the
value to the working precision, charged only when inexact.  A double
table with a term beyond the double range, or a value below its normal
range, cannot measure: its bound is infinite.  A big-float value outside
the normal double range (a flush to 0 would look exact), a bound beyond
it, or a sum needing over 65536 bits raises RangeError.

Certification ladder (``_evaluate``), for any sum with integer
coefficients: a result is returned only when its bound is within
tol * |value|, so a sum that cancels is never passed on the strength of
its largest term.  The double table runs first on both tiers; on the
fast tier it may be the answer, on both it measures the cancellation.
Big floats start at wb + 16 + log2(sum |terms| / |value|) bits read off
it (``_first_bits``), and retry with more bits while the bound misses.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

import mpmath as mp

from .errors import DomainError, RangeError, VerificationError
from .numerics import ComplexPoint, PrecisionContext, _coerce_complex, _coerce_mpc

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
        if not isinstance(self.n, int) or self.n < 0:
            raise DomainError(f"index n must be a non-negative integer, got {self.n!r}")
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
def _log_dd(b: int) -> tuple[float, float, float, float]:
    """ln b as a double-double hi + lo (taken from mpmath at 128 bits), with
    the Veltkamp halves of hi for Dekker's TwoProduct."""
    with mp.workprec(128):
        ln = mp.log(b)
        hi = float(ln)
        lo = float(ln - hi)
    return (hi, lo) + _split(hi)


class _FastPowers:
    """Fast-tier power table p_b = b**(-s) for b = 1, 2, ..., with ln b.

    The table grows one base at a time (one ``cmath.exp`` per base) as
    :meth:`dot` asks for more, so a global series that lengthens keeps its
    powers, and every order k sums over the same table.  The phase t * ln b
    (t = Im s) is formed as ph + pe in double-double (Dekker's TwoProduct
    of t and the cached ln b, plus t times its low part); one ``cmath.exp``
    takes ph and the residue pe is applied as a first-order rotation, so
    the per-term error does not grow with t until (|s| ln b 2**-52)**2 does.
    """

    def __init__(self, s: complex):
        self.s = s
        self.re, self.im, self.mag, self.log = [], [], [], []

    def _grow(self, size: int):
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

    def dot(self, coefs: tuple[int, ...], order: int = 0) -> tuple[complex, float]:
        """(value, abs_err bound) of sum_i coefs[i] * p_(i+1) * (-ln(i+1))**order.

        The bound is the per-term error model (transcendental, phase and
        product roundings) over the summed magnitudes, kept as ``sum_abs``
        for :func:`_first_bits`; ``math.fsum`` rounds each component once.
        Raises OverflowError beyond the double range.
        """
        self._grow(len(coefs))
        if order:
            coefs = [c * (-x) ** order for c, x in zip(coefs, self.log)]
        self.sum_abs = sum(map(mul, map(abs, coefs), self.mag))
        if self.sum_abs == math.inf:
            raise OverflowError("finite sum beyond the double range")
        val = complex(math.fsum(map(mul, coefs, self.re)), math.fsum(map(mul, coefs, self.im)))
        max_log = math.log(len(coefs))
        phase = abs(self.s) * max_log
        drift = phase * 2.0 ** -52  # squared as a product: inf, not OverflowError, at huge |s|
        per_term_rel = ((2.0 * abs(self.s.real) * max_log + 8.0 + 2.0 * order) * 2.0 ** -53
                        + phase * 2.0 ** -100 + drift * drift)
        return val, self.sum_abs * (per_term_rel + 2.0 ** -52)


@lru_cache(maxsize=None)
def _least_factor(b: int) -> int:
    """The least prime factor of b >= 2."""
    return next((q for q in range(2, math.isqrt(b) + 1) if b % q == 0), b)


class _ExtPowers:
    """Extended-tier power table at ``bits`` working bits; the same
    interface as :class:`_FastPowers`, with ``mp.fdot`` for the dot product.
    b**(-s) is completely multiplicative, so only a prime base takes ``mp.log``
    and ``mp.exp``; a composite b = q r, q its least prime factor, takes
    p_q p_r, ln q + ln r and |p_q| |p_r| from the bases before it (a sieve)."""

    def __init__(self, s, bits: int):
        self.bits = bits
        with mp.workprec(bits):
            self.s = mp.mpc(s)
        self.p, self.mag, self.log = [mp.mpc(1)], [mp.mpf(1)], [mp.mpf(0)]  # base 1

    def _grow(self, size: int):
        for b in range(len(self.p) + 1, size + 1):
            q = _least_factor(b)
            if q == b:  # a prime: one log and one exp
                lnb = mp.log(b)
                p = mp.exp(-self.s * lnb)
                self.mag.append(abs(p))
            else:  # b = q r: the product of the entries of q and r
                i, j = q - 1, b // q - 1
                p, lnb = self.p[i] * self.p[j], self.log[i] + self.log[j]
                self.mag.append(self.mag[i] * self.mag[j])
            self.p.append(p)
            self.log.append(lnb)

    def dot(self, coefs: tuple[int, ...], order: int = 0, scale: float = 1.0):
        """(value, abs_err bound), both in mpmath; the bound is multiplied
        by ``scale``, a power of two.  A base of Omega(b) <= log2 b prime
        factors carries an exp and a product rounding per factor, and at
        order k its summed logarithm k times over."""
        with mp.workprec(self.bits):
            self._grow(len(coefs))
            if order:
                coefs = [c * (-x) ** order for c, x in zip(coefs, self.log)]
            total = mp.fdot(coefs, self.p)
            sum_abs = mp.fdot(map(abs, coefs), self.mag)
            max_log = mp.log(len(coefs))
            depth = len(coefs).bit_length() - 1
            per_term_rel = ((2 * abs(self.s) * max_log + 4 + 2 * order + len(coefs)
                             + (6 + order) * depth) * mp.mpf(2) ** (1 - self.bits))
            return total, sum_abs * per_term_rel * scale


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
        total, err = powers.dot(coefs, order, scale)
    with mp.workprec(wb):  # the final rounding to the working precision
        v = mp.mpc(total)
        inexact = v != total
        v *= scale
    mag, bound = float(abs(v)), float(err)
    if inexact:
        bound += mag * 2.0 ** -wb
    if (err or inexact) and bound < _TINY:  # rounded below the normal range: cover that
        bound += 2.0 ** -1073
    if not (math.isfinite(mag) and math.isfinite(bound)) or (v and mag < _TINY):
        raise RangeError(f"a sum of {len(coefs)} terms at s={s}: value or bound outside the "
                         "normal double range")
    return v, bound, powers


def _evaluate(coefs: tuple[int, ...], s, ctx: PrecisionContext, order: int, tol: float):
    """(value, abs_err bound) of sum_b coefs[b-1] b**(-s) (-ln b)**order within
    tol * |value| (the ladder of the module docstring); the value is a complex
    on the fast tier and an mpmath complex on the extended tier."""
    wb = ctx.working_bits
    s_hi = _coerce_complex(s) if ctx.is_fast else _coerce_mpc(s)
    bits = None  # first the integer route or the double table
    while True:  # then big floats with more bits while the bound misses the target
        v, err, powers = _rung(coefs, s_hi, order, wb, bits)
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
    if order < 1:
        raise DomainError("order must be >= 1")
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

