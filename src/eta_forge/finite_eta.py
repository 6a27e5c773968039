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

Cancellation policy: the binomial coefficients peak near C(2n, n) ~
4^n / sqrt(n), so near a zero the alternating sum cancels almost all of
its ~n bits.  The fast tier certifies its result against the accumulated
term magnitude; when it cannot meet the requested tolerance it escalates
to big-floats.  Both tiers then sum at the context's working bits plus a
guard of bitlen(C(2n, n)) + 2|Im s| + 16 bits (69 + ... on the fast tier).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .errors import DomainError, VerificationError
from .numerics import ComplexPoint, PrecisionContext, _coerce_complex

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
def _terms(family: Family, n: int) -> tuple[tuple[int, int], ...]:
    """(signed exact binomial coefficient, integer base) per summand."""
    if family is Family.HASSE:
        return tuple(((-1) ** k * math.comb(n, k), k + 1) for k in range(n + 1))
    return tuple(((-1) ** (k - 1) * math.comb(2 * n, n + k), k) for k in range(1, n + 1))


def _guard_bits(spec: FiniteEtaSpec, s: complex) -> int:
    """Extra bits a big-float sum needs on top of the context's precision
    to survive the worst-case alternating cancellation."""
    peak = math.comb(2 * spec.n, spec.n)
    return peak.bit_length() + int(2 * abs(s.imag)) + 16


class _Neumaier:
    """Compensated accumulator (error-free transformation per add)."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float):
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.c += (self.s - t) + x
        else:
            self.c += (x - t) + self.s
        self.s = t

    @property
    def total(self) -> float:
        return self.s + self.c


def _eval_fast(spec: FiniteEtaSpec, s: complex, order: int):
    """Fast-tier compensated sum.

    Returns (value, max_term, abs_err_bound).  The bound covers
    per-term transcendental error plus the compensated-summation residue;
    it is honest, not certified against the caller's tolerance.
    """
    re_acc, im_acc = _Neumaier(), _Neumaier()
    sum_abs = 0.0
    max_term = 0.0
    logs_needed = order > 0 or s.imag != 0.0 or s.real != int(s.real)
    exact_int = not logs_needed and abs(s.real) <= 512
    if exact_int and s.real <= 0:
        # integer powers only: sum exactly in arbitrary-precision integers
        m = -int(s.real)
        total = 0
        for coef, base in _terms(spec.family, spec.n):
            t = coef * base ** m
            total += t
            a = abs(float(t))
            max_term = max(max_term, a)
        val = complex(float(total), 0.0)
        # the integer sum is exact; only the final float conversion rounds
        err = 0.0 if abs(total) < 2 ** 53 else abs(val) * 2.0 ** -53
        return val, max_term, err
    max_log = 0.0
    for coef, base in _terms(spec.family, spec.n):
        lnb = math.log(base)
        max_log = max(max_log, lnb)
        if exact_int:
            term = complex(coef / base ** int(s.real), 0.0)
        else:
            term = coef * cmath.exp(-s * lnb)
        if order:
            term *= (-lnb) ** order
        re_acc.add(term.real)
        im_acc.add(term.imag)
        a = abs(term)
        sum_abs += a
        max_term = max(max_term, a)
    val = complex(re_acc.total, im_acc.total)
    per_term_rel = (2.0 * abs(s) * max_log + 4.0 + 2.0 * order) * 2.0 ** -53
    err = sum_abs * (per_term_rel + 2.0 ** -52)
    return val, max_term, err


def _eval_extended(spec: FiniteEtaSpec, s, bits: int, order: int):
    """Big-float summation at `bits` working bits; same return shape as
    :func:`_eval_fast`, with the value as an mpmath complex."""
    with mp.workprec(bits):
        sm = mp.mpc(s)
        total = mp.mpc(0)
        sum_abs = mp.mpf(0)
        max_term = mp.mpf(0)
        max_log = mp.mpf(0)
        for coef, base in _terms(spec.family, spec.n):
            lnb = mp.log(base)
            max_log = max(max_log, lnb)
            term = coef * mp.exp(-sm * lnb)
            if order:
                term *= (-lnb) ** order
            total += term
            a = abs(term)
            sum_abs += a
            if a > max_term:
                max_term = a
        eps = mp.mpf(2) ** (1 - bits)
        per_term_rel = (2 * abs(sm) * max_log + 4 + 2 * order + spec.n) * eps
        err = float(sum_abs * per_term_rel)
        return total, float(max_term), err


def _certified(err: float, value_mag: float, max_term: float, tol: float) -> bool:
    # relative target away from zeros, absolute target (scaled by the
    # largest term) when the sum cancels to nearly nothing
    return err <= max(tol * value_mag, tol * max_term)


def _evaluate(spec: FiniteEtaSpec, s, ctx: PrecisionContext, order: int) -> EtaValue:
    """The order-th termwise s-derivative (order 0: the value itself)."""
    sc = _coerce_complex(s)
    if ctx.is_fast:
        try:
            val, max_term, err = _eval_fast(spec, sc, order)
        except OverflowError:
            val, max_term, err = 0.0, math.inf, math.inf
        if _certified(err, abs(val), max_term, ctx.target_rel_err):
            return EtaValue(ComplexPoint(val.real, val.imag), err)
        bits = ctx.working_bits + _guard_bits(spec, sc)
        total, _max_term, err = _eval_extended(spec, sc, bits, order)
        v = complex(total)
        err += abs(v) * 2.0 ** -53  # final rounding back to doubles
        return EtaValue(ComplexPoint(v.real, v.imag), err)
    s_hi = s.to_mpc() if isinstance(s, ComplexPoint) else s  # keep full input precision
    bits = ctx.working_bits + _guard_bits(spec, sc)
    total, _max_term, err = _eval_extended(spec, s_hi, bits, order)
    with mp.workprec(ctx.working_bits):
        value = ComplexPoint(mp.mpf(total.real), mp.mpf(total.imag))
        err += float(abs(total)) * 2.0 ** (1 - ctx.working_bits)
        return EtaValue(value, err)


def evaluate(spec: FiniteEtaSpec, s, ctx: PrecisionContext = PrecisionContext()) -> EtaValue:
    """Value of the finite sum with an attached absolute error bound.

    Meets ``ctx.target_rel_err`` relatively, or absolutely relative to the
    largest term magnitude when the result is near zero; escalates to the
    extended tier when the fast tier cannot certify that.
    """
    return _evaluate(spec, s, ctx, 0)


def derivative(spec: FiniteEtaSpec, s, ctx: PrecisionContext = PrecisionContext(),
               order: int = 1) -> EtaValue:
    """Termwise s-derivative of the finite sum (same error contract).

    Each summand base**(-s) differentiates to (-ln base)**order * base**(-s).
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    return _evaluate(spec, s, ctx, order)


def evaluate_exact(spec: FiniteEtaSpec, m: int) -> Fraction:
    """Exact rational value at an integer argument s = m.

    At m <= 0 the summands are integers; at m > 0 they are exact
    reciprocals of integer powers.  No rounding anywhere.
    """
    if not isinstance(m, int):
        raise DomainError(f"argument must be an integer, got {m!r}")
    total = Fraction(0)
    for coef, base in _terms(spec.family, spec.n):
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

