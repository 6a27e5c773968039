"""Complex powers of the generators via the binomial series, and the
scalar machinery attached to them.

The power a^s is renormalized around the unit, a^s = (1 + (a-1))^s =
sum_k C(s, k) (a-1)^k with the generalized binomial coefficient
C(s, k) = s (s-1) ... (s-k+1) / k!.  Truncations of that series are exact
symbolic objects (WeylPoly with coefficients polynomial in s); the scalar
coherence functional collapses the operator part and leaves

    pi(s) = sum_k C(s, k),

which converges for Re(s) > 0 with |C(s,k)| ~ k^(-1-Re s) and equals 2^s
there.  The region where the operator series converges in the coherence
sense is the Clifford domain of ``clifford_contains``.

The equilibrium identity multiplies the K=1 truncations of b^s and a^s,
normal-orders at u = 1, and reduces modulo the observer submodule; the
surviving scalar is exactly 1 + 2s(s-1).
"""

from __future__ import annotations

import cmath
import enum
import math
from fractions import Fraction

from .errors import DomainError, RangeError, VerificationError
from .hasse_global import GlobalEvalResult
from .numerics import (ComplexPoint, PrecisionContext, _coerce_complex, _coerce_mpc, _count,
                       _fast_only, _workprec)
from .weyl_algebra import SPoly, WeylPoly, _decoded, _reduced, mod_observer

__all__ = [
    "Generator",
    "CliffordSide",
    "binom_coeff",
    "pi_s",
    "clifford_contains",
    "binom_spoly",
    "operator_power_truncated",
    "equilibrium_identity_check",
]


class Generator(enum.Enum):
    A = "a"
    B = "b"


class CliffordSide(enum.Enum):
    A_SIDE = "a"
    B_SIDE = "b"


def _letter(x, kind, what: str):
    """The member of ``kind`` (Generator or CliffordSide) for the letter a or b, or ``x`` if
    it is one; anything else is a DomainError."""
    if isinstance(x, kind):
        return x
    if isinstance(x, str) and x.lower() in ("a", "b"):
        return kind(x.lower())
    raise DomainError(f"{what} must be a or b, got {x!r}")


def binom_coeff(s, k: int, ctx: PrecisionContext = PrecisionContext()) -> ComplexPoint:
    """Generalized binomial coefficient s(s-1)...(s-k+1)/k!.

    A product of k exact-integer-shifted factors; relative error grows at
    most linearly in k.
    """
    k = _count(k, "k")
    acc, z = (1.0 + 0.0j, _coerce_complex(s)) if ctx.is_fast else (_coerce_mpc(1), _coerce_mpc(s))
    with _workprec(ctx):  # the extended tier's roundings
        for j in range(k):
            acc *= (z - j) / (j + 1)
    return ComplexPoint(acc.real, acc.imag)


_HEAD = 48   # directly summed leading terms
_COLS = 44   # averaging columns applied to the tail partial sums


def pi_s(s, ctx: PrecisionContext = PrecisionContext()) -> GlobalEvalResult:
    """The scalar series sum_k C(s, k); analytically 2^s for Re(s) > 0.

    Refuses Re(s) <= 0 (the terms decay like k^(-1-Re s), so the series
    risks divergence there).  The eventually alternating tail is summed
    with iterated averaging of partial sums; the reported tail bound is
    eight times the last averaging correction plus a rounding floor.
    Double precision only: an extended context raises DomainError, and
    terms beyond double range raise RangeError.
    """
    _fast_only(ctx, "pi_s")
    sc = _coerce_complex(s)
    if not sc.real > 0:
        raise DomainError(
            f"Re(s) = {sc.real} <= 0: the coefficient series risks divergence; refusing")
    if sc.imag == 0.0 and sc.real == int(sc.real):
        n = int(sc.real)
        if n <= 1023:
            # terminating binomial sum: exactly 2^n
            return GlobalEvalResult(ComplexPoint(float(2 ** n), 0.0), n + 1, 0.0)
    total_terms = _HEAD + _COLS + 2
    c = 1.0 + 0.0j
    partials = []
    acc = 0.0 + 0.0j
    scale = 0.0
    for k in range(total_terms):
        acc += c
        partials.append(acc)
        scale = max(scale, abs(acc))
        c *= (sc - k) / (k + 1)
    row = partials[_HEAD:]
    prev_top = row[0]
    last_change = math.inf
    while len(row) > 1:
        row = [(row[i] + row[i + 1]) / 2.0 for i in range(len(row) - 1)]
        last_change = abs(row[0] - prev_top)
        prev_top = row[0]
    value = row[0]
    tail = 8.0 * last_change + scale * total_terms * 2.0 ** -52
    if not (cmath.isfinite(value) and math.isfinite(tail)):
        raise RangeError(f"pi_s at s = {sc}: the terms C(s, k) exceed double range")
    return GlobalEvalResult(ComplexPoint(value.real, value.imag), total_terms, tail)


def clifford_contains(s, side=CliffordSide.A_SIDE) -> bool:
    """Membership in the convergence domain of the operator power series.

    A side: (sigma-1)^2 + t^2 < 1,  1/4 <= sigma <= 3/4,  0 <= t <= 1/2.
    B side is the mirror image under sigma -> 1 - sigma.  The disk
    inequality is strict, the band inequalities inclusive, exactly as the
    domain is defined.

    Inside the bands (sigma-1)^2 + t^2 <= (3/4)^2 + (1/2)^2 = 13/16 < 1, so
    the disk never binds.  The bands are their own mirror image, so the two
    sides are the same rectangle and differ only where 1 - sigma rounds onto
    a band edge (sigma = 1/4 - 2^-55 lies on the B side alone).
    """
    side = _letter(side, CliffordSide, "side")
    sc = _coerce_complex(s)
    sigma, t = sc.real, sc.imag
    if side is CliffordSide.B_SIDE:
        sigma = 1.0 - sigma
    # the bands first: they bound sigma and t before anything is squared
    return (0.25 <= sigma <= 0.75
            and 0.0 <= t <= 0.5
            and (sigma - 1.0) ** 2 + t * t < 1.0)


def _falling_factorial(k: int) -> list[int]:
    """Integer coefficients of s(s-1)...(s-k+1), lowest degree first."""
    coeffs = [1]
    for j in range(k):
        coeffs = [lower - j * c for lower, c in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def binom_spoly(k: int) -> SPoly:
    """C(s, k) expanded as an exact polynomial in the formal symbol s."""
    k = _count(k, "k")
    den = math.factorial(k)
    return SPoly({deg: Fraction(c, den) for deg, c in enumerate(_falling_factorial(k))})


def operator_power_truncated(base, K: int) -> WeylPoly:
    """Truncated binomial power sum_{k<=K} C(s,k) (base - 1)^k.

    Returns the canonical WeylPoly with SPoly coefficients (the phase u
    is normalized to 1 in this symbolic-s setting).  The coefficients are
    summed as integer numerators over K!, which are the result's integer form.
    """
    base, K = _letter(base, Generator, "base"), _count(K, "truncation order K")
    den = math.factorial(K)
    num: dict[int, dict[int, int]] = {}  # power of the generator -> {deg: numerator}
    for k in range(K + 1):
        ck = _falling_factorial(k)
        scale = den // math.factorial(k)
        # (X - 1)^k for a single generator X expands commutatively
        for j in range(k + 1):
            coef = math.comb(k, j) * (-1) ** (k - j) * scale
            acc = num.setdefault(j, {})
            for deg, c in enumerate(ck):
                acc[deg] = acc.get(deg, 0) + coef * c
    return _decoded(_reduced(den, {(j, 0) if base is Generator.A else (0, j):
                                   {deg: (c, 0) for deg, c in acc.items() if c}
                                   for j, acc in num.items()}), SPoly)


def equilibrium_identity_check() -> SPoly:
    """Scalar part of the K=1 truncated product b^s a^s modulo the
    observer submodule; asserts it equals 1 - 2s + 2s^2 = 1 + 2s(s-1).

    The product (1 + s(b-1))(1 + s(a-1)) is normal-ordered with u = 1;
    dropping the monomials with a trailing b or leading a leaves the
    returned polynomial.
    """
    pb = operator_power_truncated(Generator.B, 1)
    pa = operator_power_truncated(Generator.A, 1)
    scalar = mod_observer(pb * pa).scalar_part()
    expected = SPoly({0: Fraction(1), 1: Fraction(-2), 2: Fraction(2)})
    if scalar != expected:
        raise VerificationError(
            f"equilibrium identity fails: got {scalar}, expected {expected}")
    return scalar
