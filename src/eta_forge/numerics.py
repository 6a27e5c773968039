"""Precision-configurable complex arithmetic and the special functions
needed elsewhere in the package.

Two execution tiers share one API.  A context with ``working_bits == 53``
selects the fast tier (hardware doubles via :mod:`cmath`, with Lanczos's
Gamma, which raises RangeError where its value is not a normal double);
anything wider selects the extended tier (mpmath big-floats at the requested
mantissa, where every function, Gamma included, is mpmath's own).  Callers
pick the tier from the guard digits their computation needs -- alternating
binomial sums lose roughly ``n`` bits to cancellation, which is what the
extended tier exists for.

mpmath loads on the first big float: an extended context, or a fast sum that
escalates.  Until then each module's ``mp`` is one lazy handle (``_mpmath``);
the fast tier never reads it, so a fast-tier process never imports mpmath.

Arguments pass one gate per tier: a non-number (None, a string), NaN or inf raises DomainError.
The fast tier's (``_coerce_complex``) returns a finite hardware complex and raises RangeError for
a finite value beyond the doubles (10**400, mpf 1e400), as a cmath function that fails or leaves
them does (``_cmath``).  The extended tier's (``_coerce_mpc``) takes ints, doubles and mpmath
numbers exactly and rounds a Fraction once at the working bits plus 16, never through a double.

Branch convention: principal logarithm with Im in (-pi, pi] everywhere.

All operations are pure; identical inputs and context give bit-identical
outputs, and nothing here mutates shared state.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from contextlib import nullcontext
from dataclasses import dataclass

from .errors import DomainError, PoleError, RangeError

__all__ = [
    "PrecisionContext",
    "ComplexPoint",
    "RealValue",
    "cexp",
    "cln",
    "cpow",
    "csin",
    "cgamma",
]

# A "real at working precision"; records and CLI payloads store plain floats.
RealValue = float

FAST_BITS = 53


class _Mpmath:
    """mpmath, imported on the first attribute read.  A module holds ``mp = _mpmath(globals(),
    *names)``, names from :mod:`mpmath.libmp`; the first read imports mpmath and rebinds ``mp``
    and those names in every such module, so that the extended tier's loops then look them up
    as plain globals.  Once mpmath is imported, the call binds them at once."""

    def __init__(self):
        self.users = []

    def __call__(self, namespace: dict, *names: str):
        self.users.append((namespace, names))
        return self._load() if "mpmath" in sys.modules else self

    def _load(self):
        import mpmath
        for namespace, names in self.users:
            namespace["mp"] = mpmath
            namespace.update((n, getattr(mpmath.libmp, n)) for n in names)
        return mpmath

    def __getattr__(self, name: str):
        return getattr(self._load(), name)


_mpmath = _Mpmath()
mp = _mpmath(globals())


@dataclass(frozen=True)
class PrecisionContext:
    """Working mantissa width plus the relative error a caller will accept.

    ``target_rel_err`` can never be tighter than one ulp at the working
    precision (invariant ``target_rel_err >= 2**(1 - working_bits)``).
    """

    working_bits: int = FAST_BITS
    target_rel_err: float = 1e-13

    def __post_init__(self):
        if self.working_bits < FAST_BITS:
            raise DomainError(f"working_bits must be >= {FAST_BITS}, got {self.working_bits}")
        if not self.target_rel_err > 0:
            raise DomainError("target_rel_err must be positive")
        if self.target_rel_err < 2.0 ** (1 - self.working_bits):
            raise DomainError(
                f"target_rel_err {self.target_rel_err} below one ulp at {self.working_bits} bits"
            )

    @property
    def is_fast(self) -> bool:
        return self.working_bits <= FAST_BITS

    @property
    def eps(self) -> float:
        """One ulp at the working precision."""
        return 2.0 ** (1 - self.working_bits)

    @classmethod
    def fast(cls, target_rel_err: float = 1e-13) -> "PrecisionContext":
        return cls(FAST_BITS, target_rel_err)

    @classmethod
    def extended(cls, working_bits: int, target_rel_err: float | None = None) -> "PrecisionContext":
        if target_rel_err is None:
            target_rel_err = 2.0 ** (8 - working_bits)  # 128 ulp of slack
        return cls(working_bits, target_rel_err)


def _is_finite(x) -> bool:
    if isinstance(x, float):
        return math.isfinite(x)
    return isinstance(x, int) or bool(mp.isfinite(x))  # an int of any size is finite


@dataclass(frozen=True)
class ComplexPoint:
    """A complex number sigma + i*t; components are doubles on the fast
    tier and mpmath floats on the extended tier.  NaN/Inf are rejected."""

    re: object
    im: object = 0.0

    def __post_init__(self):
        if not (_is_finite(self.re) and _is_finite(self.im)):
            raise DomainError(f"non-finite components: {self.re!r}, {self.im!r}")

    @classmethod
    def from_complex(cls, z: complex) -> "ComplexPoint":
        z = complex(z)
        return cls(z.real, z.imag)

    @classmethod
    def from_mpc(cls, z) -> "ComplexPoint":
        return cls(mp.mpf(z.real), mp.mpf(z.imag))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def to_mpc(self):
        """Precision-preserving: never rounds to the ambient mpmath prec."""
        return _coerce_mpc(self)

    def conjugate(self) -> "ComplexPoint":
        return ComplexPoint(self.re, -self.im)

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __str__(self):
        return f"({self.re} + {self.im}i)"


def _count(k, what: str, least: int = 0) -> int:
    """k as an int if an integral real >= least (NaN % 1 is NaN), else DomainError."""
    # int is tested first: quicker than the ABC
    if isinstance(k, (int, numbers.Real)) and k >= least and k % 1 == 0:
        return int(k)
    raise DomainError(f"{what} must be an integer >= {least}, got {k!r}")


def _fast_only(ctx: PrecisionContext, name: str):
    """Refuse an extended context: ``name`` computes in doubles only."""
    if not ctx.is_fast:
        raise DomainError(
            f"{name} is fast-tier only; a {ctx.working_bits}-bit context was requested")


def _workprec(ctx: PrecisionContext):
    """mpmath at the working precision for the extended tier's roundings; nothing on the fast."""
    return nullcontext() if ctx.is_fast else mp.workprec(ctx.working_bits)


def _coerce_complex(z) -> complex:
    """The fast tier's gate (module docstring): z as a finite hardware complex."""
    if isinstance(z, str):  # complex() would parse it
        raise DomainError(f"not a number: {z!r}")
    try:
        w = complex(z.to_complex() if isinstance(z, ComplexPoint) else z)
        abs(w)  # raises for a modulus beyond the doubles too
    except OverflowError as exc:  # an int or a Fraction beyond the doubles
        raise RangeError(f"{z!r} is beyond the double range") from exc
    except (TypeError, ValueError) as exc:
        raise DomainError(f"not a number: {z!r}") from exc
    if not cmath.isfinite(w):  # inf from a finite ComplexPoint or mpmath number: beyond the doubles
        beyond = isinstance(z, ComplexPoint) or z == z and abs(z) != math.inf
        raise (RangeError if beyond else DomainError)(f"{z!r} is not a finite double")
    return w


def _coerce_mpc(z):
    """The extended tier's gate (module docstring): z as a finite mpmath complex, never rounded
    through a double."""
    try:
        with mp.extraprec(16):  # a Fraction, at the caller's working bits and a guard
            w = (mp.make_mpc(tuple(mp.convert(x, False)._mpf_ for x in (z.re, z.im)))
                 if isinstance(z, ComplexPoint) else mp.convert(z, False))
    except (TypeError, ValueError, AttributeError) as exc:  # AttributeError: an mpc part
        raise DomainError(f"not a number: {z!r}") from exc
    if not mp.isfinite(w):
        raise DomainError(f"non-finite argument {z!r}")
    return w if isinstance(w, mp.mpc) else mp.make_mpc((w._mpf_, mp.libmp.fzero))


def _cmath(f):
    """cmath's function f, raising RangeError where it fails or leaves the doubles."""
    def mapped(z: complex) -> complex:
        try:
            w = f(z)
        except (ValueError, OverflowError):
            w = complex(math.inf)
        if not cmath.isfinite(w):
            raise RangeError(f"{f.__name__}{z} is beyond the double range")
        return w
    return mapped


_exp, _sin, _cos = _cmath(cmath.exp), _cmath(cmath.sin), _cmath(cmath.cos)


def _wrap(z, ctx: PrecisionContext) -> ComplexPoint:
    return ComplexPoint(z.real, z.imag) if isinstance(z, complex) else ComplexPoint.from_mpc(z)


# ---------------------------------------------------------------------------
# elementary functions
# ---------------------------------------------------------------------------

def cexp(z, ctx: PrecisionContext = PrecisionContext()) -> ComplexPoint:
    """exp(z).  Raises RangeError where the value leaves the doubles (fast tier)."""
    with _workprec(ctx):
        return _wrap(_exp(_coerce_complex(z)) if ctx.is_fast else mp.exp(_coerce_mpc(z)), ctx)


def cln(z, ctx: PrecisionContext = PrecisionContext()) -> ComplexPoint:
    """Principal log, Im in (-pi, pi].  z = 0 is a domain error."""
    with _workprec(ctx):
        w = _coerce_complex(z) if ctx.is_fast else _coerce_mpc(z)
        if w == 0:
            raise DomainError("log of zero")
        return _wrap(cmath.log(w) if ctx.is_fast else mp.log(w), ctx)


def cpow(z, s, ctx: PrecisionContext = PrecisionContext()) -> ComplexPoint:
    """Principal power exp(s*log z).

    z = 0 returns 0 when Re(s) > 0 and is a domain error otherwise.
    s = 1 returns z unchanged (keeps the identity exact in structure).
    """
    fast = ctx.is_fast
    with _workprec(ctx):
        zc, sc = (_coerce_complex(x) if fast else _coerce_mpc(x) for x in (z, s))
        if zc == 0:
            if (sc.real if fast else mp.re(sc)) > 0:
                return _wrap(0.0j if fast else mp.mpc(0), ctx)
            raise DomainError("0**s undefined for Re(s) <= 0")
        if sc == 1:
            return _wrap(zc, ctx)
        return _wrap(_exp(sc * cmath.log(zc)) if fast else mp.exp(sc * mp.log(zc)), ctx)


def csin(z, ctx: PrecisionContext = PrecisionContext()) -> ComplexPoint:
    with _workprec(ctx):
        return _wrap(_sin(_coerce_complex(z)) if ctx.is_fast else mp.sin(_coerce_mpc(z)), ctx)


# ---------------------------------------------------------------------------
# Gamma: Lanczos on the fast tier, mpmath's gamma on the extended tier
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_COEFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _sin_pi(z: complex) -> complex:
    """sin(pi z) as (-1)^n sin(pi (z - n)), n = round(Re z): z - n is exact (Sterbenz's lemma),
    so the value stays relatively accurate next to the integers, where it vanishes."""
    n = round(z.real)
    v = _sin(math.pi * complex(z.real - n, z.imag))
    return -v if n % 2 else v


def _gamma_lanczos(z: complex) -> complex:
    if z.real < 0.5:  # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        g = _gamma_lanczos(1.0 - z)
        if abs(z.imag) <= 200.0:
            return math.pi / (_sin_pi(z) * g)
        # sin(pi z) overflows from |Im z| about 226: take it times e**-(pi |Im z|), that in halves,
        # reduced as in _sin_pi: (-1)^n (sin(pi x) + i sgn(Im z) cos(pi x)) / 2, x = Re z - n, as
        # the dropped e**-(2 pi |Im z|) is below 1e-545
        n = round(z.real)
        x, h = math.pi * (z.real - n), math.exp(-0.5 * (math.pi * abs(z.imag)))
        sin = complex(math.sin(x), math.copysign(math.cos(x), z.imag)) / (-2 if n % 2 else 2)
        return math.pi * h / (sin * g) * h
    z = z - 1.0
    x = _LANCZOS_COEFS[0]
    for i in range(1, len(_LANCZOS_COEFS)):
        x += _LANCZOS_COEFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


def cgamma(z, ctx: PrecisionContext = PrecisionContext()) -> ComplexPoint:
    """Complex Gamma.  Poles at the non-positive integers raise PoleError; on the
    fast tier a value that is not a normal double raises RangeError."""
    with _workprec(ctx):
        w = _coerce_complex(z) if ctx.is_fast else _coerce_mpc(z)
        if w.imag == 0 and w.real <= 0 and w.real == int(w.real):
            raise PoleError(f"Gamma pole at {complex(w)}", location=complex(w))
        if not ctx.is_fast:
            return _wrap(mp.gamma(w), ctx)
    try:
        g = _gamma_lanczos(w)
    except (OverflowError, ZeroDivisionError):  # beyond doubles, or 1/Gamma(1-z) underflowed
        g = complex(math.inf)
    if not (cmath.isfinite(g) and max(abs(g.real), abs(g.imag)) >= sys.float_info.min):
        raise RangeError(
            f"Gamma({w}) is outside the fast tier's range: Lanczos overflows from "
            "Re z near 143 and |Gamma| must be a normal double; use an extended context")
    return _wrap(g, ctx)
