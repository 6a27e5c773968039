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
_LN_OVERFLOW = 709.782712893384  # exp() overflows a double beyond this


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
    """Accept ComplexPoint, complex, or real; return a hardware complex (NaN, inf: DomainError)."""
    if isinstance(z, ComplexPoint):
        return z.to_complex()  # finite components, though they may overflow a double
    w = complex(z)
    if not cmath.isfinite(w):
        raise DomainError(f"non-finite argument {z!r}")
    return w


def _coerce_mpc(z):
    """Accept ComplexPoint, mpmath number, complex, or real; return an mpmath
    complex that is never rounded to the ambient mpmath prec."""
    if isinstance(z, mp.mpc):  # each part is exact as it stands: nothing to round
        return z
    if not isinstance(z, (ComplexPoint, mp.mpf)):
        z = _coerce_complex(z)
    re, im = (z.re, z.im) if isinstance(z, ComplexPoint) else (z.real, z.imag)
    bits = max(getattr(x, "_mpf_", (0, 0, 0, 53))[3] for x in (re, im))  # mantissa bit count
    return mp.make_mpc(tuple(mp.mpf(x, prec=max(53, bits) + 8)._mpf_ for x in (re, im)))


def _wrap(z, ctx: PrecisionContext) -> ComplexPoint:
    if isinstance(z, complex):
        return ComplexPoint(z.real, z.imag)
    return ComplexPoint.from_mpc(z)


# ---------------------------------------------------------------------------
# elementary functions
# ---------------------------------------------------------------------------

def cexp(z, ctx: PrecisionContext = PrecisionContext()) -> ComplexPoint:
    """exp(z).  Raises RangeError if Re(z) exceeds the exponent range."""
    if ctx.is_fast:
        w = _coerce_complex(z)
        if w.real > _LN_OVERFLOW:
            raise RangeError(f"exp overflow: Re(z) = {w.real} exceeds double range")
        return _wrap(cmath.exp(w), ctx)
    with mp.workprec(ctx.working_bits):
        return _wrap(mp.exp(_coerce_mpc(z)), ctx)


def cln(z, ctx: PrecisionContext = PrecisionContext()) -> ComplexPoint:
    """Principal log, Im in (-pi, pi].  z = 0 is a domain error."""
    if ctx.is_fast:
        w = _coerce_complex(z)
        if w == 0:
            raise DomainError("log of zero")
        return _wrap(cmath.log(w), ctx)
    with mp.workprec(ctx.working_bits):
        w = _coerce_mpc(z)
        if w == 0:
            raise DomainError("log of zero")
        return _wrap(mp.log(w), ctx)


def cpow(z, s, ctx: PrecisionContext = PrecisionContext()) -> ComplexPoint:
    """Principal power exp(s*log z).

    z = 0 returns 0 when Re(s) > 0 and is a domain error otherwise.
    s = 1 returns z unchanged (keeps the identity exact in structure).
    """
    zc = _coerce_complex(z) if ctx.is_fast else _coerce_mpc(z)
    sc = _coerce_complex(s) if ctx.is_fast else _coerce_mpc(s)
    if zc == 0:
        if (sc.real if ctx.is_fast else mp.re(sc)) > 0:
            return _wrap(0.0j, ctx) if ctx.is_fast else _wrap(mp.mpc(0), ctx)
        raise DomainError("0**s undefined for Re(s) <= 0")
    if sc == 1:
        return _wrap(zc, ctx)
    if ctx.is_fast:
        return _wrap(cmath.exp(sc * cmath.log(zc)), ctx)
    with mp.workprec(ctx.working_bits):
        return _wrap(mp.exp(sc * mp.log(zc)), ctx)


def csin(z, ctx: PrecisionContext = PrecisionContext()) -> ComplexPoint:
    if ctx.is_fast:
        try:
            return _wrap(cmath.sin(_coerce_complex(z)), ctx)
        except OverflowError as exc:
            raise RangeError(f"sin overflow at |Im z| too large: {exc}") from exc
    with mp.workprec(ctx.working_bits):
        return _wrap(mp.sin(_coerce_mpc(z)), ctx)


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


def _is_nonpositive_int(re: float, im: float) -> bool:
    return im == 0.0 and re <= 0.0 and re == math.floor(re)


def _gamma_lanczos(z: complex) -> complex:
    if z.real < 0.5:  # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        g = _gamma_lanczos(1.0 - z)
        if abs(z.imag) <= 200.0:
            return math.pi / (cmath.sin(math.pi * z) * g)
        x, y = math.pi * z.real, math.pi * abs(z.imag)  # sin(pi z) overflows from y about 710:
        e, h = math.exp(-2.0 * y), math.exp(-0.5 * y)  # take it times e**-y, e**-y in halves
        sin = complex(math.sin(x) * (1.0 + e), math.copysign(1.0 - e, z.imag) * math.cos(x)) / 2
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
    if ctx.is_fast:
        w = _coerce_complex(z)
        if _is_nonpositive_int(w.real, w.imag):
            raise PoleError(f"Gamma pole at {w}", location=w)
        try:
            g = _gamma_lanczos(w)
        except (OverflowError, ZeroDivisionError):  # beyond doubles, or 1/Gamma(1-z) underflowed
            g = complex(math.inf)
        if not (cmath.isfinite(g) and max(abs(g.real), abs(g.imag)) >= sys.float_info.min):
            raise RangeError(
                f"Gamma({w}) is outside the fast tier's range: Lanczos overflows from "
                "Re z near 143 and |Gamma| must be a normal double; use an extended context")
        return _wrap(g, ctx)
    with mp.workprec(ctx.working_bits):
        w = _coerce_mpc(z)
        if mp.im(w) == 0 and mp.re(w) <= 0 and mp.re(w) == mp.floor(mp.re(w)):
            raise PoleError(f"Gamma pole at {complex(w)}", location=complex(w))
        return _wrap(mp.gamma(w), ctx)
