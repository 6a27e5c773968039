"""Exact symbolic kernel for the Weyl algebra on two generators a, b with
[b, a] = ba - ab = u, u a central phase.

Everything here is exact: scalars are Gaussian rationals (complex numbers
with rational parts), the phase u stays symbolic as a polynomial
generator, and normal ordering is the confluent rewrite b a -> a b + u.
The canonical form of any element is a finite sum of monomials a^i b^j
(all a's to the left) with coefficients polynomial in u.

Both hot paths work on plain ints and build exact objects once, at the
end: normal ordering merges equal intermediate words into one integer
multiplicity each (the cost follows distinct words, not rewrite paths), and
products pack each coefficient polynomial's integer numerators into B-bit
slots of two ints, B = bitlen(W S1 S2) + 2 (see ``WeylPoly.__mul__``).

Reductions: the vacuum submodule is everything ending in b (dropping all
monomials with j > 0); the observer submodule additionally kills leading
a's, so only the scalar part survives.

The single-index algebra suffices: multi-index families of generators
commute componentwise, so callers tag indices externally.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, VerificationError
from .numerics import _count

__all__ = [
    "GaussRat",
    "UPoly",
    "SPoly",
    "WeylWord",
    "WeylPoly",
    "normal_order",
    "mod_vacuum",
    "mod_observer",
    "commutator",
    "substitute_u",
    "lemma_suite",
    "LemmaReport",
    "UnitPhase",
    "RestFrame",
    "rest_frames",
    "parse_weyl_poly",
]


# ---------------------------------------------------------------------------
# exact scalars
# ---------------------------------------------------------------------------

_F0 = Fraction(0)  # one shared zero part: real coefficients are the common case


@dataclass(frozen=True, slots=True)
class GaussRat:
    """Gaussian rational re + im*i with exact Fraction components."""

    re: Fraction = _F0
    im: Fraction = _F0

    @classmethod
    def of(cls, x) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(Fraction(x))
        if isinstance(x, complex):
            raise DomainError("floating complex is not exact; build GaussRat from Fractions")
        raise DomainError(f"cannot make an exact scalar from {x!r}")

    def __add__(self, other):
        o = GaussRat.of(other)
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussRat.of(other))

    def __rsub__(self, other):
        return GaussRat.of(other) + (-self)

    def __mul__(self, other):
        o = GaussRat.of(other)
        return GaussRat(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussRat.of(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return GaussRat((self.re * o.re + self.im * o.im) / d,
                        (self.im * o.re - self.re * o.im) / d)

    def conjugate(self):
        return GaussRat(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            if self.im.denominator == 1:
                return f"{self.im}i"
            return f"({self.im})i"
        sign = "+" if self.im >= 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"({self.re}{sign}{istr})"


_ZERO = GaussRat()
_ONE = GaussRat(Fraction(1))
_I = GaussRat(Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# univariate polynomials over GaussRat (symbol u, and symbol s)
# ---------------------------------------------------------------------------

class _SymbolPoly:
    """Sparse exact polynomial in one symbol; no zero coefficients stored."""

    SYMBOL = "?"
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for k, v in coeffs.items():
                g = GaussRat.of(v)
                if not g.is_zero:
                    clean[_count(k, "a symbol power")] = g
        self.coeffs = clean

    # constructors ---------------------------------------------------------
    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: _ONE})

    @classmethod
    def const(cls, c):
        return cls({0: GaussRat.of(c)})

    @classmethod
    def gen(cls):
        return cls({1: _ONE})

    # ring ops -------------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, _ZERO) + v
        return type(self)(out)  # the constructor drops zero coefficients

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict[int, GaussRat] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                out[k1 + k2] = out.get(k1 + k2, _ZERO) + v1 * v2
        return type(self)(out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, _SymbolPoly):
            raise DomainError(f"cannot mix {type(self).__name__} with {type(other).__name__}")
        return type(self).const(other)

    # queries ---------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = type(self).const(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((type(self).__name__, tuple(sorted(self.coeffs.items(),
                                                       key=lambda kv: kv[0]))))

    def evaluate(self, x):
        """Horner evaluation; exact for GaussRat/Fraction x, float for complex."""
        if isinstance(x, (int, Fraction)):
            x = GaussRat.of(x)
        if isinstance(x, GaussRat):
            acc = _ZERO
            for k in range(self.degree(), -1, -1):
                acc = acc * x + self.coeffs.get(k, _ZERO)
            return acc
        acc = 0j
        for k in range(self.degree(), -1, -1):
            acc = acc * complex(x) + self.coeffs.get(k, _ZERO).to_complex()
        return acc

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for k in sorted(self.coeffs, reverse=True):
            bits.append(_format_term(self.coeffs[k], self.SYMBOL, k, 0, 0, lead=not bits))
        return " ".join(bits)

    __repr__ = __str__


class UPoly(_SymbolPoly):
    """Exact polynomial in the central phase u."""

    SYMBOL = "u"
    U_DEGREE = 1  # degree of one factor of u in this ring


class SPoly(_SymbolPoly):
    """Exact polynomial in the formal exponent s (u normalized to 1)."""

    SYMBOL = "s"
    U_DEGREE = 0  # u is normalized to 1


# ---------------------------------------------------------------------------
# words and normal-ordered polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylWord:
    """A finite word over the alphabet {A, B} (A = a, B = b), read left
    to right as an operator product."""

    letters: str

    def __post_init__(self):
        up = self.letters.upper()
        if not _re.fullmatch(r"[AB]*", up):
            raise DomainError(f"word must use only letters A and B, got {self.letters!r}")
        object.__setattr__(self, "letters", up)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return self.letters or "1"


class WeylPoly:
    """Finite sum of normal-ordered monomials a^i b^j with polynomial
    coefficients (UPoly by default, SPoly for truncated-series work)."""

    __slots__ = ("terms", "coeff_cls")

    def __init__(self, terms=None, coeff_cls=UPoly):
        self.coeff_cls = coeff_cls
        self.terms = {}
        for (i, j), c in (terms or {}).items():
            if not isinstance(c, _SymbolPoly):
                c = coeff_cls.const(c)
            elif not isinstance(c, coeff_cls):
                raise DomainError("coefficient class mismatch")
            ij = _count(i, "a monomial exponent"), _count(j, "a monomial exponent")
            if not c.is_zero:
                self.terms[ij] = c

    # constructors ----------------------------------------------------------
    @classmethod
    def zero(cls, coeff_cls=UPoly):
        return cls({}, coeff_cls)

    @classmethod
    def one(cls, coeff_cls=UPoly):
        return cls({(0, 0): coeff_cls.one()}, coeff_cls)

    @classmethod
    def scalar(cls, c, coeff_cls=UPoly):
        return cls({(0, 0): c}, coeff_cls)

    @classmethod
    def gen_a(cls, coeff_cls=UPoly):
        return cls({(1, 0): coeff_cls.one()}, coeff_cls)

    @classmethod
    def gen_b(cls, coeff_cls=UPoly):
        return cls({(0, 1): coeff_cls.one()}, coeff_cls)

    @classmethod
    def monomial(cls, i: int, j: int, coeff=1, coeff_cls=UPoly):
        return cls({(i, j): coeff_cls.const(coeff) if not isinstance(coeff, _SymbolPoly) else coeff},
                   coeff_cls)

    # ring ops --------------------------------------------------------------
    def _check(self, other: "WeylPoly"):
        if self.coeff_cls is not other.coeff_cls:
            raise DomainError("cannot combine WeylPolys over different coefficient rings")

    def __add__(self, other):
        if not isinstance(other, WeylPoly):
            other = WeylPoly.scalar(self.coeff_cls.const(other), self.coeff_cls)
        self._check(other)
        out = dict(self.terms)
        for ij, c in other.terms.items():
            out[ij] = out.get(ij, self.coeff_cls.zero()) + c
        return WeylPoly(out, self.coeff_cls)  # the constructor drops zero terms

    __radd__ = __add__

    def __neg__(self):
        return WeylPoly({ij: -c for ij, c in self.terms.items()}, self.coeff_cls)

    def __sub__(self, other):
        if not isinstance(other, WeylPoly):
            other = WeylPoly.scalar(self.coeff_cls.const(other), self.coeff_cls)
        return self + (-other)

    def scale(self, c) -> "WeylPoly":
        if not isinstance(c, _SymbolPoly):
            c = self.coeff_cls.const(c)
        return WeylPoly({ij: v * c for ij, v in self.terms.items()}, self.coeff_cls)

    def __mul__(self, other):
        """Normal-ordered product.

        Crossing b^j past a^k uses the closed form
        b^j a^k = sum_r r! C(j,r) C(k,r) u^r a^(k-r) b^(j-r).
        Each operand is written as integer numerators over one common
        denominator, each coefficient polynomial packed into two ints (re, im)
        of B-bit slots, sum_k c_k 2**(B k) (Kronecker substitution).  A product
        slot is at most W S1 S2 in magnitude (S: an operand's sum of |re| + |im|,
        W: the largest crossing weight), below 2**(B - 2): its signed digits
        decode uniquely, one Fraction per nonzero digit.
        """
        if not isinstance(other, WeylPoly):
            return self.scale(other)
        self._check(other)
        cls = self.coeff_cls
        (d1, s1, left), (d2, s2, right) = self._numerators(), other._numerators()
        width = (s1 * s2 * max(_weights(max(self.terms, key=lambda ij: ij[1], default=(0, 0))[1],
                                        max(other.terms, default=(0, 0))[0]))).bit_length() + 2
        for side in (left, right):  # each coefficient polynomial as two ints of width-bit slots
            for n, (ij, c) in enumerate(side):
                re = im = 0
                for k, a, b in c:
                    re, im = re + (a << width * k), im + (b << width * k)
                side[n] = (ij, re, im)
        shift = width * cls.U_DEGREE  # u**r moves a packed polynomial r * shift bits up
        out: dict[tuple[int, int], list[int]] = {}  # (i, j) -> packed [re, im]
        for (i1, j1), a1, b1 in left:
            for (i2, j2), a2, b2 in right:
                re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                for r, w in enumerate(_weights(j1, i2)):
                    acc = out.setdefault((i1 + i2 - r, j1 + j2 - r), [0, 0])
                    acc[0] += w * re << r * shift
                    acc[1] += w * im << r * shift
        den, half, mask = d1 * d2, 1 << width - 1, (1 << width) - 1
        terms = {}
        while out:  # popping frees each packed sum as its Fractions are made
            ij, (re, im) = out.popitem()
            coeffs = {}
            while re or im:  # the signed digits, in [-half, half), of the lowest nonzero slot
                at = (((re | im) & -(re | im)).bit_length() - 1) // width * width
                a, b = (((re >> at) + half) & mask) - half, (((im >> at) + half) & mask) - half
                coeffs[at // width] = GaussRat(Fraction(a, den) if a else _F0,
                                               Fraction(b, den) if b else _F0)
                re, im = re - (a << at), im - (b << at)
            if coeffs:  # already canonical: int powers, nonzero GaussRats
                terms[ij] = poly = object.__new__(cls)
                poly.coeffs = coeffs
        product = object.__new__(WeylPoly)
        product.terms, product.coeff_cls = terms, cls
        return product

    def _numerators(self):
        """(D, S, [((i, j), [(k, re * D, im * D), ...]), ...]): integer numerators over D, the
        lcm of every coefficient's denominators, and S, the sum of their |re| + |im|."""
        den = math.lcm(*(x.denominator for poly in self.terms.values()
                         for g in poly.coeffs.values() for x in (g.re, g.im)))
        nums = [(ij, [(k, g.re.numerator * (den // g.re.denominator),
                       g.im.numerator * (den // g.im.denominator)) for k, g in poly.coeffs.items()])
                for ij, poly in self.terms.items()]
        return den, sum(abs(a) + abs(b) for _, c in nums for _, a, b in c), nums

    def __rmul__(self, other):
        # scalars commute; everything else goes through __mul__
        return self.scale(other)

    def __pow__(self, k: int):
        acc = WeylPoly.one(self.coeff_cls)
        for _ in range(_count(k, "an operator power")):
            acc = acc * self
        return acc

    # queries ----------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def scalar_part(self):
        return self.terms.get((0, 0), self.coeff_cls.zero())

    def total_degrees(self):
        return [i + j for (i, j) in self.terms]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = WeylPoly.scalar(self.coeff_cls.const(other), self.coeff_cls)
        if not isinstance(other, WeylPoly):
            return NotImplemented
        return self.coeff_cls is other.coeff_cls and self.terms == other.terms

    def __hash__(self):
        return hash((self.coeff_cls.__name__,
                     tuple(sorted((ij, hash(c)) for ij, c in self.terms.items()))))

    # canonical text ----------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        sym = self.coeff_cls.SYMBOL
        bits = []
        for (i, j) in sorted(self.terms, reverse=True):
            poly = self.terms[(i, j)]
            for k in sorted(poly.coeffs, reverse=True):
                bits.append(_format_term(poly.coeffs[k], sym, k, i, j, lead=not bits))
        return " ".join(bits)

    __repr__ = __str__


@lru_cache(maxsize=1024)
def _weights(j: int, i: int) -> tuple[int, ...]:
    """r! C(j, r) C(i, r) = P(j, r) C(i, r) for r = 0 .. min(j, i): the crossing b^j a^i."""
    return tuple(math.perm(j, r) * math.comb(i, r) for r in range(min(j, i) + 1))


def _format_term(c: GaussRat, sym: str, k: int, i: int, j: int, lead: bool) -> str:
    factors = []
    if k > 0:
        factors.append(sym if k == 1 else f"{sym}^{k}")
    if i > 0:
        factors.append("a" if i == 1 else f"a^{i}")
    if j > 0:
        factors.append("b" if j == 1 else f"b^{j}")
    neg = False
    cs = str(c)
    if cs.startswith("-") and not cs.startswith("(-"):
        neg = True
        cs = cs[1:]
    if not factors:
        body = cs
    elif c == _ONE or (neg and cs == "1"):
        body = " ".join(factors)
    else:
        body = f"{cs}{factors[0]}" + ("" if len(factors) == 1 else " " + " ".join(factors[1:]))
    if lead:
        return ("-" if neg else "") + body
    return ("- " if neg else "+ ") + body


# ---------------------------------------------------------------------------
# parser for the canonical text form (round-trips with str())
# ---------------------------------------------------------------------------

_TOKEN = _re.compile(r"""
    (?P<paren>\(\s*-?\d+(?:/\d+)?\s*[+-]\s*(?:\d+(?:/\d+)?)?i\s*\)) |
    (?P<pimag>\(\s*-?\d+(?:/\d+)?\s*\)\s*i) |
    (?P<imag>-?\d+(?:/\d+)?i) | (?P<iunit>i) |
    (?P<rat>-?\d+(?:/\d+)?) |
    (?P<sym>[a-z])(?:\^(?P<pow>\d+))?
""", _re.VERBOSE)


def _parse_gauss(text: str) -> GaussRat:
    text = text.strip().replace(" ", "")
    m = _re.fullmatch(r"\((-?\d+(?:/\d+)?)([+-])((?:\d+(?:/\d+)?)?)i\)", text)
    if m:
        re_part = Fraction(m.group(1))
        mag = Fraction(m.group(3)) if m.group(3) else Fraction(1)
        return GaussRat(re_part, mag if m.group(2) == "+" else -mag)
    m = _re.fullmatch(r"\((-?\d+(?:/\d+)?)\)i", text)
    if m:
        return GaussRat(Fraction(0), Fraction(m.group(1)))
    m = _re.fullmatch(r"(-?\d+(?:/\d+)?)i", text)
    if m:
        return GaussRat(Fraction(0), Fraction(m.group(1)))
    if text == "i":
        return _I
    if text == "-i":
        return -_I
    return GaussRat(Fraction(text))


def parse_weyl_poly(text: str, coeff_cls=UPoly) -> WeylPoly:
    """Parse the canonical text form, e.g. "a^2 b^2 + 4u a b + 2u^2"."""
    text = text.strip()
    if text in ("", "0"):
        return WeylPoly.zero(coeff_cls)
    # split into signed terms at top level (no nesting beyond one paren pair)
    terms = []
    depth = 0
    cur = ""
    sign = 1
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and not cur.strip():
            # leading sign of the (next) term
            if ch == "-":
                sign = -sign
            continue
        if depth == 0 and ch in "+-" and cur.strip() and cur.rstrip()[-1] not in "+-(^/":
            terms.append((sign, cur.strip()))
            sign = 1 if ch == "+" else -1
            cur = ""
        else:
            cur += ch
    if cur.strip():
        terms.append((sign, cur.strip()))

    sym = coeff_cls.SYMBOL
    out = WeylPoly.zero(coeff_cls)
    for sgn, term in terms:
        coef = GaussRat.of(sgn)
        spow = 0
        ia = 0
        jb = 0
        pos = 0
        term = term.strip()
        while pos < len(term):
            if term[pos].isspace() or term[pos] == "*":
                pos += 1
                continue
            m = _TOKEN.match(term, pos)
            if not m:
                raise DomainError(f"cannot parse term fragment {term[pos:]!r}")
            if m.lastgroup in ("paren", "pimag", "imag", "iunit", "rat"):
                if m.group(0) == "-":
                    coef = coef * GaussRat.of(-1)
                else:
                    coef = coef * _parse_gauss(m.group(0))
            else:
                name = m.group("sym")
                power = int(m.group("pow") or 1)
                if name == sym:
                    spow += power
                elif name == "a":
                    ia += power
                elif name == "b":
                    jb += power
                else:
                    raise DomainError(f"unknown symbol {name!r} in {term!r}")
            pos = m.end()
        out = out + WeylPoly({(ia, jb): coeff_cls({spow: coef})}, coeff_cls)
    return out


# ---------------------------------------------------------------------------
# normal ordering by rewriting, reductions, commutators
# ---------------------------------------------------------------------------

def normal_order(word, choose=None) -> WeylPoly:
    """Canonical form of a word by the rewrite  B A -> A B + u.

    Equal intermediate words are merged, each carrying one integer
    multiplicity (every path to a word w makes (len(word) - len(w)) / 2
    contractions, its power of u).  Both rewrites strictly lower the number of
    (B, A) inversions, so words are expanded in decreasing inversion count,
    each distinct word once; the cost follows the number of distinct words
    (B^20 A^20 in milliseconds), not the exponential number of rewrite paths.

    ``choose(positions, letters)`` may pick which redex to rewrite next; it
    is called once per distinct word (used to exercise confluence), and the
    result never depends on it; a pick outside ``positions`` is a DomainError.
    Its cost does: a pick that varies from word to word can reach millions of
    words (a random 40-letter word: 2.4 million in 27 s; the default, ~1000).
    """
    if isinstance(word, str):
        word = WeylWord(word)
    w0 = word.letters
    inversions = sum(w0.count("B", 0, k) for k, x in enumerate(w0) if x == "A")
    pending: dict[int, dict[str, int]] = {inversions: {w0: 1}}  # by inversion count
    for c in range(inversions, 0, -1):
        for w, mult in pending.pop(c, {}).items():
            if choose is None:
                k = w.find("BA")
            else:
                redexes = [p for p in range(len(w) - 1) if w[p:p + 2] == "BA"]
                k = choose(redexes, tuple(w))
                if not (isinstance(k, int) and k in redexes):
                    raise DomainError(f"choose picked {k!r}, not a redex of {w}: {redexes}")
            # contracting drops the inversions of w[k] and of w[k + 1], one shared
            lost = w.count("A", k + 1) + w.count("B", 0, k + 1) - 1
            for c1, w1 in ((c - 1, w[:k] + "AB" + w[k + 2:]), (c - lost, w[:k] + w[k + 2:])):
                level = pending.setdefault(c1, {})
                level[w1] = level.get(w1, 0) + mult
    terms = {}
    for w, mult in pending.get(0, {}).items():
        i = w.count("A")
        terms[(i, len(w) - i)] = UPoly({(len(w0) - len(w)) // 2: Fraction(mult)})
    return WeylPoly(terms, UPoly)


def mod_vacuum(p: WeylPoly) -> WeylPoly:
    """Reduce modulo the vacuum submodule: drop every monomial with j > 0."""
    return WeylPoly({ij: c for ij, c in p.terms.items() if ij[1] == 0}, p.coeff_cls)


def mod_observer(p: WeylPoly) -> WeylPoly:
    """Reduce modulo the observer submodule: only the scalar part survives
    (monomials with a trailing b or a leading a are both dropped)."""
    return WeylPoly({ij: c for ij, c in p.terms.items() if ij == (0, 0)}, p.coeff_cls)


def commutator(x: WeylPoly, y: WeylPoly) -> WeylPoly:
    return x * y - y * x


def substitute_u(p: WeylPoly, value) -> WeylPoly:
    """Evaluate the phase u at an exact value (typically 1)."""
    val = GaussRat.of(value)
    out: dict[tuple[int, int], UPoly] = {}
    for ij, c in p.terms.items():
        ev = c.evaluate(val)
        if not ev.is_zero:
            out[ij] = p.coeff_cls({0: ev})
    return WeylPoly(out, p.coeff_cls)


@dataclass(frozen=True)
class LemmaReport:
    n_max: int
    checks: tuple[str, ...]  # human-readable names of everything verified


def lemma_suite(n_max: int) -> LemmaReport:
    """Verify the ladder-operator identities exactly for all n <= n_max.

    Checked, with H = a b + u/2 (the normal form of (ab + ba)/2):
      [b, a^n] = u n a^(n-1)
      [a, b^n] = -u n b^(n-1)
      b^n a^n = u^n n!  modulo the vacuum
      H a^k = u (k + 1/2) a^k  modulo the vacuum
      [H, a^n] = u n a^n
    Raises VerificationError naming the first identity that fails.
    """
    n_max = _count(n_max, "n_max", 1)
    A = WeylPoly.gen_a()
    B = WeylPoly.gen_b()
    u = UPoly.gen()
    H = (A * B + B * A).scale(GaussRat(Fraction(1, 2)))
    checks = []
    for n in range(1, n_max + 1):
        an = WeylPoly.monomial(n, 0)
        bn = WeylPoly.monomial(0, n)
        lhs = commutator(B, an)
        rhs = WeylPoly.monomial(n - 1, 0).scale(u * n)
        if lhs != rhs:
            raise VerificationError(f"[b, a^n] = u n a^(n-1) fails at n={n}: {lhs} != {rhs}")
        checks.append(f"[b, a^{n}] = {n}u a^{n - 1}")
        lhs = commutator(A, bn)
        rhs = WeylPoly.monomial(0, n - 1).scale(u * (-n))
        if lhs != rhs:
            raise VerificationError(f"[a, b^n] = -u n b^(n-1) fails at n={n}: {lhs} != {rhs}")
        checks.append(f"[a, b^{n}] = -{n}u b^{n - 1}")
        lhs = mod_vacuum(bn * an)
        rhs = WeylPoly.scalar(UPoly({n: Fraction(math.factorial(n))}))
        if lhs != rhs:
            raise VerificationError(f"b^n a^n = u^n n! (mod vacuum) fails at n={n}: {lhs} != {rhs}")
        checks.append(f"b^{n} a^{n} = u^{n} {n}! mod vacuum")
        k = n
        lhs = mod_vacuum(H * WeylPoly.monomial(k, 0))
        rhs = WeylPoly.monomial(k, 0).scale(UPoly({1: Fraction(2 * k + 1, 2)}))
        if lhs != rhs:
            raise VerificationError(f"H a^k = u(k+1/2) a^k (mod vacuum) fails at k={k}: {lhs} != {rhs}")
        checks.append(f"H a^{k} = u(k+1/2) a^{k} mod vacuum")
        lhs = commutator(H, an)
        rhs = an.scale(u * n)
        if lhs != rhs:
            raise VerificationError(f"[H, a^n] = u n a^n fails at n={n}: {lhs} != {rhs}")
        checks.append(f"[H, a^{n}] = {n}u a^{n}")
    return LemmaReport(n_max=n_max, checks=tuple(checks))


# ---------------------------------------------------------------------------
# rest-frame classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitPhase:
    """A point e^(2 pi i q) on the unit circle with exact rational q."""

    turns: Fraction

    def __post_init__(self):
        object.__setattr__(self, "turns", Fraction(self.turns) % 1)

    def __mul__(self, other: "UnitPhase") -> "UnitPhase":
        return UnitPhase(self.turns + other.turns)

    def __pow__(self, k: int) -> "UnitPhase":
        return UnitPhase(self.turns * k)

    def inverse(self) -> "UnitPhase":
        return UnitPhase(-self.turns)

    def negated(self) -> "UnitPhase":
        """-1 times the phase (half-turn rotation)."""
        return UnitPhase(self.turns + Fraction(1, 2))

    def to_complex(self) -> complex:
        a = 2.0 * math.pi * float(self.turns)
        return complex(math.cos(a), math.sin(a))

    def exact_pair(self) -> GaussRat | None:
        """Exact re+im for quarter-turn phases (1, i, -1, -i), else None."""
        table = {
            Fraction(0): GaussRat(Fraction(1)),
            Fraction(1, 4): GaussRat(Fraction(0), Fraction(1)),
            Fraction(1, 2): GaussRat(Fraction(-1)),
            Fraction(3, 4): GaussRat(Fraction(0), Fraction(-1)),
        }
        return table.get(self.turns)

    def __str__(self):
        exact = self.exact_pair()
        if exact is not None:
            return str(exact)
        return f"e^(2*pi*i*{self.turns})"


_QUARTER = {1: Fraction(0), -1: Fraction(1, 2), 1j: Fraction(1, 4), -1j: Fraction(3, 4)}


def _coerce_phase(u) -> UnitPhase:
    if isinstance(u, UnitPhase):
        return u
    if isinstance(u, Fraction):
        return UnitPhase(u)
    if isinstance(u, int) and u in (1, -1):
        return UnitPhase(_QUARTER[u])
    if isinstance(u, complex):
        if u in _QUARTER:
            return UnitPhase(_QUARTER[u])
        raise DomainError(
            f"{u} is not an exactly representable unit phase; pass the angle "
            "as a Fraction of a full turn instead")
    raise DomainError(f"cannot interpret {u!r} as a unit phase")


@dataclass(frozen=True)
class RestFrame:
    """One solution w of w^4 = u^2 with its induced rescalings.

    The oscillator goes to standard form under z -> w z, p -> p / w, so
    energies rescale by h_scale = w^-2 and time by time_scale = w^2.
    Exactly the solutions with w^2 = -u negate the energy, reverse time,
    and swap the roles of a and b.
    """

    w: UnitPhase
    h_scale: UnitPhase      # w^-2
    time_scale: UnitPhase   # w^2
    swaps_ab: bool          # w^2 == -u

    def __post_init__(self):
        if self.h_scale != (self.w ** 2).inverse() or self.time_scale != self.w ** 2:
            raise VerificationError("inconsistent rest-frame scalings")


def rest_frames(u) -> list[RestFrame]:
    """All four phases w with w^4 = u^2, with energy/time flags.

    Accepts u as one of 1, -1, i, -i (exact), a Fraction of a full turn,
    or a UnitPhase.
    """
    up = _coerce_phase(u)
    out = []
    for k in range(4):
        w = UnitPhase(up.turns / 2 + Fraction(k, 4))
        if (w ** 4) != (up ** 2):
            raise VerificationError(f"root enumeration failed at w={w}")
        swaps = (w ** 2) == up.negated()
        out.append(RestFrame(
            w=w, h_scale=(w ** 2).inverse(), time_scale=w ** 2, swaps_ab=swaps))
    out.sort(key=lambda f: f.w.turns)
    return out
