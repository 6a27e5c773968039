import math
import random
import re
from fractions import Fraction

import pytest

import oracles
from eta_forge import (
    DomainError,
    GaussRat,
    SPoly,
    UnitPhase,
    UPoly,
    VerificationError,
    WeylPoly,
    WeylWord,
    commutator,
    lemma_suite,
    mod_observer,
    mod_vacuum,
    normal_order,
    parse_weyl_poly,
    rest_frames,
    substitute_u,
)
from eta_forge import weyl_algebra

A = WeylPoly.gen_a()
B = WeylPoly.gen_b()
U = UPoly.gen()


# ---------------------------------------------------------------------------
# exact scalars
# ---------------------------------------------------------------------------

def test_gauss_rational_arithmetic():
    i = GaussRat(Fraction(0), Fraction(1))
    assert i * i == GaussRat.of(-1)
    z = GaussRat(Fraction(1, 2), Fraction(-3))
    assert z * z.conjugate() == GaussRat.of(Fraction(1, 4) + 9)
    assert (z / z) == GaussRat.of(1)


def test_gauss_rational_rejects_floats():
    with pytest.raises(DomainError):
        GaussRat.of(0.5 + 0j)


# ---------------------------------------------------------------------------
# normal ordering
# ---------------------------------------------------------------------------

def test_ba_rewrites():
    assert normal_order("BA") == A * B + WeylPoly.scalar(U)
    assert str(normal_order("BA")) == "a b + u"


def test_ab_already_normal():
    assert normal_order("AB") == A * B
    assert str(normal_order("AB")) == "a b"


def test_bbaa_canonical():
    got = normal_order("BBAA")
    want = parse_weyl_poly("a^2 b^2 + 4u a b + 2u^2")
    assert got == want


def test_empty_word_is_unit():
    assert normal_order("") == WeylPoly.one()


def test_word_validation():
    with pytest.raises(DomainError):
        WeylWord("BAC")


def test_rewrite_strategy_is_irrelevant():
    rng = random.Random(12345)
    words = []
    for _ in range(120):
        length = rng.randint(0, 12)
        words.append("".join(rng.choice("AB") for _ in range(length)))
    for w in words:
        first = normal_order(w)
        last = normal_order(w, choose=lambda redexes, _w: redexes[-1])
        rnd = normal_order(w, choose=lambda redexes, _w: rng.choice(redexes))
        assert first == last == rnd, w


def test_normal_order_is_multiplicative():
    rng = random.Random(99)
    for _ in range(60):
        w1 = "".join(rng.choice("AB") for _ in range(rng.randint(0, 5)))
        w2 = "".join(rng.choice("AB") for _ in range(rng.randint(0, 5)))
        assert normal_order(w1 + w2) == normal_order(w1) * normal_order(w2), (w1, w2)


def test_grading_parity_and_u_degree_drop():
    # each applied commutator trades one a and one b for one power of u:
    # a monomial a^i b^j with coefficient u^r satisfies i + j = len(w) - 2r
    rng = random.Random(4242)
    for _ in range(80):
        w = "".join(rng.choice("AB") for _ in range(rng.randint(0, 10)))
        poly = normal_order(w)
        for (i, j), coeff in poly.terms.items():
            assert ((i + j) - len(w)) % 2 == 0, w
            for r in coeff.coeffs:
                assert i + j == len(w) - 2 * r, (w, i, j, r)


def test_matrix_model_oracle():
    # compare against a-as-multiplication / b-as-derivative matrices on a
    # truncated polynomial space, u = 1; the first len+2 basis columns are
    # computed in a large enough ambient space to be truncation-free
    rng = random.Random(2718)
    words = ["BA", "AB", "BBAA", "ABBA", "BABA"]
    for _ in range(40):
        words.append("".join(rng.choice("AB") for _ in range(rng.randint(1, 8))))
    for w in words:
        span = len(w) + 2
        dim = 2 * len(w) + 2
        want = oracles.word_matrix(w, dim)
        poly = substitute_u(normal_order(w), 1)
        got = [[0] * dim for _ in range(dim)]
        for (i, j), coeff in poly.terms.items():
            c = coeff.coeffs.get(0)
            mono = oracles.monomial_matrix(i, j, dim)
            frac = Fraction(c.re)
            assert c.im == 0
            for r in range(dim):
                for s in range(dim):
                    got[r][s] += frac * mono[r][s]
        for col in range(span):
            for row in range(dim):
                assert got[row][col] == want[row][col], (w, row, col)


def _word_product(word):
    acc = WeylPoly.one()
    for letter in word:
        acc = acc * (A if letter == "A" else B)
    return acc


def _nearly_sorted_word(rng, length, swaps):
    """A^i B^j with a few random adjacent AB -> BA swaps (at most `swaps`
    inversions)."""
    w = sorted(rng.choice("AB") for _ in range(length))
    for _ in range(swaps):
        k = rng.randrange(max(length - 1, 1))
        if w[k:k + 2] == ["A", "B"]:
            w[k:k + 2] = ["B", "A"]
    return "".join(w)


def test_merged_rewrite_equals_generator_product():
    rng = random.Random(2024)
    for length in range(41):
        w = "".join(rng.choice("AB") for _ in range(length))
        want = _word_product(w)
        for choose in (None, lambda r, _w: r[0], lambda r, _w: r[-1]):
            assert normal_order(w, choose=choose) == want, w
        # a random pick per word reaches most words that any rewrite order
        # reaches, a number exponential in the inversions, so the random
        # strategy runs on a nearly sorted word of the same length
        v = _nearly_sorted_word(rng, length, 10)
        assert normal_order(v, choose=lambda r, _w: rng.choice(r)) == _word_product(v), v


def test_choose_is_called_once_per_distinct_word():
    seen = []

    def choose(redexes, letters):
        seen.append("".join(letters))
        return redexes[0]

    normal_order("BBBAAA", choose=choose)
    assert seen and len(seen) == len(set(seen))


def test_choose_must_pick_an_offered_redex():
    # a pick that is not a B A position would rewrite some other pair of letters, and
    # "BA" picked at 5 or "ABBA" at 0 would come out as a^2 b^2
    for word, pick in (("BA", 5), ("ABBA", 0), ("ABBA", 1), ("BA", 0.0), ("BA", None)):
        with pytest.raises(DomainError):
            normal_order(word, choose=lambda _r, _w: pick)
    assert str(normal_order("ABBA", choose=lambda r, _w: r[0])) == "a^2 b^2 + 2u a b"


# B^30 A^30: the u^30 multiplicity 30! is about 2**108, wider than 64 bits
@pytest.mark.parametrize("k", [*range(21), 30])
def test_b_power_times_a_power_closed_form(k):
    want = WeylPoly({(k - r, k - r): UPoly({r: math.factorial(r) * math.comb(k, r) ** 2})
                     for r in range(k + 1)})
    assert normal_order("B" * k + "A" * k) == want


def _naive_product(p, q):
    """The product term by term in GaussRat, without shared denominators."""
    out = {}
    for (i1, j1), c1 in p.terms.items():
        for (i2, j2), c2 in q.terms.items():
            for r in range(min(j1, i2) + 1):
                weight = math.factorial(r) * math.comb(j1, r) * math.comb(i2, r)
                ij = (i1 + i2 - r, j1 + j2 - r)
                acc = out.setdefault(ij, {})
                for k1, g1 in c1.coeffs.items():
                    for k2, g2 in c2.coeffs.items():
                        k = k1 + k2 + r * p.coeff_cls.U_DEGREE
                        acc[k] = acc.get(k, GaussRat()) + g1 * g2 * weight
    return WeylPoly({ij: p.coeff_cls(c) for ij, c in out.items()}, p.coeff_cls)


@pytest.mark.parametrize("cls", [UPoly, SPoly])
def test_product_matches_naive_gauss_rational_product(cls):
    rng = random.Random(77)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(0, 4), rng.randint(0, 4))] = cls({
                rng.randint(0, 3): GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                                            Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
                for _ in range(rng.randint(1, 3))})
        return WeylPoly(terms, cls)

    for _ in range(60):
        p, q = rand_poly(), rand_poly()
        for x, y in ((p, q), (p, -p), (p - q, p + q)):
            got, want = x * y, _naive_product(x, y)
            assert got == want and str(got) == str(want)
        assert (p * WeylPoly.zero(cls)).is_zero
    # the a b terms of (b - i a)(b + i a) cancel and must not be stored
    a, b = WeylPoly.gen_a(cls), WeylPoly.gen_b(cls)
    i = GaussRat(Fraction(0), Fraction(1))
    got = (b - a.scale(i)) * (b + a.scale(i))
    assert (1, 1) not in got.terms
    assert str(got) == ("a^2 + b^2 + iu" if cls is UPoly else "a^2 + b^2 + i")
    # the coefficient ring's own text, with complex coefficients and folded signs
    x, f = cls.SYMBOL, Fraction
    for coeffs, text in (
            ({3: GaussRat(f(-1), f(2)), 1: GaussRat(f(0), f(-1)), 0: GaussRat(f(-3, 2))},
             f"(-1+2i){x}^3 - i{x} - 3/2"),
            ({2: GaussRat(f(0), f(-1, 2)), 0: GaussRat(f(0), f(1))}, f"(-1/2)i{x}^2 + i"),
            ({1: GaussRat(f(-1)), 0: GaussRat(f(2), f(-1))}, f"-{x} + (2-i)"),
            ({4: GaussRat(f(0), f(-2)), 0: GaussRat(f(-1))}, f"-2i{x}^4 - 1")):
        assert str(cls(coeffs)) == text
    assert got == _naive_product(b - a.scale(i), b + a.scale(i))


@pytest.mark.parametrize("cls", [UPoly, SPoly])
def test_product_slots_hold_wide_and_cancelling_coefficients(cls):
    # the packed product against the term-by-term one: numerators beyond 2**64 of both
    # signs, complex parts over coprime denominators, coefficient degrees up to 12
    rng = random.Random(2009)
    dens = (1, 3, 7, 2 ** 61 - 1, 2 ** 89 - 1)  # primes, so the lcms grow

    def rand_coef():
        return Fraction(rng.randint(-2 ** 80, 2 ** 80), rng.choice(dens))

    def rand_poly():
        return cls({rng.randint(0, 12): GaussRat(rand_coef(),
                                                 rand_coef() if rng.random() < 0.7 else Fraction(0))
                    for _ in range(rng.randint(1, 4))})

    def rand_weyl():
        return WeylPoly({(rng.randint(0, 5), rng.randint(0, 5)): rand_poly()
                         for _ in range(rng.randint(1, 4))}, cls)

    for _ in range(30):
        p, q = rand_weyl(), rand_weyl()
        for x, y in ((p, q), (q, p), (p, -p)):
            got, want = x * y, _naive_product(x, y)
            assert got == want and str(got) == str(want)
        # a commutator sums both orders in one set of slots, wide enough for both
        got, want = commutator(p, q), _naive_product(p, q) - _naive_product(q, p)
        assert got == want and str(got) == str(want)
    # slots that cancel to exactly 0: (P b - P V a)(T b + T V a) has no a b term
    for _ in range(10):
        P, T, V = rand_poly(), rand_poly(), rand_poly()
        x = WeylPoly({(0, 1): P, (1, 0): -(P * V)}, cls)
        y = WeylPoly({(0, 1): T, (1, 0): T * V}, cls)
        got, want = x * y, _naive_product(x, y)
        assert (1, 1) not in got.terms and got == want and str(got) == str(want)
    # a slot at its width's limit W S1 S2, of either sign
    n = 2 ** 100 + 1
    for sign in (1, -1):
        got = WeylPoly({(0, 7): cls.const(n)}, cls) * WeylPoly({(7, 0): cls.const(sign * n)}, cls)
        weights = [math.factorial(r) * math.comb(7, r) ** 2 for r in range(8)]
        assert got == WeylPoly({(7 - r, 7 - r): cls({r * cls.U_DEGREE: sign * n * n * w})
                                for r, w in enumerate(weights)}, cls)


@pytest.mark.parametrize("cls", [UPoly, SPoly])
def test_chained_products_keep_the_lcm_denominator(cls):
    # p ** 6 chains five products on integer forms, each over D_x D_y before its gcd is taken
    # out: the denominator it keeps is the lcm of its decoded ones, and its integer form is the
    # one its terms give.  Odd parts over even denominators cancel in places, as (1 + i)^2 = 2i
    # does, so that some of those lcms fall below D ** 6
    rng = random.Random(66)

    def part():
        return Fraction(rng.choice((-3, -1, 1, 3)), rng.choice((2, 4, 6)))

    reduced = 0
    for _ in range(20):
        p = WeylPoly({(rng.randint(0, 3), rng.randint(0, 3)): cls({rng.randint(0, 2):
                                                                  GaussRat(part(), part())})
                      for _ in range(rng.randint(1, 3))}, cls)
        q = p ** 6
        den = math.lcm(*(x.denominator for c in q.terms.values() for g in c.coeffs.values()
                         for x in (g.re, g.im)))
        assert q._integer_form()[0] == den
        assert q._integer_form() == WeylPoly(q.terms, cls)._integer_form()
        assert q == p * p * p * p * p * p == _naive_product(p ** 3, p ** 3)
        reduced += den < p._integer_form()[0] ** 6
    assert reduced


@pytest.mark.parametrize("make", [lambda: UPoly({1.5: 1}), lambda: SPoly({Fraction(5, 2): 1}),
                                  lambda: UPoly({math.nan: 1}), lambda: UPoly({math.inf: 1}),
                                  lambda: WeylPoly({(1.5, 0): 1}), lambda: WeylPoly({(0, 2.5): 1}),
                                  lambda: WeylPoly({(math.inf, 0): 1}),
                                  lambda: WeylPoly.monomial(2, 0) ** 2.5,
                                  lambda: WeylPoly.monomial(2, 0) ** -1,
                                  lambda: UPoly({"x": 1}), lambda: WeylPoly({("x", 0): 1})],
                         ids=["u", "s", "u-nan", "u-inf", "a", "b", "a-inf", "pow", "pow-neg",
                              "u-str", "a-str"])
def test_non_integral_exponents_are_refused(make):
    # not truncated: UPoly({1.5: 1}) is not u, and WeylPoly({(1.5, 0): 1}) is not a;
    # a string is a DomainError too, not a bare TypeError
    with pytest.raises(DomainError):
        make()


def test_integral_float_exponents_are_integers():
    # as the constructors take u^2.0 for u^2, a power takes ** 2.0 for ** 2
    p = WeylPoly({(1, 0): UPoly({1: 1}), (0, 1): 1})
    assert p ** 2.0 == p ** 2 and str(p ** 2.0) == str(p ** 2)
    assert UPoly({2.0: 1}) == UPoly({2: 1})


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def test_mod_vacuum_examples():
    p = normal_order("BBAA")
    assert mod_vacuum(p) == WeylPoly.scalar(UPoly({2: 2}))
    assert mod_vacuum(WeylPoly.scalar(UPoly.const(7))) == WeylPoly.scalar(UPoly.const(7))
    assert mod_vacuum(A * B).is_zero


def test_mod_observer_examples():
    assert mod_observer(A * B + WeylPoly.one()) == WeylPoly.one()
    assert mod_observer(normal_order("BBAA")) == WeylPoly.scalar(UPoly({2: 2}))
    assert mod_observer(B).is_zero
    assert mod_observer(A).is_zero


# ---------------------------------------------------------------------------
# commutators and the lemma suite
# ---------------------------------------------------------------------------

def test_commutator_examples():
    assert commutator(B, A ** 3) == WeylPoly.monomial(2, 0).scale(U * 3)
    assert commutator(A, B ** 2) == WeylPoly.monomial(0, 1).scale(U * (-2))
    assert commutator(A, A).is_zero


def test_lemma_suite_small_and_exact():
    rep = lemma_suite(1)
    assert rep.n_max == 1
    assert any("1!" in c for c in rep.checks)
    rep5 = lemma_suite(5)
    assert len(rep5.checks) == 25


def test_lemma_suite_ten_exact_factorials():
    rep = lemma_suite(10)
    # b^10 a^10 = u^10 10! mod vacuum, coefficient exact
    p = mod_vacuum(WeylPoly.monomial(0, 10) * WeylPoly.monomial(10, 0))
    assert p == WeylPoly.scalar(UPoly({10: math.factorial(10)}))
    assert rep.n_max == 10


def test_lemma_suite_rejects_bad_input():
    with pytest.raises(DomainError):
        lemma_suite(0)


@pytest.mark.parametrize("name, label", [("commutator", "[b, a^1] = 1u a^0"),
                                         ("mod_vacuum", "b^1 a^1 = u^1 1! mod vacuum")])
def test_lemma_suite_names_the_failing_check(monkeypatch, name, label):
    # a wrong reduction or commutator: one more unit in every value it returns
    wrong = getattr(weyl_algebra, name)
    monkeypatch.setattr(weyl_algebra, name, lambda *args: wrong(*args) + 1)
    with pytest.raises(VerificationError, match=re.escape(label) + " fails"):
        lemma_suite(3)


def test_vacuum_norm_is_factorial_with_phase():
    for n in (1, 2, 3, 4, 7):
        p = mod_vacuum(WeylPoly.monomial(0, n) * WeylPoly.monomial(n, 0))
        assert p == WeylPoly.scalar(UPoly({n: math.factorial(n)}))


def test_h_eigenvalues():
    H = (A * B + B * A).scale(GaussRat(Fraction(1, 2)))
    for k in (0, 1, 2, 5):
        lhs = mod_vacuum(H * WeylPoly.monomial(k, 0))
        rhs = WeylPoly.monomial(k, 0).scale(UPoly({1: Fraction(2 * k + 1, 2)}))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# substitution and text round trip
# ---------------------------------------------------------------------------

def test_substitute_u_one():
    p = normal_order("BBAA")
    q = substitute_u(p, 1)
    assert q == parse_weyl_poly("a^2 b^2 + 4 a b + 2")


def test_substitute_u_i():
    p = normal_order("BA")  # a b + u
    q = substitute_u(p, GaussRat(Fraction(0), Fraction(1)))
    want = WeylPoly({(1, 1): UPoly.one(), (0, 0): UPoly({0: GaussRat(Fraction(0), Fraction(1))})})
    assert q == want


def _random_weyl_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        ij = (rng.randint(0, 4), rng.randint(0, 4))
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            coeffs[rng.randint(0, 3)] = GaussRat(
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        poly = UPoly(coeffs)
        if not poly.is_zero:
            terms[ij] = poly
    return WeylPoly(terms) if terms else WeylPoly.one()


def test_text_round_trip_random():
    rng = random.Random(31337)
    for _ in range(200):
        p = _random_weyl_poly(rng)
        assert parse_weyl_poly(str(p)) == p, str(p)


def test_text_round_trip_edge_cases():
    for text in ("0", "1", "-1", "u", "-u", "a", "b", "a b", "2u^2",
                 "i a", "-i b^3", "(1/2)i u a", "(1+2i)u^2 a b",
                 "a^2 b^2 + 4u a b + 2u^2"):
        p = parse_weyl_poly(text)
        assert parse_weyl_poly(str(p)) == p, text


@pytest.mark.parametrize("text, canonical", [
    ("a+b", "a + b"), ("2 a 3 b", "6a b"), ("- -a", "a"), ("2*a", "2a"), ("a * b", "a b"),
    ("(1 + 2i)", "(1+2i)"), ("iu", "iu"), ("(-3/2)i a", "(-3/2)ia"), ("", "0"), ("  ", "0"),
])
def test_parser_accepts_more_than_the_printer_writes(text, canonical):
    # factors multiply in any order, a * between two is optional, and a sign between factors
    # starts a term
    assert str(parse_weyl_poly(text)) == canonical


@pytest.mark.parametrize("text", ["a^", "x", "(1+2i", "a^-1",
                                  "a*-b", "*", "* - a", "a*", "a * * b", "a - * b"])
def test_parser_refuses_malformed_text(text):
    # a * stands only between two factors: "a*-b" is not read as a - b
    with pytest.raises(DomainError):
        parse_weyl_poly(text)


@pytest.mark.parametrize("text", ["1/0", "(1/0)i a", "(1+1/0i)", "a + 2/00 b"])
def test_parser_refuses_a_zero_denominator(text):
    with pytest.raises(DomainError, match="zero denominator"):
        parse_weyl_poly(text)


def test_parser_reads_any_space_inside_a_literal():
    assert parse_weyl_poly("(1/2)\ti a") == parse_weyl_poly("(1/2)i a")
    assert parse_weyl_poly("(\t1 +\n2i )") == parse_weyl_poly("(1+2i)")


# ---------------------------------------------------------------------------
# rest frames
# ---------------------------------------------------------------------------

def test_rest_frames_u_one():
    frames = rest_frames(1)
    ws = [f.w.exact_pair().to_complex() for f in frames]
    assert set(ws) == {1, -1, 1j, -1j}
    for f in frames:
        if f.w.exact_pair().to_complex() in (1j, -1j):
            assert f.swaps_ab
            assert f.h_scale.exact_pair().to_complex() == -1
            assert f.time_scale.exact_pair().to_complex() == -1
        else:
            assert not f.swaps_ab
            assert f.h_scale.exact_pair().to_complex() == 1


def test_rest_frames_identity_frame():
    frames = rest_frames(1)
    ident = [f for f in frames if f.w.turns == 0][0]
    assert not ident.swaps_ab
    assert ident.h_scale.turns == 0 and ident.time_scale.turns == 0


def test_rest_frames_u_i():
    frames = rest_frames(1j)
    # w solves w^4 = -1: the four primitive eighth roots
    assert [f.w.turns for f in frames] == [Fraction(1, 8), Fraction(3, 8),
                                           Fraction(5, 8), Fraction(7, 8)]
    for f in frames:
        w2 = f.w ** 2
        assert f.swaps_ab == (w2.turns == Fraction(3, 4))  # w^2 == -i


def test_rest_frames_symbolic_angle():
    frames = rest_frames(Fraction(1, 3))  # u = e^(2 pi i/3)
    for f in frames:
        assert (f.w ** 4).turns == (UnitPhase(Fraction(1, 3)) ** 2).turns
    assert sum(1 for f in frames if f.swaps_ab) == 2


def test_rest_frames_rejects_off_circle():
    with pytest.raises(DomainError):
        rest_frames(0.5 + 0.5j)
