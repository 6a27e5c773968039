import cmath
import functools
import math
import time
import types
from fractions import Fraction

import mpmath as mp
import pytest

import oracles
from eta_forge import (
    ComplexPoint,
    ConvergenceError,
    DomainError,
    EtaForgeError,
    Family,
    FiniteEtaSpec,
    PrecisionContext,
    RangeError,
    SingularPrefactorError,
    derivative,
    eta_global,
    evaluate,
    finite_eta,
    functional_equation_residual,
    hasse_global,
    refine_zero,
    zeta_global,
)
from eta_forge.hasse_global import SERIES_CAP, _series

CTX = PrecisionContext()

# frozen from the Euler-Maclaurin oracle at 100 bits (tests below recompute)
FIRST_ZEROS = (14.134725141734694, 21.022039638771555, 25.010857580145689)


# ---------------------------------------------------------------------------
# eta examples
# ---------------------------------------------------------------------------

def test_eta_at_zero_is_half():
    res = eta_global(0.0, CTX)
    assert res.value.to_complex() == 0.5
    # cross-check: (1 - 2) * zeta(0) with zeta(0) = -1/2 from the oracle
    assert abs(complex(oracles.em_zeta(0)) - (-0.5)) < 1e-25


def test_eta_at_one_is_ln2():
    res = eta_global(1.0, CTX)
    ref = oracles.alt_harmonic_limit()
    assert abs(res.value.to_complex() - ref) <= 1e-10
    assert abs(res.value.to_complex() - ref) <= res.tail_bound + 1e-14


def test_eta_at_two():
    res = eta_global(2.0, CTX)
    ref = float(mp.pi ** 2 / 12)
    assert abs(res.value.to_complex() - ref) <= 1e-10


def test_eta_tail_bound_covers_truth():
    for s in (complex(0.3, 3.0), complex(1.5, -11.0), complex(2.0, 0.0)):
        res = eta_global(s, CTX)
        ref = complex(oracles.em_eta(mp.mpc(s.real, s.imag)))
        assert abs(res.value.to_complex() - ref) <= res.tail_bound


def test_eta_series_cap_error_carries_best():
    with pytest.raises(ConvergenceError) as err:
        eta_global(1.0, CTX, series_cap=3)
    assert err.value.best is not None
    assert abs(err.value.best.value.to_complex() - math.log(2)) < 0.1


def test_eta_hasse_vs_direct_sum_grid():
    # where the alternating series converges fast enough to sum directly
    pts = 0
    for sig in (2.0, 2.5, 3.0, 4.0, 6.0):
        for t in (-20.0, -7.0, -1.0, 0.0, 0.5, 3.0, 9.0, 15.0, 25.0, 40.0):
            s = complex(sig, t)
            res = eta_global(s, CTX)
            ref = oracles.alt_zeta_direct(s)
            assert abs(res.value.to_complex() - ref) <= res.tail_bound + 1e-11, s
            pts += 1
    assert pts == 50


def test_eta_double_cap_agreement():
    # computed twice with different series caps, values agree within bounds
    s = complex(0.7, 8.0)
    a = eta_global(s, CTX, series_cap=400)
    b = eta_global(s, CTX, series_cap=120)
    assert abs(a.value.to_complex() - b.value.to_complex()) <= a.tail_bound + b.tail_bound


def test_eta_extended_against_the_oracle():
    ext = PrecisionContext.extended(140)
    res = eta_global(complex(0.5, 80.0), ext)
    ref = complex(oracles.em_eta(mp.mpc(0.5, 80.0), prec=160, ))
    assert abs(res.value.to_complex() - ref) < 1e-12


def test_eta_conjugate_symmetry():
    for s in (complex(0.5, 14.0), complex(1.2, 3.3)):
        a = eta_global(s, CTX).value.to_complex()
        b = eta_global(s.conjugate(), CTX).value.to_complex()
        assert a.conjugate() == b


# ---------------------------------------------------------------------------
# zeta examples
# ---------------------------------------------------------------------------

def test_zeta_two():
    res = zeta_global(2.0, CTX)
    ref = complex(oracles.em_zeta(2))
    assert abs(res.value.to_complex() - ref) <= 1e-10
    assert abs(ref - math.pi ** 2 / 6) < 1e-15


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.extended(120)])
def test_zeta_at_integers_is_bounded_on_both_tiers(ctx):
    # zeta(-3) = 1/120 is an exact eta over an exact prefactor, -1/8 / -15:
    # only the division rounds, and the bound must charge it
    for s in (-3, 3):
        res = zeta_global(s, ctx)
        with mp.workprec(400):
            ref = mp.zeta(s)
            err = abs(res.value.to_mpc() - ref)
            assert err <= res.tail_bound <= ctx.target_rel_err * abs(ref), s
    assert zeta_global(-2, ctx).tail_bound == 0.0
    # a target below 64 units of 2^-wb leaves the quotient's roundings no room
    with pytest.raises(DomainError):
        zeta_global(3, PrecisionContext(ctx.working_bits, 2.0 ** (5 - ctx.working_bits)))


def test_zeta_trivial_zero():
    res = zeta_global(-2.0, CTX)
    assert abs(res.value.to_complex()) == 0.0


def test_zeta_near_first_zero():
    t1 = float(oracles.em_critical_zero(14.1))
    res = zeta_global(complex(0.5, t1), CTX)
    assert abs(res.value.to_complex()) <= 1e-5


def test_zeta_exclusion_disks():
    with pytest.raises(SingularPrefactorError) as err:
        zeta_global(1.0, CTX)
    assert err.value.center == 1.0
    k1 = complex(1.0, 2.0 * math.pi / math.log(2.0))
    with pytest.raises(SingularPrefactorError) as err:
        zeta_global(k1 + 1e-8, CTX)
    assert abs(err.value.center - k1) < 1e-9
    # just outside the disk evaluation proceeds
    assert zeta_global(complex(1.0 + 1e-5, 0.0), CTX).value is not None


# ---------------------------------------------------------------------------
# reflection identity
# ---------------------------------------------------------------------------

def test_funceq_examples():
    assert functional_equation_residual(2.0, CTX) <= 1e-8
    assert functional_equation_residual(0.5, CTX) <= 1e-8
    assert functional_equation_residual(complex(3.0, 2.0), CTX) <= 1e-7


def test_funceq_relates_zeta2_to_minus_one_twelfth():
    # the s = 2 instance ties zeta(2) to zeta(-1) = -1/12: check both sides
    z2 = zeta_global(2.0, CTX).value.to_complex()
    zm1 = zeta_global(-1.0, CTX).value.to_complex()
    assert abs(zm1 - (-1.0 / 12.0)) < 1e-12
    rhs = -2.0 * math.pi ** 2
    assert abs(z2 / zm1 - rhs) < 1e-9


def test_funceq_precondition_near_zeta_zero():
    # s with 1-s at a trivial zero of zeta: ratio undefined
    with pytest.raises(DomainError):
        functional_equation_residual(3.0, CTX)


def test_funceq_mixed_points():
    for s in (complex(2.5, 0.5), complex(0.25, 1.0), complex(-1.5, 2.0)):
        assert functional_equation_residual(s, CTX) <= 1e-7


@pytest.mark.parametrize("bits", [120, 200])
def test_funceq_keeps_the_requested_precision(bits):
    # both sides are formed in big floats: near an even integer (2, 1.9 + 0.1i) and elsewhere
    ctx = PrecisionContext.extended(bits)
    for s in (complex(0.25, 5.0), 2.0, complex(3.0, 2.0), complex(0.3, -40.0), complex(1.9, 0.1)):
        assert functional_equation_residual(s, ctx) <= 8 * ctx.target_rel_err, s


# ---------------------------------------------------------------------------
# the series as one weighted sum
# ---------------------------------------------------------------------------

def test_weights_are_the_hasse_series():
    # sum_{n<=N} 2^-(n+1) eta_n(s) = 2^-(N+1) sum_k (-1)^k W_k (k+1)^-s with W_k the
    # tail sum_{j>k} C(N+1, j), base by base in exact rationals
    for big_n in range(61):
        weights, d = hasse_global._weights(big_n + 1, False)
        assert len(weights) == big_n + 1 and d == 2 ** (big_n + 1)
        for k, w in enumerate(weights):
            want = sum(Fraction((-1) ** k * math.comb(n, k), 2 ** (n + 1))
                       for n in range(k, big_n + 1))
            assert Fraction(w, d) == want


def test_borwein_weights_are_exact_integers():
    # Borwein's d_k = sum_{i<=k} n (n+i-1)! 4^i / ((n-i)! (2i)!): every summand is an
    # integer, and the weights are (-1)^k (d_n - d_k) over the divisor d_n, in exact rationals
    for n in range(1, 200):
        d, partial = [], Fraction(0)
        for i in range(n + 1):
            term = Fraction(n * math.factorial(n + i - 1) * 4 ** i,
                            math.factorial(n - i) * math.factorial(2 * i))
            assert term.denominator == 1, (n, i)
            partial += term
            d.append(partial)
        weights, divisor = hasse_global._weights(n, True)
        assert divisor == d[n]
        assert list(weights) == [(-1) ** k * (d[n] - d[k]) for k in range(n)]


@pytest.mark.parametrize("bits", [53, 120])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_series_finite_sums_match_evaluate(bits, order):
    # the one weighted sum of 61 terms against sum_{n<=60} 2^-(n+1) eta_n^(order),
    # each finite sum evaluated on its own, within the sum's rounding bound plus
    # the finite sums' bounds: at order 0 the best value at series cap 60, at
    # higher orders the weights dotted at that order on one table, which is how
    # refine_zero takes its Newton slope; left of Re s = 1/2, where the series
    # takes these weights (Borwein's on the line)
    ctx = CTX if bits == 53 else PrecisionContext.extended(bits)
    s = complex(0.3, 14.13)
    if order == 0:
        with pytest.raises(ConvergenceError) as err:
            _series(s, ctx, series_cap=60)
        best = err.value.best
        assert best.terms_used == 61
        value, rounding = best.value.to_mpc(), best.tail_bound - math.exp(hasse_global._remainder(s, 61))
    else:
        table = finite_eta._FastPowers(s) if bits == 53 else finite_eta._ExtPowers(s, bits + 16)
        value, rounding = table.dot(hasse_global._weights(61, False)[0], order)
        with mp.workprec(400):  # scaled by 2^-61 exactly
            value, rounding = mp.mpc(value) / 2 ** 61, float(rounding) / 2 ** 61
    with mp.workprec(400):
        total, bound = mp.mpc(0), 0.0
        for n in range(61):
            spec = FiniteEtaSpec(Family.HASSE, n)
            ref = evaluate(spec, s, ctx) if order == 0 else derivative(spec, s, ctx, order=order)
            total += ref.value.to_mpc() / 2 ** (n + 1)
            bound += ref.abs_err / 2 ** (n + 1)
        assert abs(value - total) <= rounding * (1 + 1e-9) + bound


def test_series_makes_one_exp_per_term(monkeypatch):
    # one exp per base of the one power table: n transcendentals for n terms, with
    # Borwein's weights on the line and the binomial tails left of it
    calls = []

    def exp(z):
        calls.append(z)
        return cmath.exp(z)

    counting = types.SimpleNamespace(**{k: getattr(cmath, k) for k in dir(cmath)
                                        if not k.startswith("_")})
    counting.exp = exp
    monkeypatch.setattr(finite_eta, "cmath", counting)
    for s, terms in ((complex(0.5, 59.9), 74), (complex(0.49, 59.9), 186)):
        calls.clear()
        res = eta_global(s, CTX)
        assert len(calls) == res.terms_used == terms, s


def test_extended_series_makes_one_exp_per_prime(monkeypatch):
    # the big-float table pays mp.exp only at the prime bases, and fills each
    # composite from two earlier ones: pi(n) exps for n terms
    calls = []

    def exp(z):
        calls.append(z)
        return mp.exp(z)

    counting = types.SimpleNamespace(**{k: getattr(mp, k) for k in dir(mp)
                                        if not k.startswith("_")})
    counting.exp = exp
    monkeypatch.setattr(finite_eta, "mp", counting)
    for s, terms, prime in ((complex(0.5, 14.13), 62, 18), (complex(0.49, 14.13), 153, 36)):
        calls.clear()
        res = eta_global(s, PrecisionContext.extended(120))
        primes = [b for b in range(2, res.terms_used + 1) if all(b % q for q in range(2, b))]
        assert res.terms_used == terms, s
        assert len(calls) == len(primes) == prime, s


# n per point on the fast tier and at 120 bits, from the a-priori
# remainder bound (a relative target met in one pass, or after a longer sum when |value| < 1):
# Borwein's weights on Re s >= 1/2, the binomial tails left of it (0.49 + 14.13i)
A_PRIORI_TERMS = [
    (complex(0.5, 14.13), 35, 62), (complex(0.5, 59.9), 74, 102),
    (complex(2.0, 0.0), 18, 45), (complex(-5.5, 20.0), 119, 188),
    (complex(0.3, 3.0), 51, 120), (complex(1.5, -11.0), 28, 55),
    (complex(0.49, 14.13), 85, 153),
]


@pytest.mark.parametrize("s, fast, ext", A_PRIORI_TERMS)
def test_series_terms_used_a_priori(s, fast, ext):
    assert eta_global(s, CTX).terms_used == fast
    assert eta_global(s, PrecisionContext.extended(120)).terms_used == ext


def _sum_at(s, n, bits):
    """S of n terms, with the weights the series takes at s, in big floats with guard bits
    for the cancellation."""
    coefs, d = hasse_global._weights(n, hasse_global._borwein(s))
    table = finite_eta._ExtPowers(s, bits + math.ceil((1 - min(0, s.real)) * math.log2(n)))
    return table.dot(coefs)[0] / d


@pytest.mark.parametrize("sigma", [-20.0, -10.0, -5.5, -1.5, 0.0, 0.01, 0.49, 0.5, 0.75, 1.0,
                                   2.0, 6.0])
def test_remainder_bound_covers_altzeta(sigma):
    # |S - eta| within the remainder bound at 300 bits, at the a-priori length
    # of the fast tier and at about half of it: Borwein's bound from Re s = 1/2 on
    with mp.workprec(300):
        for t in (-150.0, -60.0, -20.0, -3.0, -0.5, 0.5, 3.0, 20.0, 60.0, 150.0):
            s = complex(sigma, t)
            want = mp.altzeta(mp.mpc(s))
            full = hasse_global._length(s, 0.5e-13, SERIES_CAP)
            for n in {full, max(1 + math.floor(0.5 - sigma), full // 2)}:
                if n <= SERIES_CAP + 1:
                    bound = mp.exp(hasse_global._remainder(s, n))  # of the log
                    assert abs(_sum_at(s, n, 300) - want) <= bound, (s, n)


def test_remainder_vanishes_at_the_trivial_zeros_of_gamma():
    # 1/Gamma(s) = 0 at s = 0, -1, -2, ...: the sum is exact from N + 1 > -s on
    for m in range(6):
        assert hasse_global._remainder(complex(-m, 0.0), m + 1) == -math.inf  # log 0
    assert eta_global(0.0, CTX).terms_used == 1
    assert zeta_global(-2.0, CTX).tail_bound == 0.0
    ext = zeta_global(-2, PrecisionContext.extended(120))
    assert ext.value.re == 0 and ext.value.im == 0 and ext.tail_bound == 0.0
    # summed in integers and scaled exactly: no rounding to charge
    ext = eta_global(-3, PrecisionContext.extended(120))
    assert ext.value.to_mpc() == mp.mpf("-0.125") and ext.tail_bound == 0.0


@pytest.mark.parametrize("s", [complex(-20.0, 0.5), complex(-10.0, 3.0), complex(-1.5, 100.0),
                               complex(0.5, 100.0), complex(0.5, 150.0), complex(2.0, -150.0),
                               complex(1e17, 0.0), complex(1e300, 0.0), complex(1e300, 50.0),
                               complex(0.5, 160.0), complex(0.5, 300.0), complex(2.0, 300.0),
                               complex(0.5, -350.0)])
def test_fast_series_meets_its_target(s):
    # the left half-plane escalates to big floats, |Im s| up to where Borwein's length leaves
    # the double range (near 420 on the line) keeps the exact-phase table, and huge |s| needs
    # no noise floor, where eta is 1
    res = eta_global(s, CTX)
    with mp.workprec(300):
        ref = mp.altzeta(mp.mpc(s))
        err = abs(res.value.to_mpc() - ref)
        assert err <= res.tail_bound <= CTX.target_rel_err * abs(ref), s


@pytest.mark.parametrize("t", [80.0, 90.0, 100.0])
def test_extended_series_high_on_the_line(t):
    # at 200 bits Borwein's weights reach 1/2 + 100i in under 200 terms (the binomial tails
    # need more than the 400-term cap from 1/2 + 90i on): a bound within the target on both
    ctx = PrecisionContext.extended(200)
    for fn, ref in ((eta_global, mp.altzeta), (zeta_global, mp.zeta)):
        res = fn(complex(0.5, t), ctx)
        assert res.terms_used <= 200
        with mp.workprec(300):
            want = ref(mp.mpc(0.5, t))
            err = abs(res.value.to_mpc() - want)
            assert err <= res.tail_bound <= ctx.target_rel_err * abs(want), fn


@pytest.mark.parametrize("bits, terms", [(200, 411), (240, 427)])
def test_extended_series_length_past_the_double_range(bits, terms):
    # the remainder bound at the first length over the goal is beyond the double range, so
    # the length is found in logs; from 423 Borwein terms on, the sum's scale 2^-e is below
    # every double and stays an exact big float
    ctx = PrecisionContext.extended(bits)
    res = eta_global(complex(0.5, 370.0), ctx, series_cap=1000)
    assert res.terms_used == terms
    with mp.workprec(bits + 60):
        want = mp.altzeta(mp.mpc(0.5, 370.0))
        err = abs(res.value.to_mpc() - want)
        assert err <= res.tail_bound <= ctx.target_rel_err * abs(want)


def test_extended_series_keeps_full_precision_arguments():
    # s = 2 + 2^-80 + 14i carries 82 bits: rounding it to a double would move
    # eta by about 1e-25, far above the 200-bit bounds
    ctx = PrecisionContext.extended(200)
    with mp.workprec(200):
        s = ComplexPoint(2 + mp.mpf(2) ** -80, mp.mpf(14))
    for fn, ref in ((eta_global, mp.altzeta), (zeta_global, mp.zeta)):
        res = fn(s, ctx)
        with mp.workprec(400):
            want = ref(s.to_mpc())
            err = abs(res.value.to_mpc() - want)
            assert err <= res.tail_bound <= ctx.target_rel_err * abs(want), fn


def test_zeta_prefactor_near_its_zeros():
    # near s = 1 and near 1 + 2 pi i k / ln 2 high on the line, outside the exclusion disks:
    # Euler-Maclaurin's n / (s - 1) and its bound hold where 1 - 2^(1-s) would cancel
    k3 = complex(1.0, 6.0 * math.pi / math.log(2.0))
    for s in (complex(1.0 + 1e-5, 0.0), k3 + 0.05, k3 + 0.05j, complex(1.0, 60.0)):
        res = zeta_global(s, CTX)
        with mp.workprec(300):
            ref = mp.zeta(mp.mpc(s))
            err = abs(res.value.to_mpc() - ref)
            assert err <= res.tail_bound <= CTX.target_rel_err * abs(ref), s


def test_series_beyond_double_range_is_refused():
    # the terms (k+1)^400 of the series at s = -400 leave the double range
    for fn in (eta_global, zeta_global):
        with pytest.raises(RangeError):
            fn(-400.0, CTX)
    # the extended table's guard bits grow with -Re s
    with pytest.raises(RangeError):
        eta_global(-1e6, PrecisionContext.extended(120))


# ---------------------------------------------------------------------------
# zeta by Euler-Maclaurin on Re s >= 0
# ---------------------------------------------------------------------------

def _em_sum(s, n, k):
    """Edwards' sum of N = n powers and K = k corrections, and his bound on its remainder, at the
    current mpmath precision from mpmath's own Bernoulli numbers and rising factorials."""
    s = mp.mpc(s)
    head = (mp.fsum(mp.power(j, -s) for j in range(1, n)) + mp.power(n, 1 - s) / (s - 1)
            + mp.power(n, -s) / 2)
    term = [mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.rf(s, 2 * j - 1)
            * mp.power(n, 1 - s - 2 * j) for j in range(1, k + 2)]
    return head + mp.fsum(term[:k]), abs(s + 2 * k + 1) / (s.real + 2 * k + 1) * abs(term[k])


@pytest.mark.parametrize("sigma", [0.0, 0.01, 0.5, 1.0, 2.0, 6.0])
def test_em_remainder_bound_covers_zeta(sigma):
    # at 300 bits, |sum - zeta| within Edwards' bound at the fast tier's (N, K) and at about half
    # that K, and the plan's bound at its (N, K) above Edwards'
    with mp.workprec(300):
        for t in (-500.0, -150.0, -60.0, -20.0, -3.0, -0.5, 0.5, 3.0, 20.0, 60.0, 150.0, 500.0):
            s = complex(sigma, t)
            want = mp.zeta(mp.mpc(s))
            total, k, log_bound = hasse_global._em_plan(s, 0.5e-13, SERIES_CAP)
            for kk in {k, k // 2}:
                value, bound = _em_sum(s, total - k, kk)
                assert abs(value - want) <= bound, (s, total - k, kk)
                assert kk != k or bound <= mp.exp(log_bound), s


def test_em_bernoulli_numbers_are_exact():
    # B_2j / (2j)! as the product of the ratios from the tangent numbers, against mpmath's exact
    # Bernoulli numbers, and each ratio rounded once to a double
    b = Fraction(1)
    for j in range(1, 80):
        p, q, r = hasse_global._ratios(79)[j]
        b *= Fraction(p, q)
        assert b * math.factorial(2 * j) == Fraction(*mp.bernfrac(2 * j)), j
        assert r == p / q


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.extended(200)])
@pytest.mark.parametrize("t", [500.0, 1000.0])
def test_zeta_far_up_the_line(t, ctx):
    # the Euler-Maclaurin length carries no 1/|Gamma(s)|: beyond eta's fast envelope, and
    # within the cap at 200 bits
    res = zeta_global(complex(0.5, t), ctx)
    with mp.workprec(ctx.working_bits + 60):
        want = mp.zeta(mp.mpc(0.5, t))
        err = abs(res.value.to_mpc() - want)
        assert err <= res.tail_bound <= ctx.target_rel_err * abs(want)


# the 16 zeta_global points of a critical-line benchmark round at seed 1, to 4 and 3 digits
CRITICAL_LINE_ZETA = [
    complex(0.9662, -59.174), complex(1.5136, -48.203), complex(1.2619, -43.603),
    complex(0.2495, -31.905), complex(2.0608, -23.165), complex(2.8077, -17.79),
    complex(0.679, -13.414), complex(2.1865, -0.68), complex(1.756, 4.168),
    complex(0.9095, 8.812), complex(1.3609, 18.254), complex(0.0337, 24.319),
    complex(2.4045, 34.003), complex(2.5393, 41.825), complex(0.3959, 50.944),
    complex(2.8509, 55.529),
]


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.extended(120)])
@pytest.mark.parametrize("guess", [14.1, 21.0, 25.0])
def test_zeta_bound_holds_at_a_zero(guess, ctx):
    # at a double-rounded zero |zeta| is about 1e-15: the sum escalates to big floats, and its
    # O(1) head must meet N^-s D(s) before the rounding to the working bits, not after
    t = float(oracles.em_critical_zero(guess))
    res = zeta_global(complex(0.5, t), ctx)
    with mp.workprec(200):
        want = mp.zeta(mp.mpc(0.5, t))
        assert abs(res.value.to_mpc() - want) <= res.tail_bound <= ctx.target_rel_err * abs(want)


@pytest.mark.parametrize("s", [complex(0.5, 100.0), complex(0.3, 60.0), complex(2.0, 14.0)]
                         + CRITICAL_LINE_ZETA)
def test_zeta_and_eta_routes_agree(s):
    # (1 - 2^(1-s)) zeta by Euler-Maclaurin against eta by the alternating series
    z, e = zeta_global(s, CTX), eta_global(s, CTX)
    with mp.workprec(200):
        pref = 1 - mp.power(2, 1 - mp.mpc(s))
        gap = abs(pref * z.value.to_mpc() - e.value.to_mpc())
        assert gap <= abs(pref) * z.tail_bound + e.tail_bound, s


def test_zeta_series_cap_bounds_n_plus_k():
    # terms_used counts N powers and K corrections, and the cap bounds N + K as it bounds n
    s = complex(0.5, 59.9)
    need = zeta_global(s, CTX).terms_used
    assert zeta_global(s, CTX, series_cap=need - 1).terms_used == need
    with pytest.raises(ConvergenceError) as err:
        zeta_global(s, CTX, series_cap=need - 2)
    best = err.value.best
    assert best.terms_used == need - 1
    with mp.workprec(200):
        assert abs(best.value.to_mpc() - mp.zeta(mp.mpc(s))) <= best.tail_bound
    for fn in (zeta_global, eta_global):
        with pytest.raises(DomainError):
            fn(s, CTX, series_cap=-5)


# ---------------------------------------------------------------------------
# zero refinement
# ---------------------------------------------------------------------------

def test_refine_first_three_zeros_against_oracle():
    for t0, frozen in zip((14.1, 21.0, 25.0), FIRST_ZEROS):
        rec = refine_zero(t0, CTX)
        oracle_t = float(oracles.em_critical_zero(t0))
        assert abs(oracle_t - frozen) < 1e-12  # oracle reproduces frozen digits
        assert abs(rec.t - oracle_t) <= 1e-6
        assert rec.residual_eta <= 1e-10
        zeta_res = zeta_global(complex(0.5, rec.t), CTX)
        assert abs(zeta_res.value.to_complex()) <= 1e-8


def test_refine_requires_capture():
    with pytest.raises(DomainError):
        refine_zero(5.0, CTX)  # |eta| well above threshold there


def test_refined_zero_matches_conjugate_side():
    rec = refine_zero(14.1, CTX)
    v = eta_global(complex(0.5, -rec.t), CTX).value.to_complex()
    assert abs(v) <= 1e-9


# the first 29 zero ordinates to three decimals: starts for the oracle
APPROX_ZEROS = (14.135, 21.022, 25.011, 30.425, 32.935, 37.586, 40.919, 43.327, 48.005,
                49.774, 52.970, 56.446, 59.347, 60.832, 65.113, 67.080, 69.546, 72.067,
                75.705, 77.145, 79.337, 82.910, 84.735, 87.425, 88.809, 92.492, 94.651,
                95.871, 98.831)


@functools.lru_cache(maxsize=None)
def _oracle_zero(k: int) -> float:
    """The k-th zero ordinate from the Euler-Maclaurin oracle at 100 bits."""
    return float(oracles.em_critical_zero(APPROX_ZEROS[k - 1]))


@pytest.mark.parametrize("k", [1, 10, 18, 29])
def test_oracle_zeros_match_mpmath(k):
    # the oracle stops once its steps stop shrinking; its zeros stay those of mpmath
    with mp.workprec(120):
        assert abs(oracles.em_critical_zero(APPROX_ZEROS[k - 1]) - mp.zetazero(k).imag) <= 1e-18


def _nearest_zero(t: float) -> float:
    return _oracle_zero(min(range(1, 30), key=lambda k: abs(APPROX_ZEROS[k - 1] - t)))


def _traced_refine(t0, monkeypatch):
    """refine_zero(t0) with the double tables it fills and the (centre, radius)
    of each Newton model it builds."""
    tables, models = [], []
    raw_init, raw_model = finite_eta._FastPowers.__init__, finite_eta._taylor

    def counting(self, s):
        tables.append(s)
        raw_init(self, s)

    def recording(powers, coefs, reach):
        model = raw_model(powers, coefs, reach)
        models.append((powers.s, model.rho))
        return model

    monkeypatch.setattr(finite_eta._FastPowers, "__init__", counting)
    monkeypatch.setattr(finite_eta, "_taylor", recording)
    return refine_zero(t0, CTX), tables, models


@pytest.mark.parametrize("t0, t, residual, iterations", [
    (14.09, 14.134725141734695, 1.611701652388185e-15, 4),
    (59.30, 59.34704400260235, 2.208271583509928e-15, 5),
])
def test_refine_runs_newton_on_one_model(t0, t, residual, iterations, monkeypatch):
    # one double table for the Taylor model at the capture point, which also serves the
    # capture check, and one for the certified final residual: 2 tables, where a table
    # per Newton step took 7
    rec, tables, models = _traced_refine(t0, monkeypatch)
    assert (rec.t, rec.residual_eta, rec.iterations) == (t, residual, iterations)
    assert len(tables) == 2 and len(models) == 1
    assert abs(rec.t - _nearest_zero(t0)) <= 1e-12


@pytest.mark.parametrize("t0, iterations, models", [
    (13.885, 5, 1),   # 0.25 below the first zero: the model's radius holds every step
    (59.497, 6, 1),   # 0.15 above the 13th
    (72.337, 7, 1),   # 0.27 and 0.30 above the 18th
    (72.367, 6, 1),
    (98.99, 7, 2),    # 0.16 to 0.21 above the 29th, where an iterate leaves the first
    (99.00, 7, 2),    # disk and gets a second model
    (99.04, 7, 2),
])
def test_refine_leaves_the_disk(t0, iterations, models, monkeypatch):
    rec, tables, built = _traced_refine(t0, monkeypatch)
    assert abs(rec.t - _nearest_zero(t0)) <= 1e-12
    assert rec.iterations == iterations
    assert len(built) == models and len(tables) == models + 1
    for (centre, rho), (later, _) in zip(built, built[1:]):
        assert abs(later - centre) > rho  # a new model only once an iterate leaves the disk
    assert all(centre.real == 0.5 for centre, _ in built)  # every model on the line


def test_refine_stays_on_the_line():
    # 0.30 to 0.38 above the 18th zero, |eta| is below the capture threshold, and Newton
    # over complex t converged to the zero of the prefactor 1 - 2^(1-s) at 1 + 16 pi i / ln 2
    zero = _oracle_zero(18)
    for t0 in (72.37, 72.38, 72.39, 72.40, 72.41, 72.42, 72.43, 72.44, 72.45):
        assert abs(refine_zero(t0, CTX).t - zero) <= 1e-12, t0


def test_refine_escape_is_a_convergence_error(monkeypatch):
    # no start on a 0.01 grid over [10, 100] escapes; narrowed to 0.01, the capture
    # interval is left by the first step from 14.3 (about -0.17)
    monkeypatch.setattr(hasse_global, "CAPTURE_RADIUS", 0.01)
    with pytest.raises(ConvergenceError, match="escaped capture interval"):
        refine_zero(14.3, CTX)


@pytest.mark.parametrize("k", range(1, 30))
def test_refine_sweep_of_the_first_zeros(k):
    zero = _oracle_zero(k)
    for d in (-0.05, -0.02, 0.02, 0.05):
        assert abs(refine_zero(zero + d, CTX).t - zero) <= 1e-12, d


@pytest.mark.parametrize("k", [60, 100, 150, 200])
def test_refine_far_up_the_line(k):
    # t = 163 to 396: Borwein's length, not a fixed envelope, ends the fast tier, and the
    # Taylor model's scale keeps Newton's squares of it within doubles
    zero = float(mp.zetazero(k).imag)
    for d in (-0.05, 0.05):
        rec = refine_zero(zero + d, CTX)
        assert abs(rec.t - zero) <= 1e-12 and rec.residual_eta <= 1e-10, d


@pytest.mark.parametrize("fn, s, error", [
    (eta_global, complex(0.5, 450.0), RangeError),  # Borwein's divisor passes doubles
    (zeta_global, complex(-3.0, 1000.0), ConvergenceError),  # eta beyond the 400-term cap
    (refine_zero, 1000.0, RangeError),
])
def test_fast_tier_refuses_beyond_reach(fn, s, error):
    # the series' length, the cap or the double range decides: a typed error within 1 s
    start = time.perf_counter()
    with pytest.raises(error) as info:
        fn(s, CTX)
    assert time.perf_counter() - start < 1.0
    if error is ConvergenceError:
        assert info.value.best.terms_used == SERIES_CAP + 1


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.extended(120)])
@pytest.mark.parametrize("fn, s", [(eta_global, complex(0.5, 1e308)),
                                   (eta_global, complex(1e308, 1e308)),
                                   (zeta_global, complex(-1.0, 1e308)), (refine_zero, 1.7e308)])
def test_huge_ordinates_are_typed_refusals(fn, s, ctx):
    # pi |Im s| passes the double range: the remainder bound is inf, not NaN
    point = complex(0.5, s) if fn is refine_zero else s
    assert hasse_global._remainder(point, 10) == math.inf
    with pytest.raises(EtaForgeError):
        fn(s, ctx)


def test_refine_refuses_extended_contexts():
    # Newton runs on the double table: a 120-bit t cannot be delivered
    with pytest.raises(DomainError, match="fast-tier only"):
        refine_zero(14.13, PrecisionContext.extended(120))


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.extended(120)])
def test_series_beyond_the_double_length_range_is_refused(ctx):
    # the series length is chosen at s rounded to a double, which is inf here
    with mp.workprec(120):
        s = ComplexPoint(mp.mpf(2) ** 70000, mp.mpf(1))
    with pytest.raises(RangeError):
        eta_global(s, ctx)
