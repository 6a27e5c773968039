import cmath
import functools
import math
import random
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
from eta_forge.hasse_global import SERIES_CAP

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
    # eta(1) = ln 2 is the prefactor's series alone, with no term of zeta; eta(2) needs a length
    assert eta_global(1.0, CTX, series_cap=3).terms_used == 0
    with pytest.raises(ConvergenceError) as err:
        eta_global(2.0, CTX, series_cap=3)
    assert err.value.best is not None
    assert abs(err.value.best.value.to_complex() - math.pi ** 2 / 12) < 0.1


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
    # zeta(-3) = 1/120 is taken exactly, -B_4 / 4: only its rounding to the working bits
    # is charged
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
    # at a zero of 1 - 2^(1-s) off the real axis zeta is regular: Euler-Maclaurin never divides
    # by that prefactor, so there is no disk
    k1 = complex(1.0, 2.0 * math.pi / math.log(2.0))
    res = zeta_global(k1 + 1e-8, CTX)
    with mp.workprec(200):
        ref = mp.zeta(mp.mpc(k1 + 1e-8))
        assert abs(res.value.to_mpc() - ref) <= res.tail_bound <= CTX.target_rel_err * abs(ref)
    # just outside the disk evaluation proceeds
    assert zeta_global(complex(1.0 + 1e-5, 0.0), CTX).value is not None


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.extended(120)])
def test_zeta_in_the_left_half_plane(ctx):
    # Euler-Maclaurin from the least K with sigma + 2K + 1 > 0: -3 + 1000i, beyond the cap of
    # eta's series, and a seeded sweep of 40 points with -25 < Re s < 0 and 0.1 <= |Im s| <= 316,
    # each within its bound of mpmath
    rng = random.Random(29)
    for s in [complex(-3.0, 1000.0)] + [
            complex(-rng.uniform(0.0, 25.0), rng.choice((1, -1)) * 10 ** rng.uniform(-1.0, 2.5))
            for _ in range(40)]:
        res = zeta_global(s, ctx)
        with mp.workprec(ctx.working_bits + 60):
            ref = mp.zeta(mp.mpc(s))
            err = abs(res.value.to_mpc() - ref)
            assert err <= res.tail_bound <= ctx.target_rel_err * abs(ref), s


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.extended(120)])
def test_zeta_at_non_positive_integers_is_exact(ctx):
    # zeta(-m) = -B_(m+1) / (m+1) from the tangent numbers, rounded once: an exact 0 with
    # bound 0 at the trivial zeros, an exact -1/2 at m = 0, one charged rounding otherwise
    for m in range(61):
        res = zeta_global(-m, ctx)
        assert res.terms_used == 1 + (m + 1) // 2
        with mp.workprec(400):
            ref = -mp.bernoulli(m + 1) / (m + 1) if m else mp.mpf(-0.5)  # mpmath's B_1 is -1/2
            err = abs(res.value.to_mpc() - ref)
        if m % 2 == 0:
            assert err == 0 and res.tail_bound == 0.0, m
        else:
            assert err <= res.tail_bound <= abs(ref) * 2.0 ** -ctx.working_bits * 1.01, m


@pytest.mark.parametrize("m, d", [(1, 90), (2, 70), (3, 60), (7, 55)])
def test_zeta_next_to_a_non_positive_integer(m, d):
    # -m + 2^-d rounds to the double -m, where a factor s + m of Edwards' bound is 0; the
    # bound must still cover the remainder of the 120-bit s, which is about 2^-d
    ctx = PrecisionContext.extended(120)
    with mp.workprec(200):
        s = ComplexPoint(-m + mp.mpf(2) ** -d, mp.mpf(0))
    res = zeta_global(s, ctx)
    with mp.workprec(300):
        ref = mp.zeta(s.to_mpc())
        err = abs(res.value.to_mpc() - ref)
        assert err <= res.tail_bound <= ctx.target_rel_err * abs(ref)


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
        weights, d = oracles.euler_weights(big_n + 1)
        assert len(weights) == big_n + 1 and d == 2 ** (big_n + 1)
        for k, w in enumerate(weights):
            want = sum(Fraction((-1) ** k * math.comb(n, k), 2 ** (n + 1))
                       for n in range(k, big_n + 1))
            assert Fraction(w, d) == want


@pytest.mark.parametrize("bits", [53, 120])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_series_finite_sums_match_evaluate(bits, order):
    # the paper's bridge from the finite sums to eta: S_61 = sum_{n<=60} 2^-(n+1) eta_n, each
    # finite sum evaluated on its own, meets eta_global within Sondow's bound plus both sides'
    # bounds; at higher orders Euler's weights dotted on one table are the derivatives' sum
    ctx = CTX if bits == 53 else PrecisionContext.extended(bits)
    s = complex(0.3, 14.13)
    if order == 0:
        res = eta_global(s, ctx)
        value, rounding = res.value.to_mpc(), res.tail_bound + oracles.sondow_bound(s, 61)
        assert oracles.sondow_bound(s, 61) < 1e-7
    else:
        table = finite_eta._FastPowers(s) if bits == 53 else finite_eta._ExtPowers(s, bits + 16)
        value, rounding = table.dot(oracles.euler_weights(61)[0], order)
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
    # one exp per base of zeta's power table, N for N + K terms, on the line and left of it;
    # eta takes its prefactor 1 - 2 2^-s off the same table
    calls = []

    def exp(z):
        calls.append(z)
        return cmath.exp(z)

    counting = types.SimpleNamespace(**{k: getattr(cmath, k) for k in dir(cmath)
                                        if not k.startswith("_")})
    counting.exp = exp
    monkeypatch.setattr(finite_eta, "cmath", counting)
    for fn, s, terms, exps in ((zeta_global, complex(0.5, 59.9), 41, 26),  # N = 26, K = 15
                               (eta_global, complex(0.5, 59.9), 41, 26),
                               (eta_global, complex(0.49, 59.9), 42, 26),  # K = 16
                               (zeta_global, complex(2.0, 3.0), 15, 8),
                               (eta_global, complex(2.0, 3.0), 15, 8)):
        calls.clear()
        res = fn(s, CTX)
        assert len(calls) == exps and res.terms_used == terms, (s, fn)


def test_extended_series_makes_one_exp_per_prime(monkeypatch):
    # the big-float table pays libmp's fixed-point exp and cos/sin kernels only at the prime
    # bases, and fills each composite from two earlier ones: pi(N) of each for N bases, and eta
    # one more for the prefactor's table over the bases 1 and 2
    calls = {"exp_basecase": [], "cos_sin_basecase": []}

    finite_eta.mp.mpf(0)  # loads mpmath, which binds finite_eta's libmp names before the patch
    for name, made in calls.items():
        def counted(x, prec, made=made, kernel=getattr(finite_eta, name)):
            made.append(x)
            return kernel(x, prec)
        monkeypatch.setattr(finite_eta, name, counted)
    for fn, s, terms, exps in ((zeta_global, complex(0.5, 14.13), 47, 9),  # 9 primes to N = 23
                               (eta_global, complex(0.5, 14.13), 47, 10),
                               (eta_global, complex(0.49, 14.13), 47, 10)):
        for made in calls.values():
            made.clear()
        res = fn(s, PrecisionContext.extended(120))
        assert res.terms_used == terms and [len(v) for v in calls.values()] == [exps] * 2, (s, fn)


# N + K per point on the fast tier and at 120 bits: eta's are zeta's, at 3/4 of the target
A_PRIORI_TERMS = [
    (complex(0.5, 14.13), 25, 47), (complex(0.5, 59.9), 41, 68),
    (complex(2.0, 0.0), 15, 37), (complex(-5.5, 20.0), 31, 55),
    (complex(0.3, 3.0), 17, 38), (complex(1.5, -11.0), 20, 42),
    (complex(0.49, 14.13), 24, 47),
]


@pytest.mark.parametrize("s, fast, ext", A_PRIORI_TERMS)
def test_series_terms_used_a_priori(s, fast, ext):
    assert eta_global(s, CTX).terms_used == fast
    assert eta_global(s, PrecisionContext.extended(120)).terms_used == ext


def _sum_at(s, n, bits):
    """Hasse's partial sum of n terms in big floats, with guard bits for the cancellation."""
    coefs, d = oracles.euler_weights(n)
    table = finite_eta._ExtPowers(s, bits + math.ceil((1 - min(0, s.real)) * math.log2(n)))
    return table.dot(coefs)[0] / d


@pytest.mark.parametrize("sigma", [-20.0, -5.5, -1.5, 0.0, 0.49, 0.5, 1.0, 6.0])
def test_sondow_bound_covers_altzeta(sigma):
    # the bridge test's bound: |S - eta| within Sondow's bound at 300 bits, at the least length
    # within 0.5e-13 and at about half of it
    with mp.workprec(300):
        for t in (-60.0, -3.0, -0.5, 0.5, 20.0, 60.0):
            s = complex(sigma, t)
            want = mp.altzeta(mp.mpc(s))
            full = next(n for n in range(1 + max(0, math.floor(-sigma)), 1000)
                        if oracles.sondow_bound(s, n) <= 0.5e-13)
            for n in {full, max(1 + math.floor(0.5 - sigma), full // 2)}:
                assert abs(_sum_at(s, n, 300) - want) <= oracles.sondow_bound(s, n), (s, n)


@pytest.mark.parametrize("m, d", [(3, 60), (7, 55), (2, 58), (0, 70)])
def test_eta_next_to_a_pole_of_gamma(m, d):
    # -m + 2^-d rounds to the double -m, where a factor s + m of Edwards' bound is 0; the
    # bound must still cover the remainder of the 120-bit s
    ctx = PrecisionContext.extended(120)
    with mp.workprec(200):
        s = ComplexPoint(-m + mp.mpf(2) ** -d, mp.mpf(0))
    res = eta_global(s, ctx)
    with mp.workprec(300):
        ref = mp.altzeta(s.to_mpc())
        assert abs(res.value.to_mpc() - ref) <= res.tail_bound <= ctx.target_rel_err * abs(ref)
    exact = eta_global(ComplexPoint(mp.mpf(-m), mp.mpf(0)), ctx)  # exactly -m: exact rationals
    assert exact.tail_bound == 0.0 and exact.terms_used == 1 + (m + 1) // 2


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.extended(120)])
def test_eta_at_non_positive_integers_is_exact(ctx):
    # eta(-m) = (1 - 2^(m+1)) zeta(-m), one exact rational rounded once: 1/2 at 0, an exact 0
    # with bound 0 at the trivial zeros, bound 0 wherever the rational is a short binary fraction
    assert eta_global(0.0, ctx).value.to_complex() == 0.5
    assert eta_global(-3, ctx).value.to_mpc() == mp.mpf("-0.125")
    for m in range(61):
        res = eta_global(-m, ctx)
        with mp.workprec(400):
            ref = mp.altzeta(-m)
            err = abs(res.value.to_mpc() - ref)
        assert res.terms_used == zeta_global(-m, ctx).terms_used
        assert err <= res.tail_bound <= abs(ref) * 2.0 ** -ctx.working_bits * 1.01, m
        if m in (0, 1, 3) or m % 2 == 0:  # 1/2, 1/4, -1/8 and the trivial zeros
            assert err == 0 and res.tail_bound == 0.0, m


@pytest.mark.parametrize("s", [complex(-20.0, 0.5), complex(-10.0, 3.0), complex(-1.5, 100.0),
                               complex(0.5, 100.0), complex(0.5, 150.0), complex(2.0, -150.0),
                               complex(1e17, 0.0), complex(1e300, 0.0), complex(1e300, 50.0),
                               complex(0.5, 160.0), complex(0.5, 300.0), complex(2.0, 300.0),
                               complex(0.5, -350.0),
                               complex(-57.37498166545738, -4.775058530297425)])
def test_fast_series_meets_its_target(s):
    # the left half-plane escalates to big floats (at -57.37-4.78i the double table cancels to
    # exactly 0, so it measures nothing), |Im s| up to hundreds keeps the exact-phase table,
    # and huge |s| needs no noise floor, where eta is 1
    res = eta_global(s, CTX)
    with mp.workprec(300):
        ref = mp.altzeta(mp.mpc(s))
        err = abs(res.value.to_mpc() - ref)
        assert err <= res.tail_bound <= CTX.target_rel_err * abs(ref), s


@pytest.mark.parametrize("t", [80.0, 90.0, 100.0, 370.0])
def test_extended_series_high_on_the_line(t):
    # at 200 bits Euler-Maclaurin reaches 1/2 + 100i in under 200 terms and 1/2 + 370i in
    # under 250, for eta as for zeta (Borwein's weights needed 411 at 370i): a bound within
    # the target on both
    ctx = PrecisionContext.extended(200)
    for fn, ref in ((eta_global, mp.altzeta), (zeta_global, mp.zeta)):
        res = fn(complex(0.5, t), ctx)
        assert res.terms_used <= (200 if t <= 100.0 else 250)
        with mp.workprec(300):
            want = ref(mp.mpc(0.5, t))
            err = abs(res.value.to_mpc() - want)
            assert err <= res.tail_bound <= ctx.target_rel_err * abs(want), fn


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
    # |eta(-401)| = (2^402 - 1) |zeta(-401)| leaves the double range, and so does |zeta(-400.5)|,
    # about 6e549; zeta(-400) and eta(-400) are exact trivial zeros
    for fn, s in ((eta_global, -401.0), (zeta_global, -400.5)):
        with pytest.raises(RangeError):
            fn(s, CTX)
    for fn in (zeta_global, eta_global):
        res = fn(-400.0, CTX)
        assert res.value.to_complex() == 0 and res.tail_bound == 0.0
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
    """refine_zero(t0) with the double tables of zeta it fills (not the prefactor's, over the
    bases 1 and 2) and the (centre, radius) of each Newton model it builds."""
    tables, models = [], []
    raw_init, raw_model = finite_eta._FastPowers.__init__, hasse_global._taylor

    def counting(self, s):
        tables.append(self)
        raw_init(self, s)

    def recording(powers, coefs, reach):
        model = raw_model(powers, coefs, reach)
        models.append((powers.s, model.rho))
        return model

    monkeypatch.setattr(finite_eta._FastPowers, "__init__", counting)
    monkeypatch.setattr(hasse_global, "_taylor", recording)
    rec = refine_zero(t0, CTX)
    return rec, [table.s for table in tables if len(table.re) > 2], models


@pytest.mark.parametrize("t0, t, iterations", [
    (14.09, 14.134725141734695, 4),
    (59.30, 59.34704400260235, 5),
])
def test_refine_runs_newton_on_one_model(t0, t, iterations, monkeypatch):
    # one double table for zeta's Taylor model at the capture point, which also serves the
    # capture check and the certified final residual |P| |zeta|, within the absolute target of
    # |eta| at t: 1 table, where a table per Newton step took 7
    rec, tables, models = _traced_refine(t0, monkeypatch)
    assert (rec.t, rec.iterations) == (t, iterations)
    assert len(tables) == 1 and len(models) == 1
    assert abs(rec.t - _nearest_zero(t0)) <= 1e-12
    with mp.workprec(200):
        assert abs(rec.residual_eta - abs(mp.altzeta(mp.mpc(0.5, rec.t)))) <= CTX.target_rel_err


@pytest.mark.parametrize("t0, iterations, models, tables", [
    (13.885, 5, 1, 1),   # 0.25 below the first zero: the model's radius holds every step
    (59.497, 6, 1, 1),   # 0.15 above the 13th
    (72.337, 5, 1, 1),   # 0.27 and 0.30 above the 18th
    (72.367, 4, 1, 1),
    (98.99, 4, 1, 1),    # 0.16 to 0.21 above the 29th
    (99.00, 4, 1, 1),
    (99.04, 4, 1, 1),
])
def test_refine_leaves_the_disk(t0, iterations, models, tables, monkeypatch):
    # the final residual comes off the last model where its bound at the zero meets the
    # target, as it does 0.15 to 0.30 from the model's centre; a second model would come only
    # once an iterate left the first one's disk, and a fresh table only where the bound missed
    rec, filled, built = _traced_refine(t0, monkeypatch)
    assert abs(rec.t - _nearest_zero(t0)) <= 1e-12
    assert rec.iterations == iterations
    assert len(built) == models and len(filled) == tables
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


@pytest.mark.parametrize("k", [1, 60, 100, 200, 300, 500])
def test_refine_far_up_the_line(k):
    # t = 14 to 811: zeta's length, not a fixed envelope, ends the fast tier, and the Taylor
    # model's scale keeps Newton's squares of it within doubles
    zero = float(mp.zetazero(k).imag)
    for d in (-0.05, 0.05):
        rec = refine_zero(zero + d, CTX)
        assert abs(rec.t - zero) <= 1e-12 and rec.residual_eta <= 1e-10, d


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.extended(120)])
@pytest.mark.parametrize("t", [450.0, 1000.0])
def test_eta_far_up_the_line(t, ctx):
    # eta reaches as far as zeta: 1/2 + 450i, where Borwein's divisor left the doubles, and
    # 1/2 + 1000i, each within its bound of mpmath
    res = eta_global(complex(0.5, t), ctx)
    with mp.workprec(ctx.working_bits + 60):
        want = mp.altzeta(mp.mpc(0.5, t))
        assert abs(res.value.to_mpc() - want) <= res.tail_bound <= ctx.target_rel_err * abs(want)


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.extended(120)])
@pytest.mark.parametrize("k", [-3, -1, 1, 3])
def test_eta_next_to_the_zeros_of_its_prefactor(k, ctx):
    # 1 - 2^(1-s) vanishes at 1 + 2 pi i k / ln 2, and so does eta: next to it, and at the
    # double nearest it, eta meets its bound against mpmath or raises a typed error
    z = complex(1.0, 2.0 * math.pi * k / math.log(2.0))
    for s in (z, z + 1e-12, z + 1e-8j, z + 0.05, z - 0.05j):
        try:
            res = eta_global(s, ctx)
        except EtaForgeError:
            continue
        with mp.workprec(ctx.working_bits + 100):
            want = mp.altzeta(mp.mpc(s))
            err = abs(res.value.to_mpc() - want)
            assert err <= res.tail_bound <= ctx.target_rel_err * abs(want), s


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.extended(120)])
def test_eta_at_and_next_to_one(ctx):
    # zeta's pole meets the prefactor's zero: g = (1 - 2^(1-s)) / (s - 1) from its power
    # series times (s - 1) zeta, so eta(1) = ln 2 and its neighbours return with their bounds
    for s in (1.0, 1.0 + 1e-7, 1.0 - 1e-7, complex(1.0, 1e-7), complex(1.3, -0.2)):
        res = eta_global(s, ctx)
        with mp.workprec(ctx.working_bits + 60):
            want = mp.altzeta(mp.mpc(s)) if s != 1.0 else mp.log(2)
            err = abs(res.value.to_mpc() - want)
            assert err <= res.tail_bound <= ctx.target_rel_err * abs(want), s


@pytest.mark.parametrize("ctx", [PrecisionContext(53, 2.0 ** -52), PrecisionContext(53, 1e-15),
                                 PrecisionContext(120, 2.0 ** -119)])
def test_eta_at_a_target_near_one_unit(ctx):
    # below 2^(7 - wb) the parts' roundings leave no room: eta is taken with 16 more bits
    # and rounded once, and still meets the target, down to 2^(1 - wb), the tightest one
    # PrecisionContext admits (test_cli's --tol cases check the refusal below it)
    for s in (complex(0.3, 5.0), complex(0.5, 14.0), complex(-3.5, 2.0), complex(2.0, 1.0),
              complex(1.0 + 1e-7, 0.0)):
        res = eta_global(s, ctx)
        with mp.workprec(300):
            want = mp.altzeta(mp.mpc(s))
            err = abs(res.value.to_mpc() - want)
            assert err <= res.tail_bound <= ctx.target_rel_err * abs(want), s


@pytest.mark.parametrize("fn, s, error", [
    (eta_global, complex(-0.3, 5000.0), ConvergenceError),  # N + K beyond the 400-term cap
    (zeta_global, complex(-0.3, 5000.0), ConvergenceError),
    (zeta_global, -400.5, RangeError),  # |zeta| about 6e549
    (refine_zero, 5000.0, ConvergenceError),
])
def test_fast_tier_refuses_beyond_reach(fn, s, error):
    # the series' length, the cap or the double range decides: a typed error within 1 s
    start = time.perf_counter()
    with pytest.raises(error) as info:
        fn(s, CTX)
    assert time.perf_counter() - start < 1.0
    if error is ConvergenceError:  # the sum at the cap, or refine_zero's start
        best = info.value.best
        assert best == s if fn is refine_zero else best.terms_used == SERIES_CAP + 1


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.extended(120)])
@pytest.mark.parametrize("fn, s", [(eta_global, complex(0.5, 1e308)),
                                   (eta_global, complex(1e308, 1e308)),
                                   (zeta_global, complex(-1.0, 1e308)),
                                   (zeta_global, complex(1.7e308, 1.7e308)), (refine_zero, 1.7e308)])
def test_huge_ordinates_are_typed_refusals(fn, s, ctx):
    # |Im s| near the double range: the length beyond the cap, not a NaN or an inf
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
