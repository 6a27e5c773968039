import cmath
import contextlib
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from eta_forge import finite_eta
from eta_forge.proto_zeros import default_step
from eta_forge import (
    ComplexPoint,
    ConvergenceError,
    DomainError,
    Family,
    FiniteEtaSpec,
    PrecisionContext,
    RangeError,
    VerificationError,
    derivative,
    eta_global,
    evaluate,
    evaluate_exact,
    trivial_zero_report,
    zeta_global,
)

CTX = PrecisionContext()
H = Family.HASSE
HS = Family.HSTAR


def spec(fam, n):
    return FiniteEtaSpec(fam, n)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_hstar_requires_positive_index():
    with pytest.raises(DomainError):
        FiniteEtaSpec(HS, 0)


def test_negative_index_rejected():
    with pytest.raises(DomainError):
        FiniteEtaSpec(H, -1)


def test_integral_float_index_is_an_int():
    spec = FiniteEtaSpec(H, 2.0)
    assert spec == FiniteEtaSpec(H, 2) and type(spec.n) is int


@pytest.mark.parametrize("n", [2.5, math.nan, -1.0], ids=["half", "nan", "negative"])
def test_non_integral_index_rejected(n):
    with pytest.raises(DomainError):
        FiniteEtaSpec(H, n)


# ---------------------------------------------------------------------------
# evaluation examples
# ---------------------------------------------------------------------------

def test_hasse_n1_zero_at_origin():
    res = evaluate(spec(H, 1), 0.0, CTX)
    assert res.value.to_complex() == 0.0
    assert res.abs_err == 0.0  # exact integer path


def test_hstar_n2_zero_at_minus_two():
    # the sum is C(4,3) 1^(-s) - C(4,4) 2^(-s) = 4 - 2^(-s); zero at s = -2
    res = evaluate(spec(HS, 2), -2.0, CTX)
    assert res.value.to_complex() == 0.0


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.extended(120)])
def test_integer_arguments_sum_exactly_on_both_tiers(ctx):
    # trivial zeros: one exact integer route on both tiers, so 0 with bound 0
    for fam in (H, HS):
        res = evaluate(spec(fam, 3), -2, ctx)
        assert res.value.re == 0 and res.value.im == 0 and res.abs_err == 0.0


def test_near_integer_argument_keeps_its_full_precision():
    # -2 + 2^-100 rounds to the trivial zero -2 as a double; at 200 bits it
    # must be summed as given, not as an integer
    ctx = PrecisionContext.extended(200)
    with mp.workprec(200):
        s = mp.mpf(-2) + mp.mpf(2) ** -100
    res = evaluate(spec(H, 3), s, ctx)
    ref = oracles.eta_hasse_highprec(3, s, 400)
    with mp.workprec(400):
        assert ref != 0 and res.value.to_mpc() != 0
        diff = abs(res.value.to_mpc() - ref)
        assert diff <= res.abs_err <= ctx.target_rel_err * abs(res.value.to_mpc())


def test_hasse_n2_at_two_matches_rational():
    want = oracles.rational_eta_hasse(2, 2)
    assert want == Fraction(11, 18)
    res = evaluate(spec(H, 2), 2.0, CTX)
    assert abs(res.value.to_complex() - float(want)) <= max(res.abs_err, 1e-15)


def test_error_bound_is_attached_and_honest():
    s = complex(0.5, 14.0)
    for fam, n in ((H, 12), (HS, 9)):
        res = evaluate(spec(fam, n), s, CTX)
        ref = (oracles.eta_hasse_highprec(n, s) if fam is H
               else oracles.eta_hstar_highprec(n, s))
        assert abs(res.value.to_complex() - complex(ref)) <= res.abs_err


# ---------------------------------------------------------------------------
# exact rational path
# ---------------------------------------------------------------------------

def test_exact_hasse_n3_minus_two():
    # 1 - 3*4 + 3*9 - 16 = 0
    assert evaluate_exact(spec(H, 3), -2) == 0


def test_exact_hstar_n1_zero():
    assert evaluate_exact(spec(HS, 1), 0) == 1  # single term C(2,2)


def test_exact_hasse_n2_two():
    assert evaluate_exact(spec(H, 2), 2) == Fraction(11, 18)


def test_exact_matches_bruteforce_grid():
    for n in (1, 2, 5, 9):
        for m in range(-6, 7):
            assert evaluate_exact(spec(H, n), m) == oracles.rational_eta_hasse(n, m)
            assert evaluate_exact(spec(HS, max(n, 1)), m) == oracles.rational_eta_hstar(max(n, 1), m)


def test_exact_rejects_non_integer():
    with pytest.raises(DomainError):
        evaluate_exact(spec(H, 2), 1.5)


# ---------------------------------------------------------------------------
# trivial zeros
# ---------------------------------------------------------------------------

def test_trivial_zeros_hasse_n4():
    rep = trivial_zero_report(spec(H, 4))
    assert [a for a, _ in rep] == [0, -1, -2, -3]
    assert all(v == 0 for _, v in rep)


def test_trivial_zeros_hstar_n3():
    rep = trivial_zero_report(spec(HS, 3))
    assert [a for a, _ in rep] == [-2, -4]
    assert all(v == 0 for _, v in rep)


def test_trivial_zeros_hstar_n1_empty():
    assert trivial_zero_report(spec(HS, 1)) == []


def test_trivial_zeros_hasse_full_range():
    for n in range(1, 21):
        for m in range(n):
            assert evaluate_exact(spec(H, n), -m) == 0


def test_trivial_zeros_hstar_full_range():
    for n in range(2, 16):
        for m in range(1, n):
            assert evaluate_exact(spec(HS, n), -2 * m) == 0


def test_nonzero_points_are_not_reported_zero():
    # arguments just outside the zero ranges must be nonzero
    assert evaluate_exact(spec(H, 4), -4) != 0
    assert evaluate_exact(spec(HS, 3), -6) != 0


def test_zero_report_raises_on_nonzero(monkeypatch):
    import eta_forge.finite_eta as fe
    monkeypatch.setattr(fe, "evaluate_exact", lambda sp, m: Fraction(1, 7))
    with pytest.raises(VerificationError) as err:
        fe.trivial_zero_report(spec(H, 3))
    assert "1/7" in str(err.value)


# ---------------------------------------------------------------------------
# float vs exact agreement
# ---------------------------------------------------------------------------

def test_float_exact_agreement():
    for fam in (H, HS):
        for n in range(1 if fam is HS else 0, 16):
            for m in range(-10, 11):
                res = evaluate(spec(fam, n), float(m), CTX)
                exact = float(evaluate_exact(spec(fam, n), m))
                assert abs(res.value.to_complex() - exact) <= res.abs_err + 1e-300


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_derivative_hasse_n1_at_zero():
    # d/ds (1 - 2^-s) = ln 2 * 2^-s -> ln 2 at s = 0
    res = derivative(spec(H, 1), 0.0, CTX)
    assert abs(res.value.to_complex() - math.log(2)) < 1e-14


def test_derivative_constant_family_is_zero():
    res = derivative(spec(H, 0), complex(1.3, -4.5), CTX)
    assert res.value.to_complex() == 0.0


def test_derivative_matches_central_difference():
    # central differences at extended precision with h = 1e-6;
    # |d - fd| <= h^2 * M3 / 6 with M3 a termwise bound on the third
    # derivative (plus rounding slack)
    rng = random.Random(77)
    ext = PrecisionContext.extended(180)
    h = mp.mpf("1e-6")
    for _ in range(100):
        n = rng.randint(1, 6)
        sp = spec(H, n)
        s = complex(rng.uniform(0, 2), rng.uniform(-30, 30))
        d = derivative(sp, s, ext).value.to_mpc()
        with mp.workprec(180):
            f_plus = oracles.eta_hasse_highprec(n, mp.mpc(s) + h, 180)
            f_minus = oracles.eta_hasse_highprec(n, mp.mpc(s) - h, 180)
            fd = (f_plus - f_minus) / (2 * h)
        m3 = sum(math.comb(n, k) * math.log(k + 1) ** 3 * (k + 1) ** (-s.real)
                 for k in range(n + 1))
        assert abs(d - fd) <= float(h) ** 2 * m3 / 6 * 1.01 + 1e-25


def test_derivative_hasse_n2_at_one_tiny_step():
    # central difference with step 1e-20 needs ~200 bits; the termwise
    # derivative must match it to the truncation order
    ext = PrecisionContext.extended(300)
    d = derivative(spec(H, 2), 1.0, ext).value.to_mpc()
    with mp.workprec(300):
        h = mp.mpf(10) ** -20
        fd = (oracles.eta_hasse_highprec(2, mp.mpf(1) + h, 300)
              - oracles.eta_hasse_highprec(2, mp.mpf(1) - h, 300)) / (2 * h)
        assert abs(d - fd) < mp.mpf(10) ** -38


def test_second_derivative_sign_structure():
    # eta_1(s) = 1 - 2^-s: every derivative is +-(ln 2)^k 2^-s
    d2 = derivative(spec(H, 1), 0.0, CTX, order=2).value.to_complex()
    assert abs(d2 + math.log(2) ** 2) < 1e-14


@pytest.mark.parametrize("fam, oracle", [(H, oracles.eta_hasse_highprec),
                                         (HS, oracles.eta_hstar_highprec)])
def test_derivative_orders_extended_match_oracle(fam, oracle):
    # orders 1-3 at 120 bits against a termwise sum at 300 bits
    ext = PrecisionContext.extended(120)
    for n, s in ((5, complex(0.5, 14.1)), (17, complex(-2.5, 3.0)), (30, complex(3.0, -7.0))):
        for order in (1, 2, 3):
            res = derivative(spec(fam, n), s, ext, order=order)
            ref = oracle(n, s, 300, order)
            with mp.workprec(300):
                diff = abs(res.value.to_mpc() - ref)
                assert diff <= res.abs_err
                assert diff <= ext.target_rel_err * abs(ref)


@pytest.mark.parametrize("fam, n, s, escalations", [
    # the exact-phase table certifies these far up the line
    (H, 24, complex(1.5, -60.0), 0),
    (HS, 30, complex(-1.0, 42.0), 0),
    # deep cancellation: no fast table meets the relative target
    (H, 48, complex(0.5, 14.134725141734694), 1),
    (HS, 30, complex(-3.0, 1.0), 1),
])
def test_derivative_fast_tier_matches_oracle(fam, n, s, escalations, monkeypatch):
    calls = []  # one big-float power table per escalated rung
    raw = finite_eta._ExtPowers

    def counting(*args, **kwargs):
        calls.append(args)
        return raw(*args, **kwargs)

    monkeypatch.setattr(finite_eta, "_ExtPowers", counting)
    oracle = oracles.eta_hasse_highprec if fam is H else oracles.eta_hstar_highprec
    for order in (1, 2, 3):
        before = len(calls)
        res = derivative(spec(fam, n), s, CTX, order=order)
        assert len(calls) == before + escalations
        ref = complex(oracle(n, s, 300, order))
        diff = abs(res.value.to_complex() - ref)
        assert diff <= res.abs_err
        assert diff <= CTX.target_rel_err * abs(ref)


def test_fast_tier_meets_the_relative_target():
    # a seeded sample of fast-tier sums and derivatives against 500-bit sums;
    # in the first two points the largest term dwarfs |value|, so a bound
    # certified against the largest term would pass relative errors of
    # 0.47 and 3.5e4
    rng = random.Random(2013)
    cases = [(H, 60, complex(2.0, 3.0), 0), (H, 45, complex(-3.0, 1.0), 0)]
    for _ in range(300):
        cases.append((rng.choice((H, HS)), rng.randint(1, 100),
                      complex(rng.uniform(-4, 4), rng.uniform(-150, 150)), rng.randint(0, 2)))
    for fam, n, s, order in cases:
        res = (evaluate(spec(fam, n), s, CTX) if order == 0
               else derivative(spec(fam, n), s, CTX, order=order))
        oracle = oracles.eta_hasse_highprec if fam is H else oracles.eta_hstar_highprec
        ref = oracle(n, s, 500, order)
        with mp.workprec(500):
            diff = abs(res.value.to_mpc() - ref)
            assert diff <= res.abs_err, (fam, n, s, order)
            assert diff <= 1e-13 * abs(ref), (fam, n, s, order)


# ---------------------------------------------------------------------------
# symmetry and escalation
# ---------------------------------------------------------------------------

@given(st.floats(-3, 3), st.floats(-25, 25), st.integers(0, 12))
def test_conjugate_symmetry(re, im, n):
    v1 = evaluate(spec(H, n), complex(re, im), CTX).value.to_complex()
    v2 = evaluate(spec(H, n), complex(re, -im), CTX).value.to_complex()
    assert v1.conjugate() == v2


def test_escalation_certifies_near_cancellation():
    # at large n near a zero of the sum the fast tier cannot certify the
    # relative target; the result must still match a high-precision oracle
    s = complex(0.5, 14.134725141734694)
    n = 48
    res = evaluate(spec(H, n), s, PrecisionContext(53, 1e-13))
    ref = complex(oracles.eta_hasse_highprec(n, s, 400))
    assert abs(res.value.to_complex() - ref) <= res.abs_err
    assert abs(res.value.to_complex() - ref) <= 1e-13 * max(abs(ref), 1e-6)


def test_extended_context_returns_extended_values():
    ext = PrecisionContext.extended(160)
    res = evaluate(spec(H, 30), complex(0.5, 20.0), ext)
    ref = oracles.eta_hasse_highprec(30, complex(0.5, 20.0), 320)
    with mp.workprec(200):
        diff = abs(res.value.to_mpc() - ref)
        assert diff <= res.abs_err
        assert diff / abs(ref) <= ext.target_rel_err


# ---------------------------------------------------------------------------
# power tables and range refusals
# ---------------------------------------------------------------------------

def test_hstar_power_tables_match_oracle():
    # one table per tier (fast and extended), grown across n as the global
    # series grows its HASSE table, and dotted at orders 0-3; each dot product
    # must hold its own bound against a 400-bit sum
    s = complex(0.5, 40.0)
    tables = (finite_eta._FastPowers(s), finite_eta._ExtPowers(s, 120))
    for n in range(1, 61):
        for order in (0, 1, 2, 3):
            ref = oracles.eta_hstar_highprec(n, s, 400, order)
            for powers in tables:
                value, err = powers.dot(finite_eta._terms(HS, n), order)
                with mp.workprec(400):
                    assert abs(mp.mpc(value) - ref) <= err, (n, order)


@pytest.mark.parametrize("s, bits", [
    (complex(-3.0, 100.0), 64), (complex(0.5, 14.13), 120), (complex(3.0, -60.0), 160),
    (complex(0.5, 80.0), 200), (complex(-1.5, -3.0), 260),
])
def test_sieved_power_table_matches_oracle(s, bits):
    # the big-float table fills a composite base from two earlier ones, to
    # Omega(b) = 8 prime factors at b = 256 and 384; grown to N = 430 (the 200-bit
    # series near its cap), each dot product at orders 0-3 holds its own bound
    # against a 640-bit sum that takes every base from its own exp
    rng = random.Random(f"{s}:{bits}")
    table = finite_eta._ExtPowers(s, bits)
    for n in (2, 17, 64, 256, 384, 430):
        single = (0,) * (n - 1) + (1,)  # one term: the per-term model alone
        mixed = tuple(rng.randrange(-10 ** 6, 10 ** 6) for _ in range(n))
        for coefs in (single, mixed):
            for order in (0, 1, 2, 3):
                value, err = table.dot(coefs, order)
                ref = oracles.dirichlet_highprec(coefs, s, 640, order)
                with mp.workprec(640):
                    assert abs(mp.mpc(value) - ref) <= err, (n, order, coefs is single)


def test_magnitude_sums_need_no_sign_pattern():
    # coefficients (1, 1, -1, -1) x 5 do not alternate with the base: sum |terms|
    # is 7.60 at 1/2 + 3i whatever the signs, and both ladders hold their bound
    coefs, s = (1, 1, -1, -1) * 5, complex(0.5, 3.0)
    ref = oracles.dirichlet_highprec(coefs, s, 400)
    fast = finite_eta._FastPowers(s)
    fast.dot(coefs)
    assert fast.sum_abs == pytest.approx(sum(b ** -0.5 for b in range(1, 21)), rel=1e-12)
    for ctx in (CTX, PrecisionContext.extended(120)):
        value, err = finite_eta._evaluate(coefs, s, ctx, 0, ctx.target_rel_err)
        with mp.workprec(400):
            assert abs(mp.mpc(value) - ref) <= err <= ctx.target_rel_err * abs(ref)


def test_sum_beyond_double_range_is_refused():
    # about -4^800: the fast terms overflow, and so does the big-float value
    with pytest.raises(RangeError):
        evaluate(spec(H, 3), -800, CTX)
    with pytest.raises(RangeError):
        derivative(spec(H, 3), complex(-800.5, 1.0), CTX)


def test_value_in_double_range_is_returned_when_terms_are_not():
    # s = -250 is a trivial zero of HASSE n = 300, whose terms reach 301^250 ~ 1e619
    res = evaluate(spec(H, 300), -250, CTX)
    assert res.value.to_complex() == 0 and res.abs_err == 0.0


def test_fast_tier_far_up_the_line_matches_oracle(monkeypatch):
    # the phase t ln b in double-double keeps the fast tier certified at t = 1e6
    monkeypatch.setattr(finite_eta, "_ExtPowers", None)  # escalating would fail
    s = complex(0.5, 1e6)
    res = evaluate(spec(H, 3), s, CTX)
    ref = oracles.eta_hasse_highprec(3, s, 400)
    with mp.workprec(400):
        diff = abs(res.value.to_mpc() - ref)
        assert diff <= res.abs_err <= CTX.target_rel_err * abs(ref)


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.extended(120)])
def test_huge_imaginary_parts_are_delivered_on_both_tiers(ctx):
    # a second big-float sum, at the bits its first bound asks for, carries
    # the phase t ln b (about 1050 bits at t = 1e300)
    for t in (1e12, 1e300, 1.7e308):
        s = complex(0.5, t)
        res = evaluate(spec(H, 3), s, ctx)
        ref = oracles.eta_hasse_highprec(3, s, 4000)
        with mp.workprec(4000):
            diff = abs(res.value.to_mpc() - ref)
            assert diff <= res.abs_err <= ctx.target_rel_err * abs(ref), t


def test_precision_beyond_the_big_float_limit_is_refused():
    # a phase of 2^70000 needs more bits than any sum is given
    with mp.workprec(120):
        s = ComplexPoint(mp.mpf(0.5), mp.mpf(2) ** 70000)
    with pytest.raises(RangeError):
        evaluate(spec(H, 3), s, PrecisionContext.extended(120))


@pytest.mark.parametrize("n, s, bits, first", [
    (60, complex(2.0, 3.0), 200, 268),
    (60, complex(0.5, 14.134725), 120, 178),
    (20, complex(0.5, 2.0), 53, 90),
    (48, complex(0.5, 14.134725141734694), 53, 100),
])
def test_first_big_float_precision_is_measured(n, s, bits, first, monkeypatch):
    # one big-float table, at the working bits + 16 + log2(sum |terms| / |value|)
    # as the double table measured it
    tables, raw = [], finite_eta._ExtPowers

    def recording(s, table_bits):
        tables.append(table_bits)
        return raw(s, table_bits)

    monkeypatch.setattr(finite_eta, "_ExtPowers", recording)
    ctx = CTX if bits == 53 else PrecisionContext.extended(bits)
    evaluate(spec(H, n), s, ctx)
    assert tables == [first]


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.extended(120)])
def test_values_below_the_double_range_are_refused(ctx):
    # eta_4'(1e300) = 4 ln 2 2^-1e300 + ... is not 0, but it and its bound
    # flush to 0 as doubles, where 0 <= 0 would certify an exact-looking 0
    with pytest.raises(RangeError, match="normal double range"):
        derivative(spec(H, 4), 1e300, ctx)
    # an exact zero, and a value of 1 whose far terms flush, still pass
    res = evaluate(spec(H, 300), -250, ctx)
    assert res.value.re == 0 and res.value.im == 0 and res.abs_err == 0.0
    res = eta_global(1e300, ctx)
    assert abs(res.value.to_complex() - 1.0) <= res.tail_bound <= ctx.target_rel_err


@pytest.mark.parametrize("bits", [120, 200])
def test_extended_values_at_conjugate_arguments_are_exact_conjugates(bits):
    # the big-float table truncates toward 0, so at conj(s) it holds the conjugate
    # integers, and every dot, value and bound built on it is the exact conjugate
    ctx, rng = PrecisionContext.extended(bits), random.Random(bits)
    neg = lambda x: mp.fneg(x, exact=True)  # noqa: E731  (-x rounds to 53 bits)
    for fam in (H, HS, H, HS):
        s, n = complex(rng.uniform(-2.0, 3.0), rng.uniform(1.0, 40.0)), rng.randint(5, 40)
        coefs = finite_eta._terms(fam, n)
        tables = [finite_eta._ExtPowers(z, bits) for z in (s, s.conjugate())]
        for order in (0, 1, 2):
            (a, a_err), (b, b_err) = (table.dot(coefs, order) for table in tables)
            assert (b.real, b.imag, b_err) == (a.real, neg(a.imag), a_err)
            fn = evaluate if order == 0 else derivative
            args = () if order == 0 else (order,)
            a, b = (fn(spec(fam, n), z, ctx, *args) for z in (s, s.conjugate()))
            assert (b.value.re, b.value.im, b.abs_err) == (a.value.re, neg(a.value.im), a.abs_err)
        a, b = (eta_global(z, ctx) for z in (s, s.conjugate()))
        assert (b.value.re, b.value.im, b.tail_bound) == (a.value.re, neg(a.value.im),
                                                          a.tail_bound)


@pytest.mark.parametrize("call", [
    lambda ctx: evaluate(spec(H, 5), complex(-1e300, 1.0), ctx),
    lambda ctx: zeta_global(-1e300, ctx),
])
def test_huge_negative_arguments_are_refused_quickly(call):
    # terms of 2^(1e300 log2 b) are refused before any of their integers is formed
    start = time.perf_counter()
    with pytest.raises(RangeError):
        call(PrecisionContext.extended(120))
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# line kernel: one Taylor model per disk of cancelling grid points
# ---------------------------------------------------------------------------

def _grid(n: int, t_min: float = 1.0, t_max: float = 14.0, fam: Family = H) -> list[float]:
    step = default_step(spec(fam, n))
    return [t_min + i * step for i in range(int((t_max - t_min) / step) + 1)]


def _check_line_models(n: int, sigma: float, ts: list[float], monkeypatch):
    """Run the line kernel on ``ts``: every disk has a model that serves each of its
    points within the target and within its bound of the oracle."""
    models = []
    raw_disk = finite_eta._disk

    def recording_disk(coefs, sg, ts, first_bits, tol):
        out = raw_disk(coefs, sg, ts, first_bits, tol)
        models.append((ts, out))
        return out

    monkeypatch.setattr(finite_eta, "_disk", recording_disk)
    vals = dict(zip(ts, finite_eta._line(finite_eta._terms(H, n), sigma, ts, CTX)))
    assert models  # these lines cancel too deeply for the double table
    for disk, out in models:
        assert out is not None
        for t, (v, bound) in zip(disk, out):
            assert bound <= CTX.target_rel_err * abs(v)  # the model serves every point
            assert vals[t] == v
            ref = oracles.eta_hasse_highprec(n, mp.mpc(sigma, t))
            assert float(abs(mp.mpc(v) - ref)) <= bound


@pytest.mark.parametrize("sigma", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("n", [8, 10, 12, 20])
def test_line_kernel_models_are_within_their_bounds(n, sigma, monkeypatch):
    _check_line_models(n, sigma, _grid(n), monkeypatch)  # cancelling below t = 14


@pytest.mark.parametrize("n", [12, 20])
def test_line_kernel_keeps_inexact_offsets_on_the_model(n, monkeypatch):
    # near t = 0 an offset t - tc is not a double: Horner runs at the rounded
    # offset and charges the rounding, so no grid point needs a big-float sum
    calls = []
    raw_evaluate = finite_eta._evaluate
    monkeypatch.setattr(finite_eta, "_evaluate", lambda *a: calls.append(a) or raw_evaluate(*a))
    _check_line_models(n, 0.5, _grid(n, 0.05, 5.0), monkeypatch)
    assert calls == []


def test_line_kernel_disk_on_hstar_matches_oracle():
    coefs, sigma, tol = finite_eta._terms(HS, 10), 0.5, CTX.target_rel_err
    ts = [2.0 + 0.1 * i for i in range(11)]
    v, _, powers = finite_eta._rung(coefs, complex(sigma, 2.5), 0, 53)
    first = finite_eta._first_bits(53, powers, abs(v))
    out = finite_eta._disk(coefs, sigma, ts, first, tol)
    assert out is not None
    for t, (v, bound) in zip(ts, out):
        ref = oracles.eta_hstar_highprec(10, mp.mpc(sigma, t))
        assert float(abs(mp.mpc(v) - ref)) <= bound <= tol * abs(v)


def test_line_kernel_falls_back_to_evaluate(monkeypatch):
    # a target of one ulp leaves no room for Horner's rounding: every model
    # misses, and each grid value is evaluate's, to the last bit
    ctx, n = PrecisionContext.fast(2.0 ** -52), 12
    built = []
    raw_disk = finite_eta._disk

    def recording_disk(*args):
        out = raw_disk(*args)
        built.append(out)
        return out

    monkeypatch.setattr(finite_eta, "_disk", recording_disk)
    ts = _grid(n, 1.0, 8.0)
    vals = finite_eta._line(finite_eta._terms(H, n), 0.5, ts, ctx)
    assert built and all(out is not None for out in built)
    assert all(bound > ctx.target_rel_err * abs(v) for out in built for v, bound in out)
    assert vals == [evaluate(spec(H, n), complex(0.5, t), ctx).value.to_complex() for t in ts]


def _first_model(run, monkeypatch):
    """The first Taylor model that ``run()`` builds."""
    built, raw = [], finite_eta._taylor
    monkeypatch.setattr(finite_eta, "_taylor", lambda *args: built.append(raw(*args)) or built[-1])
    with contextlib.suppress(ConvergenceError):  # a Newton step may find no minimum ahead
        run()
    return built[0]


@pytest.mark.parametrize("fam, n, sigma", [(H, n, sigma) for n in (8, 12, 20)
                                           for sigma in (0.25, 0.5, 0.75)] + [(HS, 10, 0.5)])
@pytest.mark.parametrize("table", ["double", "double, cancelling", "big-float, cancelling"])
def test_taylor_model_holds_its_bound_at_complex_offsets(fam, n, sigma, table, monkeypatch):
    # one model on either table, built by its user (Newton's first model on the double
    # table, a line kernel's disk on the big-float one): at 16 offsets on the circle
    # |d| = rho (real, imaginary and skew) and inside it, the value is within its bound of a
    # 200-bit sum.  f' and f''/2 (not certified) match mp.diff to 1e-10 relative, except on
    # the double table where the sum cancels (t = 5), whose rounding they carry
    coefs, tol = finite_eta._terms(fam, n), CTX.target_rel_err
    ref = {H: oracles.eta_hasse_highprec, HS: oracles.eta_hstar_highprec}[fam]

    def f(s):
        return ref(n, s, mp.mp.prec)
    tc = 5.0 if table.endswith("cancelling") else 3.0 * n
    if table.startswith("double"):
        model = _first_model(lambda: finite_eta._line_newton(
            lambda t: (finite_eta._FastPowers(complex(sigma, t)), coefs), tc, 0.5, 1.0),
            monkeypatch)
    else:
        ts = [tc - 0.5 + 0.1 * i for i in range(11)]
        v, _, powers = finite_eta._rung(coefs, complex(sigma, tc), 0, 53)
        first = finite_eta._first_bits(53, powers, abs(v))
        model = _first_model(lambda: finite_eta._disk(coefs, sigma, ts, first, tol), monkeypatch)
    rho, scale = model.rho * (1 - 2.0 ** -40), 2.0 ** model.k
    offsets = [rho * cmath.exp(2j * math.pi * j / 16) for j in range(16)]
    offsets += [0j, 0.3 * rho * cmath.exp(1j), 0.7 * rho * cmath.exp(-2j), 0.5j * rho]
    for d in offsets:
        g, gp, gpp, bound = finite_eta._horner(model, d)
        with mp.workprec(200):
            s = mp.mpc(sigma, tc) + mp.mpc(d.real, d.imag)
            assert abs(mp.mpc(g * scale) - f(s)) <= bound * scale, d
        if table != "double, cancelling":
            with mp.workprec(80):
                for got, want in ((gp, mp.diff(f, s)), (gpp, mp.diff(f, s, 2) / 2)):
                    assert abs(mp.mpc(got * scale) - want) <= 1e-10 * abs(want), d


# ---------------------------------------------------------------------------
# line kernel: the double table stepped up the line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sigma", [-0.5, 0.5, 2.0])
def test_stepped_power_table_holds_its_bound(sigma):
    # a table moved up the line by up to 200 rotations, one per grid step (increments
    # t - t_prev exact, as in the line kernel), keeps each dot product at orders 0-2
    # within its bound of a 200-bit sum
    coefs, step = finite_eta._terms(H, 20), default_step(spec(H, 20))
    ts = [100.0 - 200 * step + i * step for i in range(201)]
    table, rots = finite_eta._FastPowers(complex(sigma, ts[0])), {}
    table.dot(coefs)
    for k, (tp, t) in enumerate(zip(ts, ts[1:]), 1):
        d = t - tp
        assert Fraction(tp) + Fraction(d) == Fraction(t)
        stepped = table.step(rots.setdefault(d, finite_eta._FastPowers(complex(0.0, d))))
        assert table.s == complex(sigma, t)
        assert stepped == table.dot(coefs)  # the same sum, without the magnitudes' re-sum
        if k in (1, 2, 10, 60, 200):
            for order in (1, 2, 0):  # order 0 last: the next step keeps its sum |terms|
                value, err = table.dot(coefs, order)
                ref = oracles.eta_hasse_highprec(20, complex(sigma, t), 200, order)
                with mp.workprec(200):
                    assert abs(mp.mpc(value) - ref) <= err, (k, order)


@pytest.mark.parametrize("fam, n, sigma, t_min, t_max", [
    # the benchmark's finite-sums lines, seed 1, under their earlier ids
    pytest.param(H, 12, 0.5, 1.1727665378769645, 34.394759326870265,
                 id="12-1.1727665378769645-34.394759326870265"),
    pytest.param(H, 20, 0.5, 1.0794536268434705, 99.90899010419876,
                 id="20-1.0794536268434705-99.90899010419876"),
    (H, 20, -0.5, 1.0, 60.0),  # terms up to 21**0.5
    (H, 20, 2.0, 1.0, 60.0),
    (HS, 40, 0.5, 1.0, 40.0),
])
def test_line_values_meet_the_target(fam, n, sigma, t_min, t_max):
    # stepped tables, fresh fills and Taylor models alike: each grid value is within
    # the target of a 200-bit sum
    ts = _grid(n, t_min, t_max, fam)
    vals = finite_eta._line(finite_eta._terms(fam, n), sigma, ts, CTX)
    oracle = oracles.eta_hasse_highprec if fam is H else oracles.eta_hstar_highprec
    for t, v in zip(ts, vals):
        ref = oracle(n, complex(sigma, t), 200)
        with mp.workprec(200):
            assert abs(mp.mpc(v) - ref) <= CTX.target_rel_err * abs(ref), t


def _count_tables(monkeypatch) -> tuple[list, list]:
    """The double tables that the line kernel fills, and its rotation tables (Re s = 0)."""
    fills, rots = [], []
    raw_fast = finite_eta._FastPowers

    def counting(s):
        (fills if s.real else rots).append(s)
        return raw_fast(s)

    monkeypatch.setattr(finite_eta, "_FastPowers", counting)
    return fills, rots


def test_line_fills_a_table_only_where_a_stepped_value_misses(monkeypatch):
    # one rotation table per distinct grid increment; a point fills its own double table
    # only where the stepped one misses the target and a fresh one could meet it, so most
    # of the n = 20 line takes none
    fills, rots = _count_tables(monkeypatch)
    ts = _grid(20, 1.0, 100.0)
    finite_eta._line(finite_eta._terms(H, 20), 0.5, ts, CTX)
    assert len(set(rots)) == len(rots) <= 10
    assert len(fills) < len(ts) / 10


def test_line_run_of_misses_fills_one_table(monkeypatch):
    # all 122 points of the n = 20 line below t = 14 cancel beyond what any double table
    # certifies: the first point's table is stepped through the run, and each point's
    # first big-float precision is read off it
    fills, _ = _count_tables(monkeypatch)
    ts = _grid(20, 1.0, 14.0)
    vals = finite_eta._line(finite_eta._terms(H, 20), 0.5, ts, CTX)
    assert len(ts) == 122 and fills == [complex(0.5, 1.0)]
    for t, v in zip(ts, vals):
        ref = oracles.eta_hasse_highprec(20, complex(0.5, t), 200)
        with mp.workprec(200):
            assert abs(mp.mpc(v) - ref) <= CTX.target_rel_err * abs(ref), t
