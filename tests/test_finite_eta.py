import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from eta_forge import finite_eta
from eta_forge import (
    DomainError,
    Family,
    FiniteEtaSpec,
    PrecisionContext,
    VerificationError,
    derivative,
    evaluate,
    evaluate_exact,
    trivial_zero_report,
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


@pytest.mark.parametrize("fam, n, s", [(H, 24, complex(1.5, -60.0)),
                                       (HS, 30, complex(-1.0, 42.0))])
def test_derivative_escalated_fast_path_matches_oracle(fam, n, s, monkeypatch):
    # the fast tier cannot certify these, so derivative escalates
    calls = []
    raw = finite_eta._eval_extended

    def counting(*args, **kwargs):
        calls.append(args)
        return raw(*args, **kwargs)

    monkeypatch.setattr(finite_eta, "_eval_extended", counting)
    oracle = oracles.eta_hasse_highprec if fam is H else oracles.eta_hstar_highprec
    for order in (1, 2, 3):
        before = len(calls)
        res = derivative(spec(fam, n), s, CTX, order=order)
        assert len(calls) == before + 1
        ref = complex(oracle(n, s, 300, order))
        diff = abs(res.value.to_complex() - ref)
        assert diff <= res.abs_err
        assert diff <= CTX.target_rel_err * abs(ref)


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
