import cmath
import math
import random
from fractions import Fraction

import pytest

import oracles
from eta_forge import (
    CliffordSide,
    DomainError,
    PrecisionContext,
    RangeError,
    SPoly,
    WeylPoly,
    binom_coeff,
    binom_spoly,
    clifford_contains,
    equilibrium_identity_check,
    mod_observer,
    operator_power_truncated,
    pi_s,
)
from eta_forge.weyl_powers import Generator

CTX = PrecisionContext()


# ---------------------------------------------------------------------------
# generalized binomial coefficients
# ---------------------------------------------------------------------------

def test_binom_k_zero_is_one():
    assert binom_coeff(complex(0.3, -2.0), 0, CTX).to_complex() == 1.0


def test_binom_k_one_is_s():
    assert binom_coeff(1j, 1, CTX).to_complex() == 1j


def test_binom_half_choose_two():
    # (1/2)(-1/2)/2 = -1/8 exactly
    got = binom_coeff(0.5, 2, CTX).to_complex()
    assert got == -0.125


def test_binom_rejects_negative_k():
    with pytest.raises(DomainError):
        binom_coeff(0.5, -1, CTX)


def test_binom_takes_an_integral_float_k():
    s = complex(0.3, -2.0)
    assert binom_coeff(s, 2.0, CTX) == binom_coeff(s, 2, CTX)


@pytest.mark.parametrize("k", [2.5, math.nan, -1.0], ids=["half", "nan", "negative"])
def test_binom_rejects_non_integral_k(k):
    with pytest.raises(DomainError):
        binom_coeff(0.5, k, CTX)


def test_binom_matches_exact_polynomial():
    for k in range(6):
        poly = binom_spoly(k)
        for s in (complex(0.3, 1.1), complex(-2.5, 0.0), complex(4.0, -0.7)):
            num = binom_coeff(s, k, CTX).to_complex()
            assert abs(num - poly.evaluate(s)) <= 1e-13 * max(1.0, abs(num))


def test_binom_extended_tier():
    ext = PrecisionContext.extended(120)
    from eta_forge import ComplexPoint
    import mpmath as mp
    got = binom_coeff(ComplexPoint(mp.mpf("0.5")), 2, ext)
    with mp.workprec(120):
        assert abs(got.to_mpc() - mp.mpf("-0.125")) < mp.mpf(2) ** (-110)


# ---------------------------------------------------------------------------
# the coherence series pi(s)
# ---------------------------------------------------------------------------

def test_pi_s_terminating_cases():
    assert pi_s(1.0, CTX).value.to_complex() == 2.0
    assert pi_s(2.0, CTX).value.to_complex() == 4.0
    assert pi_s(1.0, CTX).tail_bound == 0.0


def test_pi_s_sqrt_two():
    res = pi_s(0.5, CTX)
    ref = oracles.binom_series_partial(0.5)
    assert abs(res.value.to_complex() - ref) <= res.tail_bound + 1e-13
    assert abs(res.value.to_complex() - math.sqrt(2.0)) <= 1e-10


def test_pi_s_refuses_left_half_plane():
    with pytest.raises(DomainError):
        pi_s(0.0, CTX)
    with pytest.raises(DomainError):
        pi_s(complex(-0.5, 1.0), CTX)


def test_pi_s_refuses_extended_contexts():
    with pytest.raises(DomainError, match="fast-tier only"):
        pi_s(complex(0.5, 1.0), PrecisionContext.extended(200))


def test_pi_s_overflow_is_a_range_error_naming_s():
    with pytest.raises(RangeError, match="1e\\+300"):
        pi_s(1e300, CTX)


def test_pi_s_agrees_with_two_to_the_s():
    pts = [complex(0.1, 0.0), complex(0.1, 1.0), complex(0.1, -1.0),
           complex(0.25, 0.5), complex(0.5, 0.0), complex(0.5, -0.9),
           complex(0.75, 0.3), complex(1.0, 1.0), complex(1.3, -0.4),
           complex(1.5, 0.0), complex(1.7, 0.8), complex(2.0, -1.0),
           complex(2.2, 0.2), complex(2.5, 0.0), complex(2.8, 1.0),
           complex(3.0, 0.0), complex(3.0, -0.6), complex(0.9, 0.05),
           complex(1.1, -0.05), complex(2.21, 0.77)]
    assert len(pts) == 20
    for s in pts:
        res = pi_s(s, CTX)
        target = cmath.exp(s * math.log(2.0))
        assert abs(res.value.to_complex() - target) <= res.tail_bound + 1e-12, s
        brute = oracles.binom_series_partial(s)
        assert abs(res.value.to_complex() - brute) <= res.tail_bound + 1e-11, s


# ---------------------------------------------------------------------------
# convergence domain membership
# ---------------------------------------------------------------------------

def test_clifford_examples():
    assert clifford_contains(0.5)
    assert not clifford_contains(complex(0.5, 0.6))      # t band violated
    assert clifford_contains(complex(0.75, 0.5))         # inclusive band edges


def test_clifford_three_conditions_directly():
    import random
    rng = random.Random(11)
    for _ in range(300):
        s = complex(rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 0.8))
        direct = ((s.real - 1.0) ** 2 + s.imag ** 2 < 1.0
                  and 0.25 <= s.real <= 0.75 and 0.0 <= s.imag <= 0.5)
        assert clifford_contains(s) == direct


def test_clifford_huge_s_is_outside_without_overflow():
    for s in (1e300, complex(0.5, 1e300), complex(-1e300, 0.1)):
        assert not clifford_contains(s)
        assert not clifford_contains(s, "b")


def test_clifford_mirror_side():
    # B side is the sigma -> 1-sigma mirror: disk centered at 0
    assert clifford_contains(complex(0.3, 0.1), "b") == (
        (0.3) ** 2 + 0.1 ** 2 < 1.0 and 0.25 <= 0.7 <= 0.75 and 0.0 <= 0.1 <= 0.5)
    # a point passing A's strict disk but failing B's
    s = complex(0.74, 0.49)
    assert clifford_contains(s, "a")
    assert clifford_contains(s, "b") == (0.74 ** 2 + 0.49 ** 2 < 1.0)


def test_clifford_negative_t_excluded():
    assert not clifford_contains(complex(0.5, -0.1))


@pytest.mark.parametrize("side", ["x", 3, None, Generator.B])
def test_clifford_refuses_a_side_that_is_not_a_or_b(side):
    with pytest.raises(DomainError):
        clifford_contains(0.5, side)


def test_clifford_disk_never_binds_and_the_sides_differ_only_by_rounding():
    # inside the bands (sigma - 1)^2 + t^2 is at most (3/4)^2 + (1/2)^2 = 13/16 < 1, so the
    # membership is the bands alone; they are their own mirror under sigma -> 1 - sigma, so the
    # B side differs from the A side only where 1 - sigma rounds onto a band edge
    assert (0.25 - 1.0) ** 2 + 0.5 ** 2 == 0.8125
    rng = random.Random(8125)
    sigmas = [rng.uniform(-0.1, 1.1) for _ in range(400)]
    for edge in (0.25, 0.75):
        for toward in (0.0, 1.0):
            x = edge
            for _ in range(4):
                sigmas.append(x)
                x = math.nextafter(x, toward)
    split = []
    for sigma in sigmas:
        for t in (0.0, rng.uniform(0.0, 0.5), 0.5, rng.uniform(-0.1, 0.6)):
            bands = 0.25 <= sigma <= 0.75 and 0.0 <= t <= 0.5
            assert clifford_contains(complex(sigma, t), "a") == bands
            if clifford_contains(complex(sigma, t), "b") != bands:
                assert 1.0 - sigma in (0.25, 0.75) and 0.0 <= t <= 0.5
                split.append(sigma)
    assert 0.25 - 2.0 ** -55 in split


@pytest.mark.parametrize("side", ["b", "B", CliffordSide.B_SIDE])
def test_clifford_b_side_by_letter_or_member(side):
    # the disk never binds inside the bands, which both sides share, so only a sigma whose
    # mirror 1 - sigma rounds onto the band edge 3/4 lies on one side alone
    s = complex(0.25 - 2.0 ** -55, 0.1)
    assert clifford_contains(s, side) and not clifford_contains(s, CliffordSide.A_SIDE)


# ---------------------------------------------------------------------------
# truncated operator powers
# ---------------------------------------------------------------------------

def test_operator_power_k0():
    assert operator_power_truncated("a", 0) == WeylPoly.one(SPoly)


def test_operator_power_k1():
    got = operator_power_truncated("a", 1)
    want = WeylPoly({(1, 0): SPoly({1: 1}), (0, 0): SPoly({0: 1, 1: -1})}, SPoly)
    assert got == want


def test_operator_power_b_k2():
    got = operator_power_truncated(Generator.B, 2)
    half = Fraction(1, 2)
    want = WeylPoly({
        (0, 2): SPoly({2: half, 1: -half}),
        (0, 1): SPoly({2: -1, 1: 2}),
        (0, 0): SPoly({2: half, 1: -Fraction(3, 2), 0: 1}),
    }, SPoly)
    assert got == want


def test_operator_power_evaluates_to_binomials():
    # substituting a concrete s into the K-truncated symbol recovers the
    # numeric partial sums of (1 + (a-1))^s collapsed onto each monomial
    p = operator_power_truncated("a", 3)
    s0 = Fraction(1, 2)
    coeff_a3 = p.terms[(3, 0)].evaluate(s0)
    assert coeff_a3.re == binom_spoly(3).evaluate(s0).re


def test_equilibrium_identity():
    scalar = equilibrium_identity_check()
    assert scalar == SPoly({0: 1, 1: -2, 2: 2})
    assert scalar.evaluate(0) == SPoly.const(1).evaluate(0)
    assert scalar.evaluate(Fraction(1, 2)).re == Fraction(1, 2)
    assert str(scalar) == "2s^2 - 2s + 1"


def test_equilibrium_from_raw_product():
    # independent assembly of the K=1 product and observer reduction
    pb = operator_power_truncated("b", 1)
    pa = operator_power_truncated("a", 1)
    prod = pb * pa
    # the full product keeps a, b and ab monomials before reduction
    assert set(prod.terms) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    scalar = mod_observer(prod).scalar_part()
    assert scalar == SPoly({0: 1, 1: -2, 2: 2})
