import math

import pytest

from eta_forge import (
    DomainError,
    Family,
    PoleError,
    PrecisionContext,
    RangeError,
    integrate_L,
    kernel_value,
    rhs_closed_form,
    verify_identity,
)
from eta_forge.kernel_integrals import POLE_GUARD_RADIUS, convergence_window

CTX = PrecisionContext()
H = Family.HASSE
HS = Family.HSTAR


# ---------------------------------------------------------------------------
# kernel values
# ---------------------------------------------------------------------------

def test_kernel_examples():
    assert kernel_value(HS, 1, 1.0) == 2.0
    assert kernel_value(H, 0, 1.0) == 2.0
    assert kernel_value(HS, 2, 2.0) == 40.0  # (4+1)(4+4)


def test_kernel_factored_matches_expanded_small():
    for x in (0.1, 1.0, 7.5):
        want = (x + 1) * (x + 2) * (x + 3)
        assert abs(kernel_value(H, 2, x) - want) < 1e-12 * want


def test_kernel_requires_positive_x():
    with pytest.raises(DomainError):
        kernel_value(H, 2, 0.0)
    with pytest.raises(DomainError):
        kernel_value(H, 2, -1.0)


def test_kernel_overflow_is_range_error():
    with pytest.raises(RangeError):
        kernel_value(HS, 200, 1e80)


# ---------------------------------------------------------------------------
# quadrature special cases
# ---------------------------------------------------------------------------

def test_hstar_n1_s1_is_pi_over_two():
    res = integrate_L(HS, 1, 1.0, CTX)
    assert abs(res.value.to_complex() - math.pi / 2) <= 1e-10
    assert res.abs_err_estimate <= 1e-10


def test_hasse_n0_matches_pi_over_sin():
    for s in (0.25, 0.5, 0.75):
        res = integrate_L(H, 0, s, CTX)
        ref = math.pi / math.sin(math.pi * s)
        assert abs(res.value.to_complex() - ref) / abs(ref) <= 1e-10


def test_window_enforced():
    with pytest.raises(DomainError) as err:
        integrate_L(H, 2, 3.5, CTX)
    assert "(0.0, 3.0)" in str(err.value)
    with pytest.raises(DomainError):
        integrate_L(HS, 1, complex(2.0, 1.0), CTX)
    with pytest.raises(DomainError):
        integrate_L(H, 0, 0.0, CTX)


def test_budget_exhaustion_inflates_error():
    full = integrate_L(H, 2, complex(1.5, 0.5), CTX)
    starved = integrate_L(H, 2, complex(1.5, 0.5), CTX, budget=60)
    assert starved.evaluations <= 62
    assert starved.abs_err_estimate > full.abs_err_estimate * 100


def test_quadrature_self_consistency_under_tolerance_halving():
    for fam, n, s in ((H, 3, complex(1.3, 0.7)), (HS, 2, complex(2.2, -0.4))):
        loose = integrate_L(fam, n, s, CTX, tol_abs=1e-8)
        tight = integrate_L(fam, n, s, CTX, tol_abs=5e-9)
        change = abs(loose.value.to_complex() - tight.value.to_complex())
        assert change <= loose.abs_err_estimate


def test_conjugate_symmetry_of_quadrature():
    for fam, n, s in ((H, 4, complex(2.5, 1.0)), (HS, 3, complex(3.0, 1.5))):
        a = integrate_L(fam, n, s, CTX)
        b = integrate_L(fam, n, s.conjugate(), CTX)
        diff = abs(a.value.to_complex().conjugate() - b.value.to_complex())
        assert diff <= 2 * (a.abs_err_estimate + b.abs_err_estimate)


def test_derived_complex_point_against_closed_form():
    s = complex(1.7, 0.4)
    res = integrate_L(H, 2, s, CTX)
    ref = rhs_closed_form(H, 2, s, CTX).to_complex()
    assert abs(res.value.to_complex() - ref) <= 1e-10 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# closed form & pole handling
# ---------------------------------------------------------------------------

def test_rhs_special_cases():
    assert abs(rhs_closed_form(HS, 1, 1.0, CTX).to_complex() - math.pi / 2) < 1e-13
    assert abs(rhs_closed_form(H, 0, 0.5, CTX).to_complex() - math.pi) < 1e-13


def test_rhs_pole_free_limit_matches_quadrature():
    # s = 2 with n = 3: sine pole cancelled by the finite-sum zero
    rhs = rhs_closed_form(H, 3, 2.0, CTX).to_complex()
    quad = integrate_L(H, 3, 2.0, CTX)
    assert abs(rhs - quad.value.to_complex()) <= 1e-9
    # same through the hstar family at s = 2, n = 2
    rhs = rhs_closed_form(HS, 2, 2.0, CTX).to_complex()
    quad = integrate_L(HS, 2, 2.0, CTX)
    assert abs(rhs - quad.value.to_complex()) <= 1e-9


def test_rhs_pole_free_points_stay_bounded():
    # closed form at s0 + eps stays bounded as eps shrinks tenfold
    for n in (2, 4, 7):
        for s0 in range(1, n + 1):
            eps = 1e-4
            v1 = abs(rhs_closed_form(H, n, s0 + eps, CTX).to_complex())
            v2 = abs(rhs_closed_form(H, n, s0 + eps / 10, CTX).to_complex())
            v3 = abs(rhs_closed_form(H, n, s0 + eps / 100, CTX).to_complex())
            assert v2 <= 2 * v1 + 1.0
            assert v3 <= 2 * v2 + 1.0


def test_rhs_genuine_pole_raises():
    with pytest.raises(PoleError) as err:
        rhs_closed_form(H, 3, 4.0 + 2e-4, CTX)  # s=4 outside pole-free {1,2,3}
    assert err.value.location == 4.0
    with pytest.raises(PoleError):
        rhs_closed_form(HS, 2, 2e-4, CTX)  # s=0 is a genuine pole


def test_rhs_out_of_double_range_is_a_range_error():
    for fam, n, s in ((H, 0, 1e308 + 5j), (H, 1, -1e308 + 2j), (H, 3, -1e308 + 2j)):
        with pytest.raises(RangeError):
            rhs_closed_form(fam, n, s, CTX)


def test_rhs_limit_expansion_continuity():
    # value just inside the guard radius matches value just outside
    for fam, n, s0 in ((H, 3, 2.0), (HS, 3, 2.0)):
        inside = rhs_closed_form(fam, n, s0 + POLE_GUARD_RADIUS * 0.99, CTX).to_complex()
        outside = rhs_closed_form(fam, n, s0 + POLE_GUARD_RADIUS * 1.01, CTX).to_complex()
        assert abs(inside - outside) <= 1e-5 * max(1.0, abs(outside))


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

def test_verify_identity_examples():
    assert verify_identity(HS, 1, 1.0, CTX).residual <= 1e-10
    assert verify_identity(H, 0, 0.5, CTX).residual <= 1e-10
    assert verify_identity(H, 4, complex(2.5, 1.0), CTX).residual <= 1e-8


def test_verify_marks_annulus_skipped():
    res = verify_identity(H, 3, 2.0 + 1e-4, CTX)
    assert res.skipped and "pole-free" in res.reason
    assert res.residual <= 1e-6  # the limit branch still agrees with quadrature


def test_verify_precondition_outside_window():
    with pytest.raises(DomainError):
        verify_identity(H, 1, 5.0, CTX)


def test_extended_contexts_are_refused():
    # the quadrature and the closed form run in doubles: a requested
    # precision is refused, not quietly dropped
    ext = PrecisionContext.extended(200)
    for call in (integrate_L, rhs_closed_form, verify_identity):
        with pytest.raises(DomainError, match="fast-tier only"):
            call(H, 3, complex(0.5, 1.0), ext)


def test_identity_sweep_small():
    # a reduced sweep here; the full n <= 8 sweep lives in the acceptance suite
    for fam, n_lo in ((H, 0), (HS, 1)):
        for n in range(n_lo, 4):
            lo, hi = convergence_window(fam, n)
            if hi <= lo:
                continue
            width = hi - lo
            for frac in (0.13, 0.52, 0.88):
                for t in (0.0, 0.8):
                    s = complex(lo + frac * width, t)
                    res = verify_identity(fam, n, s, CTX)
                    if res.skipped:
                        continue
                    assert res.residual <= 1e-8, (fam, n, s, res.residual)
