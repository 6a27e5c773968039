import math
import random

import mpmath as mp
import pytest

import oracles

from eta_forge import (
    ConvergenceError,
    DomainError,
    Family,
    PoleError,
    PrecisionContext,
    QuadratureResult,
    RangeError,
    integrate_L,
    kernel_value,
    rhs_closed_form,
    verify_identity,
)
from eta_forge import kernel_integrals
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


def test_budget_exhaustion_raises_with_the_estimate_reached():
    with pytest.raises(ConvergenceError) as err:
        integrate_L(H, 2, complex(1.5, 0.5), CTX, budget=60)
    assert isinstance(err.value.best, QuadratureResult)
    assert err.value.best.evaluations <= 62


def test_level_cap_refuses_a_loose_estimate():
    # the integrand oscillates too fast for the level cap: the estimate stays far
    # above the target, so the result is refused with the estimate reached
    s = complex(0.06810602103827845, -53.43488247709101)
    with pytest.raises(ConvergenceError) as err:
        integrate_L(H, 0, s, CTX)
    best = err.value.best
    assert isinstance(best, QuadratureResult)
    assert best.abs_err_estimate > max(1e-12, CTX.target_rel_err * abs(best.value.to_complex()))
    with pytest.raises(ConvergenceError):  # no pole nearby: the identity check refuses too
        verify_identity(H, 0, s, CTX)


@pytest.mark.parametrize("alpha", [0.003, 0.01, 0.016])
def test_refusal_near_the_window_edge_covers_the_true_error(alpha):
    # the nodes stop at the cutoff, where u^alpha has not decayed: the estimate covers
    # the piece below the last node, so each point is refused with an estimate at or
    # above the true error (the closed form pi / sin(pi s) at n = 0)
    s = complex(alpha, 0.5)
    with pytest.raises(ConvergenceError) as err:
        integrate_L(H, 0, s, CTX)
    best = err.value.best
    with mp.workprec(120):
        true = abs(mp.mpc(best.value.to_complex()) - mp.pi / mp.sin(mp.pi * mp.mpc(s)))
    assert best.abs_err_estimate >= true


def test_genuine_pole_skip_reports_the_estimate_reached():
    # Re s = 0.0005 is too close to the window's edge for the level cap; the closed
    # form's genuine pole at 0 skips the point, with the quadrature's best as lhs
    with pytest.raises(ConvergenceError) as err:
        integrate_L(H, 3, 0.0005, CTX)
    res = verify_identity(H, 3, 0.0005, CTX)
    assert res.skipped and "genuine" in res.reason
    assert res.lhs == err.value.best.value and res.rhs is None


@pytest.mark.parametrize("s", [1e-17, complex(5e-324, 0.0), complex(5e-324, 5e-324)])
def test_quadrature_beside_the_pole_at_zero_is_refused(s):
    # Re s below a unit of 1: the piece below the last node, g(0) u^Re(s) / |s|, is formed
    # from s itself, clamped where it passes the double range, and refused; the identity
    # check skips the point at the closed form's genuine pole at 0
    with pytest.raises(ConvergenceError) as err:
        integrate_L(H, 0, s, CTX)
    assert math.isfinite(err.value.best.abs_err_estimate)
    res = verify_identity(H, 0, s, CTX)
    assert res.skipped and "genuine pole at s = 0" in res.reason


def test_each_node_is_summed_once():
    # nested levels: level L sums only the nodes it adds to level L - 1
    assert integrate_L(H, 4, complex(2.5, 1.0), CTX).evaluations <= 250


def test_kernel_factor_is_computed_once_per_kernel(monkeypatch):
    calls = []
    raw_kernel = kernel_integrals._kernel
    monkeypatch.setattr(kernel_integrals, "_kernel", lambda k, x: calls.append(x) or raw_kernel(k, x))
    kernel_integrals._weights.cache_clear()
    rng = random.Random(4)
    sweep = [complex(j % 5 + rng.uniform(0.15, 0.85), rng.uniform(-1.5, 1.5)) for j in range(16)]
    integrate_L(H, 4, sweep[0], CTX)
    first = len(calls)
    for s in sweep[1:]:
        integrate_L(H, 4, s, CTX)
    assert 0 < len(calls) <= first


def _closed_form(family, n: int, s: complex) -> complex:
    """pi / sin(pi s / q) * eta(w(s)) / m! in mpmath, from the oracle's finite sums."""
    with mp.workprec(160):
        sm = mp.mpc(s)
        if family is H:
            eta, q, m = oracles.eta_hasse_highprec(n, 1 - sm, 160), 1, n
        else:
            eta, q, m = oracles.eta_hstar_highprec(n, -sm, 160), 2, 2 * n
        return complex(mp.pi / mp.sin(mp.pi * sm / q) * eta / mp.factorial(m))


@pytest.mark.parametrize("family, ns", [(H, range(0, 7)), (HS, range(1, 5))])
def test_quadrature_matches_closed_form_across_the_window(family, ns):
    # 48 seeded points, one per 48th of the window; 0.03 from its edges, where
    # the singular endpoint factor outgrows the level cap (and is refused)
    rng = random.Random(15)
    for i in range(48):
        n = rng.choice(ns)
        lo, hi = convergence_window(family, n)
        s = complex(lo + 0.03 + (hi - lo - 0.06) * (i + rng.random()) / 48, rng.uniform(-2, 2))
        res = integrate_L(family, n, s, CTX)
        ref = _closed_form(family, n, s)
        err = abs(res.value.to_complex() - ref)
        assert err <= 1e-10 * max(1.0, abs(ref)), (family, n, s)
        assert err <= res.abs_err_estimate, (family, n, s)


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


def _closed_form_200(fam, n, s):
    """pi / sin(pi s / q) * eta(w(s)) / m! at 200 bits for a double s; at a multiple s = qj of
    q, its limit -q (-1)^j eta'(w(qj)) / m!."""
    q, m, eta = ((1, n, oracles.eta_hasse_highprec) if fam is H
                 else (2, 2 * n, oracles.eta_hstar_highprec))
    with mp.workprec(200):
        sm = mp.mpc(s)
        w = 1 - sm if fam is H else -sm
        if s.imag == 0 and s.real % q == 0:
            return -q * (-1) ** int(s.real // q) * eta(n, w, 200, order=1) / math.factorial(m)
        return mp.pi / mp.sinpi(sm / q) * eta(n, w, 200) / math.factorial(m)


def test_rhs_out_of_double_range_is_a_range_error():
    # Re s = +-1e308 are even integers, so the sine's argument reduces exactly to 5i or 2i
    for fam, n, s in ((H, 0, 1e308 + 5j), (H, 1, -1e308 + 2j), (H, 3, -1e308 + 2j)):
        got, ref = rhs_closed_form(fam, n, s, CTX).to_complex(), _closed_form_200(fam, n, s)
        assert abs(got - ref) <= CTX.target_rel_err * abs(ref), s
    # the sine itself overflows, or pi Im s does
    for fam, n, s in ((H, 3, 0.5 + 1000j), (H, 3, 0.5 + 1e308j), (H, 0, 1e308 + 1e308j)):
        with pytest.raises(RangeError):
            rhs_closed_form(fam, n, s, CTX)


def test_rhs_keeps_its_digits_next_to_pole_free_points():
    # both factors of the closed form vanish at a pole-free point: with the sine reduced
    # exactly by that point, the ratio stays relatively accurate inside the guard radius
    # and out of it, and the point itself takes the limit
    offsets = (0, 1e-10, 1e-6, 1e-4, 5e-4, 9.9e-4, 1.01e-3, 0.01, 0.3, 5e-4j, 1e-4 + 1e-4j)
    for fam, n in ((H, 3), (H, 4), (H, 7), (HS, 3), (HS, 5)):
        q = 1 if fam is H else 2
        for s0 in range(q, int(convergence_window(fam, n)[1]), q):
            for eps in offsets:
                s = complex(s0) + eps
                got, ref = rhs_closed_form(fam, n, s, CTX).to_complex(), _closed_form_200(fam, n, s)
                assert abs(got - ref) <= 2e-13 * abs(ref), (fam, n, s)


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
