import cmath
import math
import types

import mpmath as mp
import pytest

import oracles
from eta_forge import (
    ConvergenceError,
    DomainError,
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
from eta_forge.hasse_global import _eta_global_d1, _series

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


@pytest.mark.parametrize("s, bits", [
    (complex(2.0, 3.0), 53), (complex(0.5, 14.134725), 53), (complex(-1.5, 2.0), 53),
    (complex(0.5, 40.0), 53), (complex(1.0, 0.0), 53),
    (complex(2.0, 1.0), 120), (complex(0.5, 5.0), 120),
])
def test_eta_derivative_series_matches_altzeta(s, bits):
    # the termwise-differentiated series against mpmath's eta' at 250 bits
    ctx = PrecisionContext() if bits == 53 else PrecisionContext.extended(bits)
    res = _eta_global_d1(s, ctx)
    with mp.workprec(250):
        ref = mp.diff(mp.altzeta, mp.mpc(s))
        assert abs(res.value.to_mpc() - ref) <= res.tail_bound


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


def test_eta_envelope_guard():
    with pytest.raises(DomainError):
        eta_global(complex(0.5, 80.0), CTX)
    # but fine on the extended tier
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


# ---------------------------------------------------------------------------
# the shared power table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bits", [53, 120])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_series_finite_sums_match_evaluate(bits, order, monkeypatch):
    # the per-n sums the series takes from its one power table, against each
    # finite sum evaluated on its own, within the sum of both bounds
    ctx = CTX if bits == 53 else PrecisionContext.extended(bits)
    table = finite_eta._FastPowers if ctx.is_fast else finite_eta._ExtPowers
    seen = []

    class Recording(table):
        def dot(self, coefs):
            value, err = super().dot(coefs)
            seen.append((len(coefs) - 1, value, err))
            return value, err

    monkeypatch.setattr(hasse_global, table.__name__, Recording)
    s = complex(0.5, 14.13)  # at least 62 terms for every order and tier
    _series(s, ctx, order)
    assert [n for n, _, _ in seen[:61]] == list(range(61))
    for n, value, err in seen[:61]:
        spec = FiniteEtaSpec(Family.HASSE, n)
        ref = evaluate(spec, s, ctx) if order == 0 else derivative(spec, s, ctx, order=order)
        with mp.workprec(400):
            assert abs(mp.mpc(value) - ref.value.to_mpc()) <= err + ref.abs_err


def test_series_makes_one_exp_per_term(monkeypatch):
    # one new base per finite sum: N transcendentals for N terms, not N^2/2
    calls = []

    def exp(z):
        calls.append(z)
        return cmath.exp(z)

    counting = types.SimpleNamespace(**{k: getattr(cmath, k) for k in dir(cmath)
                                        if not k.startswith("_")})
    counting.exp = exp
    monkeypatch.setattr(finite_eta, "cmath", counting)
    res = eta_global(complex(0.5, 59.9), CTX)
    assert len(calls) == res.terms_used == 115


# terms_used per point on the fast tier and at 120 bits, frozen: how the
# finite sums are summed must not move the series' stopping point
FROZEN_TERMS = [
    (complex(0.5, 14.13), 68, 138), (complex(0.5, 59.9), 115, 195),
    (complex(2.0, 0.0), 43, 110), (complex(-5.5, 20.0), 62, 139),
    (complex(0.3, 3.0), 44, 111), (complex(1.5, -11.0), 55, 124),
]


@pytest.mark.parametrize("s, fast, ext", FROZEN_TERMS)
def test_series_terms_used_frozen(s, fast, ext):
    assert eta_global(s, CTX).terms_used == fast
    assert eta_global(s, PrecisionContext.extended(120)).terms_used == ext


def test_series_beyond_double_range_is_refused():
    # the finite sums eta_n(-400) leave the double range well before the cap
    for fn in (eta_global, zeta_global):
        with pytest.raises(RangeError):
            fn(-400.0, CTX)
    # the extended table's guard bits grow with -Re s
    with pytest.raises(RangeError):
        eta_global(-1e6, PrecisionContext.extended(120))


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
