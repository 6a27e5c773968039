"""The library's argument contract, on both tiers: every public numeric function either raises
an EtaForgeError or returns a result whose bound, where it has one, is finite and within its
context's target.  One gate per tier refuses an argument: a non-number, NaN or inf is a
DomainError, and on the fast tier a finite value beyond the doubles a RangeError."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eta_forge import (
    ComplexPoint,
    DomainError,
    EtaForgeError,
    Family,
    FiniteEtaSpec,
    PrecisionContext,
    RangeError,
    ScanConfig,
    binom_coeff,
    cexp,
    cgamma,
    clifford_contains,
    cln,
    cpow,
    csin,
    derivative,
    eta_global,
    evaluate,
    functional_equation_residual,
    integrate_L,
    kernel_value,
    pi_s,
    proto_cloud,
    refine_zero,
    rhs_closed_form,
    scan_line,
    verify_identity,
    zeta_global,
)

FAST = PrecisionContext()
EXT = PrecisionContext.extended(120)
_H3, _S2 = FiniteEtaSpec(Family.HASSE, 3), FiniteEtaSpec(Family.HSTAR, 2)
_BIG = mp.mpf("1e400")  # finite, beyond the doubles


def _relative(value, bound, ctx, floor=0.0):
    """The bound is finite and within the target of |value| (or of ``floor``)."""
    return math.isfinite(bound) and bound <= ctx.target_rel_err * max(abs(value), floor)


def _records(records, ctx):  # evaluate's bound plus the rounding of abs
    return all(r.magnitude_err <= (ctx.target_rel_err + 2.0 ** -52) * r.magnitude
               for r in records)


def _point(res, ctx):  # no bound: a ComplexPoint's parts are finite
    return isinstance(res, ComplexPoint)


# name: (call, check of the result); the fast-tier-only functions refuse EXT by DomainError
FUNCTIONS = {
    "cexp": (cexp, _point),
    "cln": (cln, _point),
    "cpow": (lambda s, ctx: cpow(s, s, ctx), _point),
    "csin": (csin, _point),
    "cgamma": (cgamma, _point),
    "evaluate": (lambda s, ctx: evaluate(_H3, s, ctx),
                 lambda res, ctx: _relative(res.value, res.abs_err, ctx)),
    "derivative": (lambda s, ctx: derivative(_S2, s, ctx),
                   lambda res, ctx: _relative(res.value, res.abs_err, ctx)),
    "eta_global": (eta_global, lambda res, ctx: _relative(res.value, res.tail_bound, ctx)),
    "zeta_global": (zeta_global, lambda res, ctx: _relative(res.value, res.tail_bound, ctx)),
    "functional_equation_residual": (functional_equation_residual,
                                     lambda res, ctx: math.isfinite(res)),
    "refine_zero": (refine_zero, lambda res, ctx: res.residual_eta <= 1e-10),
    "integrate_L": (lambda s, ctx: integrate_L(Family.HASSE, 3, s, ctx, budget=800),
                    lambda res, ctx: _relative(res.value, res.abs_err_estimate, ctx,
                                               1e-12 / ctx.target_rel_err)),
    "rhs_closed_form": (lambda s, ctx: rhs_closed_form(Family.HSTAR, 2, s, ctx), _point),
    "verify_identity": (lambda s, ctx: verify_identity(Family.HASSE, 2, s, ctx, budget=800),
                        lambda res, ctx: res.rhs is None or math.isfinite(res.residual)),
    "binom_coeff": (lambda s, ctx: binom_coeff(s, 4, ctx), _point),
    # pi_s's tail bound is a heuristic (ROADMAP item 8): it is asserted finite only
    "pi_s": (pi_s, lambda res, ctx: math.isfinite(res.tail_bound)),
    "clifford_contains": (lambda s, ctx: clifford_contains(s),
                          lambda res, ctx: type(res) is bool),
    "scan_line": (lambda s, ctx: scan_line(ScanConfig(_H3, s, 14.0, 15.0, 0.1), ctx), _records),
    # real arguments: x of the kernel, and the centre of a proto-zero cloud
    "kernel_value": (lambda s, ctx: kernel_value(Family.HSTAR, 2, s),
                     lambda res, ctx: type(res) is float and math.isfinite(res)),
    "proto_cloud": (lambda s, ctx: proto_cloud(2, 0.5, s, 0.5, ctx), _records),
}

_PART = st.one_of(
    st.floats(-40, 40),
    st.sampled_from([0.0, 5e-324, -1e-300, 0.5, 1.0, 2.0, -3.0, 1e17, -1e17, 1e306, -1e306,
                     1.7976931348623157e308, -1.7976931348623157e308,
                     math.nan, math.inf, -math.inf]))
_ARGUMENT = st.one_of(
    _PART,
    st.builds(complex, _PART, _PART),
    st.builds(complex, st.floats(0, 4), st.floats(-30, 30)),  # the kernels' windows, and poles
    st.floats(13.9, 14.4),  # about the first zero on the line, 14.1347
    st.integers(-6, 6),
    st.fractions(-10, 10, max_denominator=12),
    st.sampled_from([10 ** 400, -10 ** 400, Fraction(10 ** 400, 3), None, "0.5",
                     mp.mpf("nan"), mp.mpf("-inf"), mp.mpc(1, _BIG), _BIG]),
    st.builds(ComplexPoint, st.sampled_from([_BIG, -_BIG, mp.mpf(0.5), 3]),
              st.sampled_from([_BIG, -_BIG, mp.mpf(0), 10 ** 400])),
)


@pytest.mark.parametrize("name", FUNCTIONS)
@settings(max_examples=100)
@given(s=_ARGUMENT, fast=st.booleans())
def test_every_public_function_keeps_the_contract(name, s, fast):
    call, check = FUNCTIONS[name]
    ctx = FAST if fast else EXT
    try:
        res = call(s, ctx)
    except EtaForgeError:
        return
    assert check(res, ctx)


@pytest.mark.parametrize("s, error", [
    pytest.param(10 ** 400, RangeError, id="10**400"),
    pytest.param(Fraction(10 ** 400, 3), RangeError, id="10**400/3"),
    pytest.param(_BIG, RangeError, id="mpf 1e400"),
    pytest.param(ComplexPoint(0.5, _BIG), RangeError, id="point 0.5+1e400i"),
    pytest.param(mp.mpc(1, _BIG), RangeError, id="mpc 1+1e400i"),
    pytest.param(complex(1.5e308, 1.5e308), RangeError, id="modulus beyond the doubles"),
    pytest.param(None, DomainError, id="None"),
    pytest.param("0.5", DomainError, id="str"),
    pytest.param(math.nan, DomainError, id="nan"),
    pytest.param(complex(0.5, math.inf), DomainError, id="0.5+inf i"),
    pytest.param(mp.mpf("-inf"), DomainError, id="mpf -inf"),
])
@pytest.mark.parametrize("fn", [cexp, csin, cgamma, zeta_global, pi_s])
def test_the_fast_gate_refuses_by_kind(fn, s, error):
    with pytest.raises(error):
        fn(s, FAST)


@pytest.mark.parametrize("s", [None, "0.5", math.nan, mp.mpf("inf"), mp.mpc(1, math.inf)])
@pytest.mark.parametrize("fn", [cexp, cln, cgamma, eta_global, zeta_global])
def test_the_extended_gate_refuses_a_non_number(fn, s):
    with pytest.raises(DomainError):
        fn(s, EXT)


@pytest.mark.parametrize("bits", [120, 200])
def test_extended_arguments_keep_their_precision(bits):
    # a Fraction is rounded once at the working bits plus a guard, never through a double
    ctx, third = PrecisionContext.extended(bits), Fraction(1, 3)
    with mp.workprec(300):
        s = mp.mpf(1) / 3
        refs = {"evaluate": 1 - 3 * mp.power(2, -s) + 3 * mp.power(3, -s) - mp.power(4, -s),
                "zeta": mp.zeta(s), "eta": mp.altzeta(s), "gamma": mp.gamma(s)}
    res = evaluate(_H3, third, ctx)
    assert abs(res.value.to_mpc() - refs["evaluate"]) <= res.abs_err
    for name, fn in (("zeta", zeta_global), ("eta", eta_global)):
        res = fn(third, ctx)
        assert abs(res.value.to_mpc() - refs[name]) <= res.tail_bound
    gamma = cgamma(third, ctx).to_mpc()
    assert abs(gamma - refs["gamma"]) <= ctx.target_rel_err * abs(refs["gamma"])


def test_extended_arguments_beyond_the_doubles_are_taken_exactly():
    # ints exactly; parts beyond the doubles pass, as the extended tier's values do
    with mp.workprec(300):
        assert abs(cln(10 ** 400, EXT).to_mpc() - 400 * mp.log(10)) < 1e-30
    assert 0 < cexp(-10 ** 400, EXT).to_mpc().real < 1 / _BIG
    res = evaluate(_H3, ComplexPoint(_BIG, 0), EXT)
    assert abs(res.value.to_mpc() - 1) <= res.abs_err
    assert cln(ComplexPoint(_BIG, 0), EXT).to_mpc().real > 921
    assert cgamma(ComplexPoint(_BIG, 0), EXT).to_mpc().real > _BIG


@pytest.mark.parametrize("sigma, error", [(None, DomainError), ("0.5", DomainError),
                                          (0.5 + 1j, DomainError), (math.nan, DomainError),
                                          pytest.param(_BIG, RangeError, id="mpf 1e400")])
def test_scan_config_refuses_a_bad_sigma(sigma, error):
    with pytest.raises(error):
        ScanConfig(_H3, sigma, 14.0, 15.0, 0.1)


@pytest.mark.parametrize("t0, error", [(math.nan, DomainError), (14.1 + 1j, DomainError),
                                       (None, DomainError),
                                       pytest.param(10 ** 400, RangeError, id="10**400")])
def test_refine_zero_refuses_a_bad_ordinate(t0, error):
    with pytest.raises(error):
        refine_zero(t0)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: kernel_value(Family.HASSE, 3, 10 ** 400), RangeError, id="x 10**400"),
    pytest.param(lambda: kernel_value(Family.HASSE, 3, None), DomainError, id="x None"),
    pytest.param(lambda: kernel_value(Family.HASSE, 3, 2 + 1j), DomainError, id="x complex"),
    pytest.param(lambda: proto_cloud(2, 0.5, 14.0, None), DomainError, id="half_width None"),
    pytest.param(lambda: proto_cloud(2, 0.5, None, 1.0), DomainError, id="t_center None"),
    pytest.param(lambda: proto_cloud(2, None, 14.0, 0.0), DomainError, id="sigma None"),
    pytest.param(lambda: proto_cloud(2, 0.5, 14.0, _BIG), RangeError, id="half_width mpf 1e400"),
])
def test_real_arguments_pass_the_fast_gate(call, error):
    with pytest.raises(error):
        call()
