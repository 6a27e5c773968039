import cmath
import json
import math
import os
import random
import subprocess
import sys

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eta_forge import (
    ComplexPoint,
    DomainError,
    Family,
    FiniteEtaSpec,
    PoleError,
    PrecisionContext,
    RangeError,
    cexp,
    cgamma,
    cln,
    cpow,
    csin,
    derivative,
    eta_global,
    evaluate,
    lemma_suite,
    proto_cloud,
    zeta_global,
)
import eta_forge
from eta_forge.weyl_powers import binom_spoly, operator_power_truncated

CTX = PrecisionContext()
EXT = PrecisionContext.extended(140)


def c(re, im=0.0):
    return ComplexPoint(re, im)


# ---------------------------------------------------------------------------
# context and point invariants
# ---------------------------------------------------------------------------

def test_context_rejects_narrow_bits():
    with pytest.raises(DomainError):
        PrecisionContext(40, 1e-10)


def test_context_rejects_subulp_tolerance():
    with pytest.raises(DomainError):
        PrecisionContext(53, 1e-30)


def test_point_rejects_nonfinite():
    with pytest.raises(DomainError):
        ComplexPoint(float("nan"), 0.0)
    with pytest.raises(DomainError):
        ComplexPoint(0.0, float("inf"))


_HASSE_3 = FiniteEtaSpec(Family.HASSE, 3)


@pytest.mark.parametrize("fn", [lambda s, ctx: evaluate(_HASSE_3, s, ctx),
                                lambda s, ctx: derivative(_HASSE_3, s, ctx),
                                eta_global, zeta_global],
                         ids=["evaluate", "derivative", "eta_global", "zeta_global"])
@pytest.mark.parametrize("ctx", [CTX, EXT], ids=["fast", "extended"])
@pytest.mark.parametrize("s", [complex(-math.inf, 0.0), complex(math.nan, 0.0),
                               complex(0.5, math.inf), math.nan])
def test_nonfinite_arguments_are_a_domain_error(fn, ctx, s):
    # the shared coercion refuses them, as ComplexPoint does, on both tiers
    with pytest.raises(DomainError):
        fn(s, ctx)


# ---------------------------------------------------------------------------
# exp / ln / pow examples
# ---------------------------------------------------------------------------

def test_exp_zero_is_one():
    assert cexp(c(0)).to_complex() == 1.0


def test_exp_euler_identity():
    v = cexp(c(0, math.pi)).to_complex()
    assert abs(v - (-1.0)) <= 4 * CTX.target_rel_err


def test_exp_one_matches_high_precision():
    # independent arbitrary-precision evaluation
    ref = complex(mp.exp(mp.mpf(1)))
    assert abs(cexp(c(1)).to_complex() - ref) <= 1e-15


def test_exp_overflow_is_range_error():
    with pytest.raises(RangeError):
        cexp(c(1e4))


def test_ln_one_is_zero():
    assert cln(c(1)).to_complex() == 0.0


def test_ln_minus_one_branch():
    v = cln(c(-1)).to_complex()
    assert v.real == 0.0 and abs(v.imag - math.pi) < 1e-15


def test_ln_two_matches_high_precision():
    ref = float(mp.log(mp.mpf(2)))
    assert abs(cln(c(2)).to_complex().real - ref) <= 1e-16


def test_ln_zero_domain_error():
    with pytest.raises(DomainError):
        cln(c(0))


def test_pow_examples():
    assert abs(cpow(c(4), c(-2)).to_complex() - 1 / 16) < 1e-16
    ref = cmath.cos(math.log(2)) + 1j * cmath.sin(math.log(2))
    assert abs(cpow(c(2), c(0, 1)).to_complex() - ref) < 1e-15


def test_pow_derived_against_doubled_precision():
    with mp.workprec(106):
        ref = complex(mp.exp(mp.mpc(0.5, 14) * mp.log(3)))
    got = cpow(c(3), c(0.5, 14)).to_complex()
    assert abs(got - ref) / abs(ref) < 1e-13


def test_pow_zero_base():
    assert cpow(c(0), c(2, 1)).to_complex() == 0.0
    with pytest.raises(DomainError):
        cpow(c(0), c(-1))
    with pytest.raises(DomainError):
        cpow(c(0), c(0, 3))


def test_pow_exponent_one_structure_exact():
    z = c(1.2345678901234567, -9.87654321e-5)
    w = cpow(z, c(1))
    assert w.re == z.re and w.im == z.im


# ---------------------------------------------------------------------------
# sin / gamma
# ---------------------------------------------------------------------------

def test_sin_examples():
    assert csin(c(0)).to_complex() == 0.0
    assert abs(csin(c(math.pi / 2)).to_complex() - 1.0) < 1e-15
    ref = 1j * float(mp.sinh(mp.mpf(1)))
    assert abs(csin(c(0, 1)).to_complex() - ref) < 1e-15


def test_gamma_factorial():
    assert abs(cgamma(c(5)).to_complex() - 24.0) < 24 * 1e-13


def test_gamma_half():
    ref = float(mp.sqrt(mp.pi))
    assert abs(cgamma(c(0.5)).to_complex() - ref) < 1e-13


def test_gamma_pole():
    with pytest.raises(PoleError):
        cgamma(c(0))
    with pytest.raises(PoleError):
        cgamma(c(-3))
    err = None
    try:
        cgamma(c(-2))
    except PoleError as exc:
        err = exc
    assert err is not None and err.location == -2


def test_gamma_reflection_grid():
    # Gamma(z) Gamma(1-z) sin(pi z) / pi = 1 on a pole-free grid
    for re in (-2.3, -0.7, 0.3, 0.5, 1.6, 3.2):
        for im in (-8.0, -0.5, 0.0, 0.5, 8.0):
            z = complex(re, im)
            lhs = (cgamma(c(re, im)).to_complex()
                   * cgamma(c(1 - re, -im)).to_complex()
                   * cmath.sin(math.pi * z) / math.pi)
            assert abs(lhs - 1.0) < 1e-10, z


def test_fast_gamma_refuses_beyond_the_double_range():
    # Lanczos's t ** (z + 1/2) overflows from Re z near 143, though Gamma(150) = 3.8e260 is a
    # double; |Gamma(1/2 + 1000i)| is about 1e-682, which was returned as an exact 0
    for z in (150, 171.5, 172, -200.5, complex(0.5, 1000)):
        with pytest.raises(RangeError):
            cgamma(c(z.real, z.imag))
    assert cgamma(c(142)).to_complex() == 1.8981437590760007e+243
    with mp.workprec(120):
        assert abs(cgamma(c(142)).re / mp.gamma(142) - 1) < CTX.target_rel_err


def test_fast_gamma_reflection_far_up_the_line():
    # for Re z < 1/2 the reflection's sin(pi z) overflows from |Im z| about 226, though
    # Gamma(z) is a normal double there (about 1e-205 at 0.3 + 300i)
    rng = random.Random(226)
    points = [complex(0.3, 300), complex(0.49, 250), complex(-5.3, 260)]
    points += [complex(rng.uniform(-10, 0.5), rng.choice((-1, 1)) * rng.uniform(226, 300))
               for _ in range(40)]
    for z in points:
        got = cgamma(c(z.real, z.imag)).to_complex()
        with mp.workprec(120):
            ref = mp.gamma(mp.mpc(z))
            assert abs(got - ref) / abs(ref) < 10 * CTX.target_rel_err, z


def test_gamma_moderate_imaginary_height():
    for im in (10.0, 35.0, 60.0):
        z = c(2.5, im)
        got = cgamma(z).to_complex()
        with mp.workprec(120):
            ref = complex(mp.gamma(mp.mpc(2.5, im)))
        assert abs(got - ref) / abs(ref) < 10 * CTX.target_rel_err


@pytest.mark.parametrize("bits", [120, 200])
def test_gamma_extended_meets_independent_identities(bits):
    # routes that do not call mp.gamma: |Gamma(1/2 + it)|^2 = pi / cosh(pi t) and
    # Gamma(z + 1) = z Gamma(z) on seeded z in [-10, 10]^2, each within the target
    ctx = PrecisionContext.extended(bits)
    for t in (5, 30, 60, 100):
        got = cgamma(ComplexPoint(mp.mpf(0.5), mp.mpf(t)), ctx).to_mpc()
        with mp.workprec(400):
            want = mp.pi / mp.cosh(mp.pi * t)
            err = abs(abs(got) ** 2 - want) / want
        assert err <= ctx.target_rel_err, (t, err)
    rng = random.Random(20261019)
    for _ in range(50):
        re, im = mp.mpf(rng.uniform(-10, 10)), mp.mpf(rng.uniform(-10, 10))
        z = ComplexPoint(re, im)
        up = cgamma(ComplexPoint(mp.fadd(re, 1, exact=True), im), ctx).to_mpc()
        with mp.workprec(400):
            want = z.to_mpc() * cgamma(z, ctx).to_mpc()
            err = abs(up - want) / abs(want)
        assert err <= ctx.target_rel_err, (z, err)


def test_extended_tier_elementary_ops():
    with mp.workprec(140):
        z = ComplexPoint(mp.mpf("0.1"), mp.mpf("2.3"))
        back = cln(cexp(z, EXT), EXT).to_mpc()
        assert abs(back - z.to_mpc()) < mp.mpf(2) ** (-130)


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.extended(120), PrecisionContext.extended(200)],
                         ids=["fast", "120", "200"])
def test_elementary_functions_meet_their_target(ctx):
    # cexp, cln, cpow, csin and cgamma return no bound, so each is pinned to its context's
    # target against mpmath at 400 bits on seeded points: z in [-10, 10]^2, the exponent in
    # [-5, 5]^2
    rng = random.Random(20261019)
    fns = ((cexp, mp.exp, 1), (cln, mp.log, 1), (cpow, mp.power, 2), (csin, mp.sin, 1),
           (cgamma, mp.gamma, 1))
    for _ in range(200):
        args = (c(rng.uniform(-10, 10), rng.uniform(-10, 10)),
                c(rng.uniform(-5, 5), rng.uniform(-5, 5)))
        for ours, ref, arity in fns:
            got = ours(*args[:arity], ctx).to_mpc()
            with mp.workprec(400):
                want = ref(*(a.to_mpc() for a in args[:arity]))
                err = abs(got - want) / abs(want)
            assert err <= ctx.target_rel_err, (ours.__name__, args[:arity], err)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def test_exp_ln_roundtrip_bulk():
    rng = random.Random(20240811)
    worst = 0.0
    for _ in range(10_000):
        mag = 10.0 ** rng.uniform(-6, 6)
        ang = rng.uniform(-math.pi, math.pi)
        z = cmath.rect(mag, ang)
        back = cexp(cln(c(z.real, z.imag))).to_complex()
        worst = max(worst, abs(back - z) / abs(z))
    assert worst <= 4 * CTX.target_rel_err


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_exp_conjugate_symmetry(re, im):
    a = cexp(c(re, im)).to_complex()
    b = cexp(c(re, -im)).to_complex()
    assert a.conjugate() == b


def test_ops_are_pure():
    z = c(0.123, 4.567)
    assert cexp(z) == cexp(z)
    assert cgamma(z) == cgamma(z)
    assert csin(z) == csin(z)
    a = cgamma(z, EXT).to_mpc()
    b = cgamma(z, EXT).to_mpc()
    assert a == b


_H3 = FiniteEtaSpec(Family.HASSE, 3)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: eta_global(2.0, CTX, series_cap=-5), id="eta_global series_cap"),
    pytest.param(lambda: zeta_global(2.0, CTX, series_cap=-5), id="zeta_global series_cap"),
    pytest.param(lambda: zeta_global(-2, CTX, series_cap=-5), id="zeta_global integer cap"),
    pytest.param(lambda: zeta_global(-2, CTX, series_cap="x"), id="zeta_global integer str"),
    pytest.param(lambda: derivative(_H3, 2.0, CTX, order=1.5), id="derivative order"),
    pytest.param(lambda: lemma_suite(2.5), id="lemma_suite float"),
    pytest.param(lambda: lemma_suite("3"), id="lemma_suite str"),
    pytest.param(lambda: proto_cloud(2.5, 0.5, 14.0, 1.0), id="proto_cloud n_max"),
    pytest.param(lambda: operator_power_truncated("a", 2.5), id="operator_power K"),
    pytest.param(lambda: binom_spoly(2.5), id="binom_spoly k"),
])
def test_integer_arguments_are_typed_refusals(call):
    # one shared check: a non-integral or too small count is a DomainError, not an
    # IndexError or TypeError from deep inside
    with pytest.raises(DomainError, match="must be an integer >="):
        call()


# ---------------------------------------------------------------------------
# mpmath loads on the first big float
# ---------------------------------------------------------------------------

_FAST_CALLS = """
import sys
from eta_forge import (ComplexPoint, binom_coeff, eta_global, functional_equation_residual,
                       parse_weyl_poly, pi_s, refine_zero, zeta_global)
from eta_forge.cli import run

eta_global(2 + 3j), zeta_global(2 + 3j), refine_zero(14.1), functional_equation_residual(0.3 + 5j)
binom_coeff(0.5, 3), pi_s(0.5 + 1j), ComplexPoint(0, 0)
parse_weyl_poly("a^2 b + u a") * parse_weyl_poly("b a^3 + 2")
for argv in (["eta", "eval", "--family", "hasse", "--n", "8", "--s", "0.5+10i"],
             ["zeta", "eval", "--s", "2+3i"], ["zero", "refine", "--t0", "14.1"],
             ["planck", "--p", "3"]):
    assert run(["--no-timing", *argv]) == 0
print("mpmath" in sys.modules)
"""

_EXTENDED_CALL = """
from eta_forge import PrecisionContext, eta_global
r = eta_global(0.25 + 30j, PrecisionContext.extended(120))
print([r.value.re._mpf_, r.value.im._mpf_, r.terms_used, r.tail_bound.hex()])
"""


def _child(code: str) -> list[str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ETA_FORGE_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(eta_forge.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout.splitlines()


_INTEGER_COMMANDS = """
import sys
from eta_forge.cli import run

for argv in (["eta", "eval", "--family", "hasse", "--n", "3", "--s=-2"], ["zeta", "eval", "--s=-2"],
             ["eta-global", "eval", "--s=-3"], ["funceq", "check", "--s", "2"]):
    assert run(["--no-timing", *argv]) == 0
print("mpmath" in sys.modules)
"""


def test_exact_integer_routes_never_import_mpmath():
    # an exact integer sum, zeta(-2), eta(-3) and zeta(-1) are rounded once by Python's int and
    # Fraction to float conversions on the fast tier
    lines = _child(_INTEGER_COMMANDS)
    values = [json.loads(line)["results"] for line in lines[:4]]
    assert values[0]["value"] == {"re": "0.0", "im": "0.0"}
    assert values[2]["value"] == {"re": "-0.125", "im": "0.0"}
    assert lines[4] == "False"


def test_the_fast_tier_never_imports_mpmath():
    # the fast tier's library calls and CLI commands leave mpmath unloaded; a 120-bit value
    # formed after them, in the same process, equals a fresh process's bit for bit
    lines = _child(_FAST_CALLS + _EXTENDED_CALL)
    envelopes = [json.loads(line) for line in lines[:4]]
    assert all("results" in env for env in envelopes)
    assert lines[4] == "False"
    assert lines[5] == _child(_EXTENDED_CALL)[0]
