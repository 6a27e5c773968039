"""Seeded operation lists for the four benchmark workloads.

Each workload is a fixed list of library calls built from ``--seed``:
the same seed always gives the same calls.  Inputs are drawn by
stratified sampling (one draw inside each of a fixed set of strata), so
that the cost of a whole list moves little from one seed to the next
while every seed still exercises different points.

An ``Op`` names its checker (``kind``), the layer span it is recorded
under in the traced run (``span``), the callable and its arguments.  The
callables are captured when the list is built, before the traced run
rebinds any module attribute, so a call the benchmark makes is recorded
once, by the benchmark, and only calls one layer makes into another go
through the rebound names.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from eta_forge import finite_eta, hasse_global, kernel_integrals, numerics, proto_zeros
from eta_forge import weyl_algebra, weyl_powers
from eta_forge.finite_eta import Family, FiniteEtaSpec
from eta_forge.numerics import PrecisionContext

WORKLOADS = ("critical-line", "finite-sums", "extended", "weyl")

# Critical-line zeros below t = 60, used only to place Newton starts; the
# checker compares against mpmath.zetazero, not against these.
ZERO_ORDINATES = (14.134725, 21.022040, 25.010858, 30.424876, 32.935062,
                  37.586178, 40.918719, 43.327073, 48.005151, 49.773832,
                  52.970321, 56.446248, 59.347044)
FAST = PrecisionContext.fast()
EXT_BITS = (120, 160, 200)
GLOBAL_EXT_BITS = 120
WARMUP_SEED_OFFSET = 7919

_LN2 = math.log(2.0)


class Op(NamedTuple):
    kind: str
    span: str
    fn: Callable
    args: tuple

    def run(self):
        return self.fn(*self.args)


def ext(bits: int) -> PrecisionContext:
    return PrecisionContext.extended(bits)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw inside each of k equal slices of [lo, hi)."""
    width = (hi - lo) / k
    return [lo + (i + rng.random()) * width for i in range(k)]


def _far_from_prefactor_zero(s: complex) -> bool:
    """Keep zeta points 0.05 away from the zeros of 1 - 2^(1-s)."""
    k = round(s.imag * _LN2 / (2.0 * math.pi))
    return abs(s - complex(1.0, 2.0 * math.pi * k / _LN2)) > 0.05


def _latin(rng: random.Random, a: tuple[float, float], b: tuple[float, float], k: int):
    """k points whose coordinates each take one draw in every one of k
    slices of their range, paired at random (a Latin hypercube)."""
    xs, ys = _strata(rng, *a, k), _strata(rng, *b, k)
    rng.shuffle(ys)
    return list(zip(xs, ys))


def _critical_line(rng: random.Random) -> list[Op]:
    ops = []
    for t in ZERO_ORDINATES:
        # the Newton step count depends on the start's distance to the
        # zero, so that distance is kept within 0.04 to 0.05
        t0 = t + rng.choice((-1, 1)) * rng.uniform(0.04, 0.05)
        ops.append(Op("refine_zero", "hasse_global.refine_zero",
                      hasse_global.refine_zero, (t0, FAST)))
    for name, fn in (("eta_global", hasse_global.eta_global),
                     ("zeta_global", hasse_global.zeta_global)):
        for im, re in _latin(rng, (-60.0, 60.0), (0.0, 3.0), 16):
            s = complex(re, im)
            if not _far_from_prefactor_zero(s):
                s = complex(re + (0.1 if re < 1.0 else -0.1), im)
            ops.append(Op(name, "hasse_global." + name, fn, (s, FAST)))
    for im, re in _latin(rng, (-60.0, 60.0), (0.05, 0.75), 8):
        re = re if re < 0.4 else re + 0.2   # Re s in [0.05, 0.4) or [0.6, 0.95)
        ops.append(Op("funceq", "hasse_global.funceq",
                      hasse_global.functional_equation_residual, (complex(re, im), FAST)))
    return ops


def _scan(n: int, t_min: float, t_max: float) -> Op:
    spec = FiniteEtaSpec(Family.HASSE, n)
    cfg = proto_zeros.ScanConfig(spec=spec, sigma=0.5, t_min=t_min, t_max=t_max,
                                 step=proto_zeros.default_step(spec))
    return Op("scan_line", "proto_zeros.scan_line", proto_zeros.scan_line, (cfg, FAST))


def _verify(family: Family, n: int, rng: random.Random, j: int) -> Op:
    """One identity check with Re s inside the unit interval (j, j+1) of
    the convergence window, away from the integers, where the closed form
    has its poles and pole-free limits, and from the window's lower edge."""
    s = complex(j + rng.uniform(0.3 if j == 0 else 0.15, 0.85), rng.uniform(-1.5, 1.5))
    return Op("verify_identity", "kernel_integrals.verify_identity",
              kernel_integrals.verify_identity, (family, n, s, FAST))


def _finite_sums(rng: random.Random) -> list[Op]:
    ops = []
    # Short lines stay below t = 35, where nothing escalates.  Minima
    # appear only beyond t of about 2.5 n, hence their small n.
    for n in (4, 6, 8, 10, 12):
        ops.append(_scan(n, rng.uniform(1.0, 3.0), rng.uniform(34.0, 35.0)))
    # The n = 20 line runs to t = 100: beyond t = 40 about half its grid
    # escalates to mpmath.
    ops.append(_scan(20, 1.0 + rng.uniform(0.0, 0.5), 100.0 - rng.uniform(0.0, 0.5)))
    ops.append(Op("proto_cloud", "proto_zeros.proto_cloud", proto_zeros.proto_cloud,
                  (8, 0.5, ZERO_ORDINATES[0] + rng.uniform(-0.2, 0.2),
                   rng.uniform(1.5, 2.5), FAST)))
    # sweeps across the windows 0 < Re s < n+1 (HASSE) and 0 < Re s < 2n
    # (HSTAR), one point per unit interval in turn: 16 points each at
    # HASSE n = 4 and HSTAR n = 3, and 2 each at n = 1, 2, 6, 8.  The
    # intervals are fixed and only the points inside them are seeded, so
    # the cost of the sweep moves little from seed to seed.
    for i in range(16):
        ops.append(_verify(Family.HASSE, 4, rng, i % 5))
        ops.append(_verify(Family.HSTAR, 3, rng, i % 6))
    for n in (1, 2, 6, 8):
        for i in range(2):
            ops.append(_verify(Family.HASSE, n, rng, (n // 2 + i) % (n + 1)))
            ops.append(_verify(Family.HSTAR, n, rng, (n + i) % (2 * n)))
    return ops


def _extended(rng: random.Random) -> list[Op]:
    gctx = ext(GLOBAL_EXT_BITS)
    ops = [
        Op("eta_global", "hasse_global.eta_global_ext", hasse_global.eta_global,
           (complex(0.5, rng.uniform(14.0, 18.0)), gctx)),
        Op("zeta_global", "hasse_global.zeta_global", hasse_global.zeta_global,
           (complex(rng.uniform(2.0, 2.5), rng.choice((1, -1)) * rng.uniform(62.0, 64.0)), gctx)),
        Op("funceq", "hasse_global.funceq", hasse_global.functional_equation_residual,
           (complex(rng.uniform(0.2, 0.3), rng.uniform(4.0, 6.0)), gctx)),
    ]
    for i, n in enumerate(range(20, 61, 10)):
        for bits in EXT_BITS[i % 3:] + EXT_BITS[:i % 3]:
            nn = n - rng.randrange(0, 5) if n > 20 else n + rng.randrange(0, 5)
            s = complex(rng.uniform(0.5, 3.0), rng.uniform(-40.0, 40.0))
            c = ext(bits)
            ops.append(Op("evaluate", "finite_eta.evaluate_ext", finite_eta.evaluate,
                          (FiniteEtaSpec(Family.HASSE, nn), s, c)))
    return ops


def _inversions(word: str) -> int:
    count = b_seen = 0
    for ch in word:
        if ch == "B":
            b_seen += 1
        else:
            count += b_seen
    return count


def _random_word(rng: random.Random, half: int, inversions: int) -> str:
    # fixed length and inversion count keep the rewrite cost of each word
    # within a narrow band, whatever the seed
    while True:
        letters = ["A"] * half + ["B"] * half
        rng.shuffle(letters)
        word = "".join(letters)
        if _inversions(word) == inversions:
            return word


def _random_weyl_poly(rng: random.Random, shape) -> weyl_algebra.WeylPoly:
    """A WeylPoly with monomials u^k a^i b^j at the given (i, j, k) and
    seeded Gaussian-rational coefficients.  A fixed shape fixes the cost
    of a product, whatever the seed."""
    out = {}
    for i, j, k in shape:
        c = weyl_algebra.GaussRat(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5)),
                                  Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5)))
        out[(i, j)] = weyl_algebra.UPoly({k: c})
    return weyl_algebra.WeylPoly(out)


_PRODUCT_SHAPES = (((3, 1, 0), (1, 2, 1), (0, 3, 2)), ((2, 2, 1), (3, 0, 0), (1, 3, 2)))
_POWER_SHAPE = ((2, 1, 0), (0, 2, 1))


def product(p, q):
    """Normal-ordered product of two WeylPolys."""
    return p * q


def power(p, k):
    return p ** k


def operator_power_product(k: int):
    """Truncated b^s times truncated a^s, both to order k, normal-ordered."""
    pb = weyl_powers.operator_power_truncated(weyl_powers.Generator.B, k)
    pa = weyl_powers.operator_power_truncated(weyl_powers.Generator.A, k)
    return pb * pa


def _weyl(rng: random.Random) -> list[Op]:
    ops = []
    for k in range(1, 7):
        ops.append(Op("normal_order", "weyl_algebra.normal_order",
                      weyl_algebra.normal_order, ("B" * k + "A" * k,)))
    for _ in range(24):
        ops.append(Op("normal_order", "weyl_algebra.normal_order",
                      weyl_algebra.normal_order, (_random_word(rng, 5, 14),)))
    for i in range(8):
        a, b = _PRODUCT_SHAPES[i % 2], _PRODUCT_SHAPES[(i + 1) % 2]
        ops.append(Op("product", "weyl_algebra.product", product,
                      (_random_weyl_poly(rng, a), _random_weyl_poly(rng, b))))
    for k in (3, 4):
        ops.append(Op("power", "weyl_algebra.power", power,
                      (_random_weyl_poly(rng, _POWER_SHAPE), k)))
    # lemma_suite and the operator powers take only an order, fixed here
    ops.append(Op("lemma_suite", "weyl_algebra.lemma_suite", weyl_algebra.lemma_suite, (11,)))
    ops.append(Op("operator_power", "weyl_powers.operator_power",
                  operator_power_product, (5,)))
    ops.append(Op("operator_power", "weyl_powers.operator_power",
                  operator_power_product, (8,)))
    ops.append(Op("equilibrium", "weyl_powers.equilibrium",
                  weyl_powers.equilibrium_identity_check, ()))
    for re in _strata(rng, 0.2, 3.0, 6):
        s = complex(re, rng.uniform(-3.0, 3.0))
        ops.append(Op("pi_s", "weyl_powers.pi_s", weyl_powers.pi_s, (s, FAST)))
    for u in (1, -1, 1j, -1j, Fraction(rng.randint(1, 11), 12)):
        ops.append(Op("rest_frames", "weyl_algebra.rest_frames",
                      weyl_algebra.rest_frames, (u,)))
    return ops


_BUILDERS = {
    "critical-line": _critical_line,
    "finite-sums": _finite_sums,
    "extended": _extended,
    "weyl": _weyl,
}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's fixed operation list for this seed."""
    return _BUILDERS[workload](_rng(workload, seed))


def warmup(workload: str, seed: int) -> list[Op]:
    """A short pass on another seed that fills the lazy caches the batch
    uses (binomial term tables, tanh-sinh nodes, Spouge coefficients):
    the first operation of each kind, and for the extended tier one
    global value, one finite sum at each working precision and one Gamma
    value."""
    rng = _rng(workload, seed + WARMUP_SEED_OFFSET)
    if workload == "extended":
        gctx = ext(GLOBAL_EXT_BITS)
        ops = [Op("eta_global", "hasse_global.eta_global_ext", hasse_global.eta_global,
                  (complex(3.0, rng.uniform(0.5, 2.0)), gctx))]
        for bits in EXT_BITS:
            c = ext(bits)
            ops.append(Op("evaluate", "finite_eta.evaluate_ext", finite_eta.evaluate,
                          (FiniteEtaSpec(Family.HASSE, 60), complex(2.0, rng.uniform(1, 5)), c)))
        ops.append(Op("cgamma", "numerics.cgamma", numerics.cgamma,
                      (complex(0.25, rng.uniform(4.0, 6.0)), gctx)))
        return ops
    first = {}
    for op in _BUILDERS[workload](rng):
        first.setdefault(op.kind, op)   # lists put a cheap call of each kind first
    if workload == "finite-sums":
        # the long line comes last; warm its escalation on a short piece
        first["escalating scan"] = _scan(20, 40.0, 42.0)
    return list(first.values())


# Representative cold CLI command of each workload.
def cli_command(workload: str, seed: int) -> list[str]:
    rng = _rng(workload + ":cli", seed)
    if workload == "critical-line":
        t0 = ZERO_ORDINATES[rng.randrange(0, 4)] + rng.uniform(-0.05, 0.05)
        return ["zero", "refine", "--t0", repr(t0)]
    if workload == "finite-sums":
        return ["proto", "scan", "--n", "8", "--sigma", "0.5",
                "--t-min", repr(rng.uniform(1.0, 3.0)), "--t-max", repr(rng.uniform(34.0, 35.0))]
    if workload == "extended":
        s = complex(3.0, rng.uniform(0.5, 2.0))
        return ["--precision-bits", "120", "--tol", "1e-33", "eta-global", "eval",
                "--s", f"{s.real!r}+{s.imag!r}i"]
    word = _random_word(rng, 4, 8)
    return ["weyl", "normal-order", "--word", word]
