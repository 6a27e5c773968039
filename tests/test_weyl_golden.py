"""Pinned text of seeded Weyl outputs.

Each digest is the sha256 of the outputs' ``str()``, one per line, for fixed seeds: products,
powers up to ** 6, commutators, truncated operator powers and their products up to K = 8, the
lemma suite's labels and normal-ordered words.  Any change to the exact product, its decoding
or the canonical text moves a digest.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from eta_forge import (GaussRat, SPoly, UPoly, WeylPoly, commutator, lemma_suite, normal_order,
                       operator_power_truncated)


def _poly(rng, cls, monomials=4, degree=3):
    terms = {}
    for _ in range(rng.randint(1, monomials)):
        terms[(rng.randint(0, 4), rng.randint(0, 4))] = cls({
            rng.randint(0, degree): GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                                             Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
            for _ in range(rng.randint(1, 3))})
    return WeylPoly(terms, cls)


def _products():
    rng = random.Random(101)
    for cls in (UPoly, SPoly):
        for _ in range(40):
            p, q = _poly(rng, cls), _poly(rng, cls)
            yield from (p * q, q * p, p * p)


def _powers():
    rng = random.Random(202)
    for cls in (UPoly, SPoly):
        for _ in range(6):
            p = _poly(rng, cls, monomials=2, degree=1)
            yield from (p ** k for k in range(7))


def _commutators():
    rng = random.Random(303)
    for cls in (UPoly, SPoly):
        for _ in range(30):
            p, q = _poly(rng, cls), _poly(rng, cls)
            yield from (commutator(p, q), commutator(q, p), commutator(p, p))
    a, b = WeylPoly.gen_a(), WeylPoly.gen_b()
    for n in range(1, 9):
        yield from (commutator(b, a ** n), commutator(a, b ** n))


def _operator_powers():
    for k in range(9):
        pa, pb = operator_power_truncated("a", k), operator_power_truncated("b", k)
        yield from (pa, pb, pb * pa, pa * pb)


def _lemma_labels():
    yield from lemma_suite(11).checks


def _normal_orders():
    rng = random.Random(404)
    for k in range(9):
        yield normal_order("B" * k + "A" * k)
    for _ in range(30):
        yield normal_order("".join(rng.choice("AB") for _ in range(rng.randint(0, 14))))


GOLDEN = {
    _products: "d1f306de4a089d0495ea1db43500f7f745b6d875b0caba860a209ddf24ad9b6e",
    _powers: "b6735de6a4e4f9dc85bca9773280985759a256a1b25afc456181a1088f1df2b6",
    _commutators: "625a16448d5770066d78576a87827a688540e686b74fa42d4c99bd0559856308",
    _operator_powers: "76a4f28a5d8ef4d2014ad72d18719420791d09b456355a69c90dd6aa9054fe11",
    _lemma_labels: "3c3d8d6ccae5749f01c54b94e546c9b443aeac0d6ef43aa3b0623214fc8b33d4",
    _normal_orders: "a9ef34ad2e230b84fb195b879ababd6b988f517d45f221e31ea346ec047d5d35",
}


@pytest.mark.parametrize("outputs", list(GOLDEN), ids=lambda f: f.__name__.strip("_"))
def test_weyl_outputs_print_their_pinned_text(outputs):
    text = "\n".join(str(x) for x in outputs())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[outputs]
