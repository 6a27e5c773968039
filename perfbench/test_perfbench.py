"""Tests of the benchmark itself: span statistics on hand-made spans, and
checkers that must reject deliberately perturbed outputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import references  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from eta_forge import ComplexPoint, UPoly, WeylPoly  # noqa: E402


# ---------------------------------------------------------------------------
# span statistics
# ---------------------------------------------------------------------------

def test_percentile_interpolates_between_order_statistics():
    assert spans.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert spans.percentile([1.0, 2.0, 3.0, 4.0], 90) == pytest.approx(3.7)
    assert spans.percentile([1.0, 2.0, 3.0, 4.0, 100.0], 50) == 3.0
    assert spans.percentile([7.0], 90) == 7.0
    assert spans.percentile([1.0, 2.0], 0) == 1.0 and spans.percentile([1.0, 2.0], 100) == 2.0
    with pytest.raises(ValueError):
        spans.percentile([], 50)


def _hand_made():
    S = spans.Span
    return [
        S("root", 0.0, 10.0, -1),
        S("a", 1.0, 4.0, 0),
        S("leaf", 2.0, 3.0, 1),
        S("b", 5.0, 6.5, 0),
        S("b", 6.5, 7.0, 0),
        S("late", 9.0, 12.0, 0),     # runs past its parent: clipped to 9..10
        S("other", 20.0, 21.0, -1),
    ]


def test_self_time_subtracts_child_coverage():
    got = spans.self_times(_hand_made())
    assert got == pytest.approx([10.0 - 3.0 - 2.0 - 1.0, 2.0, 1.0, 1.5, 0.5, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    S = spans.Span
    got = spans.self_times([S("p", 0.0, 10.0, -1), S("c", 1.0, 5.0, 0), S("c", 3.0, 6.0, 0)])
    assert got[0] == pytest.approx(5.0)


def test_by_name_and_child_time():
    sp = _hand_made()
    sp[3].info = {"terms": 3}
    sp[4].info = {"terms": 4}
    stats = spans.by_name(sp)
    assert stats["b"]["count"] == 2
    assert stats["b"]["durations"] == pytest.approx([1.5, 0.5])
    assert stats["b"]["info"] == {"terms": 7}
    assert stats["root"]["self"] == pytest.approx(4.0)
    assert spans.child_time(sp, "root", {"a", "b"}) == pytest.approx(5.0)
    assert spans.child_time(sp, "a", {"leaf"}) == pytest.approx(1.0)


def test_recorder_nests_spans_and_rebinding_is_undone():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))

    class Layer:
        @staticmethod
        def inner(x):
            return x + 1

    def outer(x):
        return Layer.inner(x) * 2

    with spans.rebound(rec, [(Layer, "inner", "layer.inner", lambda a, k, r: {"out": r})]):
        assert rec.call("layer.outer", outer, (1,)) == 4
    assert Layer.inner(1) == 2 and not hasattr(Layer.inner, "__wrapped__")
    assert [(s.name, s.parent, s.info) for s in rec.spans] == [
        ("layer.outer", -1, None), ("layer.inner", 0, {"out": 2})]
    assert spans.self_times(rec.spans) == [2.0, 1.0]

    with pytest.raises(ZeroDivisionError):
        with spans.rebound(rec, [(Layer, "inner", "x", None)]):
            rec.call("fails", lambda: 1 / 0)
    assert not hasattr(Layer.inner, "__wrapped__")
    assert rec.spans[-1].end >= rec.spans[-1].start


def test_failed_operation_is_recorded_not_raised():
    op = workloads.Op("funceq", "x", lambda: 1 / 0, ())
    rnd = run.run_round([op, op], run.plain_call)
    assert [err.split(":")[0] for err in rnd.errors] == ["ZeroDivisionError"] * 2
    assert rnd.outputs == [None, None]


def test_host_scaling_is_relative_to_the_nominal_slice():
    assert run.host_scaled(2.0, run.NOMINAL_SLICE_S) == 2.0
    assert run.host_scaled(2.0, 2 * run.NOMINAL_SLICE_S) == 1.0


class FakeSampler:
    """Stands in for HostSampler: each operation 'spends' a known slice time."""

    def __init__(self):
        self.spent = 0.0
        self.count = 0

    def slice_during_op(self):
        self.spent += 0.25
        self.count += 1


def test_sampler_slices_are_taken_out_of_operation_times(monkeypatch):
    sampler = FakeSampler()
    clock = iter([10.0, 11.0, 20.0, 20.5])
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    op = workloads.Op("funceq", "x", sampler.slice_during_op, ())
    rnd = run.run_round([op, op], run.plain_call, sampler)
    # walls 1.0 s and 0.5 s, each with a 0.25 s slice inside
    assert rnd.times == [0.75, 0.25]
    assert rnd.slice_s == 0.25
    assert rnd.ref_ratio == 1.0 / (run.REF_LOOP_SLICES * 0.25)


def test_host_sampler_runs_slices_on_its_timer():
    with run.HostSampler(interval=0.005) as sampler:
        t = time.perf_counter()
        while time.perf_counter() - t < 0.1:
            pass
    assert sampler.count >= 1 and sampler.spent > 0


# ---------------------------------------------------------------------------
# workloads and metric names
# ---------------------------------------------------------------------------

def test_inputs_follow_the_seed():
    for w in workloads.WORKLOADS:
        a = [repr(op.args) for op in workloads.build(w, 3)]
        assert a == [repr(op.args) for op in workloads.build(w, 3)]
        assert workloads.cli_command(w, 3) == workloads.cli_command(w, 3)
    assert ([repr(op.args) for op in workloads.build("critical-line", 3)]
            != [repr(op.args) for op in workloads.build("critical-line", 4)])


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fingerprint_is_bit_exact():
    assert run.fingerprint(0.1) != run.fingerprint(0.1 + 2 ** -56)
    assert run.fingerprint([Fraction(1, 3)]) == run.fingerprint([Fraction(2, 6)])


# ---------------------------------------------------------------------------
# checkers reject perturbed outputs
# ---------------------------------------------------------------------------

def _first(workload, kind, seed=5):
    return next(op for op in workloads.build(workload, seed) if op.kind == kind)


def _scaled(point, factor):
    return ComplexPoint(point.re * factor, point.im * factor)


def _accepts_then_rejects(op, perturb):
    out = op.run()
    assert references.check_op(op, out)[0] is None
    bad = perturb(out)
    assert references.check_op(op, bad)[0] is not None


@pytest.mark.parametrize("kind", ["eta_global", "zeta_global"])
def test_global_series_check(kind):
    _accepts_then_rejects(_first("critical-line", kind),
                          lambda r: dataclasses.replace(r, value=_scaled(r.value, 1 + 1e-11)))


def test_refine_check():
    op = _first("critical-line", "refine_zero")
    _accepts_then_rejects(op, lambda r: dataclasses.replace(r, t=r.t + 1e-6))
    out = op.run()
    assert references.check_op(op, dataclasses.replace(out, residual_eta=1e-6))[0]


def test_funceq_check():
    _accepts_then_rejects(_first("critical-line", "funceq"), lambda r: 1e-3)


def test_extended_evaluate_check():
    op = _first("extended", "evaluate")
    _accepts_then_rejects(op, lambda r: dataclasses.replace(r, value=_scaled(r.value, 1 + 1e-30)))


def test_scan_line_check():
    op = next(op for op in workloads.build("finite-sums", 5)
              if op.kind == "scan_line" and op.args[0].spec.n == 6)
    step = op.args[0].step
    _accepts_then_rejects(op, lambda rs: [dataclasses.replace(rs[0], magnitude=rs[0].magnitude
                                                              * (1 + 1e-9))] + rs[1:])
    _accepts_then_rejects(op, lambda rs: [dataclasses.replace(rs[0], t=rs[0].t + step / 5)]
                          + rs[1:])
    _accepts_then_rejects(op, lambda rs: [])


def test_proto_cloud_check():
    op = _first("finite-sums", "proto_cloud")
    _accepts_then_rejects(op, lambda rs: rs[:-1] + [dataclasses.replace(rs[-1], t=rs[-1].t
                                                                        + 0.02)])


def test_identity_check():
    op = _first("finite-sums", "verify_identity")
    _accepts_then_rejects(op, lambda r: dataclasses.replace(r, residual=1e-6))
    _accepts_then_rejects(op, lambda r: dataclasses.replace(
        r, lhs=ComplexPoint(r.lhs.re + 1e-6, r.lhs.im), rhs=ComplexPoint(r.rhs.re + 1e-6, r.rhs.im)))


def test_pi_s_check():
    _accepts_then_rejects(_first("weyl", "pi_s"),
                          lambda r: dataclasses.replace(r, value=_scaled(r.value, 1 + 1e-9)))


def _plus_u_term(p):
    return p + WeylPoly({(0, 0): UPoly.gen()})


@pytest.mark.parametrize("kind", ["normal_order", "product", "power"])
def test_weyl_algebra_checks(kind):
    _accepts_then_rejects(_first("weyl", kind), _plus_u_term)


def test_weyl_checks_catch_extra_terms_of_high_degree():
    # BA = ab + u.  Sample points counted from the word or the factors
    # alone stop at u = 2 or u = 3, where these added terms vanish.
    ba = {(1, 1): {0: (1, 0)}, (0, 0): {1: (1, 0)}}
    assert references.check_normal_order("BA", ba) is None
    # + (u - 1)(u - 2)
    assert references.check_normal_order(
        "BA", {(1, 1): {0: (1, 0)}, (0, 0): {0: (2, 0), 1: (-2, 0), 2: (1, 0)}}) is not None
    a, b = {(1, 0): {0: (1, 0)}}, {(0, 1): {0: (1, 0)}}
    assert references.check_product(ba, [b, a]) is None
    # + (u - 1)(u - 2)(u - 3) a^2
    cubic = {0: (-6, 0), 1: (11, 0), 2: (-6, 0), 3: (1, 0)}
    assert references.check_product({**ba, (2, 0): cubic}, [b, a]) is not None
    # K = 0: the model is the identity at every s; + s(s - 1) a
    assert references.check_operator_power(0, {(0, 0): {0: (1, 0)}}) is None
    assert references.check_operator_power(
        0, {(0, 0): {0: (1, 0)}, (1, 0): {1: (-1, 0), 2: (1, 0)}}) is not None


def test_normal_order_check_catches_a_wrong_u_power():
    good = {(2, 2): {0: (1, 0)}, (1, 1): {1: (4, 0)}, (0, 0): {2: (2, 0)}}
    assert references.check_normal_order("BBAA", good) is None
    bad = {(2, 2): {0: (1, 0)}, (1, 1): {1: (4, 0)}, (0, 0): {1: (2, 0)}}
    assert references.check_normal_order("BBAA", bad) is not None


def test_operator_power_check():
    op = next(op for op in workloads.build("weyl", 5)
              if op.kind == "operator_power" and op.args[0] < 8)
    _accepts_then_rejects(op, lambda p: p + WeylPoly.monomial(1, 1, 1, coeff_cls=type(
        next(iter(p.terms.values())))))


def test_equilibrium_lemma_and_rest_frame_checks():
    from eta_forge import SPoly
    _accepts_then_rejects(_first("weyl", "equilibrium"), lambda s: s + SPoly.gen())
    _accepts_then_rejects(_first("weyl", "lemma_suite"),
                          lambda r: dataclasses.replace(r, checks=r.checks[:-1]))
    _accepts_then_rejects(_first("weyl", "rest_frames"),
                          lambda fr: [dataclasses.replace(fr[0], swaps_ab=not fr[0].swaps_ab)]
                          + fr[1:])


# ---------------------------------------------------------------------------
# cold CLI envelopes
# ---------------------------------------------------------------------------

def test_strict_json_refuses_non_finite_constants():
    with pytest.raises(ValueError):
        references.parse_envelope('{"x": NaN}')
    with pytest.raises(ValueError):
        references.parse_envelope('{"x": Infinity}')


def test_word_normal_form_reader():
    assert references.parse_word_normal_form("a^2 b^2 + 4u a b + 2u^2") == {
        (2, 2): {0: (1, 0)}, (1, 1): {1: (4, 0)}, (0, 0): {2: (2, 0)}}
    with pytest.raises(ValueError):
        references.parse_word_normal_form("a b + (1/2)u")


def _perturb_envelope(workload, env):
    res = env["results"]
    if workload == "critical-line":
        res["t"] += 1e-6
    elif workload == "finite-sums":
        res["records"][0]["magnitude"] *= 1 + 1e-9
    elif workload == "extended":
        res["value"]["re"] = repr(float(res["value"]["re"]) * (1 + 1e-12))
    else:
        res["poly"] += " + u^9"
    return env


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cli_check_accepts_real_and_rejects_perturbed_envelopes(workload):
    argv = workloads.cli_command(workload, 5)
    wall, proc = run.cli_cold(argv)
    walls, inner, failures = run.check_cli_runs(workload, argv, [(wall, proc)], references)
    assert failures == [] and walls == [wall] and inner[0] > 0
    env = references.parse_envelope(proc.stdout)
    assert references.check_cli(workload, argv, env) is None
    assert references.check_cli(workload, argv, _perturb_envelope(workload, env)) is not None
    assert math.isfinite(walls[0])
