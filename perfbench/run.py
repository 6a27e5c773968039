"""eta-forge benchmark: one command per workload, closed loop, checked outputs.

    python3 perfbench/run.py --workload critical-line --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
One process makes one call at a time.  Whole rounds of the workload's
seeded operation list run until ``--seconds`` have passed, then every
output is checked against references computed without the library, and
the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: set-up time scaled to a
nominal host speed, round time over a reference loop timed during the
round, and peak RSS.  The raw wall times go to the output file only.
``--trace 1`` is the
separate traced run: it alternates untraced and traced rounds, requires
their outputs to be bit-identical, and reports the per-layer metrics from
the spans of the traced rounds.  Raw results and spans are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import cmath
import compileall
import dataclasses
import enum
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# A reference slice runs on every tick of this interval timer (seconds):
# during the timed rounds, and more often during the short set-up.
REF_INTERVAL_S = 0.02
SETUP_INTERVAL_S = 0.005
# setup_s is reported at the host speed at which one slice takes this long.
NOMINAL_SLICE_S = 0.0007
# The fixed reference loop that batch_ref divides by is this many slices.
REF_LOOP_SLICES = 1000
CLI_RUNS = 7
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "batch_ref": "ratio",
    "peak_rss_mb": "MB",
}
# Raw wall times (set-up time unscaled): written to the run's output file
# only.  On a host whose speed moves in phases they spread more between
# runs than any bound a metric may have (see README.md).
WALL_UNITS = {
    "setup_wall_s": "s",
    "batch_s": "s",
    "op_p50_ms": "ms",
    "cli_cold_p50_ms": "ms",
}

PER_LAYER_UNITS = {
    "numerics.cgamma.p50_us": "us",
    "finite_eta.evaluate.calls": "count",
    "finite_eta.evaluate.busy_s": "s",
    "finite_eta.evaluate.p50_us": "us",
    "finite_eta.evaluate.p90_us": "us",
    "finite_eta.evaluate_ext.p50_ms": "ms",
    "hasse_global.eta_global.p50_ms": "ms",
    "hasse_global.eta_global_ext.p50_ms": "ms",
    "hasse_global.refine_zero.p50_ms": "ms",
    "hasse_global.newton_steps": "count",
    "hasse_global.funceq.p50_ms": "ms",
    "hasse_global.series_terms": "count",
    "hasse_global.max_err_over_target": "ratio",
    "kernel_integrals.verify_identity.p50_ms": "ms",
    "kernel_integrals.integrate_L.busy_s": "s",
    "kernel_integrals.quad_evals": "count",
    "proto_zeros.scan_line.busy_s": "s",
    "proto_zeros.eval_share": "ratio",
    "proto_zeros.grid_points": "count",
    "proto_zeros.records": "count",
    "weyl_algebra.normal_order.busy_s": "s",
    "weyl_algebra.normal_order.p50_ms": "ms",
    "weyl_algebra.product.p50_ms": "ms",
    "weyl_algebra.lemma_suite.p50_ms": "ms",
    "weyl_powers.operator_power.busy_s": "s",
    "weyl_powers.pi_s.p50_us": "us",
    "cli.overhead_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# reference loop
# ---------------------------------------------------------------------------

def ref_slice() -> None:
    """One slice of the reference loop: cmath calls, Fraction arithmetic
    and dict updates only.  It imports nothing from eta_forge, so no
    change to the library can move it; timed during the batch it tracks
    the host's speed at that moment."""
    z = complex(0.3, 0.7)
    f = Fraction(1, 3)
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(40):
        z = cmath.exp(z * 0.5) - cmath.log(z + 2.0)
        f = f * Fraction(7, 5) - Fraction(i, 11)
        g = Fraction(i + 1, 7) * Fraction(3, i + 2) + Fraction(1, i + 3)
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + g


class HostSampler:
    """Runs one reference slice on every tick of a wall-clock interval
    timer, so that the slices sample the host's speed evenly in time, in
    the middle of long operations too.  Python runs the handler in the
    main thread between bytecodes: the process stays single-threaded and
    makes one call at a time.  ``spent`` and ``count`` total the slices."""

    def __init__(self, interval: float = REF_INTERVAL_S):
        self.interval = interval
        self.spent = 0.0
        self.count = 0
        self._busy = False
        self._previous = None

    def sample(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        t = time.perf_counter()
        ref_slice()
        self.spent += time.perf_counter() - t
        self.count += 1
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int):
    """Import the library, build the seeded inputs and run the warm-up pass,
    with the reference loop sampled throughout.  Returns (set-up seconds
    with the slices taken out, mean slice seconds, workloads module,
    operation list)."""
    with HostSampler(SETUP_INTERVAL_S) as sampler:
        start = time.perf_counter()
        import eta_forge
        import workloads
        if not os.path.abspath(eta_forge.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"eta_forge imported from {eta_forge.__file__}, not from {SRC}")
        ops = workloads.build(workload, seed)
        for op in workloads.warmup(workload, seed):
            op.run()
        seconds = time.perf_counter() - start - sampler.spent
    if sampler.count == 0:
        sampler.sample()
    return seconds, sampler.spent / sampler.count, workloads, ops


def host_scaled(seconds: float, slice_s: float) -> float:
    """A time rescaled to the nominal host speed: seconds * nominal slice
    time / slice time measured while it ran."""
    return seconds * NOMINAL_SLICE_S / slice_s


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ETA_FORGE_")}
    env["PYTHONPATH"] = SRC
    return env


def setup_in_child(workload: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    return child["seconds"], child["slice_s"]


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Round:
    times: list                  # seconds per operation, reference slices excluded
    errors: list                 # exception text or None, per operation
    slice_s: float | None = None  # mean reference slice time during the round
    traced: bool = False
    outputs: list | None = None  # the outputs, kept for the first round only
    differs: list | None = None  # per operation: output not bit-identical to the first round's

    @property
    def seconds(self) -> float:
        return sum(self.times)

    @property
    def ref_ratio(self) -> float:
        return self.seconds / (REF_LOOP_SLICES * self.slice_s)


def run_round(ops, call, sampler: HostSampler | None = None, traced: bool = False) -> Round:
    """Run every operation once.  With a sampler, the time its slices take
    inside an operation is taken out of that operation's time."""
    times, errors, outputs = [], [], []
    spent0 = count0 = 0.0
    if sampler is not None:
        spent0, count0 = sampler.spent, sampler.count
    for op in ops:
        before = sampler.spent if sampler is not None else 0.0
        t = time.perf_counter()
        try:
            out, err = call(op), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        d = time.perf_counter() - t
        if sampler is not None:
            d -= sampler.spent - before
        times.append(d)
        errors.append(err)
        outputs.append(out)
    rnd = Round(times, errors, traced=traced, outputs=outputs)
    if sampler is not None:
        if sampler.count == count0:   # no tick landed in a very short round
            sampler.sample()
        rnd.slice_s = (sampler.spent - spent0) / (sampler.count - count0)
    return rnd


def fingerprint(x):
    """A bit-exact, comparable form of an operation's output."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return [x.real.hex(), x.imag.hex()]
    if x is None or isinstance(x, (bool, int, str, Fraction)):
        return repr(x)
    if hasattr(x, "_mpf_"):
        return repr(x._mpf_)
    if isinstance(x, enum.Enum):
        return x.name
    if isinstance(x, (list, tuple)):
        return [fingerprint(v) for v in x]
    if isinstance(x, dict):
        return sorted([fingerprint(k), fingerprint(v)] for k, v in x.items())
    if dataclasses.is_dataclass(x):
        return [type(x).__name__] + [fingerprint(getattr(x, f.name)) for f in dataclasses.fields(x)]
    return [type(x).__name__, str(x)]  # WeylPoly / SPoly: canonical exact text


# ---------------------------------------------------------------------------
# cold CLI
# ---------------------------------------------------------------------------

def _timed_child(cmd: list[str]):
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t, proc


def cli_cold(argv: list[str]):
    """One cold CLI invocation: (wall seconds, completed process)."""
    return _timed_child([sys.executable, "-m", "eta_forge.cli", *argv])


def check_cli_runs(workload: str, argv: list[str], runs, references):
    """Check cold CLI runs.  Returns (wall seconds list, reported timing_ms
    list, failure reasons)."""
    walls, inner, failures = [], [], []
    for wall, proc in runs:
        walls.append(wall)
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            envelope = references.parse_envelope(proc.stdout)
            reason = references.check_cli(workload, argv, envelope)
            inner.append(envelope["diagnostics"]["timing_ms"])
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"CLI output rejected: {exc}"
        if reason:
            failures.append(reason)
    return walls, inner, failures


def import_overhead_ms(n: int = CLI_RUNS) -> float:
    """Cold `import eta_forge.cli` minus a bare interpreter, medians of n."""
    bare, loaded = [], []
    for _ in range(n):
        bare.append(_timed_child([sys.executable, "-c", "pass"])[0])
        loaded.append(_timed_child([sys.executable, "-c", "import eta_forge.cli"])[0])
    return (statistics.median(loaded) - statistics.median(bare)) * 1e3


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _tiered(base: str, ctx_pos: int):
    def name(args, kwargs):
        ctx = args[ctx_pos] if len(args) > ctx_pos else kwargs.get("ctx")
        return base if ctx is None or ctx.is_fast else base + "_ext"
    return name


def _terms(args, kwargs, result):
    return {"terms": result.terms_used}


def _evaluations(args, kwargs, result):
    return {"evaluations": result.evaluations}


def _scan(args, kwargs, result):
    cfg = args[0]
    return {"grid": int((cfg.t_max - cfg.t_min) // cfg.step) + 1, "records": len(result)}


def _newton(args, kwargs, result):
    return {"newton_steps": result.iterations}


# Counts read from the results of the benchmark's own calls, by kind.
OP_INFO = {"eta_global": _terms, "refine_zero": _newton, "scan_line": _scan}


def layer_bindings():
    """Names one layer calls in another, rebound during traced rounds."""
    from eta_forge import hasse_global, kernel_integrals, proto_zeros, weyl_powers
    return [
        (hasse_global, "eta_global", _tiered("hasse_global.eta_global", 1), _terms),
        (hasse_global, "zeta_global", "hasse_global.zeta_global", None),
        (hasse_global, "cgamma", "numerics.cgamma", None),
        (kernel_integrals, "integrate_L", "kernel_integrals.integrate_L", _evaluations),
        (kernel_integrals, "rhs_closed_form", "kernel_integrals.rhs_closed_form", None),
        (kernel_integrals, "evaluate", _tiered("finite_eta.evaluate", 2), None),
        (kernel_integrals, "derivative", "finite_eta.derivative", None),
        (proto_zeros, "evaluate", _tiered("finite_eta.evaluate", 2), None),
        (proto_zeros, "derivative", "finite_eta.derivative", None),
        (proto_zeros, "scan_line", "proto_zeros.scan_line", _scan),
        (weyl_powers, "operator_power_truncated", "weyl_powers.operator_power_truncated", None),
        (weyl_powers, "mod_observer", "weyl_algebra.mod_observer", None),
    ]


def layer_metrics(spans_mod, spans, traced_rounds: int) -> dict:
    stats = spans_mod.by_name(spans)

    def durations(name):
        return stats.get(name, {}).get("durations", [])

    def pct(name, q, scale):
        d = durations(name)
        return spans_mod.percentile(d, q) * scale if d else 0.0

    def per_round(value):
        return value / traced_rounds

    def busy(name):
        return per_round(stats.get(name, {}).get("self", 0.0))

    def info(names, key):
        return per_round(sum(stats.get(n, {}).get("info", {}).get(key, 0) for n in names))

    scan_total = sum(durations("proto_zeros.scan_line"))
    scan_eval = spans_mod.child_time(spans, "proto_zeros.scan_line",
                                     {"finite_eta.evaluate", "finite_eta.evaluate_ext"})
    return {
        "numerics.cgamma.p50_us": pct("numerics.cgamma", 50, 1e6),
        "finite_eta.evaluate.calls": per_round(len(durations("finite_eta.evaluate"))),
        "finite_eta.evaluate.busy_s": busy("finite_eta.evaluate"),
        "finite_eta.evaluate.p50_us": pct("finite_eta.evaluate", 50, 1e6),
        "finite_eta.evaluate.p90_us": pct("finite_eta.evaluate", 90, 1e6),
        "finite_eta.evaluate_ext.p50_ms": pct("finite_eta.evaluate_ext", 50, 1e3),
        "hasse_global.eta_global.p50_ms": pct("hasse_global.eta_global", 50, 1e3),
        "hasse_global.eta_global_ext.p50_ms": pct("hasse_global.eta_global_ext", 50, 1e3),
        "hasse_global.refine_zero.p50_ms": pct("hasse_global.refine_zero", 50, 1e3),
        "hasse_global.newton_steps": info(["hasse_global.refine_zero"], "newton_steps"),
        "hasse_global.funceq.p50_ms": pct("hasse_global.funceq", 50, 1e3),
        "hasse_global.series_terms": info(["hasse_global.eta_global",
                                           "hasse_global.eta_global_ext"], "terms"),
        "kernel_integrals.verify_identity.p50_ms": pct("kernel_integrals.verify_identity", 50, 1e3),
        "kernel_integrals.integrate_L.busy_s": busy("kernel_integrals.integrate_L"),
        "kernel_integrals.quad_evals": info(["kernel_integrals.integrate_L"], "evaluations"),
        "proto_zeros.scan_line.busy_s": busy("proto_zeros.scan_line"),
        "proto_zeros.eval_share": scan_eval / scan_total if scan_total else 0.0,
        "proto_zeros.grid_points": info(["proto_zeros.scan_line"], "grid"),
        "proto_zeros.records": info(["proto_zeros.scan_line"], "records"),
        "weyl_algebra.normal_order.busy_s": busy("weyl_algebra.normal_order"),
        "weyl_algebra.normal_order.p50_ms": pct("weyl_algebra.normal_order", 50, 1e3),
        "weyl_algebra.product.p50_ms": pct("weyl_algebra.product", 50, 1e3),
        "weyl_algebra.lemma_suite.p50_ms": pct("weyl_algebra.lemma_suite", 50, 1e3),
        "weyl_powers.operator_power.busy_s": busy("weyl_powers.operator_power"),
        "weyl_powers.pi_s.p50_us": pct("weyl_powers.pi_s", 50, 1e6),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def plain_call(op):
    return op.run()


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("critical-line", "finite-sums", "extended", "weyl"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "eta_forge", "__init__.py")):
        print(f"perfbench: no eta_forge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        seconds, slice_s = setup(args.workload, args.seed)[:2]
        print(json.dumps({"seconds": seconds, "slice_s": slice_s}))
        return 0

    # byte-compile first, so no timed import pays for compilation
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    setup_s, setup_slice_s, workloads, ops = setup(args.workload, args.seed)
    setups = [(setup_s, setup_slice_s)]

    rounds: list[Round] = []
    recorder = None
    first: list = []

    def keep(rnd: Round) -> None:
        # later rounds keep only whether each output matches the first
        # round's bit for bit, so memory does not grow with the round count
        prints = [fingerprint(out) for out in rnd.outputs]
        if rounds:
            rnd.differs = [p != q for p, q in zip(prints, first)]
            rnd.outputs = None
        else:
            first.extend(prints)
        rounds.append(rnd)

    import references
    start = time.perf_counter()
    if args.trace:
        import spans as spans_mod
        recorder = spans_mod.Recorder()
        bindings = layer_bindings()

        def traced_call(op):
            return recorder.call(op.span, op.fn, op.args, info=OP_INFO.get(op.kind))

        while len(rounds) < 2 or time.perf_counter() - start < args.seconds:
            keep(run_round(ops, plain_call))
            with spans_mod.rebound(recorder, bindings):
                keep(run_round(ops, traced_call, traced=True))
    else:
        with HostSampler() as sampler:
            while not rounds or time.perf_counter() - start < args.seconds:
                keep(run_round(ops, plain_call, sampler))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # child processes, one at a time: set-ups in fresh interpreters (each
    # scaled by its own reference slices) and cold CLI runs
    if not args.trace:
        setups += [setup_in_child(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
    cli_argv = workloads.cli_command(args.workload, args.seed)
    cli = [cli_cold(cli_argv) for _ in range(CLI_RUNS)]
    cli_walls, cli_inner, cli_failures = check_cli_runs(args.workload, cli_argv, cli, references)

    # checks: the first round against the references, every later round
    # against the first bit for bit
    reasons = []
    shares = []
    for op, out, err in zip(ops, rounds[0].outputs, rounds[0].errors):
        if err is None:
            err, share = references.check_op(op, out)
            if share is not None:
                shares.append(share)
        reasons.append(err)
    failed = 0
    wrong = 0
    failures = []
    for r_index, rnd in enumerate(rounds):
        for i, err in enumerate(rnd.errors):
            reason = err or reasons[i]
            if reason is None and rnd.differs and rnd.differs[i]:
                reason = ("traced output differs from the untraced one" if rnd.traced
                          else f"output differs from the first round's in round {r_index}")
            if reason:
                failed += 1
                wrong += err is None
                if len(failures) < 20:
                    failures.append(f"{ops[i].kind}: {reason}")
    failed += len(cli_failures)
    failures += cli_failures
    attempted = len(rounds) * len(ops) + len(cli_walls)
    correct = wrong == 0 and not cli_failures

    plain = [r for r in rounds if not r.traced]
    if args.trace:
        traced = [r for r in rounds if r.traced]
        values = layer_metrics(spans_mod, recorder.spans, len(traced))
        values["hasse_global.max_err_over_target"] = max(shares, default=0.0)
        values["cli.overhead_ms"] = statistics.median(
            w * 1e3 - t for w, t in zip(cli_walls, cli_inner)) if cli_inner else 0.0
        values["cli.import_ms"] = import_overhead_ms()
        values["trace.overhead_ratio"] = (statistics.median(r.seconds for r in traced)
                                          / statistics.median(r.seconds for r in plain))
        metrics = _metrics(values, PER_LAYER_UNITS)
    else:
        values = {
            "setup_s": statistics.median(host_scaled(t, sl) for t, sl in setups),
            "batch_ref": statistics.median(r.ref_ratio for r in plain),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = _metrics(values, END_TO_END_UNITS)
        wall = {
            "setup_wall_s": statistics.median(t for t, _ in setups),
            "batch_s": statistics.median(r.seconds for r in plain),
            "op_p50_ms": statistics.median(t for r in plain for t in r.times) * 1e3,
            "cli_cold_p50_ms": statistics.median(cli_walls) * 1e3,
        }

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if not args.trace:
        result_file = {**result, "wall": _metrics(wall, WALL_UNITS)}
    else:
        result_file = result
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result_file, "rounds": len(rounds), "setups_s": setups,
                   "round_s": [r.seconds for r in rounds], "cli_wall_s": cli_walls,
                   "cli_argv": cli_argv, "failures": failures,
                   "op_ms": [[op.kind, [r.times[i] * 1e3 for r in rounds]]
                             for i, op in enumerate(ops)]}, fh, indent=1)
    if recorder is not None:
        recorder.dump(stem + ".spans.json")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
