"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads critical-line weyl --seeds 1-10 --label set-a

Runs ``run.py`` untraced once per (workload, seed), one at a time, for
the ``run_seconds`` of ``BENCHMARK.json``, and prints for every metric,
and for the raw wall times in the runs' output files, the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread, which is the distance between the quartiles as a share of
the median.  Each set is saved to ``perfbench/out/sweep-<label>.json``;
``--compare`` prints, for two saved sets, how far the second median
sits from the first.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def sweep(workloads, seeds):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in seeds:
            t = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                raise SystemExit(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            # the raw wall times are in the run's output file only
            with open(os.path.join(OUT, f"{w}-seed{seed}-trace0.json"),
                      encoding="utf-8") as fh:
                result["metrics"].update(json.load(fh).get("wall", {}))
            result["wall_s"] = time.perf_counter() - t
            runs[w].append(result)
            print(f"{w} seed {seed}: {result['wall_s']:.1f} s wall, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    return runs


def table(runs) -> dict:
    out = {}
    for w, results in runs.items():
        names = results[0]["metrics"].keys()
        out[w] = {n: summary([r["metrics"][n]["value"] for r in results]) for n in names}
        out[w]["wall_s"] = summary([r["wall_s"] for r in results])
        out[w]["failed_share"] = sorted({r["failed"] / r["attempted"] for r in results})
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", default=["critical-line", "finite-sums",
                                                      "extended", "weyl"])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--label", default="latest")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                   help="compare two saved sets instead of running")
    args = p.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    if args.compare:
        a, b = (json.load(open(os.path.join(OUT, f"sweep-{x}.json"), encoding="utf-8"))
                for x in args.compare)
        for w in a:
            for n, s in a[w].items():
                if isinstance(s, dict) and n in b.get(w, {}):
                    change = b[w][n]["median"] / s["median"] - 1 if s["median"] else 0.0
                    print(f"{w:14s} {n:40s} {s['median']:12.5g} {b[w][n]['median']:12.5g} "
                          f"{change:+.3f}")
        return 0
    runs = sweep(args.workloads, _seeds(args.seeds))
    tab = table(runs)
    with open(os.path.join(OUT, f"sweep-{args.label}.json"), "w", encoding="utf-8") as fh:
        json.dump(tab, fh, indent=1)
    for w, metrics in tab.items():
        print(f"{w}  failed share {metrics['failed_share']}")
        for n, s in metrics.items():
            if isinstance(s, dict):
                print(f"  {n:40s} median {s['median']:12.5g}  q1 {s['q1']:12.5g}  "
                      f"q3 {s['q3']:12.5g}  spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
