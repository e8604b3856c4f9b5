"""Run workloads repeatedly and report how steady each end-to-end metric is.

    python3 perfbench/steadiness.py --runs 10

Each run is a fresh ``run.py`` process of ``run_seconds`` (from
BENCHMARK.json) with its own seed: set A uses seeds 1, 2, ..., set B seeds
1001, 1002, .... The runs of the two sets alternate (set A run 1, set B run
1, set A run 2, ...) over all four workloads, so slow drift on the machine
lands in both. For each set, workload and metric it prints the median, the
first and third quartiles (as ``statistics.quantiles(values, n=4)`` gives
them) and their distance as a share of the median, and how far set B's
median moved from set A's. Raw results go to ``perfbench/out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sheet-classic", "sheet-sprego", "rule-check", "classroom-repl")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    results: dict[str, dict[str, list[dict]]] = {s: {w: [] for w in WORKLOADS} for s in "AB"}
    for i in range(args.runs):
        for s in results:
            for w in WORKLOADS:
                seed = 1 + i + (1000 if s == "B" else 0)
                res = run_once(w, seed, seconds)
                results[s][w].append(res)
                ok = "ok" if res["correct"] and res["failed"] == 0 else "FAILED CHECKS"
                print(f"[{s} {i + 1}/{args.runs}] {w} seed {seed}: {ok}", file=sys.stderr, flush=True)

    out = HERE / "out" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")

    print(f"{'set':3} {'workload':15} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'shift':>7}")
    for w in WORKLOADS:
        names = list(results["A"][w][0]["metrics"])
        for name in names:
            meds = {}
            for s in results:
                values = [r["metrics"][name]["value"] for r in results[s][w]]
                med, q1, q3, rel = spread(values)
                meds[s] = med
                shift = f"{meds['B'] / meds['A'] - 1:+.1%}" if s == "B" else ""
                print(f"{s:3} {w:15} {name:12} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.1%} {shift:>7}")
        fails = {s: sorted({r['failed'] / r['attempted'] for r in results[s][w]}) for s in results}
        print(f"    {w:15} failed share per set: {fails}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
