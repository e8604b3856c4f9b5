"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload sheet-classic --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the engine is imported from ``src/`` there
and nowhere else. Working files (the classroom CSV, traces) go to
``perfbench/out/``. With ``--trace 0`` the result holds the end-to-end
metrics, with ``--trace 1`` the per-layer ones. Progress and any failed
check go to stderr; the last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sprego" / "__init__.py").is_file():
        print(f"error: no engine source at {src / 'sprego'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    result = workloads.run(workload, args.seconds, bool(args.trace))
    for problem in workload.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    import sprego

    if not Path(sprego.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: sprego was imported from {sprego.__file__}, not {src}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
