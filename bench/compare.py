"""Run the benchmark as two sets of seeded runs and check they agree within its bounds.

Run from the repository root:

    python3 bench/compare.py --runs 10
    python3 bench/compare.py --runs 5 --workloads witness-roundtrip

For every workload, set A uses seeds base .. base+runs-1 and set B the next
`runs` seeds; runs of the two sets alternate. For each end-to-end metric the
script prints each set's median and spread (interquartile range over the
median, from ``statistics.quantiles(values, n=4)``). The sets agree when
every spread is within the metric's bound and neither set's median is worse
than the other's by more than the bound. Exits 1 when a run fails or a
metric disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    start = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return {"wall_s": wall, **{name: m["value"] for name, m in result["metrics"].items()}}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: dict, base: float, other: float) -> float:
    """How much worse `other` is than `base`, as a share of `base`."""
    change = (other - base) / base
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--out", help="write every run's metrics and the verdicts as JSON here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    ok = True
    summary = {}
    for workload in args.workloads.split(","):
        if workload not in names:
            parser.error(f"unknown workload {workload!r}")
        sets = ([], [])
        for i in range(args.runs):
            for s, runs in enumerate(sets):
                runs.append(run_once(spec, workload, args.seed_base + s * args.runs + i))
        walls = [run["wall_s"] for runs in sets for run in runs]
        print(f"{workload}: 2 sets of {args.runs} runs, {spec['run_seconds']} s measured, "
              f"{statistics.median(walls):.1f} s median wall (max {max(walls):.1f} s) per run")
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[run[name] for run in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            drift = max(worse_by(metric, medians[0], medians[1]),
                        worse_by(metric, medians[1], medians[0]))
            agree = all(sp <= bound for sp in spreads) and drift <= bound
            ok = ok and agree
            rows[name] = {"values": values, "medians": medians, "spreads": spreads,
                          "drift": drift, "bound": bound, "agree": agree}
            print(f"  {name:<12} median {' / '.join(f'{m:.5g}' for m in medians)} {metric['unit']}"
                  f"  spread {' / '.join(f'{sp:.3f}' for sp in spreads)}"
                  f"  drift {drift:.3f}  bound {bound}  {'agree' if agree else 'DISAGREE'}")
        summary[workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    print("all metrics agree within their bounds" if ok else "some metrics disagree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
