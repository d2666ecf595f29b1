"""Smoke test of the benchmark harness itself.

Run from the repository root:

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size with a non-default seed,
untraced and traced, and checks the result line against BENCHMARK.json:
exactly the named metrics with their units, every end-to-end value above 0,
no failed call, the printed-only metrics present in the run record with
``error_ratio`` 0, and traced layers covering at least nine tenths of the
traced op time. It also checks that the benchmark refuses to run without the
package sources. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
PRINTED_ONLY = ("ops_per_s", "settled_ratio", "achieved_ratio", "error_ratio")


def run(spec: dict, cwd: Path, workload: str, trace: int, record: Path | None):
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
        "--scale", "tiny",
    ]
    if record:
        argv += ["--record", str(record)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int, workdir: Path) -> list[str]:
    record_path = workdir / f"{workload}-{trace}.json"
    proc = run(spec, ROOT, workload, trace, record_path)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} calls failed")
    expected = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(units))}")
    if not trace:
        problems += [f"{where}: {name} is {m['value']}" for name, m in result["metrics"].items()
                     if not m["value"] > 0]
    record = json.loads(record_path.read_text())["metrics"]
    problems += [f"{where}: record lacks {name}" for name in PRINTED_ONLY if name not in record]
    if record.get("error_ratio", {}).get("value") != 0:
        problems.append(f"{where}: error_ratio is not 0")
    if trace and not 0.9 <= result["metrics"]["trace.coverage_ratio"]["value"] <= 1.0:
        problems.append(f"{where}: traced layers cover too little of the op time")
    return problems


def check_refusal(spec: dict, workdir: Path) -> list[str]:
    """In a directory with only BENCHMARK.json and the benchmark, it must fail."""
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns(".work"))
    proc = run(spec, bare, spec["workloads"][0]["name"], 0, None)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["the benchmark ran without the package sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / "bench" / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=ROOT / "bench" / ".work"))
    try:
        problems = check_refusal(spec, workdir)
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                problems += check_run(spec, workload, trace, workdir)
                print(f"{workload} --trace {trace}: ran")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test passed" if not problems else f"smoke test failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
