"""Seeded benchmark of the monomat CLI: end-to-end metrics, or per-layer ones with --trace 1.

Run from the repository root:

    python3 bench/run.py --workload row-wide --seed 1 --seconds 25 --trace 0

One process runs one workload as a closed loop with a single client: each op
calls ``monomat.cli.main(argv)`` in-process on input files written during
set-up, and the next op starts when the previous one has returned and its
outputs have been checked. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, plus the machine and the code.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from tracing import SPAN_LAYERS, Tracer
from workloads import WORKLOADS, Call, Checker, Tally

ROOT = Path(__file__).resolve().parent.parent
SETUP_SHARE = 0.08  # of the measured window, spent on repeated set-ups between passes
SETUP_MIN = 5  # fewest set-ups in a run; setup_s is their median
WARMUP_SHARE = 0.05  # of --seconds, spent on ops that are checked but not timed
MIN_BEYOND = 10  # ops a tail percentile needs beyond it to be reported as met


def cli_call(cli, argv) -> Call:
    """Call ``cli.main(argv)`` through the module attribute, so a traced run sees it."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
    call = Call(list(argv), code, out.getvalue(), err.getvalue())
    if "Traceback (most recent call last)" in call.err:
        call.fail("printed a traceback")
    return call


class Session:
    """Runs ops on the instance pool in order and keeps every tally."""

    def __init__(self, cli, workload, checker, instances):
        self.cli = cli
        self.workload = workload
        self.checker = checker
        self.instances = instances
        self.next = 0
        self.tally = Tally()
        self.calls = 0
        self.failures: list[str] = []

    def op(self, inst, tracer: Tracer | None = None) -> float:
        """Run one op on inst, check it, and return its wall time in seconds.

        Each op starts from the same collector state, with nothing left in the
        young generations, so how many collections fall inside an op does not
        depend on the ops before it.
        """
        argvs = self.workload.argvs(inst)
        calls = []
        gc.collect()
        if tracer is None:
            start = perf_counter()
            for argv in argvs:
                calls.append(cli_call(self.cli, argv))
            seconds = perf_counter() - start
        else:
            tracer.install()
            try:
                start = perf_counter()
                with tracer.root():
                    for argv in argvs:
                        calls.append(cli_call(self.cli, argv))
                seconds = perf_counter() - start
            finally:
                tracer.uninstall()
        self.workload.check(inst, calls, self.tally, self.checker)
        self.calls += len(calls)
        for call in calls:
            if call.errors:
                self.failures.append(f"{' '.join(call.argv)}: {'; '.join(call.errors)}")
        return seconds

    def take(self):
        inst = self.instances[self.next % len(self.instances)]
        self.next += 1
        return inst

    def at_pass_start(self) -> bool:
        return self.next % len(self.instances) == 0


def _forget_monomat() -> dict:
    """Remove the monomat modules from sys.modules and return them."""
    return {k: sys.modules.pop(k) for k in list(sys.modules)
            if k == "monomat" or k.startswith("monomat.")}


class SetUp:
    """Times set-ups: import monomat, generate the seeded inputs and write them.

    The run's own set-up comes first. Repeats are spread over the measured
    window, one batch at each pass boundary, so setup_s samples the same
    host phases as the ops; each repeat imports fresh modules and then puts
    the run's own ones back. Repeats rewrite the run's own input files.
    """

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.times: list[float] = []

    def once(self):
        gc.collect()
        start = perf_counter()
        cli = importlib.import_module("monomat.cli")
        instances = self.workload.make(random.Random(self.seed), self.workdir)
        self.times.append(perf_counter() - start)
        return cli, instances

    def catch_up(self, elapsed: float, final: bool) -> float:
        """Repeat until set-ups add up to SETUP_SHARE of `elapsed`; returns the time spent."""
        start = perf_counter()
        while sum(self.times) < SETUP_SHARE * elapsed or (final and len(self.times) < SETUP_MIN):
            saved = _forget_monomat()
            try:
                self.once()
            finally:
                _forget_monomat()
                sys.modules.update(saved)
        return perf_counter() - start


def tail(times: list[float], percentile: float):
    """(value, ops beyond it): the nearest-rank percentile of the op times."""
    ordered = sorted(times)
    k = max(0, math.ceil(percentile / 100 * len(ordered)) - 1)
    return ordered[k], len(ordered) - 1 - k


def machine() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "memory_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "git_head": rev,
        "src_sha256": digest.hexdigest()[:16],  # identifies the code outside a git checkout
    }


def run_loop(session: Session, setup: SetUp, seconds: float, tracer: Tracer | None):
    """Warm up, then run whole passes over the instance pool until `seconds` of ops have passed.

    Every instance is measured equally often, whatever the host's speed, so
    the op-time distribution is that of the pool. Set-ups are repeated at
    pass boundaries, outside the op time. Returns the untraced op times and,
    with a tracer, the traced ones: each instance then runs twice in a row,
    untraced and traced.
    """
    warm_end = perf_counter() + seconds * WARMUP_SHARE
    session.op(session.take())
    while perf_counter() < warm_end:
        session.op(session.take())
    session.next = 0
    start = perf_counter()
    end = start + seconds
    plain, traced = [], []
    while True:
        if session.at_pass_start():
            done = bool(plain) and perf_counter() >= end
            end += setup.catch_up(perf_counter() - start, final=done)
            if done:
                break
        inst = session.take()
        plain.append(session.op(inst))
        if tracer:
            traced.append(session.op(inst, tracer))
    return plain, traced


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced: list[float], plain: list[float]) -> dict:
    ops = tracer.ops
    s = tracer.stats
    m = {}
    for mod, qual in SPAN_LAYERS:
        m[f"{mod}.{qual}.self_s"] = (s[f"{mod}.{qual}"].self_s / ops, "s/op")
    for name in ("extraction.monochromatic_submatrix", "extraction.monotone_subsequence_1d",
                 "oracle.brute_force_row_monotone", "oracle.brute_force_monotone",
                 "trees.vertex_ancestor"):
        m[f"{name}.calls"] = (s[name].calls / ops, "calls/op")
    mono = s["extraction.monotone_subsequence_1d"]
    m["extraction.monotone_subsequence_1d.hit_ratio"] = (_ratio(mono.hits, mono.calls), "ratio")
    sampler = s["witness.sample_sign_matrix"]
    m["witness.sample_sign_matrix.attempts"] = (sampler.items / ops, "calls/op")
    m["witness.sample_sign_matrix.accept_ratio"] = (_ratio(sampler.hits, sampler.items), "ratio")
    m["witness.verify_witness.row_sets"] = (s["witness.verify_witness"].items / ops, "count/op")
    m["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    m["trace.coverage_ratio"] = (tracer.layer_self_s() / tracer.root_s, "ratio")
    return m


def report(args, session: Session, setup_times, harness_rss_mb, times, tracer, traced):
    """Print every metric by name and unit; return (record, metrics of this mode).

    The end-to-end figures always come from untraced ops.
    """
    t = session.tally
    pct = session.workload.tail_percentile
    value, beyond = tail(times, pct)
    e2e = {
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (value, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # Printed and recorded, but not in BENCHMARK.json (see bench/README.md).
    outcomes = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "settled_ratio": (_ratio(t.settled, t.find_calls) if t.find_calls else None, "ratio"),
        "achieved_ratio": (_ratio(t.achieved, t.target) if t.target else None, "ratio"),
        "error_ratio": (_ratio(len(session.failures), session.calls), "ratio"),
    }
    layers = layer_metrics(tracer, traced, times) if tracer else {}
    passes = len(times) / len(session.instances)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "machine": machine(),
        "ops": len(times),
        "pool": len(session.instances),
        "passes": passes,
        "harness_rss_mb": harness_rss_mb,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "calls": session.calls,
        "find_calls": t.find_calls,
        "setup_times_s": setup_times,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **outcomes, **layers}.items()},
        "missing_layers": tracer.missing if tracer else [],
        "failures": session.failures[:20],
    }
    mach = record["machine"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"machine: nproc {mach['nproc']}, memory {mach['memory_gib']} GiB, "
          f"python {mach['python']}, git {mach['git_head']}, src {mach['src_sha256']}")
    for name, (v, unit) in e2e.items():
        note = ""
        if name == "op_p50_s":
            note = f"  ({len(times)} ops, {passes:g} passes over {len(session.instances)} instances)"
        if name == "op_tail_s":
            note = f"  (p{pct:g} of {len(times)} ops, {beyond} beyond)"
            if beyond < MIN_BEYOND:
                note += f", fewer than {MIN_BEYOND} beyond"
        if name == "setup_s":
            note = f"  (median of {len(setup_times)} set-ups)"
        if name == "peak_rss_mb":
            note = f"  (harness after set-up, before the first op: {harness_rss_mb:.4g} MB)"
        print(f"{name}: {v:.6g} {unit}{note}")
    print(f"ops_per_s: {outcomes['ops_per_s'][0]:.6g} 1/s")
    print(f"settled_ratio: {_fmt(outcomes['settled_ratio'][0])} ratio  "
          f"({t.settled}/{t.find_calls} find calls)")
    print(f"achieved_ratio: {_fmt(outcomes['achieved_ratio'][0])} ratio  "
          f"(sum achieved {t.achieved} / sum target {t.target})")
    print(f"error_ratio: {_fmt(outcomes['error_ratio'][0])} ratio  "
          f"({len(session.failures)}/{session.calls} calls)")
    for line in session.failures[:5]:
        print(f"FAILED {line}")
    if tracer:
        print(f"per-layer table ({tracer.ops} traced ops; self time and calls per op)")
        for name, (v, unit) in layers.items():
            print(f"  {name}: {v:.6g} {unit}")
        for name in tracer.missing:
            print(f"  layer not found: {name}")
    return record, (layers if tracer else e2e)


def _fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the harness's smoke test")
    parser.add_argument("--record", help="also write the full run record as JSON here")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "monomat" / "__init__.py").is_file():
        print(f"bench: no monomat sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work_root = ROOT / "bench" / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = WORKLOADS[args.workload](tiny=args.scale == "tiny")
        setup = SetUp(workload, args.seed, workdir)
        cli, instances = setup.once()
        harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checker = Checker(sys.modules["monomat.matrix"], sys.modules["monomat.errors"])
        session = Session(cli, workload, checker, instances)
        tracer = Tracer() if args.trace else None
        times, traced = run_loop(session, setup, args.seconds, tracer)
        record, metrics = report(args, session, setup.times, harness_rss_mb, times, tracer, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n")
    failed = len(session.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.calls,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
