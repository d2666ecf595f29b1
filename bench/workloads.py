"""The benchmark's workloads: seeded inputs, the CLI calls of one op, output checks.

Each workload writes its inputs during set-up from a ``random.Random(seed)``;
the program sees only those files and its argv. An op is the list of CLI
calls made for one instance. Checks run after the op, outside the timed
region, and attach a reason to every call whose output is wrong.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from itertools import combinations, product
from pathlib import Path

FALLBACK_SETTLED = "exhaustive_fallback: no witness exists"


@dataclass
class Call:
    """One in-process ``monomat.cli.main(argv)`` call and what it printed."""

    argv: list[str]
    code: int | None
    out: str
    err: str
    errors: list[str] = field(default_factory=list)

    def fail(self, why: str):
        self.errors.append(why)

    def payload(self) -> dict | None:
        """The JSON object the call printed, or None after recording a failure."""
        try:
            payload = json.loads(self.out)
        except ValueError:
            self.fail("stdout is not one JSON object")
            return None
        if not isinstance(payload, dict):
            self.fail("stdout is not one JSON object")
            return None
        return payload


@dataclass
class Tally:
    """Outcome counts over the find calls of a run."""

    find_calls: int = 0
    settled: int = 0
    achieved: int = 0
    target: int = 0


@dataclass(frozen=True)
class Instance:
    """An input file and its target size; checks re-read the rows from the file,
    so the pool adds nothing to the process's peak memory."""

    path: str
    n: int


class Checker:
    """Re-validates printed witnesses with the package's public predicates."""

    def __init__(self, matrix_module, errors_module):
        self.mm = matrix_module
        self.input_errors = (ValueError, IndexError, errors_module.MonomatError)

    def _weakly(self, m, direction) -> bool:
        """Every row of m is weakly monotone in the given direction."""
        mm = self.mm
        if direction == mm.DECREASING:
            m = mm.Matrix(tuple(tuple(-v for v in row) for row in m.entries))
        elif direction != mm.INCREASING:
            return False
        return mm.is_row_monotone(m) == mm.INCREASING

    def witness_holds(self, rows, p: dict, kind: str, size: int) -> bool:
        """The printed 1-based witness is a size x size submatrix of the claimed kind."""
        mm = self.mm
        r = [i - 1 for i in p["rows"]]
        c = [j - 1 for j in p["cols"]]
        if len(r) != size or len(c) != size:
            return False
        try:
            sub = mm.submatrix(mm.Matrix(rows), r, c)
        except self.input_errors:
            return False
        if not self._weakly(sub, p["row_direction"]):
            return False
        if kind == "monotone":
            return mm.is_monotone(sub) is not None and self._weakly(
                sub.transpose(), p["col_direction"]
            )
        return True


def write_matrix(path: Path, shape: tuple[int, int], rows):
    """Write a d x cols matrix; rows may be a generator, so only one is held at a time."""
    with open(path, "w") as f:
        f.write(f"{shape[0]} {shape[1]}\n")
        for row in rows:
            f.write(" ".join(map(str, row)))
            f.write("\n")


def read_rows(path: str) -> tuple:
    """The rows of a file written by write_matrix."""
    with open(path) as f:
        next(f)
        return tuple(array("l", map(int, line.split())) for line in f)


def check_find(call: Call, inst: Instance, kind: str, n: int, tally: Tally, checker: Checker):
    """Checks one ``find --format json`` call and adds it to the tally."""
    p = call.payload()
    if p is None:
        return None
    try:
        achieved, target, met = p["achieved"], p["target"], p["met_target"]
        tally.find_calls += 1
        tally.achieved += achieved
        tally.target += target
        tally.settled += call.code == 0 or FALLBACK_SETTLED in p["stages"]
        if call.code not in (0, 3):
            call.fail(f"exit {call.code}, expected 0 or 3")
        if target != n or met != (achieved >= target) or (call.code == 0) != met:
            call.fail("target, achieved, met_target and exit code disagree")
        if achieved and not (
            p["kind"] == kind and checker.witness_holds(read_rows(inst.path), p, kind, achieved)
        ):
            call.fail("printed witness is not valid on the input")
    except (KeyError, TypeError):
        call.fail("find output lacks a field")
    return p


class Workload:
    name = ""
    why = ""
    # Reported as op_tail_s: the highest of p75/90/95/98/99 that keeps at
    # least ten ops beyond it at this workload's op rate in a full-length run
    # (small-settle excepted, see there). It is fixed, so every run and every
    # commit reports the same percentile.
    tail_percentile = 75

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def make(self, rng, workdir: Path) -> list:
        """Generate and write the seeded inputs; returns the instance pool."""
        raise NotImplementedError

    def argvs(self, inst) -> list[list[str]]:
        """The CLI calls of one op on one instance."""
        raise NotImplementedError

    def check(self, inst, calls: list[Call], tally: Tally, checker: Checker):
        raise NotImplementedError


class RowWide(Workload):
    """Uniform random integer matrices, one ``find --kind row`` call per op."""

    name = "row-wide"
    why = "8 x 32768 row find: column lift, parse_matrix and the tree-like descent dominate"
    n = 4
    # Instance costs differ by up to a quarter; with four of them the median
    # sat between two instances and jumped with small shifts in timing.
    pool = 8

    def make(self, rng, workdir):
        d, cols = (8, 512) if self.tiny else (8, 32768)
        out = []
        for i in range(self.pool):
            rows = ([rng.getrandbits(20) for _ in range(cols)] for _ in range(d))
            path = workdir / f"{self.name}-{i}.txt"
            write_matrix(path, (d, cols), rows)
            out.append(Instance(str(path), self.n))
        return out

    def argvs(self, inst):
        return [["find", inst.path, "--kind", "row", "--n", str(inst.n), "--format", "json"]]

    def check(self, inst, calls, tally, checker):
        check_find(calls[0], inst, "row-monotone", inst.n, tally, checker)


class SmallSettle(Workload):
    name = "small-settle"
    why = "tiny tied matrices: exhaustive fallback, oracle and CLI overhead dominate"
    passes = 3  # instances = passes x shape grid; the grid keeps shapes equal across seeds
    # Op times here depend on the instance, and the rare exhaustive ones swing
    # with the seed; p90 stays below them, with about two hundred ops beyond.
    tail_percentile = 90

    def make(self, rng, workdir):
        if self.tiny:
            grid = list(product((4, 6), (8, 12), (3, 4)))
            passes = 1
        else:
            grid = list(product(range(4, 9), range(8, 25), (3, 4)))
            passes = self.passes
        out = []
        for p in range(passes):
            order = grid[:]
            rng.shuffle(order)
            for j, (d, cols, n) in enumerate(order):
                rows = tuple(tuple(rng.randrange(10) for _ in range(cols)) for _ in range(d))
                path = workdir / f"{self.name}-{p * len(grid) + j}.txt"
                write_matrix(path, (d, cols), rows)
                out.append(Instance(str(path), n))
        return out

    def argvs(self, inst):
        n = str(inst.n)
        return [
            ["find", inst.path, "--kind", "row", "--n", n, "--format", "json"],
            ["find", inst.path, "--kind", "full", "--n", str(inst.n - 1), "--format", "json"],
            ["oracle", inst.path, "--kind", "row", "--n", n, "--format", "json"],
        ]

    def check(self, inst, calls, tally, checker):
        row_call, full_call, oracle_call = calls
        row = check_find(row_call, inst, "row-monotone", inst.n, tally, checker)
        check_find(full_call, inst, "monotone", inst.n - 1, tally, checker)
        found = self._check_oracle(oracle_call, inst, checker)
        if row is None or found is None:
            return
        if row.get("met_target") and not found:
            row_call.fail("find met its target but the oracle proves absence")
        if FALLBACK_SETTLED in row.get("stages", ()) and found:
            row_call.fail("find proved absence but the oracle found a witness")

    @staticmethod
    def _check_oracle(call, inst, checker):
        p = call.payload()
        if p is None:
            return None
        if call.code != 0:
            call.fail(f"exit {call.code}, expected 0")
        result = p.get("result")
        if result == "absent":
            return False
        if result == "found":
            try:
                if not checker.witness_holds(read_rows(inst.path), p, "row-monotone", inst.n):
                    call.fail("oracle witness is not valid on the input")
            except (KeyError, TypeError):
                call.fail("oracle output lacks a field")
            return True
        call.fail(f"oracle result {result!r}")
        return None


class WitnessRoundtrip(Workload):
    name = "witness-roundtrip"
    why = "witness --materialize then verify --structural: sampling, structural check, large writes"
    pool = 8

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        self.params = (8, 6, 4, 2) if tiny else (16, 12, 8, 3)  # d, t, n, s

    def make(self, rng, workdir):
        self.prefix = str(workdir / "w")
        return [rng.getrandbits(31) for _ in range(self.pool)]

    def argvs(self, seed):
        d, t, n, s = (str(v) for v in self.params)
        return [
            ["witness", "--d", d, "--t", t, "--n", n, "--s", s, "--seed", str(seed),
             "--materialize", "--output-prefix", self.prefix, "--format", "json"],
            ["verify", f"{self.prefix}.witness", "--n", n, "--structural", "--format", "json"],
        ]

    def check(self, seed, calls, tally, checker):
        wit_call, ver_call = calls
        d, t, n, s = self.params
        p = wit_call.payload()
        if p is not None:
            if wit_call.code != 0:
                wit_call.fail(f"exit {wit_call.code}, expected 0")
            if p.get("verdict") != "PASS" or p.get("check_mode") != "exhaustive":
                wit_call.fail(f"verdict {p.get('verdict')} ({p.get('check_mode')})")
            if p.get("columns") != 1 << t:
                wit_call.fail("wrong column count")
            self._check_files(wit_call, d, t, n, s)
        q = ver_call.payload()
        if q is not None:
            if ver_call.code != 0:
                ver_call.fail(f"exit {ver_call.code}, expected 0")
            if q.get("structural") != "PASS" or q.get("check_mode") != "exhaustive":
                ver_call.fail(f"structural {q.get('structural')} ({q.get('check_mode')})")

    def _check_files(self, call, d, t, n, s):
        """Re-derive the written files from the sign matrix with independent code."""
        try:
            signs = _read_signs(Path(f"{self.prefix}.signs").read_text())
            witness_text = Path(f"{self.prefix}.witness").read_text()
            matrix_lines = Path(f"{self.prefix}.matrix").read_text().splitlines()
        except (OSError, ValueError):
            call.fail("missing or malformed output file")
            return
        if len(signs) != d or any(len(row) != t for row in signs):
            call.fail("sign matrix has the wrong shape")
            return
        header, _, rest = witness_text.partition("\n")
        if header != f"witness t={t}" or _read_signs(rest) != signs:
            call.fail("witness file does not match the sign file")
        for cols in combinations(range(t), s):
            for sign in (1, -1):
                if sum(all(row[j] == sign for j in cols) for row in signs) >= n:
                    call.fail(f"sign matrix has an {n} x {s} single-sign block")
                    return
        if matrix_lines != [f"{d} {1 << t}"] + [_witness_row(row, t) for row in signs]:
            call.fail("materialized matrix does not match the sign matrix")


def _read_signs(text: str) -> list[list[int]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    d, t = map(int, lines[0])
    rows = [[1 if tok == "+" else -1 if tok == "-" else 0 for tok in ln] for ln in lines[1:]]
    if len(rows) != d or any(len(r) != t or 0 in r for r in rows):
        raise ValueError("bad sign matrix")
    return rows


def _witness_row(signs, t: int) -> str:
    """Row of the witness matrix: column k+1 is sum of 2^(i+1) * s_i over bits i of k."""
    values = [0] * (1 << t)
    for k in range(1, 1 << t):
        low = (k & -k).bit_length() - 1
        values[k] = values[k & (k - 1)] + (2 << low) * signs[low]
    return " ".join(map(str, values))


WORKLOADS = {w.name: w for w in (RowWide, SmallSettle, WitnessRoundtrip)}
