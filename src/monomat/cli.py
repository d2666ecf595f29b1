"""Command-line front end: find, witness, verify, lemma, and oracle commands.

Exit codes are a stable contract: 0 success, 2 bad input, 3 best-effort
shortfall (or a refused guarantee / truncated search), 4 sampling exhausted,
5 counterexample found, 6 internal guarantee breach. All randomness flows
through one seeded mt19937 generator per run, so identical invocations
produce byte-identical artifacts. Witness files carry 1-based row and column
indices.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import stat
import sys
from pathlib import Path

from . import extraction, oracle, trees, witness as witness_mod
from .errors import (
    BudgetExceededError,
    ExhaustedAttemptsError,
    FormatError,
    GuaranteeUnmetError,
    InternalCheckError,
    MonomatError,
)
from .matrix import Matrix, SignMatrix, parse_matrix, sign_str, submatrix
from .matrix import meaningful_lines, parse_matrix_lines

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SHORTFALL = 3
EXIT_SAMPLING = 4
EXIT_COUNTEREXAMPLE = 5
EXIT_INTERNAL = 6


def _emit(payload: dict, fmt: str):
    """Print a payload as deterministic text or JSON; text omits the fields JSON writes as null."""
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    for key in sorted(payload):
        value = payload[key]
        if value is None:
            continue
        if isinstance(value, list):
            value = " ".join(str(v) for v in value)
        elif isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        sys.stdout.write(f"{key}: {value}\n")


def _witness_payload(result: extraction.PipelineResult) -> dict:
    w = result.witness
    payload = {
        "rows": [r + 1 for r in w.rows] if w else [],
        "cols": [c + 1 for c in w.cols] if w else [],
        "kind": w.kind if w else None,
        "row_direction": w.row_direction if w else None,
        "col_direction": w.col_direction if w else None,
        "target": result.target,
        "achieved": result.achieved,
        "met_target": result.met_target,
        "guaranteed": False,
        "stages": [f"{name}: {detail}" for name, detail in result.stages],
    }
    if result.bottleneck:
        payload["bottleneck"] = result.bottleneck
    return payload


def _read_text(path: str) -> str:
    """The file decoded as UTF-8, newlines as written: meaningful_lines splits CRLF and CR too."""
    try:
        with open(path, "rb") as file:
            return file.read().decode()
    except OSError as exc:
        raise FormatError(0, f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise FormatError(line, f"{path} is not {exc.encoding} text") from None


def _write_lines(path: Path, lines) -> None:
    """Write text lines to path as open(path, "w") does, but replace a plain file, not truncate.

    Truncating a file written moments ago can stall for tens of milliseconds
    (ext4 mounted with discard); creating it anew does not. So an existing
    regular file with one link that the caller may write is unlinked and
    created again with its permission bits. A missing path, a symlink, a
    hard-linked or special file, a refused unlink or a lost O_EXCL race is
    written through open(path, "w"), with that call's errors.
    """
    out = None
    try:
        old = os.lstat(path)
        if stat.S_ISREG(old.st_mode) and old.st_nlink == 1 and os.access(path, os.W_OK):
            os.unlink(path)
            mode = old.st_mode & 0o777
            out = open(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode), "w")
            os.fchmod(out.fileno(), mode)  # os.open's mode passed through the umask
    except OSError:
        pass
    if out is None:
        out = open(path, "w")
    with out:
        out.writelines(lines)


def cmd_find(args) -> int:
    m = parse_matrix(_read_text(args.input))
    finder = extraction.find_row_monotone if args.kind == "row" else extraction.find_monotone
    result = finder(m, args.n, mode=args.mode, fallback_budget=args.budget)
    payload = _witness_payload(result)
    if args.output:  # written first, so a failed write prints no payload
        _write_lines(Path(args.output), [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
    _emit(payload, args.format)
    return EXIT_OK if result.met_target else EXIT_SHORTFALL


def cmd_witness(args) -> int:
    if args.materialize and args.t > witness_mod.MAX_MATERIALIZE_T:
        raise MonomatError(f"refusing to materialize beyond t={witness_mod.MAX_MATERIALIZE_T}")
    sm = witness_mod.sample_sign_matrix(
        args.d, args.t, args.n, args.s, seed=args.seed, max_attempts=args.max_attempts
    )
    w = witness_mod.build_witness(sm)
    report = witness_mod.verify_witness(w, args.n, max_col_subsets=args.budget)

    sign_path = Path(f"{args.output_prefix}.signs")
    witness_path = Path(f"{args.output_prefix}.witness")
    _write_lines(sign_path, [witness_mod.format_sign_file(sm, args.seed)])
    _write_lines(witness_path, [witness_mod.format_witness_file(w, args.seed)])
    written = [str(sign_path), str(witness_path)]
    if args.materialize:
        matrix_path = Path(f"{args.output_prefix}.matrix")
        _write_lines(matrix_path, w.dense_lines())
        written.append(str(matrix_path))

    payload = {
        "d": args.d,
        "t": args.t,
        "n": args.n,
        "s": args.s,
        "seed": args.seed,
        "generator": witness_mod.GENERATOR,
        "columns": w.cols,
        "verdict": report.verdict,
        "check_mode": report.mode,
        "coverage": report.coverage,
        "files": written,
    }
    _emit(payload, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    lines = list(meaningful_lines(_read_text(args.input)))
    try:
        m, w = parse_matrix_lines(lines), None
    except FormatError:
        # parse_matrix refuses every sign row and every 'witness t=' header, so
        # only a file it refuses can be a witness or sign file.
        w = witness_mod.parse_witness_or_sign_lines(lines)
        if w is None:
            raise
    run_structural = args.structural or not args.oracle
    run_oracle = args.oracle or not args.structural

    payload: dict = {"input": args.input, "n": args.n, "checks": []}

    def skip_oracle(reason: str):
        print(f"oracle check skipped: {reason}", file=sys.stderr)
        payload["oracle"] = "skipped"

    if w is None:
        if args.structural:
            raise MonomatError("the structural check needs a witness or sign file")
    else:
        limit = witness_mod.MAX_MATERIALIZE_T
        # The oracle holds the whole d x 2^t matrix, so it is refused past 2^22 entries.
        if run_oracle and (w.t > limit or w.rows << w.t > 1 << 22):
            need = f"t <= {limit}" if w.t > limit else "d * 2^t <= 2^22 entries"
            if args.oracle:
                raise MonomatError(f"oracle check needs {need} to materialize")
            skip_oracle(f"it needs {need} to materialize")
            run_oracle = False
        if run_structural:
            report = witness_mod.verify_witness(w, args.n, max_col_subsets=args.budget)
            payload["checks"].append("structural")
            payload["structural"] = report.verdict
            payload["check_mode"] = report.mode
            payload["coverage"] = report.coverage
            payload["clique_bound"] = report.clique_bound
            if report.verdict == "FAIL":
                rows, ranks, direction = witness_mod.structural_counterexample(w, report)
                payload["counterexample"] = {
                    "rows": [r + 1 for r in rows],
                    "cols": list(ranks[: args.n]),
                    "kind": "row-monotone",
                    "row_direction": direction,
                }
        if run_oracle:
            m = w.materialize()

    if run_oracle:
        try:
            found = oracle.brute_force_row_monotone(
                m, args.n, oracle.SearchBudget(args.budget, args.budget)
            )
        except BudgetExceededError as exc:
            if args.oracle or w is None:  # the oracle is asked for or is the only check
                raise
            skip_oracle(f"search truncated: {exc}")
        else:
            payload["checks"].append("oracle")
            payload["oracle"] = "absent" if found is None else "found"
            if found is not None and "counterexample" not in payload:
                payload["counterexample"] = {
                    "rows": [r + 1 for r in found.rows],
                    "cols": [c + 1 for c in found.cols],
                    "kind": found.kind,
                    "row_direction": found.row_direction,
                }
    _emit(payload, args.format)
    return EXIT_COUNTEREXAMPLE if "counterexample" in payload else EXIT_OK


def cmd_oracle(args) -> int:
    m = parse_matrix(_read_text(args.input))
    finder = (
        oracle.brute_force_row_monotone if args.kind == "row" else oracle.brute_force_monotone
    )
    found = finder(m, args.n, oracle.SearchBudget(args.budget, args.budget))
    payload: dict = {"input": args.input, "n": args.n, "kind": args.kind}
    if found is None:
        payload["result"] = "absent"
    else:
        payload["result"] = "found"
        payload["rows"] = [r + 1 for r in found.rows]
        payload["cols"] = [c + 1 for c in found.cols]
        payload["row_direction"] = found.row_direction
        if found.col_direction:
            payload["col_direction"] = found.col_direction
    _emit(payload, args.format)
    return EXIT_OK


def _random_distinct_rows(rng: random.Random, d: int, count: int) -> Matrix:
    """d x count matrix whose columns have pairwise distinct values in every row."""
    return Matrix.from_rows(rng.sample(range(1, 10 * count + 1), count) for _ in range(d))


def _refuse_beyond_2_20(lemma: str, count: int, what: str = "values"):
    """Refuse a lemma input of more than 2^20 values (or subsets) before drawing any."""
    if count > 1 << 20:
        raise MonomatError(f"lemma {lemma} would build more than 2^20 {what}")


def _lemma_split(args, rng) -> dict:
    d, n_cols = args.d, args.N
    if n_cols < 2:
        raise MonomatError("lemma 3.1 needs --N >= 2")
    _refuse_beyond_2_20("3.1", d * n_cols)
    matrix = _random_distinct_rows(rng, d, n_cols)
    sign, first, second = extraction.bipartite_split(matrix)
    bound = -(-n_cols // (1 << (d + 1)))
    ok = len(first) == len(second) >= bound and first[-1] < second[0]
    # Tie-free values: sign_diff(a, b) == sign on all of A x B exactly when each
    # row separates the halves in its sign's direction.
    ok = ok and all(
        max(row[i] for i in first) < min(row[j] for j in second)
        if direction > 0
        else min(row[i] for i in first) > max(row[j] for j in second)
        for direction, row in zip(sign, matrix.entries)
    )
    regime = n_cols % (1 << (d + 1)) == 0
    return {
        "lemma": "bipartite split",
        "d": d,
        "N": n_cols,
        "sign": sign_str(sign),
        "half_size": len(first),
        "required": bound,
        "regime": regime,
        "check": "OK" if ok else "FAIL",
    }


def _lemma_tree(args, rng) -> dict:
    d, m = args.d, args.m
    # Past 2^20 columns the input is too large at any d, so the shift stops at 21.
    n_cols = args.N or 1 << min(m * (d + 1), 21)
    _refuse_beyond_2_20("3.2", d * n_cols)
    matrix = _random_distinct_rows(rng, d, n_cols)
    tree, cols = extraction.tree_like_subsequence(matrix, m)
    ok = len(cols) == 1 << m and (
        extraction.is_binary_tree_like(submatrix(matrix, range(matrix.rows), cols)) == tree
    )
    return {
        "lemma": "tree-like subsequence",
        "d": d,
        "m": m,
        "N": n_cols,
        "length": len(cols),
        "regime": n_cols.bit_length() > m * (d + 1),
        "check": "OK" if ok else "FAIL",
    }


def _lemma_perfect(args, rng) -> dict:
    d, m, target = args.d, args.m, args.t
    _refuse_beyond_2_20("3.3", d * ((1 << min(m, 21)) - 1))
    labels = {}
    for depth in range(m):
        for pos in range(1, (1 << depth) + 1):
            labels[(depth, pos)] = tuple(1 - 2 * rng.getrandbits(1) for _ in range(d))
    tree = trees.LabeledBinaryTree(height=m, dim=d, labels=labels)
    leaf_set = extraction.perfect_leafset_extract(tree, target)
    ok = len(leaf_set) == 1 << target and trees.is_perfect_leafset(tree, leaf_set)
    return {
        "lemma": "perfect leaf set",
        "d": d,
        "m": m,
        "target_height": target,
        "leaves": list(leaf_set),
        "regime": (1 << m) >= ((1 << (d + 1)) * m) ** target,
        "check": "OK" if ok else "FAIL",
    }


def _lemma_block(args, rng) -> dict:
    d, t, n, s = args.d, args.t, args.n, args.s
    _refuse_beyond_2_20("2.4", d * t)
    # The tally keeps up to C(t, j) column subsets at depth j <= s. Once t > 20
    # the terms j <= 20 alone pass 2^20, so the sum stops there.
    subsets = sum(math.comb(t, j) for j in range(1, min(s, t, 20) + 1))
    _refuse_beyond_2_20("2.4", subsets, "column subsets")
    sm = SignMatrix(
        tuple(tuple(1 if rng.getrandbits(1) else -1 for _ in range(t)) for _ in range(d))
    )
    block = extraction.monochromatic_submatrix(sm, n, s)
    rows, cols, sign = block or ((), (), None)
    ok = block is not None and len(rows) == n and len(cols) == s and all(
        sm.entries[a][j] == sign for a in rows for j in cols
    )
    return {
        "lemma": "monochromatic block",
        "d": d,
        "t": t,
        "n": n,
        "s": s,
        "found": block is not None,
        "rows": [a + 1 for a in rows],
        "cols": [j + 1 for j in cols],
        "sign": sign_str((sign,)) if block else None,
        "regime": t >= 4 * s * s and d >= 4 * n * (1 << s),
        "check": "OK" if ok else "FAIL",
    }


def _lemma_levels(args, rng) -> dict:
    m = args.m
    depths = args.Z
    # The induced tree is quadratic in its 2^|Z| leaves, and a leaf number has m bits.
    if m > 20 or len(set(depths)) > 10:
        raise MonomatError("lemma 2.3 needs --m <= 20 and at most 10 distinct depths in --Z")
    leaf_set = trees.levels_leafset(m, depths)
    induced = trees.induced_subtree(m, leaf_set)
    ok = (
        len(leaf_set) == 1 << len(set(depths))
        and induced.perfect_height() == len(set(depths))
        and all(v[0] in set(depths) for v in induced.internal_vertices())
    )
    return {
        "lemma": "depth-set leaf selection",
        "m": m,
        "Z": sorted(set(depths)),
        "leaves": list(leaf_set),
        "regime": True,
        "check": "OK" if ok else "FAIL",
    }


_LEMMAS = {
    "3.1": _lemma_split,
    "3.2": _lemma_tree,
    "3.3": _lemma_perfect,
    "2.4": _lemma_block,
    "2.3": _lemma_levels,
}


def cmd_lemma(args) -> int:
    rng = random.Random(args.seed)
    runner = _LEMMAS[args.id]
    payload = runner(args, rng)
    payload["seed"] = args.seed
    payload["generator"] = witness_mod.GENERATOR
    _emit(payload, args.format)
    if payload["check"] != "OK":
        return EXIT_INTERNAL if payload.get("regime") else EXIT_SHORTFALL
    return EXIT_OK


def positive_int(text: str) -> int:
    """argparse type for sizes and budgets: 0 exits 2 like any other bad argument."""
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type for lemma sizes where 0 is meaningful (--N 0 means auto)."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def int_list(text: str) -> tuple[int, ...]:
    """argparse type for a comma-separated list of integers; '' is the empty list."""
    return tuple(int(z) for z in text.split(",")) if text else ()


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls in the process."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subparsers by command name (its subparsers' choices)."""
    parser = argparse.ArgumentParser(
        prog="monomat",
        description="Find monotone submatrices, build lower-bound witnesses, verify both.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_find = sub.add_parser("find", help="run the extraction pipeline on a matrix file")
    p_find.add_argument("input", help="matrix file")
    p_find.add_argument("--n", type=positive_int, required=True, help="target submatrix size")
    p_find.add_argument("--kind", choices=("row", "full"), default="row")
    p_find.add_argument("--mode", choices=("best-effort", "guaranteed"), default="best-effort")
    p_find.add_argument("--budget", type=positive_int, default=200_000, help="fallback space cap")
    p_find.add_argument("--output", help="write the witness JSON here")
    common(p_find)
    p_find.set_defaults(func=cmd_find)

    p_wit = sub.add_parser("witness", help="sample a verified lower-bound witness")
    for flag in ("--d", "--t", "--n", "--s"):
        p_wit.add_argument(flag, type=positive_int, required=True)
    p_wit.add_argument("--max-attempts", type=positive_int, default=1000)
    p_wit.add_argument("--budget", type=positive_int, default=10**6, help="column subsets tallied")
    p_wit.add_argument("--output-prefix", default="witness", help="prefix for output files")
    p_wit.add_argument("--materialize", action="store_true", help="also write the dense matrix")
    common(p_wit)
    p_wit.set_defaults(func=cmd_witness)

    p_ver = sub.add_parser("verify", help="check a witness or matrix file for n x n submatrices")
    p_ver.add_argument("input", help="witness, sign-matrix, or matrix file")
    p_ver.add_argument("--n", type=positive_int, required=True)
    p_ver.add_argument("--structural", action="store_true", help="run only the structural check")
    p_ver.add_argument("--oracle", action="store_true", help="run only the brute-force check")
    p_ver.add_argument("--budget", type=positive_int, default=10**6, help="subsets searched")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_lem = sub.add_parser("lemma", help="demonstrate one constructive step on a random instance")
    p_lem.add_argument("id", choices=sorted(_LEMMAS))
    p_lem.add_argument("--d", type=positive_int, default=1)
    p_lem.add_argument("--N", type=non_negative_int, default=0)
    p_lem.add_argument("--m", type=non_negative_int, default=3)
    p_lem.add_argument("--t", type=non_negative_int, default=2)
    p_lem.add_argument("--n", type=positive_int, default=3)
    p_lem.add_argument("--s", type=non_negative_int, default=2)
    p_lem.add_argument("--Z", type=int_list, default="", help="comma-separated depths, lemma 2.3")
    common(p_lem)
    p_lem.set_defaults(func=cmd_lemma)

    p_orc = sub.add_parser("oracle", help="exhaustive search for an n x n submatrix")
    p_orc.add_argument("input", help="matrix file")
    p_orc.add_argument("--n", type=positive_int, required=True)
    p_orc.add_argument("--kind", choices=("row", "full"), default="row")
    p_orc.add_argument("--budget", type=positive_int, default=10**7)
    common(p_orc)
    p_orc.set_defaults(func=cmd_oracle)

    return parser, sub.choices


# The exit-code contract: (exception type, stderr prefix, exit code); the
# first row that matches the raised exception wins.
EXIT_TABLE = (
    (FormatError, "input error", EXIT_INPUT),
    (OSError, "input error", EXIT_INPUT),
    (BudgetExceededError, "search truncated", EXIT_SHORTFALL),
    (GuaranteeUnmetError, "refused", EXIT_SHORTFALL),
    (ExhaustedAttemptsError, "sampling failed", EXIT_SAMPLING),
    (InternalCheckError, "internal guarantee breach", EXIT_INTERNAL),
    (MonomatError, "error", EXIT_INPUT),
)


def main(argv=None) -> int:
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in commands:
        # The top-level parser would hand every argument after the command to
        # the command's parser and report what is left over; this skips its
        # own scan of the argv.
        args, extra = commands[argv[0]].parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MonomatError, OSError) as exc:
        prefix, code = next((p, c) for kind, p, c in EXIT_TABLE if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
