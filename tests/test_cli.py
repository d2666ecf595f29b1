"""Command-line contract: exit codes, artifacts, round trips, determinism."""

import io
import json
import os
import random
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomat import cli
from monomat.cli import main
from monomat.errors import InternalCheckError, MonomatError
from monomat.matrix import format_matrix, parse_matrix
from monomat.witness import (
    build_witness,
    parse_witness_or_signs,
    sample_sign_matrix,
)

INCREASING_4X4 = "4 4\n1 2 3 4\n5 6 7 8\n9 10 11 12\n13 14 15 16\n"


@pytest.fixture
def inc_matrix(tmp_path):
    path = tmp_path / "inc.txt"
    path.write_text(INCREASING_4X4)
    return path


def run(args):
    return main([str(a) for a in args])


def test_find_trivial_increasing(inc_matrix, tmp_path, capsys):
    out = tmp_path / "w.json"
    code = run(["find", inc_matrix, "--n", 2, "--format", "json", "--output", out])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["rows"] == [1, 2]
    assert payload["cols"] == [1, 2]
    assert payload["met_target"] is True
    assert payload["guaranteed"] is False
    assert payload["stages"]
    capsys.readouterr()


def test_find_shortfall_exit_code(tmp_path, capsys):
    # 1-row matrix cannot host a 2x2 witness
    path = tmp_path / "thin.txt"
    path.write_text("1 4\n4 1 3 2\n")
    assert run(["find", path, "--n", 2]) == 3
    out = capsys.readouterr().out
    assert "bottleneck" in out


@pytest.mark.parametrize("kind", ["row", "full"])
def test_find_huge_n_settles_at_once(kind, tmp_path, capsys):
    # The block search starts at the largest size the matrix can hold, not at n.
    path = tmp_path / "m.txt"
    path.write_text("3 4\n1 3 2 4\n4 2 3 1\n2 2 1 3\n")
    start = time.perf_counter()
    assert run(["find", path, "--n", 10**9, "--kind", kind, "--format", "json"]) == 3
    assert time.perf_counter() - start < 5
    payload = json.loads(capsys.readouterr().out)
    assert (payload["target"], payload["bottleneck"]) == (10**9, "matrix size")


def test_find_missing_file_exit_2(capsys):
    assert run(["find", "no-such-file.txt", "--n", 2]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["find", "oracle", "verify"])
def test_non_utf8_input_exit_2(command, tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"2 2\n1 2\n3 \xe9\n")
    assert run([command, path, "--n", 1]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "Traceback" not in err
    # Past the first 8 KiB, as past any read buffer, the byte still names its own line.
    padding = b"# padding to push the bad byte past 8 KiB\n" * 300
    path.write_bytes(padding + b"2 2\n1 2\n3 \xe9\n")
    assert len(padding) > 8192
    assert run([command, path, "--n", 1]) == 2
    err = capsys.readouterr().err
    assert "line 303" in err and "Traceback" not in err


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_newline_style_does_not_change_output(newline, tmp_path, monkeypatch, capsys):
    # Each copy keeps the LF file's name in its own directory, because oracle
    # and verify print the input path.
    lf, other = tmp_path / "lf", tmp_path / "other"
    lf.mkdir()
    other.mkdir()
    monkeypatch.chdir(lf)
    with redirect_stdout(io.StringIO()):
        assert run(["witness", "--d", 6, "--t", 5, "--n", 3, "--s", 2, "--seed", 1,
                    "--output-prefix", "w"]) == 0
    rng = random.Random(5)
    rows = [" ".join(str(rng.randrange(4)) for _ in range(6)) for _ in range(5)]
    (lf / "m.txt").write_text("# ties\n\n5 6\n" + "\n".join(rows) + "\n")
    (lf / "bad.txt").write_text("# comment\n2 2\n\n1 2\n3 oops\n")
    names = ("m.txt", "w.witness", "w.signs", "bad.txt")
    for name in names:
        (other / name).write_bytes((lf / name).read_bytes().replace(b"\n", newline))
    argvs = [
        [command, name, "--n", n, *extra]
        for name in names
        for n in ("2", "3")
        for command, extra in (
            ("find", ["--kind", "row"]), ("find", ["--kind", "full"]),
            ("oracle", []), ("verify", []),
        )
    ]
    for argv in argvs:
        outcomes = []
        for folder in (lf, other):
            monkeypatch.chdir(folder)
            code = main(argv)
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1], argv


def test_find_output_to_a_directory_exit_2(inc_matrix, tmp_path, capsys):
    assert run(["find", inc_matrix, "--n", 2, "--output", tmp_path]) == 2
    # The failed write comes before any payload, and open(path, "w") names the error.
    assert capsys.readouterr() == ("", f"input error: [Errno 21] Is a directory: '{tmp_path}'\n")


def test_find_malformed_input_names_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2\n3 oops\n")
    assert run(["find", path, "--n", 1]) == 2
    assert "line 3" in capsys.readouterr().err


def test_find_guaranteed_refusal(inc_matrix, capsys):
    # preconditions are checked before anything else, even on trivial input
    assert run(["find", inc_matrix, "--n", 3, "--mode", "guaranteed"]) == 3
    assert "refused" in capsys.readouterr().err
    path = inc_matrix.parent / "mixed.txt"
    path.write_text("2 2\n1 2\n2 1\n")
    assert run(["find", path, "--n", 2, "--mode", "guaranteed"]) == 3
    err = capsys.readouterr().err
    assert "refused" in err and "2^" in err


def test_witness_command_end_to_end(tmp_path, capsys):
    prefix = tmp_path / "w"
    code = run(
        ["witness", "--d", 6, "--t", 5, "--n", 3, "--s", 2, "--seed", 1,
         "--output-prefix", prefix, "--materialize", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "PASS"
    assert payload["columns"] == 32

    # artifacts parse back to the same objects
    sm = sample_sign_matrix(6, 5, 3, 2, seed=1)
    w = parse_witness_or_signs((tmp_path / "w.witness").read_text())
    assert w.signs == sm
    dense = parse_matrix((tmp_path / "w.matrix").read_text())
    assert dense == build_witness(sm).materialize()


def test_witness_impossible_params_exit_4(tmp_path, capsys):
    code = run(
        ["witness", "--d", 2, "--t", 2, "--n", 1, "--s", 1,
         "--output-prefix", tmp_path / "x", "--max-attempts", 10]
    )
    assert code == 4
    capsys.readouterr()


def test_witness_determinism_byte_identical(tmp_path, capsys):
    a_prefix = tmp_path / "a"
    b_prefix = tmp_path / "b"
    for prefix in (a_prefix, b_prefix):
        assert run(
            ["witness", "--d", 6, "--t", 5, "--n", 3, "--s", 2, "--seed", 9,
             "--output-prefix", prefix, "--materialize"]
        ) == 0
    for suffix in (".signs", ".witness", ".matrix"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()
    capsys.readouterr()


def test_witness_materialize_streams_rows(tmp_path, capsys):
    # The 256 rows of text (5.5 MB) far outweigh the decimal table and one row
    # (about 0.5 MB together). Traced peaks: 0.6 MB streamed, 5.8 MB with the
    # lines gathered into a list before the write.
    argv = ["witness", "--d", 256, "--t", 12, "--n", 128, "--s", 7,
            "--output-prefix", tmp_path / "w", "--materialize"]
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"
    with (tmp_path / "w.matrix").open() as f:
        assert next(f) == "256 4096\n" and sum(1 for _ in f) == 256


WITNESS_6X32 = ["witness", "--d", 6, "--t", 5, "--n", 3, "--s", 2, "--seed", 9, "--materialize"]
SUFFIXES = (".signs", ".witness", ".matrix")


def _fresh_witness_files(tmp_path, monkeypatch, capsys):
    """Stdout and file bytes of WITNESS_6X32 on prefix w in a folder of its own."""
    folder = tmp_path / "fresh"
    folder.mkdir()
    monkeypatch.chdir(folder)
    assert run([*WITNESS_6X32, "--output-prefix", "w"]) == 0
    monkeypatch.chdir(tmp_path)
    return capsys.readouterr().out, {s: (folder / f"w{s}").read_bytes() for s in SUFFIXES}


def test_witness_rewrite_is_byte_identical_on_a_new_inode(tmp_path, monkeypatch, capsys):
    out, files = _fresh_witness_files(tmp_path, monkeypatch, capsys)
    assert run([*WITNESS_6X32, "--output-prefix", "w"]) == 0
    with open("w.matrix", "rb") as old:  # held open, so its inode number is not reused
        assert run([*WITNESS_6X32, "--output-prefix", "w"]) == 0
        assert os.fstat(old.fileno()).st_nlink == 0 and old.read() == files[".matrix"]
    assert capsys.readouterr().out == out * 2
    assert {s: (tmp_path / f"w{s}").read_bytes() for s in SUFFIXES} == files


def test_witness_writes_through_symlinks(tmp_path, monkeypatch, capsys):
    _, files = _fresh_witness_files(tmp_path, monkeypatch, capsys)
    (tmp_path / "real.matrix").write_text("old\n")
    os.symlink("real.matrix", "w.matrix")
    os.symlink("made.witness", "w.witness")  # dangling: open("w") creates its target
    assert run([*WITNESS_6X32, "--output-prefix", "w"]) == 0
    capsys.readouterr()
    assert os.path.islink("w.matrix") and os.path.islink("w.witness")
    assert (tmp_path / "real.matrix").read_bytes() == files[".matrix"]
    assert (tmp_path / "made.witness").read_bytes() == files[".witness"]


def test_witness_writes_through_hard_links(tmp_path, monkeypatch, capsys):
    _, files = _fresh_witness_files(tmp_path, monkeypatch, capsys)
    (tmp_path / "copy.signs").write_text("old\n")
    os.link("copy.signs", "w.signs")
    assert run([*WITNESS_6X32, "--output-prefix", "w"]) == 0
    capsys.readouterr()
    assert os.path.samefile("w.signs", "copy.signs")
    assert (tmp_path / "copy.signs").read_bytes() == files[".signs"]


@pytest.mark.parametrize("mode", [0o600, 0o664], ids=oct)
def test_rewritten_output_keeps_its_permission_bits(mode, inc_matrix, tmp_path, capsys):
    out = tmp_path / "w.json"
    out.write_text("old\n")
    out.chmod(mode)
    umask = os.umask(0o022)  # would take the group's write bit from a new file
    try:
        assert run(["find", inc_matrix, "--n", 2, "--output", out]) == 0
    finally:
        os.umask(umask)
    capsys.readouterr()
    assert out.stat().st_mode & 0o777 == mode
    assert json.loads(out.read_text())["cols"] == [1, 2]


def test_output_the_caller_may_not_write_is_not_unlinked(inc_matrix, tmp_path, monkeypatch, capsys):
    # The suite may run as root, which writes past mode bits; so access is refused here.
    out = tmp_path / "w.json"
    out.write_text("old\n")
    monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    with out.open() as old:
        assert run(["find", inc_matrix, "--n", 2, "--output", out]) == 0
        assert os.path.samestat(os.fstat(old.fileno()), out.stat())
        assert json.loads(old.read())["cols"] == [1, 2]
    capsys.readouterr()


def test_witness_output_in_a_missing_folder_keeps_its_message(tmp_path, capsys):
    prefix = tmp_path / "missing" / "x"
    assert run(["witness", "--d", 1, "--t", 1, "--n", 2, "--s", 1, "--output-prefix", prefix]) == 2
    err = f"input error: [Errno 2] No such file or directory: '{prefix}.signs'\n"
    assert capsys.readouterr() == ("", err)


def test_verify_pass_witness_exit_0(tmp_path, capsys):
    prefix = tmp_path / "w"
    run(["witness", "--d", 6, "--t", 5, "--n", 3, "--s", 2, "--seed", 1,
         "--output-prefix", prefix])
    assert run(["verify", tmp_path / "w.witness", "--n", 3]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "absent" in out


def test_verify_constant_sign_matrix_exit_5(tmp_path, capsys):
    path = tmp_path / "bad.signs"
    path.write_text("2 2\n+ +\n+ +\n")
    assert run(["verify", path, "--n", 2]) == 5
    out = capsys.readouterr().out
    assert "counterexample" in out


def test_verify_matrix_counterexample(inc_matrix, capsys):
    assert run(["verify", inc_matrix, "--n", 2]) == 5
    capsys.readouterr()


def test_verify_structural_is_exhaustive_within_small_budget(tmp_path, capsys):
    # C(30, 10) row sets, far more than the budget; the check tallies column subsets instead.
    rows = "\n".join("+ -" for _ in range(30))
    path = tmp_path / "big.signs"
    path.write_text(f"30 2\n{rows}\n")
    assert run(["verify", path, "--n", 10, "--structural", "--budget", 50, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["structural"] == "PASS"
    assert payload["check_mode"] == "exhaustive"
    assert payload["coverage"] == 1.0


def test_verify_structural_finds_block_among_400_rows(tmp_path, capsys):
    rows = ["+ -" if a % 2 == 0 else "- +" for a in range(397)] + ["+ +"] * 3
    path = tmp_path / "alternating.witness"
    path.write_text("witness t=2\n400 2\n" + "\n".join(rows) + "\n")
    assert run(["verify", path, "--n", 3, "--structural", "--format", "json"]) == 5
    payload = json.loads(capsys.readouterr().out)
    assert payload["structural"] == "FAIL"
    assert payload["counterexample"]["rows"] == [398, 399, 400]


def test_verify_structural_budget_never_passes(tmp_path, capsys):
    path = tmp_path / "bad.signs"
    path.write_text("3 2\n+ +\n+ +\n+ +\n")
    with pytest.raises(SystemExit) as exc:
        run(["verify", path, "--n", 2, "--structural", "--budget", 0])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "Traceback" not in captured.err
    assert run(["verify", path, "--n", 2, "--structural", "--budget", 1]) == 3
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "budget 1 exhausted" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["find", "{inc}", "--n", "0"],
        ["find", "{inc}", "--n", "2", "--budget", "0"],
        ["verify", "{inc}", "--n", "0"],
        ["verify", "{inc}", "--n", "2", "--budget", "-1"],
        ["oracle", "{inc}", "--n", "2", "--budget", "0"],
        ["oracle", "{inc}", "--n", "0"],
        ["witness", "--d", "0", "--t", "2", "--n", "2", "--s", "1"],
        ["witness", "--d", "2", "--t", "0", "--n", "2", "--s", "1"],
        ["witness", "--d", "2", "--t", "2", "--n", "2", "--s", "0"],
        ["witness", "--d", "2", "--t", "2", "--n", "2", "--s", "1", "--max-attempts", "0"],
        ["witness", "--d", "2", "--t", "2", "--n", "2", "--s", "1", "--budget", "0"],
        ["witness", "--d", "x", "--t", "2", "--n", "2", "--s", "1"],
        ["lemma", "2.3", "--Z", "1,x"],
        ["lemma", "3.2", "--m", "-1"],
        ["lemma", "2.3", "--m", "-1"],
        ["lemma", "2.4", "--n", "0"],
        ["lemma", "2.4", "--s", "-1"],
        ["lemma", "3.3", "--m", "2", "--t", "-1"],
        ["lemma", "3.1", "--d", "-1", "--N", "4"],
        ["lemma", "3.1", "--N", "-1"],
    ],
)
def test_non_positive_sizes_exit_2(argv, inc_matrix, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run([a.format(inc=inc_matrix) for a in argv])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not list(tmp_path.glob("witness.*"))


@pytest.mark.parametrize(
    "argv",
    [
        ["lemma", "3.2", "--d", "1", "--m", "11"],
        ["lemma", "3.2", "--N", str((1 << 20) + 1)],
        ["lemma", "3.3", "--m", "21"],
        ["lemma", "3.1", "--d", "200000", "--N", "8"],
        ["lemma", "3.2", "--d", "3", "--m", "5"],
        ["lemma", "3.2", "--d", "2", "--N", str(1 << 19 | 1)],
        ["lemma", "3.3", "--d", "2", "--m", "20"],
        ["lemma", "2.4", "--d", "1025", "--t", "1024"],
        ["lemma", "2.4", "--d", "1", "--t", "44", "--n", "1", "--s", "7"],
        ["lemma", "2.4", "--d", "1", "--t", "44", "--n", "1", "--s", "5"],
    ],
)
def test_lemma_refuses_more_than_2_20_before_allocating(argv, monkeypatch, capsys):
    class NoDraws(random.Random):
        def sample(self, *args, **kwargs):
            raise AssertionError("the lemma started building its input")

        getrandbits = sample

    # Without the refusal the lemma would draw 2^21 or more random values.
    monkeypatch.setattr(cli, "random", SimpleNamespace(Random=NoDraws))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "more than 2^20" in captured.err


def test_lemma_at_2_20_values_still_runs(capsys):
    assert run(["lemma", "2.4", "--d", "1024", "--t", "1024", "--n", "1", "--s", "0"]) == 0
    assert "check: OK" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["lemma", "2.3", "--m", "21", "--Z", "0,1"],
        ["lemma", "2.3", "--m", "100000000", "--Z", "0,1"],
        ["lemma", "2.3", "--m", "20", "--Z", ",".join(map(str, range(11)))],
    ],
)
def test_lemma_2_3_refuses_large_trees_before_building(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the lemma started building its leaf set")

    monkeypatch.setattr(cli.trees, "levels_leafset", refuse)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "lemma 2.3 needs" in captured.err


def test_lemma_2_3_counts_distinct_depths(capsys):
    assert run(["lemma", "2.3", "--m", "4", "--Z", ",".join(["1"] * 12 + ["3"])]) == 0
    assert "leaves: 1 2 5 6" in capsys.readouterr().out


def test_verify_structural_on_matrix_file_exit_2(inc_matrix, capsys):
    assert run(["verify", inc_matrix, "--n", 2, "--structural"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "witness or sign file" in captured.err


def test_witness_materialize_beyond_t20_refused_before_writing(tmp_path, capsys):
    code = run(["witness", "--d", 3, "--t", 21, "--n", 4, "--s", 2, "--materialize",
                "--output-prefix", tmp_path / "x"])
    assert code == 2
    assert "t=20" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def wide_witness(tmp_path, rows):
    """A t = 21 witness file, too wide for the oracle to materialize."""
    path = tmp_path / "wide.witness"
    body = "\n".join(" ".join(row) for row in rows)
    path.write_text(f"witness t=21\n{len(rows)} 21\n{body}\n")
    return path


def test_verify_beyond_t20_reports_structural_verdict(tmp_path, capsys):
    alternating = [["+-"[(a + j) % 2] for j in range(21)] for a in range(3)]
    path = wide_witness(tmp_path, alternating)
    assert run(["verify", path, "--n", 4, "--format", "json"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["structural"] == "PASS"
    assert payload["checks"] == ["structural"]
    assert payload["oracle"] == "skipped"
    assert "t <= 20" in captured.err
    path = wide_witness(tmp_path, [["+"] * 21] * 4)
    assert run(["verify", path, "--n", 2, "--format", "json"]) == 5
    payload = json.loads(capsys.readouterr().out)
    assert (payload["structural"], payload["oracle"]) == ("FAIL", "skipped")
    assert payload["counterexample"]["rows"] == [1, 2]


def test_verify_oracle_only_beyond_t20_exit_2(tmp_path, capsys):
    path = wide_witness(tmp_path, [["+"] * 21] * 4)
    assert run(["verify", path, "--n", 2, "--oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "t <= 20" in captured.err


def test_verify_refuses_the_oracle_past_2_22_dense_entries(tmp_path, capsys):
    # 5 x 2^20 entries: t is within the limit, but d * 2^t is not.
    path = tmp_path / "tall.signs"
    path.write_text("5 20\n" + "".join("+-"[a % 2] * 20 + "\n" for a in range(5)))
    need = "d * 2^t <= 2^22 entries to materialize"
    assert run(["verify", path, "--n", 4, "--format", "json"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert (payload["checks"], payload["structural"], payload["oracle"]) == (
        ["structural"], "PASS", "skipped")
    assert captured.err == f"oracle check skipped: it needs {need}\n"
    assert run(["verify", path, "--n", 4, "--oracle"]) == 2
    assert capsys.readouterr() == ("", f"error: oracle check needs {need}\n")


def test_verify_keeps_the_structural_verdict_when_the_oracle_truncates(tmp_path, capsys):
    # C(2^11, 2) column pairs pass the default budget, so the oracle truncates
    # on the first row subset; the structural check is exact here.
    prefix = tmp_path / "w"
    argv = ["--d", 2, "--t", 11, "--n", 2, "--s", 1, "--seed", 211, "--output-prefix", prefix]
    assert run(["witness", *argv, "--materialize"]) == 0
    capsys.readouterr()
    truncated = "search truncated: column-subset budget 1000000 exhausted\n"
    assert run(["verify", f"{prefix}.signs", "--n", 2]) == 0
    captured = capsys.readouterr()
    assert captured.err == "oracle check skipped: " + truncated
    assert "structural: PASS\n" in captured.out and "oracle: skipped\n" in captured.out
    # The oracle asked for, or the only check of a numeric matrix: still exit 3.
    for path, flags in ((f"{prefix}.signs", ["--oracle"]), (f"{prefix}.matrix", [])):
        assert run(["verify", path, "--n", 2, *flags]) == 3
        assert capsys.readouterr() == ("", truncated)


def test_verify_reports_a_structural_fail_when_the_oracle_truncates(tmp_path, capsys):
    # The rows agree only on the last sign, so the oracle's first witness is
    # column pair (1, 1025), past a budget of 1000; the structural check FAILs.
    path = tmp_path / "fail.signs"
    path.write_text("2 11\n" + "+" * 11 + "\n" + "-" * 10 + "+\n")
    assert run(["verify", path, "--n", 2, "--budget", 1000, "--format", "json"]) == 5
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert (payload["checks"], payload["structural"], payload["oracle"]) == (
        ["structural"], "FAIL", "skipped")
    assert payload["counterexample"]["cols"] == [1, 1025]
    truncated = "search truncated: column-subset budget 1000 exhausted\n"
    assert captured.err == "oracle check skipped: " + truncated
    assert run(["verify", path, "--n", 2, "--budget", 1000, "--oracle"]) == 3


@pytest.mark.parametrize(
    "text, err",
    [
        ("witness t=2\n# generator mt19937 seed=0\n1 2\n+ x\n",
         "input error: line 4: bad sign entry 'x'\n"),
        ("# c\n\nwitness t=2\n1 2\n+ - +\n", "input error: line 5: expected 2 entries, found 3\n"),
        ("\n2 3\n+ - +\n+ x +\n", "input error: line 4: bad sign entry 'x'\n"),
        ("# only a comment\n\n", "input error: line 1: empty input file\n"),
    ],
)
def test_verify_witness_file_error_names_the_files_own_line(text, err, tmp_path, capsys):
    path = tmp_path / "bad.witness"
    path.write_text(text)
    assert run(["verify", path, "--n", 2]) == 2
    assert capsys.readouterr() == ("", err)


def test_witness_files_read_back_to_the_sampled_sign_matrix(tmp_path, capsys):
    assert run(["witness", "--d", 6, "--t", 5, "--n", 3, "--s", 2, "--seed", 9,
                "--output-prefix", tmp_path / "w"]) == 0
    capsys.readouterr()
    sm = sample_sign_matrix(6, 5, 3, 2, seed=9)
    for suffix in (".signs", ".witness"):
        lines = (tmp_path / f"w{suffix}").read_text().splitlines()
        assert sum(line[0] in "+-" for line in lines) == 6
        for sep in (" ", "", "\t"):  # spaced as written, compact, tab-separated
            rows = [line.replace(" ", sep) if line[0] in "+-" else line for line in lines]
            assert parse_witness_or_signs("\n".join(rows) + "\n").signs == sm


@pytest.mark.parametrize(
    "argv, message",
    [
        (["witness", "--d", 3, "--t", 21, "--n", 4, "--s", 2, "--materialize",
          "--output-prefix", "{out}/x"], "refusing to materialize beyond t=20"),
        (["verify", "{inc}", "--n", 2, "--structural"],
         "the structural check needs a witness or sign file"),
        (["verify", "{wide}", "--n", 2, "--oracle"], "oracle check needs t <= 20 to materialize"),
    ],
)
def test_refusals_go_through_the_exit_table(argv, message, inc_matrix, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    wide = wide_witness(tmp_path, [["+"] * 21] * 4)
    assert run([str(a).format(out=out, inc=inc_matrix, wide=wide) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not list(out.iterdir())


def test_verify_structural_parses_a_matrix_file_before_refusing(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2\n3 oops\n")
    assert run(["verify", path, "--n", 2, "--structural"]) == 2
    assert capsys.readouterr() == ("", "input error: line 3: bad value 'oops'\n")


def test_verify_reads_compact_and_spaced_sign_files_alike(tmp_path, capsys):
    results = []
    for name, body in (
        ("compact", "+-+\n-+-\n++-\n"),
        ("spaced", "+ - +\n- + -\n+ + -\n"),
        ("tabbed", "+\t-\t+\n-\t+\t-\n+ +\t-\n"),
    ):
        path = tmp_path / f"{name}.signs"
        path.write_text(f"3 3\n{body}")
        code = run(["verify", path, "--n", 2, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload.pop("input") == str(path)
        results.append((code, payload))
    assert results[0] == results[1] == results[2]
    assert results[0][0] == 5 and results[0][1]["checks"] == ["structural", "oracle"]


def test_verify_one_column_negative_matrix_stays_a_matrix(tmp_path, capsys):
    path = tmp_path / "neg.txt"
    path.write_text("2 1\n-5\n3\n")
    assert run(["verify", path, "--n", 1, "--format", "json"]) == 5
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"] == ["oracle"] and "structural" not in payload


def _raise_internal(*args, **kwargs):
    raise InternalCheckError("planted breach")


EXIT_ROWS = {
    "input error (FormatError)": (["find", "{bad}", "--n", 1], "input error: line 3", 2),
    "input error (OSError)": (
        ["witness", "--d", 1, "--t", 1, "--n", 2, "--s", 1, "--output-prefix", "{dir}/no/x"],
        "input error: [Errno 2]",
        2,
    ),
    "search truncated": (["oracle", "{dec}", "--n", 2, "--budget", 1], "search truncated: ", 3),
    "refused": (["find", "{inc}", "--n", 2, "--mode", "guaranteed"], "refused: ", 3),
    "sampling failed": (
        ["witness", "--d", 2, "--t", 1, "--n", 1, "--s", 1, "--max-attempts", 1,
         "--output-prefix", "{dir}/x"],
        "sampling failed: ",
        4,
    ),
    "internal guarantee breach": (["find", "{dec}", "--n", 2], "internal guarantee breach: ", 6),
    "error": (["lemma", "3.1", "--N", 1], "error: ", 2),
}


def test_exit_rows_cover_the_table():
    assert {(p.split(":")[0], code) for _, p, code in EXIT_ROWS.values()} == {
        (prefix, code) for _, prefix, code in cli.EXIT_TABLE
    }
    assert len(EXIT_ROWS) == len(cli.EXIT_TABLE)


@pytest.mark.parametrize("row", sorted(EXIT_ROWS))
def test_exit_code_table_row(row, inc_matrix, tmp_path, monkeypatch, capsys):
    (tmp_path / "bad.txt").write_text("2 2\n1 2\n3 oops\n")
    (tmp_path / "dec.txt").write_text("2 3\n1 2 3\n3 2 1\n")
    paths = {"bad": tmp_path / "bad.txt", "dec": tmp_path / "dec.txt", "inc": inc_matrix}
    if row == "internal guarantee breach":
        monkeypatch.setattr(cli.extraction, "find_row_monotone", _raise_internal)
    argv, prefix, code = EXIT_ROWS[row]
    argv = [str(a).format(dir=tmp_path, **paths) for a in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1


def test_oracle_rejects_underscore_in_value(tmp_path, capsys):
    # int() reads '1_0' as 10, which would make this matrix increasing
    path = tmp_path / "underscore.txt"
    path.write_text("2 2\n1 2\n3 1_0\n")
    assert run(["oracle", path, "--n", 2]) == 2
    captured = capsys.readouterr()
    assert "result" not in captured.out and "line 3" in captured.err


def test_lemma_commands(capsys):
    assert run(["lemma", "3.1", "--d", 2, "--N", 64, "--seed", 7]) == 0
    assert "required: 8" in capsys.readouterr().out
    assert run(["lemma", "2.3", "--m", 3, "--Z", "0,2"]) == 0
    assert "leaves: 1 2 5 6" in capsys.readouterr().out
    assert run(["lemma", "3.3", "--d", 1, "--m", 11, "--t", 2, "--seed", 1]) == 0
    assert "check: OK" in capsys.readouterr().out
    assert run(["lemma", "3.2", "--d", 1, "--m", 3, "--seed", 3]) == 0
    assert "length: 8" in capsys.readouterr().out
    assert run(["lemma", "2.4", "--d", 48, "--t", 16, "--n", 3, "--s", 2, "--seed", 5]) == 0
    capsys.readouterr()


# The block each pinned seed draws: 1-based rows, 1-based columns and sign.
_BLOCKS = {3: ([], [], None), 4: ([1, 2, 3], [2, 3], "-"), 1: ([1, 2, 3], [5, 10], "+")}


@pytest.mark.parametrize(
    "d,t,seed,found,regime,code",
    [(4, 3, 3, False, False, 3), (4, 3, 4, True, False, 0), (48, 16, 1, True, True, 0)],
)
def test_lemma_2_4_output_is_pinned(d, t, seed, found, regime, code, capsys):
    argv = ["lemma", "2.4", "--d", d, "--t", t, "--n", 3, "--s", 2, "--seed", seed]
    rows, cols, sign = _BLOCKS[seed]
    check = "OK" if found else "FAIL"
    assert run(argv) == code
    assert capsys.readouterr().out == (
        f"check: {check}\ncols: {' '.join(map(str, cols))}\nd: {d}\nfound: {found}\n"
        f"generator: mt19937\nlemma: monochromatic block\nn: 3\nregime: {regime}\n"
        f"rows: {' '.join(map(str, rows))}\ns: 2\nseed: {seed}\n"
        + (f"sign: {sign}\n" if found else "")  # text leaves out JSON's null
        + f"t: {t}\n"
    )
    assert run(argv + ["--format", "json"]) == code
    expected = dict(
        check=check, cols=cols, d=d, found=found, generator="mt19937",
        lemma="monochromatic block", n=3, regime=regime, rows=rows, s=2, seed=seed,
        sign=sign, t=t,
    )
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


_SPLIT = {"lemma": "bipartite split", "check": "OK", "generator": "mt19937"}
_TREE = {"lemma": "tree-like subsequence", "check": "OK", "generator": "mt19937"}


@pytest.mark.parametrize(
    "argv,payload,code",
    [
        (
            ["3.1", "--d", 2, "--N", 64, "--seed", 7],
            dict(_SPLIT, N=64, d=2, half_size=9, regime=True, required=8, seed=7, sign="++"),
            0,
        ),
        (
            ["3.1", "--d", 1, "--N", 17],
            dict(_SPLIT, N=17, d=1, half_size=5, regime=False, required=5, seed=0, sign="-"),
            0,
        ),
        (
            ["3.2", "--d", 1, "--m", 3, "--seed", 3],
            dict(_TREE, N=64, d=1, length=8, m=3, regime=True, seed=3),
            0,
        ),
        (["3.2", "--d", 2, "--m", 3, "--N", 40], None, 2),
    ],
    ids=["3.1 in regime", "3.1 out of regime", "3.2", "3.2 construction died"],
)
def test_lemma_3_1_and_3_2_output_is_pinned(argv, payload, code, capsys):
    for fmt in ("text", "json"):
        assert run(["lemma", *argv, "--format", fmt]) == code
        captured = capsys.readouterr()
        if payload is None:
            expected = ("", "error: construction died at height 2, target 3\n")
        elif fmt == "text":
            expected = ("".join(f"{key}: {payload[key]}\n" for key in sorted(payload)), "")
        else:
            expected = (json.dumps(payload, indent=2, sort_keys=True) + "\n", "")
        assert (captured.out, captured.err) == expected


def test_lemma_3_1_checks_a_large_split_quickly(capsys):
    # 2^30 (first, second) pairs: a pairwise check would not finish in time.
    start = time.perf_counter()
    assert run(["lemma", "3.1", "--d", 1, "--N", 65536]) == 0
    assert time.perf_counter() - start < 5
    assert "check: OK" in capsys.readouterr().out


@pytest.mark.parametrize("fault", ["flipped sign", "swapped halves"])
def test_lemma_3_1_check_catches_a_wrong_split(fault, monkeypatch, capsys):
    split = cli.extraction.bipartite_split

    def wrong_split(m):
        sign, first, second = split(m)
        if fault == "flipped sign":
            return (-sign[0],) + sign[1:], first, second
        return sign, second, first

    monkeypatch.setattr(cli.extraction, "bipartite_split", wrong_split)
    # 2^(d+1) divides N, so the lemma's guarantee applies and a failed check exits 6.
    assert run(["lemma", "3.1", "--d", 2, "--N", 64, "--seed", 7]) == 6
    assert "check: FAIL" in capsys.readouterr().out


def test_oracle_command(inc_matrix, capsys):
    assert run(["oracle", inc_matrix, "--n", 3, "--kind", "full"]) == 0
    out = capsys.readouterr().out
    assert "result: found" in out
    assert "rows: 1 2 3" in out


def test_oracle_absent(tmp_path, capsys):
    path = tmp_path / "no.txt"
    path.write_text("2 2\n1 2\n4 3\n")
    assert run(["oracle", path, "--n", 2, "--kind", "full"]) == 0
    assert "result: absent" in capsys.readouterr().out


def test_find_on_lower_bound_matrix_reports_shortfall(tmp_path, capsys):
    prefix = tmp_path / "w"
    run(["witness", "--d", 6, "--t", 5, "--n", 3, "--s", 2, "--seed", 1,
         "--output-prefix", prefix, "--materialize"])
    capsys.readouterr()
    code = run(["find", tmp_path / "w.matrix", "--n", 3, "--format", "json"])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["met_target"] is False
    assert payload["achieved"] < 3
    assert any("no witness exists" in stage for stage in payload["stages"])
    assert payload["bottleneck"]


@pytest.fixture(scope="module")
def lower_bound_8x64(tmp_path_factory):
    """An 8 x 64 lower-bound witness at n = 4, as witness, sign and dense matrix files."""
    prefix = tmp_path_factory.mktemp("lower-bound") / "w"
    with redirect_stdout(io.StringIO()):
        assert run(["witness", "--d", 8, "--t", 6, "--n", 4, "--s", 2, "--seed", 1,
                    "--output-prefix", prefix, "--materialize"]) == 0
    return prefix


def test_find_proves_lower_bound_witness_absent_within_large_budget(lower_bound_8x64, capsys):
    # 8 x 64 at n = 4: C(8, 4) * C(64, 4) = 44.7 million subset pairs to brute force
    for kind in ("row", "full"):
        start = time.perf_counter()
        code = run(["find", f"{lower_bound_8x64}.matrix", "--n", 4, "--kind", kind,
                    "--budget", 10**8])
        assert time.perf_counter() - start < 5
        assert code == 3
        assert "exhaustive_fallback: no witness exists" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "{w}.matrix", "--n", "4", "--kind", "row"],
        ["oracle", "{w}.matrix", "--n", "4", "--kind", "full"],
        ["verify", "{w}.witness", "--n", "4"],
    ],
)
def test_oracle_proves_lower_bound_witness_absent_quickly(argv, lower_bound_8x64, capsys):
    # The plain loop tests every one of the 44.7 million subset pairs.
    start = time.perf_counter()
    code = run([a.format(w=lower_bound_8x64) for a in argv])
    assert time.perf_counter() - start < 5
    assert code == 0
    out = capsys.readouterr().out
    assert "result: absent" in out or "oracle: absent" in out


@pytest.mark.parametrize("last_row, result", [("1", "found"), ("alternating", "absent")])
def test_oracle_at_n_1000(last_row, result, tmp_path, capsys):
    # One subset pair, 1000 columns deep: the search keeps its own stack.
    n = 1000
    last = " ".join(str(i % 2) for i in range(n)) if last_row == "alternating" else "1 " * n
    path = tmp_path / "m.txt"
    path.write_text(f"{n} {n}\n" + "\n".join(["1 " * n] * (n - 1) + [last]) + "\n")
    start = time.perf_counter()
    code = run(["oracle", path, "--n", n])
    assert time.perf_counter() - start < 10
    assert code == 0
    captured = capsys.readouterr()
    assert f"result: {result}" in captured.out and "RecursionError" not in captured.err


def test_verify_oracle_truncates_within_its_budget(tmp_path, capsys):
    # 16 x 4096 at n = 8: the column subsets the search skips count against --budget.
    prefix = tmp_path / "w"
    assert run(["witness", "--d", 16, "--t", 12, "--n", 8, "--s", 3, "--seed", 1,
                "--output-prefix", prefix]) == 0
    capsys.readouterr()
    start = time.perf_counter()
    code = run(["verify", f"{prefix}.witness", "--oracle", "--n", 8])
    assert time.perf_counter() - start < 2
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "search truncated: column-subset budget 1000000 exhausted" in captured.err


def test_find_settles_a_single_pair_space_at_n_1000(tmp_path, capsys):
    # d = N = n = 1000: the fallback's space is one subset pair, n rows deep
    n = 1000
    rows = ["1 " * n] * (n - 1) + [" ".join(str(i % 2) for i in range(n))]
    path = tmp_path / "m.txt"
    path.write_text(f"{n} {n}\n" + "\n".join(rows) + "\n")
    start = time.perf_counter()
    code = run(["find", path, "--n", n, "--kind", "row"])
    assert time.perf_counter() - start < 10
    assert code == 3
    assert "exhaustive_fallback: no witness exists" in capsys.readouterr().out


def test_cli_output_round_trip(tmp_path):
    text = "2 3\n1 2 3\n6 5 4\n"
    path = tmp_path / "m.txt"
    path.write_text(text)
    m = parse_matrix(path.read_text())
    assert parse_matrix(format_matrix(m)) == m


def test_find_deterministic_output(inc_matrix, tmp_path, capsys):
    out1 = tmp_path / "w1.json"
    out2 = tmp_path / "w2.json"
    run(["find", inc_matrix, "--n", 2, "--output", out1])
    run(["find", inc_matrix, "--n", 2, "--output", out2])
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


def test_json_text_parity(inc_matrix, capsys):
    for kind in ("row", "full"):
        run(["find", inc_matrix, "--n", 2, "--kind", kind, "--format", "json"])
        as_json = json.loads(capsys.readouterr().out)
        run(["find", inc_matrix, "--n", 2, "--kind", kind, "--format", "text"])
        text = capsys.readouterr().out
        for key, value in as_json.items():
            assert (f"{key}:" in text) == (value is not None)


def test_text_output_omits_null_fields(inc_matrix, capsys):
    # A row-kind witness has no column direction: JSON writes null, text no line.
    assert run(["find", inc_matrix, "--n", 2]) == 0
    assert capsys.readouterr().out == (
        "achieved: 2\ncols: 1 2\nguaranteed: False\nkind: row-monotone\nmet_target: True\n"
        "row_direction: increasing\nrows: 1 2\n"
        "stages: fast_path: whole matrix is row-monotone (increasing)\ntarget: 2\n"
    )


def test_parser_is_built_once_and_keeps_no_values(tmp_path, capsys):
    # The exhaustive fallback needs C(3, 3) * C(5, 3) = 10 subset pairs here.
    path = tmp_path / "m.txt"
    path.write_text("3 5\n0 2 0 3 3\n3 3 1 0 3\n0 3 3 0 3\n")
    assert cli.build_parser() is cli.build_parser()
    assert run(["find", path, "--n", 3, "--budget", 5, "--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out)["met_target"] is False
    assert run(["find", path, "--n", 3]) == 0
    assert "exhaustive_fallback: witness found" in capsys.readouterr().out
    assert run(["oracle", path, "--n", 3, "--kind", "full", "--budget", 1]) == 3
    assert "column-subset budget 1 exhausted" in capsys.readouterr().err
    assert run(["oracle", path, "--n", 3]) == 0
    out = capsys.readouterr().out
    assert "kind: row\n" in out and "cols: 1 2 5\n" in out


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Input files of every kind the CLI reads, plus a malformed and a missing one."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = random.Random(4)
    rows = [" ".join(str(rng.randrange(4)) for _ in range(6)) for _ in range(5)]
    (root / "m.txt").write_text("5 6\n" + "\n".join(rows) + "\n")
    (root / "bad.txt").write_text("2 2\n1 x\n")
    with redirect_stdout(io.StringIO()):
        assert run(["witness", "--d", 6, "--t", 5, "--n", 3, "--s", 2, "--seed", 1,
                    "--output-prefix", root / "w"]) == 0
    names = ("m.txt", "m.txt", "w.witness", "w.signs", "bad.txt", "none.txt")
    inputs = [root / name for name in names]
    return root, [str(path) for path in inputs]


SMALL = st.integers(1, 8).map(str)
# Spliced into an argv now and then: unknown flags, stray words, bad values.
JUNK = ("--bogus", "extra", "--n", "-1", "0", "--format", "xml", "--kind", "both")


@st.composite
def cli_argv(draw, out_dir, inputs):
    """A random argv over the five subcommands, with small sizes and some junk."""
    command = draw(st.sampled_from(("find", "witness", "verify", "lemma", "oracle")))
    argv = [command]
    options = {"--seed": SMALL, "--format": st.sampled_from(("text", "json"))}
    if command in ("find", "verify", "oracle"):
        argv += [draw(st.sampled_from(inputs)), "--n", draw(SMALL)]
        options.update({"--budget": SMALL, "--kind": st.sampled_from(("row", "full"))})
    if command == "find":
        options["--mode"] = st.sampled_from(("best-effort", "guaranteed"))
        options["--output"] = st.just(str(out_dir / "out.json"))
    if command == "verify":
        options.update({"--structural": None, "--oracle": None})
    if command == "witness":
        argv += ["--output-prefix", str(out_dir / "out"), "--t", draw(st.integers(1, 6).map(str))]
        for flag in ("--d", "--n", "--s"):
            argv += [flag, draw(SMALL)]
        options.update({"--max-attempts": SMALL, "--budget": SMALL, "--materialize": None})
    if command == "lemma":
        argv.append(draw(st.sampled_from(("3.1", "3.2", "3.3", "2.4", "2.3"))))
        # --m stays at 3 or less: lemma 3.2 draws 2^(m (d + 1)) columns when --N is 0.
        options.update({flag: SMALL for flag in ("--d", "--N", "--t", "--n", "--s")})
        options["--m"] = st.integers(0, 3).map(str)
        options["--Z"] = st.lists(st.integers(0, 8), max_size=4).map(
            lambda z: ",".join(map(str, z)))
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=5)):
        argv.append(flag)
        if options[flag] is not None:
            argv.append(draw(options[flag]))
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(JUNK)))
    return argv


def reference_main(argv) -> int:
    """main with the top-level parser parsing every argv, the reference for its dispatch."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MonomatError, OSError) as exc:
        prefix, code = next((p, c) for kind, p, c in cli.EXIT_TABLE if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


def outcome(entry, argv) -> tuple:
    """(exit code, stdout, stderr) of one call of entry(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["--format", "json", "find", "f"],
    ["find", "-h"], ["find", "f", "--n", "3", "--bogus"], ["find", "f", "--n", "3", "extra"],
    ["find", "f", "--form", "json", "--n", "3"], ["find", "--n", "3", "--", "f"],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_dispatch_matches_the_top_level_parser(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f").write_text(INCREASING_4X4)
    assert outcome(main, argv) == outcome(reference_main, argv)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_stays_in_exit_code_contract(data, fuzz_inputs):
    argv = data.draw(cli_argv(*fuzz_inputs), label="argv")
    code, _, err = got = outcome(main, argv)
    assert code in (0, 2, 3, 4, 5, 6), argv
    assert "Traceback" not in err, argv
    # Sending argv straight to the command's parser changes no output.
    assert got == outcome(reference_main, argv), argv
