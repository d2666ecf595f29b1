"""Command-line contract: exit codes, artifacts, round trips, determinism."""

import json
import random
import time
from types import SimpleNamespace

import pytest

from monomat import cli
from monomat.cli import main, parse_witness_file
from monomat.matrix import format_matrix, parse_matrix
from monomat.witness import build_witness, sample_sign_matrix

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


def test_find_output_to_a_directory_exit_2(inc_matrix, tmp_path, capsys):
    assert run(["find", inc_matrix, "--n", 2, "--output", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err


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
    w = parse_witness_file((tmp_path / "w.witness").read_text())
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


def test_find_proves_lower_bound_witness_absent_within_large_budget(tmp_path, capsys):
    # 8 x 64 at n = 4: C(8, 4) * C(64, 4) = 44.7 million subset pairs to brute force
    prefix = tmp_path / "w"
    run(["witness", "--d", 8, "--t", 6, "--n", 4, "--s", 2, "--seed", 1,
         "--output-prefix", prefix, "--materialize"])
    capsys.readouterr()
    for kind in ("row", "full"):
        start = time.perf_counter()
        code = run(["find", tmp_path / "w.matrix", "--n", 4, "--kind", kind,
                    "--budget", 10**8])
        assert time.perf_counter() - start < 5
        assert code == 3
        assert "exhaustive_fallback: no witness exists" in capsys.readouterr().out


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
    run(["find", inc_matrix, "--n", 2, "--format", "json"])
    as_json = json.loads(capsys.readouterr().out)
    run(["find", inc_matrix, "--n", 2, "--format", "text"])
    text = capsys.readouterr().out
    for key in as_json:
        assert f"{key}:" in text
