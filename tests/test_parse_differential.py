"""parse_matrix against the per-token reader: same values, types and error messages.

parse_matrix reads a row of single-space-separated integers with the stdlib
JSON scanner and every other row one token at a time. This seeded
differential mixes edge tokens into such rows, so both paths and the hand-off
between them run. It needs no pytest, so any interpreter can run it as a
script from the repository root:

    PYTHONPATH=src:tests python tests/test_parse_differential.py
"""

import random
import sys

from monomat.matrix import parse_matrix
from reference import parse_matrix_per_token

EDGE_TOKENS = [
    "0", "-0", "00", "05", "-05", "+5", "1-2", "-", "--1", "1,2", "[1]", "NaN",
    "Infinity", "1e3", "2/3", "-4/6", "1/0", "1.5", "٣", "1_0", "true", "9" * 40,
]


def _outcome(parse, text):
    """(kind, detail): the entries with each value's type, or the error raised."""
    try:
        m = parse(text)
    except Exception as exc:  # the error's type and words are what is compared
        return "error", (type(exc).__name__, str(exc))
    return "matrix", tuple(tuple((type(v), v) for v in row) for row in m.entries)


def _token(rng, limit):
    roll = rng.random()
    if roll < 0.75:
        return str(rng.randrange(-(10**6), 10**6))
    if roll < 0.97:
        return rng.choice(EDGE_TOKENS)
    # at the int() digit limit, and one digit past it
    return rng.choice(["", "-"]) + "9" * rng.choice([limit, limit + 1])


def _row(rng, cols, limit):
    tokens = [_token(rng, limit) for _ in range(cols + rng.choice([0] * 8 + [-1, 1]))]
    if rng.random() < 0.5:  # half the rows hold plain integers only
        tokens = [str(rng.randrange(-50, 10**9)) for _ in tokens]
    seps = [" "] * 20 + ["  ", "\t", " \t"]
    return "".join(tok + rng.choice(seps) for tok in tokens[:-1]) + (tokens[-1] if tokens else "")


def random_text(rng, limit):
    d, cols = rng.randrange(1, 5), rng.randrange(1, 9)
    header = rng.choice([f"{d} {cols}"] * 12 + [f"{d} {cols + 1}", f"{d + 1} {cols}", f"{d}\t{cols}"])
    lines = [header]
    for _ in range(d):
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "# comment", "   "]))
        lines.append(_row(rng, cols, limit))
    return "\n".join(lines) + rng.choice(["\n", ""])


def test_parse_matrix_matches_per_token_reader():
    rng = random.Random(909)
    limit = sys.get_int_max_str_digits()
    kinds = set()
    for _ in range(3000):
        text = random_text(rng, limit)
        want = _outcome(parse_matrix_per_token, text)
        assert _outcome(parse_matrix, text) == want, text
        kinds.add(want[0])
    assert kinds == {"matrix", "error"}


def test_wide_integer_rows_match_per_token_reader():
    rng = random.Random(910)
    for _ in range(20):
        cols = rng.randrange(1000, 4000)
        rows = [[str(rng.randrange(-(2**70), 2**70)) for _ in range(cols)] for _ in range(3)]
        if rng.random() < 0.5:  # one edge token somewhere in the last row
            rows[-1][rng.randrange(cols)] = rng.choice(EDGE_TOKENS)
        text = f"3 {cols}\n" + "".join(" ".join(row) + "\n" for row in rows)
        assert _outcome(parse_matrix, text) == _outcome(parse_matrix_per_token, text)


if __name__ == "__main__":
    test_parse_matrix_matches_per_token_reader()
    test_wide_integer_rows_match_per_token_reader()
    print(f"parse differential: ok on Python {sys.version.split()[0]}")
