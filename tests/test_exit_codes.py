"""Malformed input: parsers raise only what ``main`` reports; ``main`` exits documented codes.

Hypothesis draws matrix text, matrix JSON and certificate JSON, most of it
malformed in some way and some of it well formed, and runs ``check``,
``factor --verify`` and ``network`` on each.  Only the exit codes
0/1/2/64/65/66 may occur, and no exception may escape.
"""

import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crosstnn.cli import main
from crosstnn.elimination import factorization_from_doc
from crosstnn.exact import parse_json
from crosstnn.matrix import matrix_from_doc, matrix_from_payload

EXIT_CODES = {0, 1, 2, 64, 65, 66}
# What main reports as malformed input (exit 65); json.JSONDecodeError is a ValueError.
PARSE_ERRORS = (ValueError, KeyError, RecursionError)

# Well-formed scalars: integers, fractions, Poly and RatFunc in the base b.
_GOOD = st.sampled_from(
    ["0", "1", "2", "7", "3/2", "1/3", "[1]", "[0, 1]", "[1, 1]", "[1]/[1, 1]"]
)
_BAD = st.one_of(
    st.sampled_from(
        [
            "-1", "1/0", "+4", "1.5", ".5", "nan", "inf", "x", "1e3", "١", "[]", "[1, -1]",
            "[1]/[0]", "[", "]", "[[1]]", "[1,[2]]", "[1]]", "[[1]/[2]]", "[1,, 2]", "{}",
            "null", "true", "",
        ]
    ),
    st.text(max_size=5),
)
# JSON number tokens written as themselves, not as a float's repr: decimals
# with more fraction digits than a float holds, and exponents, large ones
# included.  json.dumps writes each as a marked string, which _damaged_json
# unquotes.
_NUMBER_MARK = "#number:"
_JSON_NUMBERS = st.from_regex(
    r"-?(0|[1-9][0-9]{0,3})(\.[0-9]{1,25})?([eE][+-]?[0-9]{1,6})?", fullmatch=True
).map(_NUMBER_MARK.__add__)
_JSON_SCALARS = st.one_of(
    st.integers(-5, 5),
    st.floats(),
    _JSON_NUMBERS,
    st.booleans(),
    st.none(),
    _BAD,
    st.just({}),
    st.just([]),
)


@st.composite
def matrix_texts(draw) -> str:
    """A cross-symmetric matrix file, then maybe one corruption."""
    n = draw(st.integers(1, 4))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = rows[n - 1 - i][n - 1 - j] = draw(_GOOD)
    head = str(n)
    damage = draw(st.sampled_from(["none", "none", "entry", "head", "shape"]))
    if damage == "entry":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_BAD)
    elif damage == "head":
        head = draw(st.one_of(st.sampled_from(["0", "-1", "2.5", str(n + 1)]), _BAD))
    elif damage == "shape":
        size = st.integers(max(n - 1, 0), n + 1)
        rows = [row[: draw(size)] + [draw(_GOOD)] * (n - len(row)) for row in rows][: draw(size)]
    return "\n".join([head] + [" ".join(row) for row in rows]) + "\n"


@st.composite
def matrix_docs(draw) -> str:
    """A matrix document, then maybe some fields replaced, dropped or cut short."""
    n = draw(st.integers(1, 3))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = rows[n - 1 - i][n - 1 - j] = draw(st.one_of(_GOOD, st.integers(0, 3)))
    doc = {"n": n, "entries": rows}
    if draw(st.booleans()):
        doc["n"] = draw(st.one_of(st.just(str(n)), st.just(float(n)), _JSON_SCALARS))
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_JSON_SCALARS)
    if draw(st.integers(0, 3)) == 0:
        doc["entries"] = draw(st.one_of(st.lists(_JSON_SCALARS, max_size=3), _JSON_SCALARS))
    return _damaged_json(draw, doc)


@st.composite
def certificate_docs(draw) -> str:
    """A certificate document, then maybe some fields replaced, dropped or cut short."""
    n = draw(st.integers(1, 4))
    atoms = []
    for s in draw(st.lists(st.integers(1, n - 1), max_size=4)) if n > 1 else ():
        center = n == 2 * s
        choices = ["1/2", "1/3", "[0, 1]/[1, 1]"] if center else ["1", "3/2", "[1, 1]"]
        c = draw(st.sampled_from(choices))
        atoms.append({"kind": "center" if center else "bridge", "s": s, "c": c})
    half = [draw(st.sampled_from(["1", "2", "5/2", "[1, 1]"])) for _ in range((n + 1) // 2)]
    doc = {"n": n, "atoms": atoms, "diagonal": half + half[: n // 2][::-1]}
    if atoms and draw(st.booleans()):
        atom = atoms[draw(st.integers(0, len(atoms) - 1))]
        value = st.one_of(st.integers(0, 5), _JSON_SCALARS)
        atom[draw(st.sampled_from(sorted(atom)))] = draw(value)
    if draw(st.booleans()):
        value = st.one_of(st.lists(_JSON_SCALARS, max_size=2), _JSON_SCALARS)
        doc[draw(st.sampled_from(sorted(doc)))] = draw(value)
    return _damaged_json(draw, doc)


def _damaged_json(draw, doc: dict) -> str:
    """The document as JSON, maybe with a key dropped, maybe cut short."""
    if draw(st.integers(0, 3)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    text = re.sub(f'"{_NUMBER_MARK}([^"]*)"', r"\1", json.dumps(doc))
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _exit_code(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    return code


def _run_commands(text: str, ray) -> None:
    flags = [] if ray is None else ["--ray", ray]
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for argv in (
            ["check", path],
            ["check", path, "--method", "neville"],
            ["check", path, "--method", "minors"],
            ["factor", path, "--verify"],
            ["network", path, "--format", "doc"],
            ["network", path, "-o", os.path.join(work, "net.dot")],
        ):
            _exit_code(argv + flags)
        assert _exit_code(["check", os.path.join(work, "missing.txt")]) == 66


_SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_SETTINGS
@given(st.one_of(matrix_texts(), matrix_docs()), st.sampled_from([None, "1", "3"]))
def test_matrix_files(text, ray):
    try:
        matrix_from_payload(text)
    except PARSE_ERRORS:
        pass
    # A document decoded by json.loads holds floats, not decimal tokens.
    try:
        doc = json.loads(text)
    except PARSE_ERRORS:
        doc = None
    if isinstance(doc, dict):
        try:
            matrix_from_doc(doc)
        except PARSE_ERRORS:
            pass
    _run_commands(text, ray)


@_SETTINGS
@given(certificate_docs(), st.sampled_from([None, "1", "3"]))
def test_certificate_files(text, ray):
    # json.loads gives the library's float path, parse_json the CLI's decimals.
    for decode in (json.loads, parse_json):
        try:
            doc = decode(text)
        except PARSE_ERRORS:
            doc = None
        if isinstance(doc, dict):
            try:
                factorization_from_doc(doc)
            except PARSE_ERRORS:
                pass
    _run_commands(text, ray)


@pytest.mark.parametrize("row", ["[[1]] 0", "1 [2,[3]]", "[1]] 0", "[0, [1]]/[2] 0"])
def test_nested_brackets_exit_65(tmp_path, capsys, row):
    # Brackets do not nest: the row is rejected before any scalar is read.
    path = tmp_path / "nested.txt"
    path.write_text(f"2\n{row}\n0 1\n", encoding="utf-8")
    assert main(["check", str(path)]) == 65
    err = capsys.readouterr().err
    assert err.startswith("malformed input: unbalanced brackets in ")
    assert "Traceback" not in err
