"""Command-line front end: commands, exit codes, deterministic output."""

import hashlib
import json
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from conftest import random_cross_symmetric
from hypothesis import example, given
from hypothesis import strategies as st

from crosstnn import (
    Inapplicable,
    Matrix,
    NotTnn,
    Poly,
    RatFunc,
    TotallyNonnegative,
    amazing_matrix,
    amazing_matrix_symbolic,
    brute_force_tnn,
    eliminate_detailed,
    factorization_from_doc,
    factorization_product,
    matrix_from_doc,
    matrix_from_text,
    matrix_to_doc,
    matrix_to_text,
    network_from_doc,
    neville_tnn_test,
    path_matrix,
    random_certified_tnn,
)
from crosstnn import cli
from crosstnn import elimination
from crosstnn import matrix as matrix_module
from crosstnn.cli import main
from crosstnn.exact import format_scalar, parse_scalar
from crosstnn.verdicts import verdict_label

DEEPLY_NESTED = '{"n": ' + "[" * 100000 + "]" * 100000 + "}"


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def a33_path(tmp_path):
    return _write(tmp_path / "a33.txt", matrix_to_text(amazing_matrix(3, 3, scaled=True)))


class TestGen:
    def test_amazing_scaled(self, tmp_path, capsys):
        out = tmp_path / "m.txt"
        assert main(["gen", "--amazing", "3", "3", "--scaled", "-o", str(out)]) == 0
        assert out.read_text() == "3\n10 16 1\n4 19 4\n1 16 10\n"

    def test_amazing_unscaled_trivial(self, capsys):
        assert main(["gen", "--amazing", "1", "2"]) == 0
        assert capsys.readouterr().out == "1\n1\n"

    def test_random_is_reproducible(self, tmp_path):
        p1, p2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert main(["gen", "--random", "s0", "2", "1", "-o", str(p1)]) == 0
        assert main(["gen", "--random", "s0", "2", "1", "-o", str(p2)]) == 0
        assert p1.read_text() == p2.read_text()
        cert1 = (tmp_path / "r1.cert.json").read_text()
        cert2 = (tmp_path / "r2.cert.json").read_text()
        assert cert1 == cert2

    def test_random_certificate_matches_matrix(self, tmp_path):
        out = tmp_path / "r.txt"
        assert main(["gen", "--random", "seed-7", "4", "3", "-o", str(out)]) == 0
        matrix = matrix_from_text(out.read_text())
        fact = factorization_from_doc(json.loads((tmp_path / "r.cert.json").read_text()))
        assert factorization_product(fact) == matrix

    def test_random_requires_output(self, capsys):
        assert main(["gen", "--random", "s0", "2", "1"]) == 64

    def test_exactly_one_mode(self, tmp_path, capsys):
        assert main(["gen"]) == 64
        assert (
            main(["gen", "--amazing", "2", "2", "--random", "x", "2", "1", "-o", str(tmp_path / "x")])
            == 64
        )


class TestCheck:
    def test_certified(self, a33_path, capsys):
        assert main(["check", a33_path, "--method", "cross"]) == 0
        out = capsys.readouterr().out
        assert "verdict: totally-nonnegative" in out
        assert "diagonal: 9 9 9" in out

    def test_trace(self, a33_path, capsys):
        assert main(["check", a33_path, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "step 1: s=2 t=1 c=1/4 (bridge)" in out
        assert "step 3: s=2 t=2 c=5/4 (bridge)" in out

    def test_refuted_prints_witness(self, tmp_path, capsys):
        path = _write(tmp_path / "p.txt", "2\n0 1\n1 0\n")
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "verdict: not-totally-nonnegative" in out
        assert "zero-pivot-nonzero-below" in out

    def test_singular_cross_vs_minors(self, tmp_path, capsys):
        path = _write(tmp_path / "s.txt", "2\n1 1\n1 1\n")
        assert main(["check", path, "--method", "cross"]) == 2
        assert main(["check", path, "--method", "minors"]) == 0

    def test_neville(self, a33_path, capsys):
        assert main(["check", a33_path, "--method", "neville"]) == 0

    def test_minors_witness(self, tmp_path, capsys):
        path = _write(tmp_path / "m.txt", "2\n1 -1\n-1 1\n")
        assert main(["check", path, "--method", "minors"]) == 1
        out = capsys.readouterr().out
        assert "rows: 1" in out and "cols: 2" in out

    def test_symbolic_needs_ray(self, tmp_path, capsys):
        path = _write(tmp_path / "sym.txt", "2\n[1,1] [-1,1]\n[-1,1] [1,1]\n")
        assert main(["check", path]) == 64
        assert main(["check", path, "--ray", "2"]) == 0

    def test_spaced_rational_function_reads_as_unspaced(self, tmp_path, capsys):
        spaced = _write(tmp_path / "spaced.txt", "1\n[1] / [2]\n")
        plain = _write(tmp_path / "plain.txt", "1\n[1]/[2]\n")
        assert main(["check", spaced]) == 64
        capsys.readouterr()
        assert main(["check", spaced, "--ray", "1"]) == 0
        out = capsys.readouterr().out
        assert main(["check", plain, "--ray", "1"]) == 0
        assert capsys.readouterr().out == out
        assert "diagonal: [1/2]" in out

    @pytest.mark.parametrize("row", ["[1] / 2", "[1] [2]"])
    def test_slash_without_two_brackets_is_not_one_entry(self, tmp_path, capsys, row):
        path = _write(tmp_path / "bad.txt", f"1\n{row}\n")
        assert main(["check", path]) == 65
        assert "expected 1 entries per row" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text",
        [
            ("three.txt", "1\n[1] / [2] / [3]\n"),
            ("three.json", '{"n": 1, "entries": [["[1] / [2] / [3]"]]}'),
        ],
    )
    def test_two_slashes_name_the_literal(self, tmp_path, capsys, name, text):
        path = _write(tmp_path / name, text)
        assert main(["check", path, "--ray", "1"]) == 65
        err = capsys.readouterr().err
        assert err == "malformed input: malformed polynomial literal: ' [2] / [3]'\n"

    @pytest.mark.parametrize("head", ["0", "-3"])
    def test_size_below_one_exits_65(self, tmp_path, capsys, head):
        path = _write(tmp_path / "small.txt", f"{head}\n")
        assert main(["check", path]) == 65
        assert capsys.readouterr().err == "malformed input: matrix must be square with n >= 1\n"


class TestFactor:
    def test_worked_3x3(self, a33_path, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert main(["factor", a33_path, "--out", str(cert), "--verify"]) == 0
        doc = json.loads(cert.read_text())
        assert doc["atoms"] == [
            {"kind": "bridge", "s": 2, "c": "1/4"},
            {"kind": "bridge", "s": 1, "c": "4/9"},
            {"kind": "bridge", "s": 2, "c": "5/4"},
        ]
        assert doc["diagonal"] == ["9", "9", "9"]

    def test_2x2_center(self, tmp_path, capsys):
        path = _write(tmp_path / "a23.txt", matrix_to_text(amazing_matrix(2, 3, scaled=True)))
        assert main(["factor", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["atoms"] == [{"kind": "center", "s": 1, "c": "1/2"}]
        assert doc["diagonal"] == ["9/2", "9/2"]

    def test_identity(self, tmp_path, capsys):
        path = _write(tmp_path / "i5.txt", matrix_to_text(Matrix.identity(5)))
        assert main(["factor", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["atoms"] == []
        assert doc["diagonal"] == ["1"] * 5

    def test_refuted_exit(self, tmp_path, capsys):
        path = _write(tmp_path / "p.txt", "2\n0 1\n1 0\n")
        assert main(["factor", path]) == 1

    def test_inapplicable_exit(self, tmp_path, capsys):
        path = _write(tmp_path / "s.txt", "2\n1 1\n1 1\n")
        assert main(["factor", path]) == 2

    @pytest.mark.parametrize("n", [5, 12])
    def test_verify_rejects_a_tampered_certificate(self, tmp_path, monkeypatch, n):
        # One atom coefficient off by one: the product no longer equals the input.
        path = _write(tmp_path / "a.txt", matrix_to_text(amazing_matrix(n, 10, scaled=True)))
        real = cli.eliminate_detailed

        def tampered(matrix, ray=None):
            fact = real(matrix, ray=ray).verdict.factorization
            bridges = [a for a in fact.atoms if a.kind == "bridge"]
            atom = bridges[len(bridges) // 2]
            atoms = tuple(replace(a, c=a.c + 1) if a is atom else a for a in fact.atoms)
            return SimpleNamespace(verdict=TotallyNonnegative(replace(fact, atoms=atoms)))

        monkeypatch.setattr(cli, "eliminate_detailed", tampered)
        assert main(["factor", path]) == 0
        with pytest.raises(AssertionError, match="does not re-multiply"):
            main(["factor", path, "--verify"])


class TestNetwork:
    def test_dot_from_matrix(self, a33_path, capsys):
        assert main(["network", a33_path, "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph planar_network {")
        assert 'label="1/4"' in out

    def test_dot_deterministic(self, a33_path, tmp_path):
        o1, o2 = tmp_path / "n1.dot", tmp_path / "n2.dot"
        assert main(["network", a33_path, "-o", str(o1)]) == 0
        assert main(["network", a33_path, "-o", str(o2)]) == 0
        assert o1.read_text() == o2.read_text()

    def test_doc_round_trips_to_input(self, a33_path, capsys):
        assert main(["network", a33_path, "--format", "doc"]) == 0
        doc = json.loads(capsys.readouterr().out)
        net = network_from_doc(doc)
        assert path_matrix(net) == amazing_matrix(3, 3, scaled=True)

    def test_accepts_certificate_input(self, a33_path, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert main(["factor", a33_path, "--out", str(cert)]) == 0
        assert main(["network", str(cert), "--format", "doc"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert path_matrix(network_from_doc(doc)) == amazing_matrix(3, 3, scaled=True)

    def test_identity_two_straight_wires(self, tmp_path, capsys):
        path = _write(tmp_path / "i2.txt", matrix_to_text(Matrix.identity(2)))
        assert main(["network", path]) == 0
        out = capsys.readouterr().out
        assert out.count("->") == 2

    def test_refuted_input(self, tmp_path, capsys):
        path = _write(tmp_path / "p.txt", "2\n0 1\n1 0\n")
        assert main(["network", path]) == 1

    @pytest.mark.parametrize(
        "matrix, flags, code",
        [
            pytest.param(amazing_matrix(3, 3, scaled=True), ["--format", "dot"], 0, id="dot"),
            pytest.param(amazing_matrix(3, 3, scaled=True), ["--format", "doc"], 0, id="doc"),
            pytest.param(amazing_matrix_symbolic(5), ["--ray", "5"], 0, id="symbolic"),
            pytest.param(Matrix([[0, 1], [1, 0]]), [], 1, id="refuted"),
        ],
    )
    def test_json_matrix_gives_the_text_result(self, tmp_path, capsysbinary, matrix, flags, code):
        outcomes = []
        for name, text in (
            ("m.txt", matrix_to_text(matrix)),
            ("m.json", json.dumps(matrix_to_doc(matrix))),
        ):
            exit_code = main(["network", _write(tmp_path / name, text), *flags])
            outcomes.append((exit_code, capsysbinary.readouterr().out))
        (text_code, text_out), (json_code, json_out) = outcomes
        assert text_code == json_code == code
        assert text_out == json_out
        assert bool(text_out) == (code == 0)

    # sha256 of network's stdout on the JSON form of each matrix, recorded
    # when the command still parsed the document twice.
    JSON_MATRIX_NETWORK_DIGESTS = {
        ("numeric", "dot"): "387e9a767122924223738dd6f4d32d27de821e4d2ca3c8a024c7cff2218ea57b",
        ("numeric", "doc"): "2dffddb10cdedadacc331e724cfb71c1b11094f1d88c4ad3736b77d4bf6c4450",
        ("symbolic", "dot"): "18005967c84f09d4d792ea546dd2ecef134161fc42c5e17a62a61ecaef49074c",
        ("symbolic", "doc"): "a02895df54ce4834746df9db36108d25d70afae3c6ef8eee7234a55f17de593a",
    }

    @pytest.mark.parametrize("fmt", ["dot", "doc"])
    @pytest.mark.parametrize(
        "name, matrix, flags",
        [
            ("numeric", amazing_matrix(4, 3, scaled=True), []),
            ("symbolic", amazing_matrix_symbolic(4), ["--ray", "4"]),
        ],
        ids=["numeric", "symbolic"],
    )
    def test_json_matrix_is_parsed_once(
        self, tmp_path, capsys, monkeypatch, name, matrix, flags, fmt
    ):
        calls = []
        for module in (cli, matrix_module):
            real = module.parse_json
            monkeypatch.setattr(
                module, "parse_json", lambda text, real=real: calls.append(text) or real(text)
            )
        path = _write(tmp_path / "m.json", json.dumps(matrix_to_doc(matrix)))
        assert main(["network", path, "--format", fmt, *flags]) == 0
        out = capsys.readouterr().out
        assert len(calls) == 1
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.JSON_MATRIX_NETWORK_DIGESTS[name, fmt]

    @pytest.mark.parametrize(
        "cert",
        [
            pytest.param(
                '{"n": 3, "atoms": [{"kind": "bridge", "s": 1, "c": "[0,-1]"}],'
                ' "diagonal": ["[0,-1]", "[1]", "[0,-1]"]}',
                id="negative-coefficient-and-diagonal",
            ),
            pytest.param(
                '{"n": 2, "atoms": [{"kind": "center", "s": 1, "c": "[1]"}],'
                ' "diagonal": ["[1]", "[1]"]}',
                id="center-coefficient-one",
            ),
            pytest.param(
                '{"n": 3, "atoms": [{"kind": "bridge", "s": 1, "c": "[-3,1]"}],'
                ' "diagonal": ["[1]", "[1]", "[1]"]}',
                id="coefficient-sign-undecided-on-ray",
            ),
        ],
    )
    def test_symbolic_certificate_signs_are_checked(self, tmp_path, capsys, cert):
        path = _write(tmp_path / "cert.json", cert)
        assert main(["network", path]) == 64
        assert main(["network", path, "--ray", "1"]) == 65
        assert capsys.readouterr().err.splitlines()[-1].startswith("malformed input: ")

    def test_symbolic_certificate_from_factor(self, tmp_path, capsys):
        path = _write(tmp_path / "s5.txt", matrix_to_text(amazing_matrix_symbolic(5)))
        cert = str(tmp_path / "s5.cert.json")
        assert main(["factor", path, "--ray", "5", "--out", cert]) == 0
        assert main(["network", cert, "--ray", "5"]) == 0


class TestVerifyAmazing:
    def test_n3_certified(self, capsys):
        assert main(["verify-amazing", "--n", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"] == "certified"

    def test_n1_certified(self, capsys):
        assert main(["verify-amazing", "--n", "1"]) == 0

    def test_n12_certified(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify-amazing", "--n", "12", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["overall"] == "certified"

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify-amazing", "--n", "2", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["overall"] == "certified"
        assert doc["ray"]["final_beta"] == 2


class TestIntegersPastTheDigitLimit:
    """Scalars whose integers have more digits than str() and int() convert by default."""

    A = Matrix([[10**2500 + 7, 3], [3, 10**2500 + 7]])

    def test_check_factor_and_network(self, tmp_path, capsys):
        path = _write(tmp_path / "long.txt", matrix_to_text(self.A))
        for method in ("cross", "neville", "minors"):
            assert main(["check", path, "--method", method]) == 0
            assert "verdict: totally-nonnegative" in capsys.readouterr().out
        assert main(["check", path, "--trace"]) == 0
        out = capsys.readouterr().out
        # the diagonal entry (a^2 - 9)/a has a 5,001-digit numerator
        assert "verdict: totally-nonnegative" in out and len(out) > 7500
        cert = str(tmp_path / "long.cert.json")
        assert main(["factor", path, "--verify", "--out", cert]) == 0
        capsys.readouterr()
        assert main(["network", cert, "--format", "doc"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert path_matrix(network_from_doc(doc)) == self.A

    @pytest.mark.parametrize(
        "command, template",
        [
            ("check", '{{"n": 1, "entries": [[{}]]}}'),
            ("network", '{{"n": 1, "atoms": [], "diagonal": [{}]}}'),
        ],
        ids=["check", "network"],
    )
    def test_json_numbers_read_as_json_strings(self, tmp_path, capsys, command, template):
        digits = "7" * 5001
        outputs = []
        for token in (digits, f'"{digits}"'):
            path = _write(tmp_path / "doc.json", template.format(token))
            assert main([command, path]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "value",
        [
            Fraction(-(10**5000) - 1),
            Fraction(10**4400 + 1, 10**4301 + 3),
            Poly((Fraction(1, 10**4400 + 1), 0, -(10**4400))),
            RatFunc(Poly((1, 10**4500)), Poly((10**4400, 1))),
        ],
        ids=["integer", "rational", "poly", "ratfunc"],
    )
    def test_scalars_round_trip(self, value):
        text = format_scalar(value)
        assert parse_scalar(text) == value
        assert format_scalar(parse_scalar(text)) == text

    @pytest.mark.parametrize(
        "token", ["1" * 4401 + "/0", "[" + "1" * 4401 + "/0]"], ids=["rational", "poly"]
    )
    def test_zero_denominator_under_a_long_numerator(self, tmp_path, capsys, token):
        # Reported as the short form 3/0 is, not as the digit limit.
        message = f"zero denominator in scalar {token!r}"
        with pytest.raises(ValueError) as exc:
            parse_scalar(token)
        assert str(exc.value) == message
        path = _write(tmp_path / "zero.txt", f"2\n1 {token}\n0 1\n")
        assert main(["check", path]) == 65
        assert capsys.readouterr().err == f"malformed input: {message}\n"

    # Decoded documents built in code may hold Python ints of any length,
    # and a boolean is not a scalar however the document was decoded.
    _READERS = {
        "matrix": lambda x: matrix_from_doc({"n": 1, "entries": [[x]]}),
        "factorization": lambda x: factorization_from_doc({"n": 1, "atoms": [], "diagonal": [x]}),
        "network": lambda x: network_from_doc(
            {"n": 1, "chips": [{"horizontals": [x], "slants": []}]}
        ),
    }

    @pytest.mark.parametrize("reader", sorted(_READERS))
    def test_decoded_long_ints_read_as_their_text(self, reader):
        read = self._READERS[reader]
        value = 10**5000 + 7  # 5,001 digits, past the limit of str()
        assert read(value) == read(format_scalar(value))

    def test_escalation_bound_past_the_limit(self, tmp_path, capsys):
        # b - 10^5000 changes sign at b = 10^5000: a bound of 5,001 digits.
        root = 10**5000
        A = Matrix([[Poly((-root, 1))]])
        for verdict in (
            eliminate_detailed(A, 1).verdict, neville_tnn_test(A, 1), brute_force_tnn(A, 1)
        ):
            assert isinstance(verdict, Inapplicable) and verdict.bound == root
        path = _write(tmp_path / "root.txt", matrix_to_text(A))
        outputs = {}
        for method in ("cross", "neville", "minors"):
            assert main(["check", path, "--ray", "1", "--method", method]) == 2
            outputs[method] = capsys.readouterr().out.splitlines()
            assert "reason: symbolic-indefinite" in outputs[method]
        assert outputs["cross"][-1] == "bound: 1" + "0" * 5000

    @pytest.mark.parametrize("reader", sorted(_READERS))
    def test_decoded_booleans_are_not_scalars(self, reader):
        with pytest.raises(ValueError) as exc:
            self._READERS[reader](True)
        assert "exponent" not in str(exc.value)



class TestJsonDecimals:
    """A JSON number with a fraction part reads exactly, from its own token."""

    @pytest.mark.parametrize(
        "command, template",
        [
            ("check", '{{"n": 1, "entries": [[{}]]}}'),
            ("network", '{{"n": 1, "atoms": [], "diagonal": [{}]}}'),
        ],
        ids=["check", "network"],
    )
    @pytest.mark.parametrize("token", ["0.30000000000000001", "2.50", "-0.5", "0.0"])
    def test_json_decimals_read_as_json_strings(self, tmp_path, capsys, command, template, token):
        results = []
        for written in (token, f'"{token}"'):
            path = _write(tmp_path / "doc.json", template.format(written))
            code = main([command, path])
            results.append((code, *capsys.readouterr()))
        assert results[0] == results[1]

    def test_decimal_is_not_rounded_to_a_float(self, tmp_path, capsys):
        path = _write(tmp_path / "d.json", '{"n": 1, "entries": [[0.30000000000000001]]}')
        assert main(["check", path]) == 0
        assert "diagonal: 30000000000000001/100000000000000000\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "doc, token",
        [
            ('{"n": 1, "entries": [[1e22]]}', "1e22"),
            ('{"n": 1, "entries": [[-2.5E-3]]}', "-2.5E-3"),
            ('{"n": 2e0, "entries": [[1, 0], [0, 1]]}', "2e0"),
        ],
    )
    def test_exponent_names_the_documents_token(self, tmp_path, capsys, doc, token):
        path = _write(tmp_path / "e.json", doc)
        assert main(["check", path]) == 65
        assert capsys.readouterr().err == f"malformed input: exponent notation in scalar {token!r}\n"

    def test_fractional_n_is_rejected(self, tmp_path, capsys):
        path = _write(tmp_path / "n.json", '{"n": 2.5, "entries": [[1, 0], [0, 1]]}')
        assert main(["check", path]) == 65
        assert capsys.readouterr().err == "malformed input: not an integer: 2.5\n"

    # 5,000 fraction digits: past the int/str digit limit of 4,300.
    _LONG_DECIMAL = "0." + "1" * 5000

    @pytest.mark.parametrize(
        "name, text",
        [
            ("d.txt", f"1\n{_LONG_DECIMAL}\n"),
            ("d.json", f'{{"n": 1, "entries": [[{_LONG_DECIMAL}]]}}'),
            ("s.json", f'{{"n": 1, "entries": [["{_LONG_DECIMAL}"]]}}'),
        ],
        ids=["text", "json-number", "json-string"],
    )
    def test_decimal_past_the_digit_limit_reads_exactly(self, tmp_path, capsys, name, text):
        assert main(["check", _write(tmp_path / name, text)]) == 0
        out = capsys.readouterr().out
        diagonal = "1" * 5000 + "/1" + "0" * 5000
        assert out == f"method: cross\nverdict: totally-nonnegative\natoms: 0\ndiagonal: {diagonal}\n"

    @pytest.mark.parametrize("token", ["1.5", "2.0", "1e22"])
    def test_a_number_kind_is_named_as_written(self, tmp_path, capsys, token):
        # A JSON number in a text field is named unquoted, as a float was.
        doc = f'{{"n": 2, "atoms": [{{"kind": {token}, "s": 1, "c": "1/2"}}], "diagonal": [1, 1]}}'
        path = _write(tmp_path / "k.json", doc)
        assert main(["network", path]) == 65
        assert capsys.readouterr().err == f"malformed input: unknown atom kind {token}\n"


def _flipped(A: Matrix, col: int) -> Matrix:
    """A with its first nonzero entry of column ``col`` and that entry's mirror negated."""
    n, rows = A.n, [list(r) for r in A.rows]
    i = next(i for i in range(n) if rows[i][col])
    rows[i][col] = -rows[i][col]
    rows[n - 1 - i][n - 1 - col] = -rows[n - 1 - i][n - 1 - col]
    return Matrix(rows)


def _check_text(run) -> str:
    """What ``check --method cross --trace`` prints, written from eliminate_detailed's run."""
    verdict = run.verdict
    lines = ["method: cross", f"verdict: {verdict_label(verdict)}"]
    steps = ()
    if isinstance(verdict, TotallyNonnegative):
        fact = verdict.factorization
        steps = fact.atoms
        lines.append(f"atoms: {len(fact.atoms)}")
        lines.append("diagonal: " + " ".join(map(format_scalar, fact.diagonal)))
    elif isinstance(verdict, NotTnn):
        w = verdict.witness
        steps = w.trace
        lines.append(f"reason: {w.reason}")
        if w.s is not None:
            lines.append(f"position: s={w.s} t={w.t}")
        if w.index is not None:
            lines.append(f"diagonal index: {w.index}")
        lines.append(f"value: {format_scalar(w.value)}")
    else:
        lines.append(f"reason: {verdict.reason}")
        if verdict.bound is not None:
            lines.append(f"bound: {verdict.bound}")
    assert steps == run.steps
    lines += [
        f"step {k}: s={step.s} t={step.t} c={format_scalar(step.c)} ({step.kind})"
        for k, step in enumerate(steps, start=1)
    ]
    return "\n".join(lines) + "\n"


_B = Poly.variable()
_CARRIES_12 = amazing_matrix(12, 10, scaled=True)
# Inputs for every exit of the sweep: certified, each refutation reason
# (a center step with c >= 1 among them), singular, not cross-symmetric
# and symbolic on two rays, indefinite on the second.
_SWEEP_EXITS = [
    pytest.param(amazing_matrix(3, 3, scaled=True), None, id="carries-3"),
    pytest.param(_CARRIES_12, None, id="carries-12"),
    pytest.param(amazing_matrix(9, 3, scaled=True), None, id="carries-9-base-3"),
    pytest.param(Matrix([[3, 1], [1, 3]]), None, id="center"),
    pytest.param(Matrix.identity(4), None, id="identity"),
    pytest.param(random_certified_tnn(6, 1, atom_count=9)[0], None, id="random-certified"),
    pytest.param(_flipped(_CARRIES_12, 5), None, id="carries-12-flipped"),
    pytest.param(Matrix([[10, -16, 1], [4, 19, 4], [1, -16, 10]]), None, id="negative-multiplier"),
    pytest.param(Matrix([[0, 1], [1, 0]]), None, id="zero-pivot"),
    pytest.param(Matrix([[2, 0, 1], [-1, 1, -1], [1, 0, 2]]), None, id="negative-pivot"),
    pytest.param(
        Matrix([[1, 0, 0, 0], [0, 1, 2, 0], [0, 2, 1, 0], [0, 0, 0, 1]]), None, id="center-c-2"
    ),
    pytest.param(
        Matrix([[1, 1, 1, 3], [1, 3, 2, 1], [1, 2, 3, 1], [3, 1, 1, 1]]), None, id="center-c-1"
    ),
    pytest.param(
        Matrix([[5, 1, 0, 0], [3, 2, 3, 0], [0, 3, 2, 3], [0, 0, 1, 5]]), None, id="center-after-a-step"
    ),
    pytest.param(
        Matrix([[3, 2, 1, 2], [3, 2, 1, 1], [1, 1, 2, 3], [2, 1, 2, 3]]), None, id="center-then-pivot"
    ),
    pytest.param(Matrix.diagonal([1, -1, 1]), None, id="nonpositive-diagonal"),
    pytest.param(
        Matrix([[1, 0, 0, 0], [1, -1, 0, 0], [0, 0, -1, 1], [0, 0, 0, 1]]),
        None,
        id="diagonal-after-a-step",
    ),
    pytest.param(Matrix([[1, 1], [1, 1]]), None, id="singular"),
    pytest.param(
        Matrix([[1, 2, 3, 4], [2, 4, 6, 8], [8, 6, 4, 2], [4, 3, 2, 1]]), None, id="singular-rank-2"
    ),
    pytest.param(Matrix([[1, 2], [3, 4]]), None, id="not-cross-symmetric"),
    pytest.param(amazing_matrix_symbolic(5), 5, id="symbolic-5-ray-5"),
    pytest.param(amazing_matrix_symbolic(5), 2, id="symbolic-5-ray-2"),
    pytest.param(Matrix([[_B + 1, _B - 3], [_B - 3, _B + 1]]), 2, id="symbolic-indefinite"),
    pytest.param(Matrix([[_B, _B], [_B, _B]]), 2, id="symbolic-singular"),
]


class TestCheckReadsTheSweep:
    """``check --method cross`` decides from the sweep's records, building no atom."""

    @pytest.mark.parametrize("A, ray", _SWEEP_EXITS)
    def test_trace_matches_the_detailed_run(self, tmp_path, capsys, A, ray):
        flags = [] if ray is None else ["--ray", str(ray)]
        path = _write(tmp_path / "m.txt", matrix_to_text(A))
        run = eliminate_detailed(A, ray)
        main(["check", path, "--trace", *flags])
        assert capsys.readouterr().out == _check_text(run)

    def test_random_matrices_match_the_detailed_run(self, tmp_path, capsys):
        rng = random.Random(32)
        for n in range(1, 7):
            for _ in range(12):
                A = random_cross_symmetric(rng, n, lo=-2, hi=5, max_den=2)
                path = _write(tmp_path / "m.txt", matrix_to_text(A))
                main(["check", path, "--trace"])
                assert capsys.readouterr().out == _check_text(eliminate_detailed(A))

    @pytest.mark.parametrize(
        "A, ray, code",
        [
            pytest.param(_CARRIES_12, None, 0, id="carries-12"),
            pytest.param(_flipped(_CARRIES_12, 5), None, 1, id="carries-12-flipped"),
            pytest.param(amazing_matrix_symbolic(5), 5, 0, id="symbolic-5"),
        ],
    )
    def test_plain_check_builds_no_atom(self, tmp_path, capsys, monkeypatch, A, ray, code):
        flags = [] if ray is None else ["--ray", str(ray)]
        path = _write(tmp_path / "m.txt", matrix_to_text(A))
        assert main(["check", path, *flags]) == code
        expected = capsys.readouterr().out
        built = []
        real = elimination.Atom
        monkeypatch.setattr(elimination, "Atom", lambda *args: built.append(args) or real(*args))
        assert main(["check", path, *flags]) == code
        assert capsys.readouterr().out == expected
        assert built == []
        # The count sees atoms wherever they are built: the run that
        # factor and library callers read builds one per step.
        steps = eliminate_detailed(A, ray).steps
        assert len(built) == len(steps) > 0


_SYMBOLIC_2X2 = "2\n[1,1] [-1,1]\n[-1,1] [1,1]\n"


class TestErrorPaths:
    def test_usage_error(self, capsys):
        assert main(["check"]) == 64
        assert main(["bogus-command"]) == 64

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/matrix.txt"]) == 66

    @pytest.mark.parametrize(
        "command, text, what",
        [
            pytest.param("check", _SYMBOLIC_2X2, "matrix", id="check-matrix"),
            pytest.param("factor", _SYMBOLIC_2X2, "matrix", id="factor-matrix"),
            pytest.param("network", _SYMBOLIC_2X2, "matrix", id="network-matrix"),
            pytest.param(
                "network",
                '{"n": 2, "atoms": [{"kind": "center", "s": 1, "c": "[0,1]/[1,2]"}],'
                ' "diagonal": ["[1]", "[1]"]}',
                "certificate",
                id="network-certificate",
            ),
        ],
    )
    def test_symbolic_input_needs_a_ray(self, tmp_path, capsys, command, text, what):
        path = _write(tmp_path / "symbolic.txt", text)
        assert main([command, path]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: symbolic {what}: pass --ray to fix the sign ray\n"

    def test_malformed_content(self, tmp_path, capsys):
        path = _write(tmp_path / "bad.txt", "2\n1 2\n")
        assert main(["check", path]) == 65

    @pytest.mark.parametrize(
        "command, text",
        [
            pytest.param("check", "2\n1 [1]/[0]\n[1]/[0] 1\n", id="ratfunc-zero-denominator"),
            pytest.param("check", "2\n1 1/0\n1/0 1\n", id="rational-zero-denominator"),
            pytest.param("check", '{"n": 2, "entries": 5}', id="entries-not-a-list"),
            pytest.param("check", '{"n": 2, "entries": [5, 6]}', id="rows-not-lists"),
            pytest.param("check", '{"n": null, "entries": [[1]]}', id="n-not-an-integer"),
            pytest.param("network", '{"n": 2, "atoms": 5, "diagonal": [1, 1]}', id="atoms-not-a-list"),
            pytest.param("network", '{"n": 1, "atoms": [], "diagonal": 5}', id="diagonal-not-a-list"),
            pytest.param(
                "network",
                '{"n": 3, "atoms": [{"kind": "bridge", "s": [1], "c": 1}], "diagonal": [1, 1, 1]}',
                id="atom-row-not-an-integer",
            ),
            pytest.param(
                "network", '{"n": 0, "atoms": [], "diagonal": []}', id="empty-certificate"
            ),
            pytest.param("check", '{"n": 2.5, "entries": [[1, 0], [0, 1]]}', id="n-fractional"),
            pytest.param("check", '{"n": true, "entries": [[1]]}', id="n-boolean"),
            pytest.param("check", DEEPLY_NESTED, id="check-deeply-nested"),
            pytest.param("network", DEEPLY_NESTED, id="network-deeply-nested"),
        ],
    )
    def test_malformed_content_exits_65(self, tmp_path, capsys, command, text):
        path = _write(tmp_path / "bad.txt", text)
        assert main([command, path]) == 65
        assert capsys.readouterr().err.startswith("malformed input: ")

    @pytest.mark.parametrize(
        "text",
        ["2\n1 0\n0 1\nhello world\n", "2\n1 0\n0 1\n1 0\n", "2\n1 0\n\n0 1\n\n1 0\n\n"],
        ids=["text-line", "numeric-row", "between-blank-lines"],
    )
    def test_rows_after_the_nth_exit_65(self, tmp_path, capsys, text):
        path = _write(tmp_path / "extra.txt", text)
        assert main(["check", path]) == 65
        assert capsys.readouterr().err == "malformed input: expected 2 rows, found 3\n"

    def test_trailing_blank_lines_are_accepted(self, tmp_path, capsys):
        path = _write(tmp_path / "blank.txt", "2\n1 0\n0 1\n\n  \n\t\n")
        assert main(["check", path]) == 0
        assert "verdict: totally-nonnegative" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("2\n1e6011100 0\n0 1\n", id="text"),
            pytest.param('{"n": 2, "entries": [["1E6011100", 0], [0, 1]]}', id="json"),
            pytest.param("1\n[1,1e6011100]\n", id="polynomial-coefficient"),
        ],
    )
    def test_exponent_notation_exits_65_quickly(self, tmp_path, capsys, text):
        # Read as a Fraction, the token would be a 6,011,101-digit integer.
        path = _write(tmp_path / "exponent.txt", text)
        start = time.perf_counter()
        assert main(["check", path, "--ray", "1"]) == 65
        assert time.perf_counter() - start < 1.0
        assert "exponent notation" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["2", "2.0", '"2"'])
    def test_integral_n_shapes_are_accepted(self, tmp_path, capsys, n):
        path = _write(tmp_path / "id.json", '{"n": %s, "entries": [[1, 0], [0, 1]]}' % n)
        assert main(["check", path]) == 0

    def test_ray_below_one_is_a_usage_error(self, a33_path, capsys):
        for command in ("check", "factor", "network"):
            assert main([command, a33_path, "--ray", "0"]) == 64

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["verify-amazing", "--n", "0"], id="verify-n-zero"),
            pytest.param(["gen", "--amazing", "0", "5"], id="amazing-n-zero"),
            pytest.param(["gen", "--amazing", "3", "1"], id="amazing-base-one"),
            pytest.param(["gen", "--random", "1", "abc", "2"], id="random-n-not-an-integer"),
            pytest.param(["gen", "--random", "1", "0", "2"], id="random-n-zero"),
            pytest.param(["gen", "--random", "1", "3", "-2"], id="random-atoms-negative"),
            pytest.param(["gen", "--random", "1", "3", "x"], id="random-atoms-not-an-integer"),
        ],
    )
    def test_out_of_range_flag_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "X.txt"
        assert main([*argv, "-o", str(out)]) == 64
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    def test_negative_escalation_cap_is_a_usage_error(self, capsys):
        assert main(["verify-amazing", "--n", "3", "--escalation-cap", "-1"]) == 64
        assert main(["verify-amazing", "--n", "3", "--escalation-cap", "0"]) == 0


_JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.text())
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.dictionaries(st.text(), kids, max_size=4)
    ),
    max_leaves=25,
)


class TestJsonText:
    """Documents are written byte for byte as ``json.dumps(doc, indent=2)`` writes them."""

    @given(_JSON_DOCS)
    @example({})
    @example([])
    @example({"a": [], "b": {}, "c": [[], {}], "d": ["x", "y"], "e": [1, "x", None]})
    @example({"\u00e9\u2603\U0001f600": ["caf\u00e9", "\x00\n\t\"\\", "\ud800"]})
    @example([True, False, None, -(10**30), 0])
    def test_matches_json_dumps(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": {1, 2}}, b"x"])
    def test_other_types_are_rejected(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)


# argv for main, with {a33} the worked 3x3 matrix file and {out} an output path.
DISPATCH_CASES = {
    "gen-amazing": ["gen", "--amazing", "3", "3", "--scaled"],
    "gen-random": ["gen", "--random", "s0", "3", "2", "-o", "{out}"],
    "check-minors": ["check", "{a33}", "--method", "minors"],
    "check-trace-ray": ["check", "{a33}", "--trace", "--ray", "2"],
    "factor-verify": ["factor", "{a33}", "--verify"],
    "network-doc": ["network", "{a33}", "--format", "doc"],
    "verify-amazing": ["verify-amazing", "--n", "3", "--escalation-cap", "1"],
    "no-argument": [],
    "unknown-command": ["bogus-command"],
    "check-no-path": ["check"],
    "bad-choice": ["check", "{a33}", "--method", "bogus"],
    "unknown-flag": ["check", "{a33}", "--bogus"],
    "extra-positional": ["check", "{a33}", "extra"],
    "ray-zero": ["check", "{a33}", "--ray", "0"],
    "n-not-an-integer": ["verify-amazing", "--n", "x"],
    "double-dash": ["check", "--", "{a33}"],
}


def _top_level_only(monkeypatch):
    """Make main parse every argv with the top-level parser, which hands commands on."""
    parser = cli._build_parser()[0]
    monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))


class TestDispatch:
    """A known command is parsed by its own parser, with the top level's results."""

    @staticmethod
    def _run(argv, capsys, out_dir):
        code = main(argv)
        captured = capsys.readouterr()
        files = {}
        for path in sorted(out_dir.iterdir()):
            files[path.name] = path.read_text()
            path.unlink()
        return code, captured.out, captured.err, files

    @pytest.mark.parametrize("case", DISPATCH_CASES)
    def test_same_result_as_the_top_level(self, case, a33_path, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        fill = {"{a33}": a33_path, "{out}": str(out_dir / "r.txt")}
        argv = [fill.get(a, a) for a in DISPATCH_CASES[case]]
        with monkeypatch.context() as top:
            _top_level_only(top)
            expected = self._run(argv, capsys, out_dir)
        assert self._run(argv, capsys, out_dir) == expected
        code, _, err, _ = expected
        assert (code == 64) == err.startswith("usage error: ")

    @pytest.mark.parametrize("argv", [["-h"], ["check", "-h"], ["check", "--help"]])
    def test_help(self, argv, capsys, monkeypatch):
        with monkeypatch.context() as top:
            _top_level_only(top)
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            expected = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr() == expected
        assert expected.out.startswith("usage: crosstnn")

    def test_argv_defaults_to_sys_argv(self, a33_path, capsys, monkeypatch):
        assert main(["check", a33_path, "--method", "neville"]) == 0
        expected = capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["crosstnn", "check", a33_path, "--method", "neville"])
        assert main() == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("wrap", [tuple, iter], ids=["tuple", "generator"])
    def test_argv_any_iterable(self, wrap, a33_path, capsys):
        argv = ["check", a33_path, "--method", "neville"]
        assert main(argv) == 0
        expected = capsys.readouterr()
        assert main(wrap(argv)) == 0
        assert capsys.readouterr() == expected
        assert main(wrap(["bogus-command"])) == 64
        assert "usage error: " in capsys.readouterr().err

    def test_a_command_skips_the_top_level(self, a33_path, tmp_path, capsys, monkeypatch):
        top = cli._build_parser()[0]
        calls = []
        original = top.parse_known_args

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(top, "parse_known_args", spy)
        fill = {"{a33}": a33_path, "{out}": str(tmp_path / "r.txt")}
        for case in ("gen-amazing", "gen-random", "check-minors", "factor-verify", "network-doc"):
            assert main([fill.get(a, a) for a in DISPATCH_CASES[case]]) == 0
        assert calls == []
        assert main(["bogus-command"]) == 64
        assert len(calls) == 1


class TestConsecutiveCalls:
    """The parser is built once per process; no call may see another's flags."""

    def test_trace_does_not_carry_over(self, a33_path, capsys):
        assert main(["check", a33_path, "--trace"]) == 0
        assert "step 1:" in capsys.readouterr().out
        assert main(["check", a33_path]) == 0
        assert "step" not in capsys.readouterr().out

    def test_valid_call_after_usage_error(self, a33_path, capsys):
        assert main(["check", a33_path, "--method", "bogus"]) == 64
        assert main(["check", a33_path, "--method", "neville"]) == 0
        assert capsys.readouterr().out == "method: neville\nverdict: totally-nonnegative\n"

    def test_ray_does_not_carry_over(self, tmp_path, capsys):
        path = _write(tmp_path / "s3.txt", matrix_to_text(amazing_matrix_symbolic(3)))
        assert main(["check", path, "--ray", "3"]) == 0
        assert main(["check", path]) == 64
        assert "pass --ray" in capsys.readouterr().err
