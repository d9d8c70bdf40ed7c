"""Command-line front end: commands, exit codes, deterministic output."""

import json
import time
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crosstnn import (
    Matrix,
    Poly,
    RatFunc,
    TotallyNonnegative,
    amazing_matrix,
    amazing_matrix_symbolic,
    factorization_from_doc,
    factorization_product,
    matrix_from_text,
    matrix_to_doc,
    matrix_to_text,
    network_from_doc,
    path_matrix,
)
from crosstnn import cli
from crosstnn.cli import main
from crosstnn.exact import format_scalar, parse_scalar

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


class TestErrorPaths:
    def test_usage_error(self, capsys):
        assert main(["check"]) == 64
        assert main(["bogus-command"]) == 64

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/matrix.txt"]) == 66

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
