"""Carries transition matrices, numeric and symbolic, and base coverage."""

import hashlib
import json
import math
from fractions import Fraction

import pytest
from conftest import reference_amazing_matrix, reference_amazing_symbolic

from crosstnn import (
    Atom,
    Factorization,
    Inapplicable,
    Matrix,
    NotTnn,
    Poly,
    RatFunc,
    TotallyNonnegative,
    amazing_entry,
    amazing_matrix,
    amazing_matrix_symbolic,
    brute_force_tnn,
    cross_symmetric_eliminate,
    factorization_product,
    is_cross_symmetric,
    matrix_to_text,
    neville_tnn_test,
    report_to_doc,
    verify_amazing,
)
from crosstnn.amazing import _falling_product
from crosstnn.cli import main
from crosstnn.exact import _poly

B = Poly.variable()

# sha256 of matrix_to_text, recorded on the generators that built one
# falling product per (a, k) and one amazing_entry per numeric entry.
SYMBOLIC_TEXT_DIGESTS = {
    1: "33f5314a68f3159c74a2c70c466b5f5d3e847635bf4a70538a38e3c3b54db856",
    2: "7e958d0237bb54f0954c6d42e7f7c5769227aa65d951b97fabfc1b294739d560",
    3: "388a07d7963cacf5fc103a281888d20a9170543f2ed5a717da436ecb277d8920",
    4: "a9e5a5787778c90b6cb05f6bc96b9f4bc65b778d11a2eff1b155e7b6e643e955",
    5: "62c6250c431f2bb113398eba3b01f85779196234348bb5da9f185d27c7fa1ffc",
    6: "c1336b9763c87a8f36d4ba6658afb20239ac26069f8c4674c8de63387c6adddb",
    7: "8d71cf9e6509d761b79aaf4c32ab0f332deb78a5a50fefcfc014c5dec9796f99",
    8: "4b4934a683a44615d6574c35e51ba3b089c8a606fefe8175010b09f034ea61a1",
    9: "6bd35029c12a0837a27fffa1412c0c0f88236f23c2b213dbc576fecdd208da2e",
    10: "496cb83c2a55c3da3a141cd0dac1c852a889a233371a9d8bcb4f3f1c582aad2c",
    11: "e5b23a52f72d6affc25791ecabc4c46f2ad1c8bc9419bc0d47e45c682cb48e12",
    12: "23a7fef3302e3583b6c9f406e49fd3c346739f7c95f18226ce1b1b544bfee6fc",
    13: "73b696cdb4a12c580d824ee3b81c8b4c5eec415849add7b4699ca67aa83053ad",
    14: "ccfea5a07713ea22a4bd8a1d2ad55de001971feaafa9aeac6baafdd59f8c4f6a",
    15: "bd12314d1ae7076440ddcd4586c26c5c1976078b1eeda5c14f17406cc5eef5a6",
    16: "7f6d2a9ef52ea0b16e0452b81d09214b217a1f6415d3ba9c3f60efc59b1b35e7",
    17: "6d1417be891a22b6116905124fb0498a3aa803d40b9d7a4aacda3ad878271665",
    18: "4643f10f5cda094f7e45b4ddcb1527b64ba051dd5abfb6f3ba51f541cc837cd8",
    19: "f230bddc5dd00cf85d7869fc1626a0234976295d789927413ad1a723d0d08f11",
    20: "96f6401d32c22852e6e1fcbbc8621f1818a0ee9db46c41e9275e83b7687dee74",
    21: "b5d9c6e9bd5be6c75fca1405bc3457c30265c7fcfbed139fe9596e278eb69428",
    22: "a48e197336f1e7354b69c665a80efebd45d89af6880499101d88468990d3b3f3",
    23: "55dc5981ba40feaf57ed50f94af91797d9be75c4fdf6d0ae27d9664f86c38a7e",
    24: "4b277e2ed07e66e7519e2890ea6f2f6f781429e67f6241d0cc505b0d62a182be",
}

SCALED_N40_TEXT_DIGESTS = {
    2: "4f501d010bc5b106a1fd89d19db042bde84b0187ba2b586b2d36a55131425417",
    3: "87271334a11075a64adc2afe9babc3abc6f0e2c537c34af751476e683b617c48",
    10: "b906a1faab02594c85a141456061a8561450d52b46a5a2264adbffb88ffdf7ce",
    39: "ee8910ecf083a096a26e0897870d29899651ae04e4ddbf231f3561538fb37ad9",
}

# stdout of `crosstnn gen --amazing 12 5` (unscaled)
GEN_12_5_DIGEST = "f62d819a05317a7d535d64214ff8291f6bc653412ecac57b67e1237735d6c7f8"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestBinomialPoly:
    def test_matches_comb_on_a_grid(self):
        # math.comb(top, k) is 0 for 0 <= top < k, matching the vanishing factor
        for alpha in range(0, 5):
            for beta in range(1, 4):
                for k in range(0, 6):
                    p = _poly(_falling_product(alpha, beta, k), math.factorial(k))
                    for b in range(0, 6):
                        assert p.eval(b) == math.comb(alpha + beta * b, k)


class TestAmazingEntry:
    def test_2x2_base3_scaled(self):
        scaled = [[amazing_entry(2, 3, i, j) * 9 for j in range(2)] for i in range(2)]
        assert scaled == [[6, 3], [3, 6]]

    def test_corner_zero_of_4x4_base3(self):
        assert amazing_entry(4, 3, 0, 3) == 0

    def test_2x2_base2_term_by_term(self):
        # (0,0): C(3,0)*C(1+2, 2) = 3;  (0,1): C(7,2)... scaled by b^n = 4
        assert amazing_entry(2, 2, 0, 0) * 4 == math.comb(3, 2) == 3
        assert amazing_entry(2, 2, 0, 1) * 4 == math.comb(5, 2) - math.comb(3, 1) * math.comb(3, 2) == 1
        scaled = [[amazing_entry(2, 2, i, j) * 4 for j in range(2)] for i in range(2)]
        assert scaled == [[3, 1], [1, 3]]

    def test_probabilities_in_unit_interval(self):
        for n in range(1, 6):
            for b in (2, 3, 5):
                for i in range(n):
                    for j in range(n):
                        p = amazing_entry(n, b, i, j)
                        assert 0 <= p <= 1

    def test_validation(self):
        with pytest.raises(IndexError):
            amazing_entry(2, 3, 2, 0)
        with pytest.raises(ValueError):
            amazing_entry(2, 1, 0, 0)
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            amazing_entry(0, 3, 0, 0)


class TestAmazingMatrix:
    def test_3x3_base3_display(self):
        assert amazing_matrix(3, 3, scaled=True) == Matrix(
            [[10, 16, 1], [4, 19, 4], [1, 16, 10]]
        )

    def test_4x4_base3_display(self):
        assert amazing_matrix(4, 3, scaled=True) == Matrix(
            [[15, 51, 15, 0], [5, 45, 30, 1], [1, 30, 45, 5], [0, 15, 51, 15]]
        )

    def test_trivial_chain(self):
        assert amazing_matrix(1, 2) == Matrix([[1]])
        assert amazing_matrix(1, 7, scaled=True) == Matrix([[7]])

    def test_row_sums_are_stochastic(self):
        for n in range(1, 9):
            for b in range(2, 11):
                A = amazing_matrix(n, b)
                for row in A.rows:
                    assert sum(row) == 1
        scaled = amazing_matrix(5, 3, scaled=True)
        for row in scaled.rows:
            assert sum(row) == 3**5

    def test_cross_symmetric(self):
        for n in range(1, 9):
            for b in range(2, 11):
                assert is_cross_symmetric(amazing_matrix(n, b))


class TestSymbolic:
    def test_2x2_entry_specializes(self):
        sym = amazing_matrix_symbolic(2)
        assert sym.entry(1, 1).eval(3) == 6

    def test_entries_have_degree_n(self):
        for n in range(1, 7):
            sym = amazing_matrix_symbolic(n)
            assert all(e.degree == n for row in sym.rows for e in row)

    def test_specialization_matches_numeric(self):
        for n in range(1, 7):
            sym = amazing_matrix_symbolic(n)
            for b in range(n, n + 5):
                if b < 2:
                    continue
                numeric = amazing_matrix(n, b, scaled=True)
                specialized = Matrix([[e.eval(b) for e in row] for row in sym.rows])
                assert specialized == numeric

    def test_row_sum_polynomial_is_power_of_base(self):
        for n in range(1, 7):
            sym = amazing_matrix_symbolic(n)
            for row in sym.rows:
                assert sum(row, Poly()) == B**n

    def test_symbolic_cross_symmetric(self):
        for n in range(1, 7):
            assert is_cross_symmetric(amazing_matrix_symbolic(n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_certificate_specializes_to_numeric_certificates(self, n):
        verdict = cross_symmetric_eliminate(amazing_matrix_symbolic(n), ray=n)
        assert isinstance(verdict, TotallyNonnegative)
        fact = verdict.factorization
        for b in (n, n + 1, n + 7):
            if b < 2:  # the numeric generator needs b >= 2
                continue
            atoms = tuple(Atom(a.kind, n, a.s, a.c.eval(b)) for a in fact.atoms)
            diagonal = tuple(d.eval(b) for d in fact.diagonal)
            for atom in atoms:
                assert atom.c > 0
                assert atom.kind == "bridge" or atom.c < 1
            assert all(d > 0 for d in diagonal)
            specialized = Factorization(n=n, atoms=atoms, diagonal=diagonal)
            assert factorization_product(specialized) == amazing_matrix(n, b, scaled=True)


class TestGenerators:
    """The table-built generators against the per-entry constructions."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_numeric_matches_amazing_entry(self, n):
        for b in range(2, n + 4):
            for scaled in (True, False):
                ours = amazing_matrix(n, b, scaled=scaled).rows
                reference = reference_amazing_matrix(n, b, scaled=scaled).rows
                assert ours == reference, (n, b, scaled)
                assert all(type(x) is Fraction for row in ours for x in row)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_symbolic_matches_falling_products(self, n):
        ours = amazing_matrix_symbolic(n).rows
        reference = reference_amazing_symbolic(n).rows
        for row, ref_row in zip(ours, reference):
            for x, y in zip(row, ref_row):
                assert type(x) is Poly
                assert (x.numerators, x.denominator) == (y.numerators, y.denominator)

    def test_rejects_bad_sizes_and_bases(self):
        with pytest.raises(ValueError):
            amazing_matrix(0, 3)
        with pytest.raises(ValueError):
            amazing_matrix(3, 1)
        with pytest.raises(ValueError):
            amazing_matrix_symbolic(0)

    def test_symbolic_text_digests(self):
        for n, digest in SYMBOLIC_TEXT_DIGESTS.items():
            assert _sha256(matrix_to_text(amazing_matrix_symbolic(n))) == digest, f"n={n}"

    def test_scaled_n40_text_digests(self):
        for b, digest in SCALED_N40_TEXT_DIGESTS.items():
            assert _sha256(matrix_to_text(amazing_matrix(40, b, scaled=True))) == digest, f"b={b}"

    def test_gen_prints_the_recorded_bytes(self, capsys):
        assert main(["gen", "--amazing", "12", "5"]) == 0
        assert _sha256(capsys.readouterr().out) == GEN_12_5_DIGEST

    def test_generators_stay_on_integers(self, monkeypatch):
        # Both generators sum integers and build each entry once: no Poly,
        # RatFunc or Fraction arithmetic.  The numeric one hands the matrix
        # its integers, so no Fraction is built at all.
        calls = []
        operators = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")
        patched = [(cls, name) for cls in (Poly, RatFunc) for name in (*operators, "__truediv__")]
        patched += [(Fraction, name) for name in ("__mul__", "__truediv__", "__add__")]
        for cls, name in patched:

            def wrapper(*args, _original=getattr(cls, name), _name=f"{cls.__name__}.{name}"):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(cls, name, wrapper)
        real_new = Fraction.__dict__["__new__"]
        built = {"scaled": 0, "unscaled": 0, "symbolic": 0}

        def generate(kind, make):
            def counting_new(cls, *args, **kwargs):
                built[kind] += 1
                return real_new.__func__(cls, *args, **kwargs)

            monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
            make()
            monkeypatch.setattr(Fraction, "__new__", real_new)

        for n in range(3, 9):
            generate("symbolic", lambda: amazing_matrix_symbolic(n))
            for b in (2, 3, n + 1):
                generate("scaled", lambda: amazing_matrix(n, b, scaled=True))
                generate("unscaled", lambda: amazing_matrix(n, b))
        assert calls == []
        assert built == {"scaled": 0, "unscaled": 0, "symbolic": 0}


def _verify_stand_in(monkeypatch, rows, n=2, escalation_cap=3):
    """verify_amazing(n), with the matrix family rows (Poly entries) for the carries matrix."""
    monkeypatch.setattr("crosstnn.amazing.amazing_matrix_symbolic", lambda n: Matrix(rows))
    monkeypatch.setattr(
        "crosstnn.amazing.amazing_matrix",
        lambda n, b, scaled=False: Matrix([[p.eval(b) for p in row] for row in rows]),
    )
    return verify_amazing(n, escalation_cap=escalation_cap)


def _cli_report(tmp_path, *flags, n=2):
    """(exit code, decoded report) of the verify-amazing command."""
    out = tmp_path / "report.json"
    code = main(["verify-amazing", "--n", str(n), *flags, "-o", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


class TestVerify:
    def test_n1_trivially_certified(self):
        report = verify_amazing(1)
        assert report.overall == "certified"
        assert report.base_checks == ()

    def test_n2_certified_with_center_atom(self):
        report = verify_amazing(2)
        assert report.overall == "certified"
        verdict = report.final_ray.verdict
        assert isinstance(verdict, TotallyNonnegative)
        atoms = verdict.factorization.atoms
        assert len(atoms) == 1
        assert atoms[0].kind == "center"
        assert atoms[0].c == RatFunc(B - 1, B + 1)

    def test_n3_certified(self):
        report = verify_amazing(3)
        assert report.overall == "certified"
        assert [c.b for c in report.base_checks] == [2]
        assert all(isinstance(c.verdict, TotallyNonnegative) for c in report.base_checks)

    def test_needs_a_positive_size(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            verify_amazing(0)

    def test_ray_starts_at_symbolic_regime(self):
        assert verify_amazing(4).ray_rounds[0].beta == 4
        assert verify_amazing(2).ray_rounds[0].beta == 2

    def test_report_doc_is_json_ready(self):
        import json

        doc = report_to_doc(verify_amazing(3))
        text = json.dumps(doc, indent=2)
        parsed = json.loads(text)
        assert parsed["overall"] == "certified"
        assert parsed["n"] == 3
        assert [entry["b"] for entry in parsed["bases"]] == [2]
        assert parsed["ray"]["rounds"][0]["verdict"] == "totally-nonnegative"

    def test_escalation_certifies_past_an_indefinite_ray(self, monkeypatch, tmp_path):
        # (b - 3)^2 touches zero at b = 3: ray 2 is indefinite up to 3, the
        # bases 2 and 3 are checked numerically and ray 4 certifies.
        P, Q = B * B + 10, (B - 3) * (B - 3)
        report = _verify_stand_in(monkeypatch, [[P, Q], [Q, P]])
        assert [r.beta for r in report.ray_rounds] == [2, 4]
        first, last = (r.verdict for r in report.ray_rounds)
        assert isinstance(first, Inapplicable) and first.bound == 3
        assert isinstance(last, TotallyNonnegative)
        assert [c.b for c in report.residual_checks] == [2, 3]
        assert all(isinstance(c.verdict, TotallyNonnegative) for c in report.residual_checks)
        assert report.overall == "certified"
        assert _cli_report(tmp_path) == (0, report_to_doc(report))

    def test_escalation_cap_reports_partial(self, monkeypatch, tmp_path):
        P, Q = B * B + 10, (B - 3) * (B - 3)
        report = _verify_stand_in(monkeypatch, [[P, Q], [Q, P]], escalation_cap=0)
        assert [r.beta for r in report.ray_rounds] == [2]
        assert report.residual_checks == ()
        assert report.overall == "partial"
        assert _cli_report(tmp_path, "--escalation-cap", "0") == (2, report_to_doc(report))

    def test_escalation_reports_a_refuted_residual_base(self, monkeypatch, tmp_path):
        # b - 3 is negative at the residual base 2, so its first step refutes.
        P, Q = B * B + 10, B - 3
        report = _verify_stand_in(monkeypatch, [[P, Q], [Q, P]])
        assert [c.b for c in report.residual_checks] == [2, 3]
        assert isinstance(report.residual_checks[0].verdict, NotTnn)
        assert report.overall == "refuted"
        code, doc = _cli_report(tmp_path)
        assert (code, doc) == (1, report_to_doc(report))
        assert doc["residual_bases"][0] == {
            "b": 2,
            "verdict": "not-totally-nonnegative",
            "witness": {"reason": "negative-multiplier", "s": 1, "t": 1, "value": "-1"},
        }

    def test_refuted_residual_base_reports_its_trace(self, monkeypatch, tmp_path):
        # (b - 4)^2 is indefinite on the ray from 3 up to 5; at b = 3 the
        # middle pivot is 1 - 1 - 1 after one bridge step.
        zero, one = Poly(), Poly((1,))
        rows = [[one, one, zero], [one, (B - 4) * (B - 4), one], [zero, one, one]]
        report = _verify_stand_in(monkeypatch, rows, n=3)
        assert [r.beta for r in report.ray_rounds] == [3, 6]
        assert [c.b for c in report.residual_checks] == [3, 4, 5]
        assert report.overall == "refuted"
        code, doc = _cli_report(tmp_path, n=3)
        assert (code, doc) == (1, report_to_doc(report))
        assert doc["residual_bases"][0]["witness"] == {
            "reason": "nonpositive-pivot",
            "s": 2,
            "t": 2,
            "value": "-1",
            "trace": [{"s": 1, "t": 1, "c": "1", "center": False}],
        }


class TestOracleAgreementOnCarriesMatrices:
    def test_small_sizes_and_bases(self):
        for n in range(1, 6):
            for b in range(2, 7):
                A = amazing_matrix(n, b, scaled=True)
                ours = cross_symmetric_eliminate(A)
                neville = neville_tnn_test(A)
                brute = brute_force_tnn(A)
                assert isinstance(ours, TotallyNonnegative)
                assert isinstance(neville, TotallyNonnegative)
                assert isinstance(brute, TotallyNonnegative)
