"""Carries transition matrices, numeric and symbolic, and base coverage."""

import math
from fractions import Fraction

import pytest

from crosstnn import (
    Atom,
    Factorization,
    Inapplicable,
    Matrix,
    Poly,
    RatFunc,
    TotallyNonnegative,
    amazing_entry,
    amazing_matrix,
    amazing_matrix_symbolic,
    binomial_poly,
    brute_force_tnn,
    cross_symmetric_eliminate,
    factorization_product,
    is_cross_symmetric,
    neville_tnn_test,
    report_to_doc,
    verify_amazing,
)

B = Poly.variable()


class TestBinomialPoly:
    def test_empty_product_is_one(self):
        assert binomial_poly(0, 0, 0) == Poly((1,))

    def test_matches_integer_binomial(self):
        # top = 1 + 2b; at b = 2 this is C(5, 2)
        assert binomial_poly(1, 2, 2).eval(2) == math.comb(5, 2) == 10

    def test_vanishes_at_small_integer_tops(self):
        # top = 3 + b; at b = 1 the top is 4 < k = 5, a factor vanishes
        assert binomial_poly(3, 1, 5).eval(1) == 0
        assert binomial_poly(3, 1, 5).eval(0) == 0

    def test_degree(self):
        assert binomial_poly(2, 1, 4).degree == 4

    @pytest.mark.parametrize("bad", [0.1, 1.0, "1", None])
    def test_rejects_inexact_arguments(self, bad):
        with pytest.raises(TypeError):
            binomial_poly(bad, 1, 1)
        with pytest.raises(TypeError):
            binomial_poly(1, bad, 1)

    def test_matches_comb_on_a_grid(self):
        # math.comb(top, k) is 0 for 0 <= top < k, matching the vanishing factor
        for alpha in range(0, 5):
            for beta in range(1, 4):
                for k in range(0, 6):
                    p = binomial_poly(alpha, beta, k)
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

    def test_escalation_cap_reports_partial(self):
        report = verify_amazing(2, escalation_cap=0)
        # n=2 needs no escalation, so the cap never triggers here; exercise
        # the bookkeeping by asserting the certified run used zero raises
        assert report.overall == "certified"
        assert len(report.ray_rounds) == 1


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
