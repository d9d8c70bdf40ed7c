"""The all-minors oracle: the expansion sweep against a per-minor reference."""

import itertools
import random
from fractions import Fraction

import pytest

import crosstnn.matrix
from crosstnn import (
    Matrix,
    NotTnn,
    Poly,
    RatFunc,
    SignUndecidedOnRay,
    TotallyNonnegative,
    amazing_matrix,
    amazing_matrix_symbolic,
    brute_force_tnn,
    minor,
    random_certified_tnn,
    scalar_sign,
)
from crosstnn.verdicts import (
    INAPPLICABLE_SYMBOLIC_INDEFINITE,
    REASON_NEGATIVE_MINOR,
    Inapplicable,
    Witness,
)

B = Poly.variable()


def reference_brute_force(A, ray=None):
    """One elimination per minor, in the sweep's order: the oracle before the sweep."""
    indices = range(1, A.n + 1)
    for size in indices:
        for rows_idx in itertools.combinations(indices, size):
            for cols_idx in itertools.combinations(indices, size):
                value = minor(A, rows_idx, cols_idx)
                try:
                    sign = scalar_sign(value, ray)
                except SignUndecidedOnRay as exc:
                    return Inapplicable(
                        INAPPLICABLE_SYMBOLIC_INDEFINITE,
                        bound=exc.witness_bound,
                        rows=rows_idx,
                        cols=cols_idx,
                    )
                if sign < 0:
                    return NotTnn(
                        Witness(REASON_NEGATIVE_MINOR, rows=rows_idx, cols=cols_idx, value=value)
                    )
    return TotallyNonnegative()


def assert_same_verdict(A, ray=None):
    ours = brute_force_tnn(A, ray)
    reference = reference_brute_force(A, ray)
    assert ours == reference
    if isinstance(ours, NotTnn):
        assert type(ours.witness.value) is type(reference.witness.value)
    return ours


def _random_rows(rng, n):
    # Small nonnegative entries over mixed denominators, about a third zeros,
    # so most matrices are refuted at size 1 or 2 and some are singular.
    return [
        [Fraction(rng.choice((0, 0, 1, 2, 3, 5)), rng.choice((1, 2, 3, 7))) for _ in range(n)]
        for _ in range(n)
    ]


class TestAgainstReference:
    def test_random_numeric(self):
        rng = random.Random("sweep-numeric")
        sizes = set()
        for trial in range(140):
            n = trial % 7 + 1
            rows = _random_rows(rng, n)
            if trial % 5 == 0 and n > 1:
                rows[-1] = list(rows[0])  # singular
            if trial % 7 == 3:
                rows[rng.randrange(n)][rng.randrange(n)] = Fraction(-1, 3)
            verdict = assert_same_verdict(Matrix(rows))
            if isinstance(verdict, NotTnn):
                sizes.add(len(verdict.witness.rows))
        assert {1, 2} <= sizes

    def test_certified_products_and_perturbed_copies(self):
        rng = random.Random("sweep-products")
        sizes = set()
        for trial in range(42):
            n = trial % 7 + 1
            A, _ = random_certified_tnn(n, f"sweep-{trial}", atom_count=rng.randint(0, n + 2))
            assert isinstance(assert_same_verdict(A), TotallyNonnegative)
            i, j = rng.randrange(n), rng.randrange(n)
            for scale in (-1, Fraction(1, 2), 2):
                rows = [list(r) for r in A.rows]
                rows[i][j] *= scale
                verdict = assert_same_verdict(Matrix(rows))
                if isinstance(verdict, NotTnn):
                    sizes.add(len(verdict.witness.rows))
        assert {1, 2, 3} <= sizes

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symbolic_carries_matrices(self, n):
        A = amazing_matrix_symbolic(n)
        for ray in sorted({1, 2, n}):
            assert_same_verdict(A, ray)

    def test_symbolic_refutation_value_is_a_reduced_ratfunc(self):
        A = Matrix([[B, B + 2], [B + 1, B]])
        verdict = assert_same_verdict(A, 1)
        assert verdict.witness.value == RatFunc(-3 * B - 2)

    def test_ratfunc_entries(self):
        x = RatFunc(Poly((1,)), B + 1)
        y = RatFunc(B, B + 2)
        cases = [
            (Matrix([[1, x], [x, 1]]), 1),
            (Matrix([[1, x, x * x], [x, 1, x], [x * x, x, 1]]), 1),
            (Matrix([[1, y, 0], [x, 1, y], [0, x, 1]]), 1),
            (Matrix([[y, 1], [1, x]]), 1),  # refuted at size 2
            (Matrix([[1, RatFunc(B - 3, B + 1)], [0, 1]]), 1),  # indefinite
        ]
        labels = [type(assert_same_verdict(A, ray)).__name__ for A, ray in cases]
        assert labels == [
            "TotallyNonnegative",
            "TotallyNonnegative",
            "TotallyNonnegative",
            "NotTnn",
            "Inapplicable",
        ]


def test_sweep_makes_no_minor_calls(monkeypatch):
    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(crosstnn.matrix, "minor", counting(crosstnn.matrix.minor))
    monkeypatch.setattr(crosstnn.matrix, "_det_rows", counting(crosstnn.matrix._det_rows))
    assert isinstance(brute_force_tnn(amazing_matrix(6, 10, scaled=True)), TotallyNonnegative)
    assert isinstance(brute_force_tnn(amazing_matrix_symbolic(4), ray=4), TotallyNonnegative)
    assert isinstance(brute_force_tnn(Matrix([[1, 2], [3, 4]])), NotTnn)
    assert calls == []


def test_sweep_makes_no_poly_or_ratfunc_arithmetic(monkeypatch):
    # The minors are summed on the row kernel's integer polynomials, and a
    # sign the shifts leave open is queried on the reduced scalar alone.
    x, y = RatFunc(B + 2, B + 1), RatFunc(Poly((1,)), B + 1)
    cases = [(amazing_matrix_symbolic(n), ray) for n in range(3, 7) for ray in (2, n)]
    cases += [(Matrix(rows), ray) for rows in ([[x, y], [y, x]], [[y, x], [x, y]]) for ray in (1, 5)]
    calls = []
    for cls in (Poly, RatFunc):
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):

            def wrapper(*args, _original=getattr(cls, name), _name=f"{cls.__name__}.{name}"):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(cls, name, wrapper)
    verdicts = [type(brute_force_tnn(A, ray)).__name__ for A, ray in cases]
    assert calls == []
    assert verdicts == ["Inapplicable", "TotallyNonnegative"] * 4 + ["TotallyNonnegative"] * 2 + [
        "NotTnn"
    ] * 2


class TestWiderOracleCoverage:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_scaled_carries_matrices(self, n):
        for b in range(2, 7):
            assert isinstance(brute_force_tnn(amazing_matrix(n, b, scaled=True)), TotallyNonnegative)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symbolic_carries_matrix_on_its_ray(self, n):
        verdict = brute_force_tnn(amazing_matrix_symbolic(n), ray=n)
        assert isinstance(verdict, TotallyNonnegative)
