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


def _per_call_laplace_terms(combos, rank):
    k = len(combos[0])
    return [
        [(c[j] - 1, rank[c[:j] + c[j + 1 :]], (k - 1 - j) % 2) for j in range(k)]
        for c in combos
    ]


def per_call_brute_force(A, ray=None):
    """The expansion sweep with its index tables rebuilt on every call."""
    n = A.n
    kernel, rows, dens = A.kernel, A.nums, A.dens
    mul, add, sub, sign = kernel.mul, kernel.add, kernel.sub, kernel.sign
    one, zero = kernel.split(1)[0], kernel.split(0)[0]
    indices = range(1, n + 1)
    prev_combos, prev, prev_dens = [()], [one], [one]
    for size in indices:
        combos = list(itertools.combinations(indices, size))
        rank = {c: r for r, c in enumerate(prev_combos)}
        width = len(prev_combos)
        terms = _per_call_laplace_terms(combos, rank)
        minor_dens = [mul(prev_dens[rank[c[:-1]]], dens[c[-1] - 1]) for c in combos]
        minors = []
        for rows_idx, den in zip(combos, minor_dens):
            last = rows[rows_idx[-1] - 1]
            base = rank[rows_idx[:-1]] * width
            for cols_idx, expansion in zip(combos, terms):
                m = zero
                for col, rest, negative in expansion:
                    a = last[col]
                    if a:
                        b = prev[base + rest]
                        if b:
                            m = sub(m, mul(a, b)) if negative else add(m, mul(a, b))
                try:
                    refuted = m and sign(m, den, ray) < 0
                except SignUndecidedOnRay as exc:
                    return Inapplicable(
                        INAPPLICABLE_SYMBOLIC_INDEFINITE,
                        bound=exc.witness_bound,
                        rows=rows_idx,
                        cols=cols_idx,
                    )
                if refuted:
                    value = kernel.scalar(m, den)
                    return NotTnn(
                        Witness(REASON_NEGATIVE_MINOR, rows=rows_idx, cols=cols_idx, value=value)
                    )
                minors.append(m)
        prev_combos, prev, prev_dens = combos, minors, minor_dens
    return TotallyNonnegative()


def _verdict_fields(verdict):
    if isinstance(verdict, NotTnn):
        w = verdict.witness
        return "NotTnn", w.reason, w.rows, w.cols, type(w.value), w.value
    if isinstance(verdict, Inapplicable):
        return "Inapplicable", verdict.reason, verdict.rows, verdict.cols, verdict.bound
    return (type(verdict).__name__,)


class TestIndexTablesOncePerSize:
    """The index tables depend on n alone; building them once changes no verdict."""

    def test_random_numeric_matches_per_call_tables(self):
        rng = random.Random("tables-numeric")
        labels = set()
        for trial in range(105):
            n = trial % 7 + 1
            if trial % 3 == 0:
                rows = [list(r) for r in random_certified_tnn(n, f"tables-{trial}", n + 1)[0].rows]
            else:
                rows = _random_rows(rng, n)
            if trial % 5 == 1 and n > 1:
                rows[-1] = list(rows[0])  # singular
            if trial % 4 == 2:
                i, j = rng.randrange(n), rng.randrange(n)
                rows[i][j] = -rows[i][j]  # a sign flip
            A = Matrix(rows)
            ours = _verdict_fields(brute_force_tnn(A))
            assert ours == _verdict_fields(per_call_brute_force(A))
            labels.add(ours[0])
        assert labels == {"NotTnn", "TotallyNonnegative"}

    @pytest.mark.parametrize("n", [4, 5])
    def test_symbolic_matches_per_call_tables(self, n):
        A = amazing_matrix_symbolic(n)
        for ray in (n, 2):
            assert _verdict_fields(brute_force_tnn(A, ray)) == _verdict_fields(
                per_call_brute_force(A, ray)
            )

    def test_second_call_builds_no_table(self):
        tables = crosstnn.matrix._minor_tables
        A = amazing_matrix(6, 3, scaled=True)
        brute_force_tnn(A)
        built = tables.cache_info().misses
        assert isinstance(brute_force_tnn(A), TotallyNonnegative)
        assert isinstance(brute_force_tnn(amazing_matrix(6, 5, scaled=True)), TotallyNonnegative)
        assert tables.cache_info().misses == built
        tables.cache_clear()
        brute_force_tnn(A)
        assert tables.cache_info().misses == 6

    def test_cached_tables_are_tuples(self):
        n = 5
        brute_force_tnn(amazing_matrix(n, 2, scaled=True))
        triples = 0
        for size in range(1, n + 1):
            combos, heads, width, terms = crosstnn.matrix._minor_tables(n, size)
            assert type(combos) is type(heads) is type(terms) is tuple
            assert all(type(c) is tuple for c in combos)
            assert all(type(t) is tuple for expansion in terms for t in expansion)
            assert all(type(expansion) is tuple for expansion in terms)
            assert width == (len(crosstnn.matrix._minor_tables(n, size - 1)[0]) if size > 1 else 1)
            triples += sum(map(len, terms))
        assert triples == n * 2 ** (n - 1)
