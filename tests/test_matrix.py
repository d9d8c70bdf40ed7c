"""Matrix core: rotation calculus, minors, determinants, brute-force oracle."""

import copy
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosstnn import (
    Chip,
    Inapplicable,
    Matrix,
    NotTnn,
    PlanarNetwork,
    Poly,
    RatFunc,
    Slant,
    TotallyNonnegative,
    amazing_entry,
    amazing_matrix,
    amazing_matrix_symbolic,
    brute_force_tnn,
    determinant,
    eliminate_detailed,
    exchange_matrix,
    is_cross_symmetric,
    matrix_from_doc,
    matrix_from_payload,
    matrix_from_text,
    matrix_to_doc,
    matrix_to_text,
    minor,
    neville_tnn_test,
    path_matrix,
    peel_certificate,
    tau,
    w0,
)
from crosstnn.exact import (
    SignUndecidedOnRay,
    _as_poly,
    _int_mul,
    _int_poly_gcd,
    _int_strip,
    _int_sub,
    _numeric_reduce,
    _symbolic_reduce,
    as_ratfunc,
    as_rational,
    format_scalar,
    parse_scalar,
    scalar_sign,
)
from crosstnn.elimination import verdict_to_doc
from crosstnn.cli import main
from crosstnn.matrix import (
    _NUMERIC,
    _REDUCE_BITS,
    _RESIDUE_POINT,
    _RESIDUE_PRIME,
    _SYMBOLIC,
    _RowKernel,
    _residues_independent,
)
from conftest import matrices_on_rays, random_matrix, reference_determinant

B = Poly.variable()


def _cofactor_det(rows):
    # Independent determinant oracle: first-row Laplace expansion.
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _cofactor_det(sub)
        total = total + (term if j % 2 == 0 else -term)
    return total


class TestIndexReversal:
    def test_w0_values(self):
        assert w0(1, 5) == 5
        assert w0(3, 5) == 3
        assert w0(2, 4) == 3

    def test_w0_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            w0(0, 5)
        with pytest.raises(IndexError):
            w0(6, 5)


class TestTau:
    def test_small_example(self):
        assert tau(Matrix([[1, 2], [3, 4]])) == Matrix([[4, 3], [2, 1]])

    def test_fixes_cross_symmetric_matrix(self):
        m = Matrix([[6, 3], [3, 6]])
        assert tau(m) == m

    def test_involution(self):
        rng = random.Random("tau-involution")
        for _ in range(20):
            A = random_matrix(rng, 5)
            assert tau(tau(A)) == A

    def test_equals_conjugation_by_exchange(self):
        rng = random.Random("tau-exchange")
        for n in range(1, 6):
            A = random_matrix(rng, n)
            J = exchange_matrix(n)
            assert J * A * J == tau(A)

    def test_multiplicative(self):
        rng = random.Random("tau-product")
        for _ in range(20):
            n = rng.randint(1, 5)
            A, C = random_matrix(rng, n), random_matrix(rng, n)
            assert tau(A * C) == tau(A) * tau(C)


class TestCrossSymmetry:
    def test_known_cross_symmetric(self):
        assert is_cross_symmetric(Matrix([[10, 16, 1], [4, 19, 4], [1, 16, 10]]))

    def test_known_asymmetric(self):
        assert not is_cross_symmetric(Matrix([[1, 2], [3, 4]]))

    def test_identity(self):
        for n in (1, 2, 5):
            assert is_cross_symmetric(Matrix.identity(n))


class TestExchangeMatrix:
    def test_small(self):
        assert exchange_matrix(2) == Matrix([[0, 1], [1, 0]])
        assert exchange_matrix(1) == Matrix([[1]])

    def test_involution(self):
        for n in range(1, 6):
            J = exchange_matrix(n)
            assert J * J == Matrix.identity(n)

    def test_needs_a_positive_size(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            exchange_matrix(0)


class TestMinor:
    def test_two_by_two(self):
        assert minor(Matrix([[6, 3], [3, 6]]), (1, 2), (1, 2)) == 27

    def test_singletons_are_entries(self):
        A = Matrix([[5, 7], [11, 13]])
        for i in (1, 2):
            for j in (1, 2):
                assert minor(A, (i,), (j,)) == A.entry(i, j)

    def test_rotation_minor_identity(self):
        rng = random.Random("minor-identity")
        for _ in range(30):
            n = rng.randint(1, 5)
            A = random_matrix(rng, n)
            rotated = tau(A)
            for size in range(1, n + 1):
                rows = sorted(rng.sample(range(1, n + 1), size))
                cols = sorted(rng.sample(range(1, n + 1), size))
                mirrored_rows = sorted(w0(i, n) for i in rows)
                mirrored_cols = sorted(w0(j, n) for j in cols)
                assert minor(rotated, rows, cols) == minor(A, mirrored_rows, mirrored_cols)

    def test_validation(self):
        A = Matrix.identity(3)
        with pytest.raises(ValueError):
            minor(A, (1, 2), (1,))
        with pytest.raises(ValueError):
            minor(A, (2, 1), (1, 2))
        with pytest.raises(ValueError):
            minor(A, (), ())
        with pytest.raises(ValueError):
            minor(A, (1, 4), (1, 2))


class TestDeterminant:
    def test_identity(self):
        assert determinant(Matrix.identity(4)) == 1

    def test_repeated_rows(self):
        assert determinant(Matrix([[1, 1], [1, 1]])) == 0

    def test_scaled_carries_matrix(self):
        A = amazing_matrix(3, 3, scaled=True)
        expected = _cofactor_det([list(r) for r in A.rows])
        assert expected == 729
        assert determinant(A) == expected

    def test_matches_cofactor_oracle(self):
        rng = random.Random("det-oracle")
        for _ in range(25):
            n = rng.randint(1, 5)
            A = random_matrix(rng, n)
            assert determinant(A) == _cofactor_det([list(r) for r in A.rows])

    def test_symbolic(self):
        A = Matrix([[B + 1, 1], [1, B + 1]])
        assert determinant(A) == B * B + 2 * B
        assert determinant(Matrix([[B, B], [B, B]])) == 0

    def test_matches_cofactor_oracle_symbolic(self):
        rng = random.Random("det-oracle-symbolic")
        polys = [Poly(()), Poly((1,)), B, B + 1, 2 - B, B * B - 3, Poly((0, 0, 0, 1))]
        for _ in range(25):
            n = rng.randint(1, 4)
            A = Matrix([[rng.choice(polys) for _ in range(n)] for _ in range(n)])
            assert determinant(A) == _cofactor_det([list(r) for r in A.rows])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symbolic_specializes_to_numeric(self, n):
        det = determinant(amazing_matrix_symbolic(n))
        assert isinstance(det, RatFunc) and det.den == 1
        # The numeric generator needs b >= 2; the symbolic one b >= n.
        for b in {n, n + 1, n + 7} - {1}:
            assert det.eval(b) == determinant(amazing_matrix(n, b, scaled=True))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_row_swaps_flip_the_sign(self, n):
        assert determinant(exchange_matrix(n)) == (-1) ** (n * (n - 1) // 2)

    def test_symbolic_zero_leading_entry(self):
        # Each of the first two columns pivots on its last row: two swaps.
        A = Matrix([[0, 1, B], [0, 0, 1], [B + 1, 0, B]])
        assert determinant(A) == B + 1
        assert minor(A, (1, 3), (1, 2)) == -(B + 1)


def _assert_same_scalar(value, expected):
    assert type(value) is type(expected)
    assert format_scalar(value) == format_scalar(expected)


class TestAgainstReference:
    """The row-kernel determinant gives the field elimination's values."""

    @settings(max_examples=200, deadline=None)
    @given(matrices_on_rays(), st.data())
    def test_determinant_and_minor(self, case, data):
        A, _ = case
        _assert_same_scalar(determinant(A), reference_determinant(A.rows))
        k = data.draw(st.integers(1, A.n))
        index_set = st.lists(st.integers(1, A.n), min_size=k, max_size=k, unique=True).map(sorted)
        rows_idx, cols_idx = data.draw(index_set), data.draw(index_set)
        sub = [[A.entry(i, j) for j in cols_idx] for i in rows_idx]
        _assert_same_scalar(minor(A, rows_idx, cols_idx), reference_determinant(sub))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_carries_matrices(self, n):
        for A in (amazing_matrix_symbolic(n), amazing_matrix(n, 10, scaled=True)):
            _assert_same_scalar(determinant(A), reference_determinant(A.rows))
            for k in range(1, n + 1):
                # the lower-left k x k corner
                rows_idx, cols_idx = range(n - k + 1, n + 1), range(1, k + 1)
                sub = [[A.entry(i, j) for j in cols_idx] for i in rows_idx]
                _assert_same_scalar(minor(A, rows_idx, cols_idx), reference_determinant(sub))


_INT = st.integers(-(10**6), 10**6)


class TestNumericCombine:
    """combine's row is the reduced uncancelled update times a small positive integer.

    Dividing P and B by their gcd first leaves the reduced row unchanged,
    and ``update`` reduces only a denominator that is negative or longer
    than ``_REDUCE_BITS``, so the row it returns is reduced or has such a
    short denominator, and that is always positive.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 36),
        _INT.filter(bool),
        st.one_of(st.just(0), _INT),
        st.integers(1, 10**6),
        st.lists(st.tuples(st.one_of(st.just(0), _INT), st.one_of(st.just(0), _INT)), max_size=8),
    )
    # dT past 2^K, with a factor 2 of T and dT that cancelling P and B leaves
    @example(g=1, p=1, b=1, dT=2**_REDUCE_BITS, pairs=[(2, 4), (6, 0)])
    # a negative P, as pivots and _neville_pass may pass
    @example(g=3, p=-1, b=2, dT=5, pairs=[(1, 1), (0, 2)])
    def test_matches_the_update_reduced_once(self, g, p, b, dT, pairs):
        P, B = g * p, g * b
        T, S = [x for x, _ in pairs], [y for _, y in pairs]
        expected = _numeric_reduce([P * x - B * y for x, y in pairs], dT * P)
        nums, den = _NUMERIC.combine(P, T, dT, B, S)
        assert den > 0
        assert math.gcd(den, *nums) == 1 or den.bit_length() <= _REDUCE_BITS
        assert _numeric_reduce(nums, den) == expected


# Integer polynomials, ascending by degree, [] for zero.
_ZPOLY = st.lists(st.integers(-30, 30), max_size=4).map(_int_strip)
_NONZERO_ZPOLY = _ZPOLY.filter(bool)


class TestSymbolicCombine:
    """Cancelling gcd(P, B) first leaves the reduced row and the ratio unchanged."""

    @settings(max_examples=300, deadline=None)
    @given(
        _NONZERO_ZPOLY,
        _NONZERO_ZPOLY,
        _ZPOLY,
        _NONZERO_ZPOLY,
        st.lists(st.tuples(_ZPOLY, _ZPOLY), max_size=5),
    )
    def test_matches_the_update_reduced_once(self, g, p, q, dT, pairs):
        P, B = _int_mul(g, p), _int_mul(g, q)
        T, S = [x for x, _ in pairs], [y for _, y in pairs]
        # The uncancelled update, reduced once: the kernel before it cancelled.
        expected = _symbolic_reduce(
            [_int_sub(_int_mul(P, x), _int_mul(B, y)) for x, y in pairs], _int_mul(dT, P)
        )
        assert _SYMBOLIC.combine(P, T, dT, B, S) == expected

    @settings(max_examples=300, deadline=None)
    @given(_NONZERO_ZPOLY, _NONZERO_ZPOLY, _NONZERO_ZPOLY, _NONZERO_ZPOLY, _NONZERO_ZPOLY)
    def test_ratio_of_the_cancelled_pair(self, g, p, q, dB, dP):
        P, B = _int_mul(g, p), _int_mul(g, q)
        Pc, Bc = _SYMBOLIC.cancel(P, B)
        assert _int_poly_gcd(Pc, Bc)[0] == [1]
        expected = _SYMBOLIC.scalar(_int_mul(B, dP), _int_mul(P, dB))
        assert _SYMBOLIC.scalar(_int_mul(Bc, dP), _int_mul(Pc, dB)) == expected


_RATIONAL = st.one_of(
    st.integers(-50, 50), st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9))
)
_POLY = st.lists(_RATIONAL, max_size=3).map(Poly)
_SCALAR = st.one_of(
    _RATIONAL,
    _POLY,
    st.builds(RatFunc, _POLY, st.sampled_from([(1,), (1, 1), (2, 1), (3, 2), (1, 0, 1)]).map(Poly)),
)


class TestKernelStart:
    """start and split take each scalar as it is, and agree with the lifted scalar."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_RATIONAL, min_size=1, max_size=5))
    def test_numeric(self, row):
        assert _NUMERIC.start(row) == _NUMERIC.start([as_rational(x) for x in row])
        for x in row:
            assert _NUMERIC.split(x) == _NUMERIC.split(as_rational(x))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_SCALAR, min_size=1, max_size=5))
    def test_symbolic(self, row):
        lift = as_ratfunc if any(isinstance(x, RatFunc) for x in row) else _as_poly
        assert _SYMBOLIC.start(row) == _SYMBOLIC.start([lift(x) for x in row])
        for x in row:
            assert _SYMBOLIC.split(x) == _SYMBOLIC.split(as_ratfunc(x))
            if not isinstance(x, RatFunc):
                assert _SYMBOLIC.split(x) == _SYMBOLIC.split(_as_poly(x))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.booleans(), _SCALAR))
    def test_split_is_the_start_of_one_entry(self, x):
        # The numeric kernel takes rationals only; the symbolic one takes every kind.
        for kernel in (_SYMBOLIC,) if isinstance(x, (Poly, RatFunc)) else (_NUMERIC, _SYMBOLIC):
            (num,), den = kernel.start([x])
            assert kernel.split(x) == (num, den)

    def test_rows_over_distinct_denominators(self):
        # Pinned from the incremental-product start this one replaced.
        rows = [
            [RatFunc(B + 1, B + 2), RatFunc(Poly((Fraction(1, 2),)), B * B + 1), 3 * B / (2 * B + 3)],
            [(B * B - 1) / (B + 2), Fraction(2, 3), B / (B * B + 1), B + Fraction(1, 4)],
            [
                Poly((Fraction(2, 3), 1)) / (B + 1),
                B / (B + 2),
                Poly((0, 0, Fraction(5, 6))) / Poly((1, 0, 3)),
                0,
            ],
        ]
        assert [_SYMBOLIC.start(row) for row in rows] == [
            ([[6, 10, 10, 10, 4], [6, 7, 2], [0, 12, 6, 12, 6]], [12, 14, 16, 14, 4]),
            (
                [[-12, 0, 0, 0, 12], [16, 8, 16, 8], [0, 24, 12], [6, 27, 18, 27, 12]],
                [24, 12, 24, 12],
            ),
            ([[8, 16, 30, 48, 18], [0, 6, 6, 18, 18], [0, 0, 10, 15, 5], []], [12, 18, 42, 54, 18]),
        ]


class TestKernelShape:
    """The shared routines live on _RowKernel, each kind's ring and queries on its own class."""

    OWN = "mul add sub reduce scalar split cancel update common sign residues".split()
    SHARED = "start combine transposed paired_update singular pivots".split()

    @pytest.mark.parametrize("kernel", [_NUMERIC, _SYMBOLIC], ids=["numeric", "symbolic"])
    def test_each_kind_defines_its_own(self, kernel):
        assert type(kernel).__bases__ == (_RowKernel,)
        assert set(self.OWN) <= set(vars(type(kernel)))

    def test_the_base_holds_only_shared_routines(self):
        assert not set(self.OWN) & set(vars(_RowKernel))
        assert set(self.SHARED) <= set(vars(_RowKernel))
        assert "__init__" not in vars(_RowKernel) and vars(_RowKernel)["__slots__"] == ()


def _sign_or_bound(query):
    # A sign, or the escalation bound of an undecided query.
    try:
        return query()
    except SignUndecidedOnRay as exc:
        return ("undecided", exc.witness_bound)


def _product_of_linears(c, roots):
    out = [c]
    for r in roots:
        out = _int_mul(out, [-r, 1])
    return out


# Polynomials with integer roots near the ray, so some have a root on it.
_ROOTED_ZPOLY = st.builds(
    _product_of_linears, st.integers(-5, 5).filter(bool), st.lists(st.integers(-4, 9), max_size=3)
)

_SIGN_ZPOLY = st.one_of(_ZPOLY, _ROOTED_ZPOLY)
_SIGN_NONZERO_ZPOLY = _SIGN_ZPOLY.filter(bool)


class TestKernelSign:
    """Signs read from the shifts agree with the reduced scalar's sign query."""

    @settings(max_examples=400, deadline=None)
    @given(_SIGN_ZPOLY, _SIGN_NONZERO_ZPOLY, st.integers(1, 8))
    def test_sign(self, num, den, ray):
        expected = _sign_or_bound(lambda: scalar_sign(_SYMBOLIC.scalar(num, den), ray))
        assert _sign_or_bound(lambda: _SYMBOLIC.sign(num, den, ray)) == expected

    @settings(max_examples=400, deadline=None)
    @given(
        _SIGN_NONZERO_ZPOLY,
        _SIGN_NONZERO_ZPOLY,
        _SIGN_NONZERO_ZPOLY,
        _SIGN_NONZERO_ZPOLY,
        st.integers(1, 8),
    )
    def test_ratio_sign(self, B, dB, P, dP, ray):
        # Neville's multiplier (B/dB) / (P/dP), read as the pair B*dP over P*dB.
        num, den = _int_mul(B, dP), _int_mul(P, dB)
        expected = _sign_or_bound(lambda: scalar_sign(_SYMBOLIC.scalar(num, den), ray))
        assert _sign_or_bound(lambda: _SYMBOLIC.sign(num, den, ray)) == expected

    @pytest.mark.parametrize(
        "num, den, ray, expected",
        [
            # one-signed shifts: read directly, negative leading denominator
            ([1, 1], [-2, -1], 1, -1),
            # u^2 - u + 1 after the shift to the ray 3: no real root, mixed signs
            ([13, -7, 1], [1], 3, 1),
            # a root at the ray start and one above it
            ([3, -1], [1], 3, ("undecided", 3)),
            ([-10, 7, -1], [5, 1], 1, ("undecided", 5)),
            # the denominator's root above the ray
            ([1], [-6, 1], 2, ("undecided", 6)),
            ([], [-6, 1], 2, 0),
        ],
    )
    def test_fallback_cases(self, num, den, ray, expected):
        assert _sign_or_bound(lambda: _SYMBOLIC.sign(num, den, ray)) == expected

    @pytest.mark.parametrize("ray", [None, 0])
    def test_sign_needs_a_ray(self, ray):
        with pytest.raises(ValueError):
            _SYMBOLIC.sign([1, 1], [1], ray)

    @pytest.mark.parametrize("num", [-3, 0, 5])
    @pytest.mark.parametrize("den", [-2, 1, 7])
    def test_numeric_sign_reads_the_denominator(self, num, den):
        assert _NUMERIC.sign(num, den, None) == scalar_sign(Fraction(num, den))


def _drawn_rows(draw, entry) -> list:
    # The rows of an n x n matrix, n = 1..7, from entries in a small range,
    # with some rows made dependent: zero, repeated, or a combination.
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1:
        order = draw(st.permutations(range(n)))
        i, j, k = order[0], order[1], order[2 % n]  # k = i when n = 2
        kind = draw(st.sampled_from(["none", "none", "none", "zero", "repeat", "combination"]))
        if kind == "zero":
            rows[j] = [0] * n
        elif kind == "repeat":
            rows[j] = list(rows[i])
        elif kind == "combination":
            a, c = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows[j] = [a * x + c * y for x, y in zip(rows[i], rows[k])]
    return rows


@st.composite
def _started_numeric(draw):
    entry = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    rows = _drawn_rows(draw, entry)
    return _NUMERIC, *map(list, zip(*map(_NUMERIC.start, rows)))


@st.composite
def _started_symbolic(draw):
    entry = st.lists(st.integers(-2, 2), max_size=3).map(Poly)
    rows = _drawn_rows(draw, entry)
    return _SYMBOLIC, *map(list, zip(*map(_SYMBOLIC.start, rows)))


@st.composite
def _residue_rows(draw):
    entry = st.one_of(st.integers(-3, 3), st.integers(0, _RESIDUE_PRIME - 1))
    return [[x % _RESIDUE_PRIME for x in row] for row in _drawn_rows(draw, entry)]


def _residues_independent_by_copies(rows: list) -> bool:
    # The reference residue test: every column rebuilds every remaining row.
    p = _RESIDUE_PRIME
    while rows:
        k = next((k for k, T in enumerate(rows) if T[0]), None)
        if k is None:
            return False
        P, *S = rows.pop(k)
        rows = [[(P * x - B * y) % p for x, y in zip(T, S)] if B else T for B, *T in rows]
    return True


class TestSingular:
    """The residue test proves rows independent; the exact search decides the rest."""

    @settings(max_examples=300, deadline=None)
    @given(_residue_rows())
    def test_residue_test_matches_the_copying_loop(self, rows):
        expected = _residues_independent_by_copies([list(r) for r in rows])
        assert _residues_independent([list(r) for r in rows]) == expected

    @staticmethod
    def _singular_counting_exact_searches(kernel, rows, dens) -> tuple:
        calls = []
        real = _RowKernel.pivots

        def pivots(self, block):
            calls.append(block)
            return real(self, block)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_RowKernel, "pivots", pivots)
            return kernel.singular(rows, dens), len(calls)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_started_numeric(), _started_symbolic()))
    def test_agrees_with_the_exact_search(self, started):
        kernel, rows, dens = started
        expected = kernel.pivots(list(zip(rows, dens))) is None
        singular, exact_searches = self._singular_counting_exact_searches(kernel, rows, dens)
        assert singular == expected
        # A singular input always reaches the exact search.
        if singular:
            assert exact_searches == 1

    @pytest.mark.parametrize(
        "kernel, entries",
        [
            # determinant p(p + 2), which is 0 modulo p
            (_NUMERIC, [[_RESIDUE_PRIME + 1, -1], [-1, _RESIDUE_PRIME + 1]]),
            # determinant b - xi, which is 0 at the point
            (_SYMBOLIC, [[B - _RESIDUE_POINT, 0], [0, 1]]),
        ],
        ids=["prime", "point"],
    )
    def test_zero_residue_falls_back_to_the_exact_search(self, kernel, entries):
        rows, dens = map(list, zip(*map(kernel.start, entries)))
        assert not _residues_independent(kernel.residues(rows))
        assert self._singular_counting_exact_searches(kernel, rows, dens) == (False, 1)

    @pytest.mark.parametrize("method", ["cross", "neville"])
    @pytest.mark.parametrize(
        "entry", [_RESIDUE_PRIME + 1, 10**5000 + 7], ids=["prime", "past-the-digit-limit"]
    )
    def test_check_refutes(self, tmp_path, capsys, method, entry):
        path = tmp_path / "matrix.txt"
        path.write_text(matrix_to_text(Matrix([[entry, -1], [-1, entry]])), encoding="utf-8")
        capsys.readouterr()
        assert main(["check", str(path), "--method", method]) == 1
        assert "verdict: not-totally-nonnegative" in capsys.readouterr().out


class TestBruteForce:
    def test_antidiagonal_permutation_refuted(self):
        verdict = brute_force_tnn(Matrix([[0, 1], [1, 0]]))
        assert isinstance(verdict, NotTnn)
        assert verdict.witness.rows == (1, 2)
        assert verdict.witness.cols == (1, 2)
        assert verdict.witness.value == -1

    def test_all_ones(self):
        assert isinstance(brute_force_tnn(Matrix([[1, 1], [1, 1]])), TotallyNonnegative)

    def test_scaled_carries_matrix(self):
        verdict = brute_force_tnn(amazing_matrix(4, 3, scaled=True))
        assert isinstance(verdict, TotallyNonnegative)
        assert verdict.factorization is None

    def test_witness_is_first_in_order(self):
        # entry (1,2) is negative, so the first offending minor is the 1x1 there
        verdict = brute_force_tnn(Matrix([[1, -1], [-1, 1]]))
        assert verdict.witness.rows == (1,)
        assert verdict.witness.cols == (2,)

    def test_symbolic_with_ray(self):
        A = Matrix([[B, Poly((0,))], [Poly((0,)), B]])
        assert isinstance(brute_force_tnn(A, ray=2), TotallyNonnegative)

    def test_symbolic_indefinite_carries_minor(self):
        A = Matrix([[B - 3, Poly((0,))], [Poly((0,)), B - 3]])
        verdict = brute_force_tnn(A, ray=2)
        assert isinstance(verdict, Inapplicable)
        assert verdict.reason == "symbolic-indefinite"
        assert verdict.bound == 3
        assert verdict.rows == (1,) and verdict.cols == (1,)

    def test_verdict_invariant_under_rotation(self):
        rng = random.Random("brute-rotation")
        for _ in range(40):
            n = rng.randint(1, 4)
            A = random_matrix(rng, n)
            assert type(brute_force_tnn(A)) is type(brute_force_tnn(tau(A)))

    def test_certified_invertible_matrices_have_positive_diagonals(self):
        from crosstnn import random_certified_tnn

        rng = random.Random("positive-diagonal")
        for trial in range(40):
            n = rng.randint(1, 5)
            A, _ = random_certified_tnn(n, f"diag-{trial}", atom_count=rng.randint(0, 3))
            assert determinant(A) != 0
            assert isinstance(brute_force_tnn(A), TotallyNonnegative)
            assert all(A.entry(i, i) > 0 for i in range(1, n + 1))


class TestFormats:
    def test_text_round_trip(self):
        A = Matrix([[Fraction(1, 2), 3], [4, Fraction(-5, 7)]])
        text = matrix_to_text(A)
        assert text == "2\n1/2 3\n4 -5/7\n"
        assert matrix_from_text(text) == A

    def test_text_write_is_deterministic(self):
        A = amazing_matrix(3, 3, scaled=True)
        assert matrix_to_text(A) == matrix_to_text(A)

    def test_doc_round_trip(self):
        A = amazing_matrix(3, 3, scaled=True)
        assert matrix_from_doc(matrix_to_doc(A)) == A

    def test_symbolic_round_trip(self):
        A = Matrix([[B + 1, 1], [1, B + 1]])
        assert matrix_from_text(matrix_to_text(A)) == A
        assert matrix_from_doc(matrix_to_doc(A)) == A

    def test_payload_sniffing(self):
        A = amazing_matrix(2, 3, scaled=True)
        import json

        assert matrix_from_payload(matrix_to_text(A)) == A
        assert matrix_from_payload(json.dumps(matrix_to_doc(A))) == A

    def test_malformed_text(self):
        with pytest.raises(ValueError):
            matrix_from_text("2\n1 2\n")
        with pytest.raises(ValueError):
            matrix_from_text("2\n1 2 3\n4 5 6\n")

    @pytest.mark.parametrize("text", ["0\n", "-3\n1\n"])
    def test_size_below_one_rejected(self, text):
        with pytest.raises(ValueError, match="^matrix must be square with n >= 1$"):
            matrix_from_text(text)

    @pytest.mark.parametrize(
        "token",
        [
            *("7", "+7", "-0", "007", "3/4", "-3/4", "+0007/0008", "2/4"),
            *("1/0", "1_0", "\u0663", "1e5", "[1]"),
            pytest.param("7" * 5001, id="past-the-digit-limit"),
        ],
    )
    def test_text_reads_a_token_as_parse_scalar_does(self, tmp_path, capsys, token):
        # Integer rows take the reader's integer route; a token alone and in
        # a row of integers must still read as parse_scalar reads it.
        try:
            value, message = parse_scalar(token), None
        except ValueError as exc:
            value, message = None, str(exc)
        for n, entries in ((1, [[token]]), (2, [[token, "0"], ["0", token]])):
            text = f"{n}\n" + "".join(" ".join(row) + "\n" for row in entries)
            if message is None:
                rows = matrix_from_text(text).rows
                assert rows == tuple(tuple(value if x == token else 0 for x in r) for r in entries)
                assert {type(x) for r in rows for x in r} == {type(value)}
            else:
                with pytest.raises(ValueError) as info:
                    matrix_from_text(text)
                assert str(info.value) == message
            # The same matrix with its tokens as JSON strings reads through
            # parse_scalar alone: the command gives the same exit and output.
            outputs = []
            doc = json.dumps({"n": n, "entries": entries})
            for name, payload in (("m.txt", text), ("m.json", doc)):
                path = tmp_path / name
                path.write_text(payload, encoding="utf-8")
                code = main(["check", str(path), "--ray", "1"])
                outputs.append((code, *capsys.readouterr()))
            assert outputs[0] == outputs[1]
            if message is not None:
                assert outputs[0] == (65, "", f"malformed input: {message}\n")


_B1 = RatFunc(Poly((1,)), B + 1)
_HALF = Fraction(1, 2)


def _started_cases():
    # (name, matrix, ray, kind of .rows): 3 x 3 cross-symmetric matrices the
    # sweep certifies, built every way a Matrix is built.
    ints = [[4, 1, 0], [1, 6, 1], [0, 1, 4]]
    entries = [[2, "1/2", 0], ["1/2", 3, "1/2"], [0, "1/2", 2]]
    symbolic = amazing_matrix_symbolic(3)
    return [
        ("int", Matrix(ints), None, Fraction),
        ("fraction", Matrix([[Fraction(x, 2) for x in r] for r in ints]), None, Fraction),
        ("mixed", Matrix([[2, _HALF, 0], [_HALF, 3, _HALF], [0, _HALF, 2]]), None, Fraction),
        ("text", matrix_from_text("3\n2 1/2 0\n1/2 3 1/2\n0 1/2 2\n"), None, Fraction),
        ("json", matrix_from_doc({"n": 3, "entries": entries}), None, Fraction),
        ("generated", amazing_matrix(3, 3), None, Fraction),
        ("poly", symbolic, 3, Poly),
        ("ratfunc", Matrix([[_B1 * x for x in r] for r in symbolic.rows]), 3, RatFunc),
    ]


def _consumer_results(A, ray) -> tuple:
    run = eliminate_detailed(A, ray)
    return (
        verdict_to_doc(run.verdict),
        [(st.kind, st.s, st.t, st.c) for st in run.steps],
        peel_certificate(run.verdict.factorization, A),
        verdict_to_doc(neville_tnn_test(A, ray)),
        verdict_to_doc(brute_force_tnn(A, ray)),
        determinant(A),
        minor(A, (1, 3), (1, 2)),
    )


class TestStartedRows:
    """A Matrix holds its started rows; .rows, ==, hash and the consumers read as before."""

    @pytest.mark.parametrize("case", _started_cases(), ids=lambda case: case[0])
    def test_consumers_leave_the_matrix_as_it_was(self, case):
        _, A, ray, kind = case
        started = copy.deepcopy((A.nums, A.dens))
        first = _consumer_results(A, ray)
        assert first[0]["verdict"] == "totally-nonnegative" and first[2] is True
        assert _consumer_results(A, ray) == first
        assert (A.nums, A.dens) == started
        assert {type(x) for r in A.rows for x in r} == {kind}
        assert _consumer_results(A, ray) == first

    def test_rows_keep_their_values_and_types(self):
        cases = {name: A for name, A, _, _ in _started_cases()}
        expected = ((2, _HALF, 0), (_HALF, 3, _HALF), (0, _HALF, 2))
        for name in ("mixed", "text", "json"):
            assert cases[name].rows == expected
        assert cases["int"].rows == ((4, 1, 0), (1, 6, 1), (0, 1, 4))
        assert cases["fraction"].rows == expected
        assert cases["generated"].rows == tuple(
            tuple(amazing_entry(3, 3, i, j) for j in range(3)) for i in range(3)
        )
        kept = [[B, Fraction(1, 3)], [Fraction(1, 3), B]]
        A = Matrix(kept)
        assert A.rows == tuple(tuple(_as_poly(x) for x in r) for r in kept)

    def test_equality_and_hash(self):
        cases = {name: A for name, A, _, _ in _started_cases()}
        twins = [cases[name] for name in ("fraction", "mixed", "text", "json")]
        twins.append(Matrix([[Poly((x,)) for x in r] for r in cases["mixed"].rows]))
        twins.append(Matrix([[as_ratfunc(x) for x in r] for r in cases["mixed"].rows]))
        for A in twins:
            for C in twins:
                assert A == C and hash(A) == hash(C)
        assert cases["int"] == Matrix([[Poly((x,)) for x in r] for r in cases["int"].rows])
        poly, ratfunc = cases["poly"], cases["ratfunc"]
        assert poly == Matrix([[as_ratfunc(x) for x in r] for r in poly.rows])
        assert hash(poly) == hash(Matrix([[as_ratfunc(x) for x in r] for r in poly.rows]))
        assert poly != ratfunc and poly != amazing_matrix(3, 3, scaled=True)
        assert cases["mixed"] != cases["int"] and cases["int"] != Matrix([[4, 1], [1, 6]])
        assert len({cases["mixed"], *twins}) == 1


def _network_with(weight) -> PlanarNetwork:
    # Three wires whose second chip scales wire 1 and adds a slant of ``weight``.
    return PlanarNetwork(
        3,
        (
            Chip((1, Fraction(1, 2), 3), (Slant(2, 1, Fraction(3, 4)), Slant(3, 2, 2))),
            Chip((weight, 1, 1), (Slant(1, 2, weight),)),
        ),
    )


def _producer_cases():
    doc = {"n": 2, "entries": [[1, "1/2"], ["[0,1]", 3]]}
    return [
        ("amazing-scaled", amazing_matrix(5, 3, scaled=True)),
        ("amazing-unscaled", amazing_matrix(5, 3)),
        ("amazing-symbolic", amazing_matrix_symbolic(5)),
        ("path-fraction", path_matrix(_network_with(Fraction(5, 2)))),
        ("path-poly", path_matrix(_network_with(B + Fraction(1, 2)))),
        ("path-ratfunc", path_matrix(_network_with(RatFunc(B + 2, B + 1)))),
        ("text-int", matrix_from_text("2\n4 1\n1 6\n")),
        ("text-rational", matrix_from_text("2\n1/2 -2/3\n3/4 5\n")),
        ("text-poly-row", matrix_from_text("2\n1/2 [1,1/3]\n3 4\n")),
        ("doc", matrix_from_doc(doc)),
    ]


class TestProducers:
    """Every way into a Matrix gives what the public constructor makes of its entries."""

    @pytest.mark.parametrize("case", _producer_cases(), ids=lambda case: case[0])
    def test_agrees_with_the_constructor(self, case):
        _, M = case
        assert all(type(x) is M.kind for row in M.rows for x in row)
        again = Matrix(M.rows)
        assert M == again
        assert (M.nums, M.dens, M.kind) == (again.nums, again.dens, again.kind)


class TestMatrixClass:
    def test_must_be_square(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            Matrix([])

    def test_entry_access_is_one_based(self):
        A = Matrix([[1, 2], [3, 4]])
        assert A.entry(1, 2) == 2
        assert A.entry(2, 1) == 3
        with pytest.raises(IndexError):
            A.entry(0, 1)
        with pytest.raises(IndexError):
            A.entry(1, 3)

    def test_entries_homogenized(self):
        A = Matrix([[B, 1], [2, B]])
        assert all(isinstance(x, Poly) for r in A.rows for x in r)
        assert A.is_symbolic
        assert not Matrix([[1, 2], [3, 4]]).is_symbolic
        A = Matrix([[RatFunc(B, B + 1), B], [Fraction(1, 2), 3]])
        assert all(isinstance(x, RatFunc) for r in A.rows for x in r)
        A = Matrix([[True, 2], [Fraction(1, 2), 3]])
        assert all(type(x) is Fraction for r in A.rows for x in r)
        assert A.rows == ((1, 2), (Fraction(1, 2), 3))

    @pytest.mark.parametrize("bad", [0.1, 1.0, "1", None, 1j])
    def test_rejects_inexact_entries(self, bad):
        for rows in ([[bad]], [[1, bad], [2, 3]], [[B, bad], [2, 3]], [[RatFunc(B), bad], [2, 3]]):
            with pytest.raises(TypeError):
                Matrix(rows)

    @pytest.mark.parametrize("bad", [0.5, "1", None])
    def test_rejection_names_the_type(self, bad):
        name = type(bad).__name__
        with pytest.raises(TypeError) as caught:
            Matrix([[B, 7], [bad, 11]])
        assert str(caught.value) == f"matrix entry of type {name} is not an exact scalar"

    def test_rejection_names_one_type_whatever_the_order(self):
        for rows in ([[0.5, "1"], [None, 1]], [[None, "1"], [0.5, 1]]):
            with pytest.raises(TypeError, match="^matrix entry of type NoneType is not"):
                Matrix(rows)

    def test_only_the_exact_scalar_kinds_are_taken(self):
        class Half(Fraction):
            pass

        class Shifted(Poly):
            pass

        assert Matrix([[Half(1, 2), True], [3, 4]]).rows == ((Fraction(1, 2), 1), (3, 4))
        with pytest.raises(TypeError, match="^matrix entry of type Shifted is not"):
            Matrix([[Shifted((1, 1))]])

    def test_product_needs_one_size(self):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            Matrix([[1]]) * Matrix([[1, 2], [3, 4]])

    def test_repr(self):
        assert repr(Matrix([[1, Fraction(-1, 2)], [3, 0]])) == "Matrix(2x2: 1 -1/2; 3 0)"
        # A symbolic matrix prints its entries as polynomial literals.
        assert repr(Matrix([[1, Fraction(-1, 2)], [B, 0]])) == "Matrix(2x2: [1] [-1/2]; [0,1] [0])"

    def test_product_and_transpose(self):
        A = Matrix([[1, 2], [3, 4]])
        C = Matrix([[0, 1], [1, 0]])
        assert A * C == Matrix([[2, 1], [4, 3]])
        assert A.transpose() == Matrix([[1, 3], [2, 4]])

    def test_diagonal_constructor(self):
        assert Matrix.diagonal([2, 3]) == Matrix([[2, 0], [0, 3]])
