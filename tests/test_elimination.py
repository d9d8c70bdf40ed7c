"""Symmetry-preserving elimination, atoms, certificates, and the Neville oracle."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from conftest import (
    matrices_on_rays,
    random_cross_symmetric,
    reference_determinant,
    suffix_products,
)

from crosstnn import (
    Atom,
    Factorization,
    Inapplicable,
    Matrix,
    NotTnn,
    Poly,
    RatFunc,
    TotallyNonnegative,
    amazing_matrix,
    amazing_matrix_symbolic,
    brute_force_tnn,
    cross_symmetric_eliminate,
    eliminate_detailed,
    factorization_from_doc,
    factorization_product,
    factorization_to_doc,
    is_cross_symmetric,
    materialize_atom,
    matrix_to_text,
    neville_tnn_test,
    peel_certificate,
    random_certified_tnn,
    verify_amazing,
)
from crosstnn.cli import main
from crosstnn.elimination import EliminationRun, verdict_to_doc
from crosstnn import exact
from crosstnn.exact import SignUndecidedOnRay, scalar_sign
from crosstnn.matrix import _NumericKernel, _RowKernel, _SymbolicKernel
from crosstnn.verdicts import (
    INAPPLICABLE_NOT_CROSS_SYMMETRIC,
    INAPPLICABLE_SINGULAR,
    INAPPLICABLE_SYMBOLIC_INDEFINITE,
    REASON_CENTER_NOT_LESS_THAN_ONE,
    REASON_NEGATIVE_MULTIPLIER,
    REASON_NONPOSITIVE_DIAGONAL,
    REASON_NONPOSITIVE_PIVOT,
    REASON_ZERO_PIVOT_NONZERO_BELOW,
    Verdict,
    Witness,
    verdict_label,
)

B = Poly.variable()


class TestMaterializeAtom:
    def test_bridge_example(self):
        atom = Atom("bridge", 3, 1, Fraction(4, 9))
        expected = Matrix(
            [[1, 0, 0], [Fraction(4, 9), 1, Fraction(4, 9)], [0, 0, 1]]
        )
        assert materialize_atom(atom) == expected

    def test_center_example(self):
        atom = Atom("center", 2, 1, Fraction(1, 2))
        expected = Matrix(
            [[Fraction(4, 3), Fraction(2, 3)], [Fraction(2, 3), Fraction(4, 3)]]
        )
        assert materialize_atom(atom) == expected

    @pytest.mark.parametrize(
        "kind,n,s,c",
        [
            ("bridge", 3, 2, Fraction(1, 4)),
            ("bridge", 5, 1, Fraction(7, 2)),
            ("bridge", 5, 4, Fraction(2, 3)),
            ("center", 4, 2, Fraction(1, 3)),
            ("center", 6, 3, Fraction(9, 10)),
            ("bridge", 3, 1, Fraction(4, 9)),  # 2s + 1 = n: both cells in the middle row
            ("bridge", 5, 2, Fraction(5, 2)),
            ("center", 2, 1, Fraction(1, 2)),
            ("bridge", 4, 1, RatFunc(B + 1, B)),
            ("bridge", 5, 2, RatFunc(Poly((3,)), B)),
            ("center", 4, 2, RatFunc(B, B + 1)),
        ],
    )
    def test_atom_inverts_matching_step(self, kind, n, s, c):
        # The peel applies the sweep's step with the atom's c, the atom's inverse.
        atom = Atom(kind, n, s, c)
        A = materialize_atom(atom)
        assert is_cross_symmetric(A)
        assert peel_certificate(Factorization(n, (atom,), (1,) * n), A)
        perturbed = Atom(kind, n, s, c / 2)
        assert not peel_certificate(Factorization(n, (perturbed,), (1,) * n), A)

    def test_atom_validation(self):
        with pytest.raises(ValueError):
            Atom("bridge", 4, 2, Fraction(1, 2))  # n = 2s needs a center atom
        with pytest.raises(ValueError):
            Atom("center", 5, 2, Fraction(1, 2))  # center needs n = 2s
        with pytest.raises(ValueError):
            Atom("bridge", 3, 1, Fraction(0))
        with pytest.raises(ValueError):
            Atom("center", 2, 1, Fraction(3, 2))
        with pytest.raises(ValueError):
            Atom("pivot", 3, 1, Fraction(1))
        with pytest.raises(ValueError, match=r"^atom row 3 outside 1\.\.2$"):
            Atom("bridge", 3, 3, 1)

    def test_step_validation(self):
        with pytest.raises(ValueError, match=r"^step needs 1 <= t <= s, got s=1, t=2$"):
            Atom("bridge", 3, 1, 1, t=2)


class TestOneRecord:
    """A sweep step is an atom with its column set; a certified run's steps are its certificate."""

    def test_column_plays_no_part_in_equality_or_hash(self):
        c = Fraction(2, 3)
        stepped, bare = Atom("bridge", 5, 3, c, t=2), Atom("bridge", 5, 3, c)
        assert stepped == bare == Atom("bridge", 5, 3, c, t=3)
        assert hash(stepped) == hash(bare)
        assert stepped != Atom("bridge", 5, 3, Fraction(1, 3), t=2)

    @pytest.mark.parametrize(
        "A,ray",
        [(amazing_matrix(n, 3, scaled=True), None) for n in range(2, 7)]
        + [(random_certified_tnn(6, 1, atom_count=9)[0], None), (amazing_matrix_symbolic(4), 4)],
    )
    def test_certified_steps_are_the_certificate(self, A, ray):
        run = eliminate_detailed(A, ray=ray)
        fact = run.verdict.factorization
        assert run.steps is fact.atoms
        assert run.steps and all(1 <= atom.t <= atom.s for atom in run.steps)
        assert all(atom.is_center == (atom.kind == "center") for atom in run.steps)
        assert factorization_from_doc(factorization_to_doc(fact)) == fact


class TestEliminate:
    def test_worked_3x3_factorization(self):
        A = amazing_matrix(3, 3, scaled=True)
        verdict = cross_symmetric_eliminate(A)
        assert isinstance(verdict, TotallyNonnegative)
        fact = verdict.factorization
        assert [(a.kind, a.s, a.c) for a in fact.atoms] == [
            ("bridge", 2, Fraction(1, 4)),
            ("bridge", 1, Fraction(4, 9)),
            ("bridge", 2, Fraction(5, 4)),
        ]
        assert fact.diagonal == (Fraction(9), Fraction(9), Fraction(9))
        assert factorization_product(fact) == A

    def test_identity(self):
        verdict = cross_symmetric_eliminate(Matrix.identity(4))
        assert verdict.factorization.atoms == ()
        assert verdict.factorization.diagonal == tuple([Fraction(1)] * 4)

    def test_antidiagonal_permutation(self):
        verdict = cross_symmetric_eliminate(Matrix([[0, 1], [1, 0]]))
        assert isinstance(verdict, NotTnn)
        assert verdict.witness.reason == "zero-pivot-nonzero-below"
        assert (verdict.witness.s, verdict.witness.t) == (1, 1)

    def test_center_step_by_hand(self):
        # one paired middle-row operation with c = 1/3 leaves diag(8/3, 8/3)
        verdict = cross_symmetric_eliminate(Matrix([[3, 1], [1, 3]]))
        fact = verdict.factorization
        assert [(a.kind, a.c) for a in fact.atoms] == [("center", Fraction(1, 3))]
        assert fact.diagonal == (Fraction(8, 3), Fraction(8, 3))
        assert Matrix([[3, 1], [1, 3]]) == amazing_matrix(2, 2, scaled=True)

    def test_singular_is_inapplicable(self):
        verdict = cross_symmetric_eliminate(Matrix([[1, 1], [1, 1]]))
        assert isinstance(verdict, Inapplicable)
        assert verdict.reason == "singular"

    def test_asymmetric_is_inapplicable(self):
        verdict = cross_symmetric_eliminate(Matrix([[1, 2], [3, 4]]))
        assert isinstance(verdict, Inapplicable)
        assert verdict.reason == "not-cross-symmetric"

    def test_failure_after_steps_keeps_trace(self):
        # cross-symmetric and invertible, but the middle column is negative;
        # two steps complete before the scan reaches the bad entry
        A = Matrix([[10, -16, 1], [4, 19, 4], [1, -16, 10]])
        run = eliminate_detailed(A)
        assert isinstance(run.verdict, NotTnn)
        assert run.verdict.witness.reason == "negative-multiplier"
        assert len(run.verdict.witness.trace) == 2
        assert isinstance(brute_force_tnn(A), NotTnn)

    def test_negative_pivot_detected(self):
        # first nonzero below-diagonal entry is a(3,1) = 1; its pivot a(2,1) is negative
        A = Matrix([[2, 0, 1], [-1, 1, -1], [1, 0, 2]])
        verdict = cross_symmetric_eliminate(A)
        assert isinstance(verdict, NotTnn)
        assert verdict.witness.reason == "nonpositive-pivot"
        assert (verdict.witness.s, verdict.witness.t) == (2, 1)
        assert isinstance(brute_force_tnn(A), NotTnn)

    def test_center_coefficient_at_least_one_detected(self):
        # invertible, cross-symmetric, middle rows with a(3,2) > a(2,2)
        A = Matrix([[1, 0, 0, 0], [0, 1, 2, 0], [0, 2, 1, 0], [0, 0, 0, 1]])
        verdict = cross_symmetric_eliminate(A)
        assert isinstance(verdict, NotTnn)
        assert verdict.witness.reason == "center-coefficient-not-less-than-one"
        assert isinstance(brute_force_tnn(A), NotTnn)

    def test_nonpositive_diagonal_detected(self):
        A = Matrix.diagonal([1, -1, 1])
        verdict = cross_symmetric_eliminate(A)
        assert isinstance(verdict, NotTnn)
        assert verdict.witness.reason == "nonpositive-diagonal"
        assert verdict.witness.index == 2

    def test_intermediates_recorded(self):
        # The intermediates are the certificate's suffix products.
        A = amazing_matrix(3, 3, scaled=True)
        run = eliminate_detailed(A)
        intermediates = suffix_products(run.verdict.factorization)
        assert intermediates[0] == A
        assert len(intermediates) == len(run.steps) + 1
        for M in intermediates:
            assert is_cross_symmetric(M)
        assert intermediates[-1] == Matrix.diagonal([9, 9, 9])

    def test_symbolic_certificate_specializes(self):
        A = Matrix([[B + 1, B - 1], [B - 1, B + 1]])
        verdict = cross_symmetric_eliminate(A, ray=2)
        assert isinstance(verdict, TotallyNonnegative)
        fact = verdict.factorization
        assert factorization_product(fact) == Matrix([[RatFunc(B + 1), RatFunc(B - 1)], [RatFunc(B - 1), RatFunc(B + 1)]])

    def test_symbolic_indefinite_escalates(self):
        # the multiplier (b-3)/(b+1) changes sign on [2, inf)
        A = Matrix([[B + 1, B - 3], [B - 3, B + 1]])
        verdict = cross_symmetric_eliminate(A, ray=2)
        assert isinstance(verdict, Inapplicable)
        assert verdict.reason == "symbolic-indefinite"
        assert verdict.bound == 3



SINGULAR = [
    pytest.param(Matrix([[1, 1], [1, 1]]), None, id="ones-2x2"),
    pytest.param(
        Matrix([[1, 2, 3, 4], [2, 4, 6, 8], [8, 6, 4, 2], [4, 3, 2, 1]]),
        None,
        id="rank-2-4x4",
    ),
    pytest.param(Matrix([[B, B], [B, B]]), 1, id="symbolic-ray-1"),
    pytest.param(Matrix([[B, B], [B, B]]), 2, id="symbolic-ray-2"),
]


class TestSymbolicSweepCost:
    def test_one_gcd_per_reduction_at_n10(self):
        # Each reduction makes one gcd call and each gcd returns the
        # quotients its checks computed: 143 gcd calls and 250 exact
        # divisions, against 199 and 504 with a gcd fold per row and a
        # second division after each gcd.  Counted by code object, so
        # every caller's imported name is seen.
        counts = {exact._int_poly_gcd.__code__: 0, exact._int_exact_div.__code__: 0}

        def count(frame, event, arg):
            if event == "call" and frame.f_code in counts:
                counts[frame.f_code] += 1

        sys.setprofile(count)
        try:
            run = eliminate_detailed(amazing_matrix_symbolic(10), ray=10)
        finally:
            sys.setprofile(None)
        assert isinstance(run.verdict, TotallyNonnegative)
        assert counts[exact._int_poly_gcd.__code__] <= 145
        assert counts[exact._int_exact_div.__code__] <= 270

    def test_carried_signs_and_half_diagonal_at_n10(self):
        # The 45 steps read 9 column-start Bs, 45 pivots and 5 center
        # tests, then 5 diagonal entries: 64 sign reads and 49 Taylor
        # shifts, against 68 and 53 with the B after each center step read,
        # and 105 and 85 with every B and all 10 diagonal entries read.
        counts = {_SymbolicKernel.sign.__code__: 0, exact._int_taylor_shift.__code__: 0}

        def count(frame, event, arg):
            if event == "call" and frame.f_code in counts:
                counts[frame.f_code] += 1

        sys.setprofile(count)
        try:
            run = eliminate_detailed(amazing_matrix_symbolic(10), ray=10)
        finally:
            sys.setprofile(None)
        assert isinstance(run.verdict, TotallyNonnegative)
        assert counts[_SymbolicKernel.sign.__code__] <= 64
        assert counts[exact._int_taylor_shift.__code__] <= 49


# Hand-built cross-symmetric matrices at the edges of the carried sign and
# the half diagonal, each with the witness (reason, s, t, index, value)
# and steps the sweep gave when it read every sign and every diagonal entry.
CARRIED_SIGN_RECORD = {
    # A center step at s = 2 is followed by the step at s = 1 in the same
    # column.  The entry above a center step becomes P * (1 - c^2) > 0 with
    # 0 < c < 1, so no center step can turn it negative; here the pivot
    # below it, rewritten by the mirror of the first step, is negative.
    "center-then-pivot": (
        [[3, 2, 1, 2], [3, 2, 1, 1], [1, 1, 2, 3], [2, 1, 2, 3]],
        (REASON_NONPOSITIVE_PIVOT, 1, 1, None, Fraction(-3)),
        [(3, 1, Fraction(2), False), (2, 1, Fraction(1, 3), True)],
    ),
    # The center step at s = 2 leaves B = 2 * (1 - 1/4) = 3/2 above it,
    # carried into the step at s = 1; column 2 then meets a negative B.
    "center-then-step": (
        [[2, 0, 0, 0], [2, 1, 0, 1], [1, 0, 1, 2], [0, 0, 0, 2]],
        (REASON_NEGATIVE_MULTIPLIER, 2, 2, None, Fraction(-1, 2)),
        [(2, 1, Fraction(1, 2), True), (1, 1, Fraction(3, 4), False)],
    ),
    # Two zero Bs at the bottom of column 1, then a negative one.
    "zero-then-negative-column-1": (
        [[2, 1, 0, 0, 0], [1, 2, 1, 0, 0], [-1, 1, 3, 1, -1], [0, 0, 1, 2, 1], [0, 0, 0, 1, 2]],
        (REASON_NEGATIVE_MULTIPLIER, 2, 1, None, Fraction(-1)),
        [],
    ),
    # Column 1 takes three steps; column 2 then starts at a zero B.
    "zero-then-negative-column-2": (
        [[1, 0, 2, 0, 0], [3, 1, 2, -1, 2], [1, 1, 3, 1, 1], [2, -1, 2, 1, 3], [0, 0, 2, 0, 1]],
        (REASON_NEGATIVE_MULTIPLIER, 3, 2, None, Fraction(-3)),
        [(3, 1, Fraction(2), False), (2, 1, Fraction(1), False), (1, 1, Fraction(1), False)],
    ),
    # The only nonpositive diagonal entry is the middle one, index 3 > n/2.
    "middle-diagonal": (
        [[2, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 0, -1, 0, 0], [0, 0, 0, 2, 1], [0, 0, 0, 1, 2]],
        (REASON_NONPOSITIVE_DIAGONAL, None, None, 3, Fraction(-1)),
        [(1, 1, Fraction(1, 2), False), (4, 4, Fraction(2, 3), False)],
    ),
    # Diagonal entries 2 and 3 are nonpositive; the first, 2, is the witness.
    "mirrored-diagonal": (
        [[1, 0, 0, 0], [1, -1, 0, 0], [0, 0, -1, 1], [0, 0, 0, 1]],
        (REASON_NONPOSITIVE_DIAGONAL, None, None, 2, Fraction(-1)),
        [(1, 1, Fraction(1), False)],
    ),
}


class TestCarriedSign:
    """The sweep reads a B only when no step came before it in its column, and half the diagonal."""

    @pytest.mark.parametrize("name", sorted(CARRIED_SIGN_RECORD))
    def test_recorded_witness(self, name):
        rows, witness, steps = CARRIED_SIGN_RECORD[name]
        A = Matrix(rows)
        run = eliminate_detailed(A)
        w = run.verdict.witness
        assert (w.reason, w.s, w.t, w.index, w.value) == witness
        assert [(st.s, st.t, st.c, st.is_center) for st in run.steps] == steps
        # The witness's trace is the run's steps, each with its column.
        assert w.trace == run.steps and all(a is b for a, b in zip(w.trace, run.steps))
        assert isinstance(neville_tnn_test(A), NotTnn)
        assert isinstance(brute_force_tnn(A), NotTnn)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_reads_every_b_but_the_last_pivot(self, monkeypatch, n):
        # A B is read unless the step just before was at s + 1 in the same
        # column: after a bridge step it is that step's pivot, and after a
        # center step P(1 - c^2) > 0.  Each pivot and center test is read,
        # and (n + 1) // 2 diagonal entries.
        reads = []
        real = _NumericKernel.sign
        monkeypatch.setattr(_NumericKernel, "sign", lambda *args: reads.append(args) or real(*args))
        for A in (amazing_matrix(n, 3, scaled=True), random_certified_tnn(n, n, atom_count=9)[0]):
            reads.clear()
            run = eliminate_detailed(A)
            assert isinstance(run.verdict, TotallyNonnegative)
            steps = run.steps
            carried = sum(
                (prev.t, prev.s) == (step.t, step.s + 1)
                for prev, step in zip(steps, steps[1:])
            )
            centers = sum(step.is_center for step in steps)
            assert len(reads) == 2 * len(steps) - carried + centers + (n + 1) // 2
            assert factorization_product(run.verdict.factorization) == A


class TestSingularity:
    """Singularity is decided only when the sweep does not certify."""

    @pytest.fixture
    def determinant_calls(self, monkeypatch):
        # _det_rows is the routine behind determinant and minor, wherever
        # they are imported.
        import crosstnn.matrix as matrix

        calls = []
        real = matrix._det_rows
        monkeypatch.setattr(matrix, "_det_rows", lambda rows: calls.append(rows) or real(rows))
        return calls

    @pytest.fixture
    def singular_calls(self, monkeypatch):
        calls = []
        real = _RowKernel.singular
        monkeypatch.setattr(_RowKernel, "singular", lambda *args: calls.append(args) or real(*args))
        return calls

    @pytest.fixture
    def exact_search_calls(self, monkeypatch):
        # The residues are eliminated by their own loop, so every pivot search is exact.
        calls = []
        real = _RowKernel.pivots

        def pivots(kernel, block):
            calls.append(block)
            return real(kernel, block)

        monkeypatch.setattr(_RowKernel, "pivots", pivots)
        return calls

    def test_certified_runs_compute_no_determinant(self, determinant_calls):
        assert verify_amazing(5).overall == "certified"
        assert determinant_calls == []

    def test_certified_neville_runs_compute_no_determinant(self, determinant_calls):
        cases = [(amazing_matrix_symbolic(4), 4)]
        for n in range(1, 6):
            cases.append((amazing_matrix(n, 3, scaled=True), None))
            cases.append((random_certified_tnn(n, seed=n, atom_count=4)[0], None))
        for A, ray in cases:
            assert isinstance(neville_tnn_test(A, ray=ray), TotallyNonnegative)
        assert determinant_calls == []

    def test_neville_decides_singularity_from_its_own_rows(
        self, determinant_calls, singular_calls, exact_search_calls
    ):
        # Upper triangular: the first pass certifies, which proves det A > 0,
        # so a refutation in the transposed pass needs no singularity check.
        verdict = neville_tnn_test(Matrix([[1, 2, 5], [0, 1, 1], [0, 0, 2]]))
        assert isinstance(verdict, NotTnn)
        assert (verdict.witness.s, verdict.witness.t) == (2, 2)
        assert singular_calls == []
        # A first-pass exit decides singularity on the pass's rows instead.
        verdict = neville_tnn_test(Matrix([[1, 2, 3, 4], [2, 4, 6, 8], [8, 6, 4, 2], [4, 3, 2, 1]]))
        assert isinstance(verdict, Inapplicable) and verdict.reason == INAPPLICABLE_SINGULAR
        assert isinstance(neville_tnn_test(Matrix([[1, 2], [3, 4]])), NotTnn)
        assert len(singular_calls) == 2
        # The residues prove [[1, 2], [3, 4]] nonsingular; only the singular
        # matrix reaches the exact search.
        assert len(exact_search_calls) == 1
        assert determinant_calls == []

    def test_certified_runs_eliminate_no_pivots(self, singular_calls, exact_search_calls):
        calls = singular_calls
        assert verify_amazing(5).overall == "certified"
        for n in range(1, 6):
            for A in (amazing_matrix(n, 3, scaled=True), random_certified_tnn(n, seed=n)[0]):
                assert isinstance(eliminate_detailed(A).verdict, TotallyNonnegative)
                assert isinstance(neville_tnn_test(A), TotallyNonnegative)
        assert isinstance(neville_tnn_test(amazing_matrix_symbolic(4), ray=4), TotallyNonnegative)
        assert calls == []
        # A refutation decides singularity through the same routine.
        assert isinstance(neville_tnn_test(Matrix([[1, 2], [3, 4]])), NotTnn)
        assert isinstance(eliminate_detailed(Matrix([[1, 2], [2, 1]])).verdict, NotTnn)
        assert len(calls) == 2
        assert exact_search_calls == []

    @pytest.mark.parametrize("A, ray", SINGULAR)
    def test_singular_is_inapplicable_without_steps(self, A, ray):
        run = eliminate_detailed(A, ray=ray)
        assert isinstance(run.verdict, Inapplicable)
        assert run.verdict.reason == "singular"
        assert run.steps == ()

    @pytest.mark.parametrize("A, ray", SINGULAR)
    def test_singular_is_inapplicable_to_neville(self, A, ray):
        verdict = neville_tnn_test(A, ray=ray)
        assert isinstance(verdict, Inapplicable)
        assert verdict.reason == "singular"

    def test_singular_symbolic_needs_a_ray(self):
        # Like a nonsingular symbolic matrix: the first sign query needs a ray.
        with pytest.raises(ValueError, match="ray"):
            eliminate_detailed(Matrix([[B, B], [B, B]]))

    def test_singular_symbolic_needs_a_ray_in_neville(self):
        with pytest.raises(ValueError, match="ray"):
            neville_tnn_test(Matrix([[B, B], [B, B]]))


class TestNeville:
    def test_identity(self):
        assert isinstance(neville_tnn_test(Matrix.identity(3)), TotallyNonnegative)

    def test_antidiagonal_permutation(self):
        assert isinstance(neville_tnn_test(Matrix([[0, 1], [1, 0]])), NotTnn)

    def test_scaled_carries_matrix(self):
        A = amazing_matrix(4, 3, scaled=True)
        assert isinstance(neville_tnn_test(A), TotallyNonnegative)
        assert isinstance(brute_force_tnn(A), TotallyNonnegative)

    def test_applies_beyond_cross_symmetric_inputs(self):
        assert isinstance(neville_tnn_test(Matrix([[1, 1], [0, 1]])), TotallyNonnegative)
        assert isinstance(neville_tnn_test(Matrix([[1, -1], [0, 1]])), NotTnn)

    def test_singular_is_inapplicable(self):
        verdict = neville_tnn_test(Matrix([[1, 1], [1, 1]]))
        assert isinstance(verdict, Inapplicable)
        assert verdict.reason == "singular"

    def test_negative_pivot_gives_the_multiplier_its_sign(self):
        # The multiplier B/P is read as B*dP over P*dB, whose denominator
        # is negative here: 1/(-1) refutes, and (-1)/(-1) does not.
        verdict = neville_tnn_test(Matrix([[-1, 0], [1, 1]]))
        w = verdict.witness
        assert (w.reason, w.s, w.t, w.value) == (REASON_NEGATIVE_MULTIPLIER, 1, 1, -1)
        verdict = neville_tnn_test(Matrix([[-1, 0], [-1, 1]]))
        w = verdict.witness
        assert (w.reason, w.index, w.value) == (REASON_NONPOSITIVE_DIAGONAL, 1, -1)

    def test_no_factorization_attached(self):
        assert neville_tnn_test(Matrix.identity(2)).factorization is None


class TestFactorizationProduct:
    def test_worked_3x3(self):
        fact = Factorization(
            n=3,
            atoms=(
                Atom("bridge", 3, 2, Fraction(1, 4)),
                Atom("bridge", 3, 1, Fraction(4, 9)),
                Atom("bridge", 3, 2, Fraction(5, 4)),
            ),
            diagonal=(Fraction(9), Fraction(9), Fraction(9)),
        )
        assert factorization_product(fact) == amazing_matrix(3, 3, scaled=True)

    def test_pure_diagonal(self):
        fact = Factorization(n=2, atoms=(), diagonal=(Fraction(2), Fraction(2)))
        assert factorization_product(fact) == Matrix([[2, 0], [0, 2]])

    def test_center_then_diagonal(self):
        fact = Factorization(
            n=2,
            atoms=(Atom("center", 2, 1, Fraction(1, 2)),),
            diagonal=(Fraction(9, 2), Fraction(9, 2)),
        )
        assert factorization_product(fact) == Matrix([[6, 3], [3, 6]])

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Factorization(n=2, atoms=(), diagonal=(Fraction(1),))
        with pytest.raises(ValueError):
            Factorization(n=2, atoms=(), diagonal=(Fraction(1), Fraction(2)))
        with pytest.raises(ValueError):
            Factorization(n=2, atoms=(), diagonal=(Fraction(-1), Fraction(-1)))
        with pytest.raises(ValueError):
            Factorization(n=3, atoms=(Atom("center", 2, 1, Fraction(1, 2)),), diagonal=(1, 2, 1))

    @pytest.mark.parametrize(
        "diagonal",
        [(1, 2, 3), (1, 2, 3, 1), (2, 1, 1, 2, 1), (B, B + 1, B + 1), (B, 1, 2, B)],
    )
    def test_non_palindromic_diagonal_rejected(self, diagonal):
        with pytest.raises(ValueError, match="palindromic"):
            Factorization(n=len(diagonal), atoms=(), diagonal=diagonal)

    @pytest.mark.parametrize("diagonal", [(1, -1, 1), (1, 0, 0, 1), (-2, -2)])
    def test_every_numeric_diagonal_entry_must_be_positive(self, diagonal):
        # The middle entry of odd n has no mirror pair, but is still checked.
        with pytest.raises(ValueError, match="positive"):
            Factorization(n=len(diagonal), atoms=(), diagonal=diagonal)


class TestRandomCertified:
    def test_zero_atoms_returns_diagonal(self):
        matrix, fact = random_certified_tnn(3, "seed", atom_count=0)
        assert fact.atoms == ()
        assert matrix == Matrix.diagonal(fact.diagonal)

    def test_negative_atom_count_rejected(self):
        with pytest.raises(ValueError):
            random_certified_tnn(3, "seed", atom_count=-1)

    def test_needs_a_positive_size(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            random_certified_tnn(0, 1)

    def test_deterministic_per_seed(self):
        a1, f1 = random_certified_tnn(4, "s0", 3)
        a2, f2 = random_certified_tnn(4, "s0", 3)
        b1, _ = random_certified_tnn(4, "s1", 3)
        assert a1 == a2 and f1 == f2
        assert a1 != b1

    def test_products_are_certified_tnn(self):
        for trial in range(100):
            n = trial % 5 + 1
            matrix, fact = random_certified_tnn(n, f"battery-{trial}", atom_count=trial % 4)
            assert is_cross_symmetric(matrix)
            assert isinstance(brute_force_tnn(matrix), TotallyNonnegative)

    def test_elimination_complete_on_certified_inputs(self):
        # products of valid atoms must always be certified, n up to 6
        for trial in range(36):
            n = trial % 6 + 1
            matrix, _ = random_certified_tnn(n, f"complete-{trial}", atom_count=2 + trial % 3)
            verdict = cross_symmetric_eliminate(matrix)
            assert isinstance(verdict, TotallyNonnegative)
            assert factorization_product(verdict.factorization) == matrix


class TestSerialization:
    def test_round_trip(self):
        _, fact = random_certified_tnn(4, "doc-seed", 3)
        doc = factorization_to_doc(fact)
        assert factorization_from_doc(doc) == fact

    def test_doc_shape(self):
        fact = Factorization(
            n=2,
            atoms=(Atom("center", 2, 1, Fraction(1, 2)),),
            diagonal=(Fraction(9, 2), Fraction(9, 2)),
        )
        assert factorization_to_doc(fact) == {
            "n": 2,
            "atoms": [{"kind": "center", "s": 1, "c": "1/2"}],
            "diagonal": ["9/2", "9/2"],
        }

    def test_symbolic_round_trip(self):
        fact = Factorization(
            n=2,
            atoms=(Atom("center", 2, 1, RatFunc(B - 1, B + 1)),),
            diagonal=(RatFunc(2 * B * B, B + 1), RatFunc(2 * B * B, B + 1)),
        )
        assert factorization_from_doc(factorization_to_doc(fact)) == fact


# -- the reference sweep -------------------------------------------------


def reference_eliminate(A: Matrix, ray=None) -> EliminationRun:
    """The elimination over Fraction/RatFunc rows, with det A on every other exit.

    Both target rows of a step are updated entry by entry, and singularity
    is decided by a determinant of the input; eliminate_detailed must give
    the same verdicts and steps.
    """
    n = A.n
    steps: list = []

    def finish(verdict: Verdict) -> EliminationRun:
        # Not certified: only now is singularity worth deciding.
        if reference_determinant(A.rows) == 0:
            return EliminationRun(Inapplicable(INAPPLICABLE_SINGULAR), ())
        return EliminationRun(verdict, tuple(steps))

    if not is_cross_symmetric(A):
        return EliminationRun(Inapplicable(INAPPLICABLE_NOT_CROSS_SYMMETRIC), ())

    rows = [list(r) for r in A.rows]
    try:
        for t in range(1, n):
            for i in range(n, t, -1):
                below = rows[i - 1][t - 1]
                if below == 0:
                    continue
                s = i - 1
                if scalar_sign(below, ray) < 0:
                    return finish(
                        NotTnn(
                            Witness(
                                REASON_NEGATIVE_MULTIPLIER,
                                s=s,
                                t=t,
                                value=below,
                                trace=tuple(steps),
                            )
                        )
                    )
                pivot = rows[s - 1][t - 1]
                if pivot == 0:
                    return finish(
                        NotTnn(
                            Witness(
                                REASON_ZERO_PIVOT_NONZERO_BELOW,
                                s=s,
                                t=t,
                                value=below,
                                trace=tuple(steps),
                            )
                        )
                    )
                if scalar_sign(pivot, ray) < 0:
                    return finish(
                        NotTnn(
                            Witness(
                                REASON_NONPOSITIVE_PIVOT,
                                s=s,
                                t=t,
                                value=pivot,
                                trace=tuple(steps),
                            )
                        )
                    )
                c = below / pivot
                is_center = n == 2 * s
                if is_center and scalar_sign(pivot - below, ray) <= 0:
                    return finish(
                        NotTnn(
                            Witness(
                                REASON_CENTER_NOT_LESS_THAN_ONE,
                                s=s,
                                t=t,
                                value=c,
                                trace=tuple(steps),
                            )
                        )
                    )
                steps.append(Atom("center" if is_center else "bridge", n, s, c, t))
                # Rows s+1 and w0(s+1) lose c times rows s and w0(s).  Both
                # sources are read before either target is written: for
                # n = 2s each row of the pair is the other's source, and for
                # odd n with s+1 the middle row both updates land in one row.
                sources = rows[s - 1], rows[n - s]
                for target, source in zip((s, n - s - 1), sources):
                    rows[target] = [x - c * y if y else x for x, y in zip(rows[target], source)]

        # Cross-symmetry of the final matrix forces the upper triangle to
        # be zero once the lower one is; assert rather than assume.
        for i in range(n):
            for j in range(n):
                if i != j and rows[i][j] != 0:
                    raise AssertionError(
                        f"off-diagonal residue at ({i + 1},{j + 1}) after elimination"
                    )
        diag = tuple(rows[i][i] for i in range(n))
        for index, d in enumerate(diag, start=1):
            if scalar_sign(d, ray) <= 0:
                return finish(
                    NotTnn(
                        Witness(
                            REASON_NONPOSITIVE_DIAGONAL,
                            index=index,
                            value=d,
                            trace=tuple(steps),
                        )
                    )
                )
    except SignUndecidedOnRay as exc:
        return finish(
            Inapplicable(INAPPLICABLE_SYMBOLIC_INDEFINITE, bound=exc.witness_bound)
        )

    fact = Factorization(n=n, atoms=tuple(steps), diagonal=diag)
    return EliminationRun(TotallyNonnegative(factorization=fact), fact.atoms)


def reference_neville(A: Matrix, ray=None) -> Verdict:
    """The Neville test over Fraction/RatFunc rows, with det A on every other exit.

    Each step subtracts the multiplier times the row above, entry by
    entry; neville_tnn_test must give the same verdicts and witnesses.
    """
    n = A.n

    def passes() -> Verdict:
        for M in (A, A.transpose()):
            rows = [list(r) for r in M.rows]
            for t in range(n - 1):
                for i in range(n - 1, t, -1):
                    x = rows[i][t]
                    if x == 0:
                        continue
                    above = rows[i - 1][t]
                    if above == 0:
                        return NotTnn(
                            Witness(REASON_ZERO_PIVOT_NONZERO_BELOW, s=i, t=t + 1, value=x)
                        )
                    multiplier = x / above
                    if scalar_sign(multiplier, ray) < 0:
                        return NotTnn(
                            Witness(REASON_NEGATIVE_MULTIPLIER, s=i, t=t + 1, value=multiplier)
                        )
                    rows[i] = [a - multiplier * b for a, b in zip(rows[i], rows[i - 1])]
            for d in range(n):
                if scalar_sign(rows[d][d], ray) <= 0:
                    return NotTnn(
                        Witness(REASON_NONPOSITIVE_DIAGONAL, index=d + 1, value=rows[d][d])
                    )
        return TotallyNonnegative()

    try:
        verdict = passes()
    except SignUndecidedOnRay as exc:
        verdict = Inapplicable(INAPPLICABLE_SYMBOLIC_INDEFINITE, bound=exc.witness_bound)
    if isinstance(verdict, TotallyNonnegative) or reference_determinant(A.rows) != 0:
        return verdict
    return Inapplicable(INAPPLICABLE_SINGULAR)


def _atom_product(rng, n):
    """Random atoms times a palindromic diagonal that may hold zeros or negatives."""
    M = Matrix.identity(n)
    for _ in range(rng.randint(0, 6) if n > 1 else 0):
        s = rng.randint(1, n - 1)
        if n == 2 * s:
            den = rng.randint(2, 9)
            M = M * materialize_atom(Atom("center", n, s, Fraction(rng.randint(1, den - 1), den)))
        else:
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            M = M * materialize_atom(Atom("bridge", n, s, c))
    half = [Fraction(rng.choice([-1, 0, 1, 2, 3, 5]), rng.randint(1, 3)) for _ in range((n + 1) // 2)]
    if rng.random() < 0.7:
        half = [abs(d) or Fraction(1) for d in half]
    return M * Matrix.diagonal(half + half[: n // 2][::-1])


def _negate_mirrored(A: Matrix, i: int, j: int) -> Matrix:
    n = A.n
    rows = [list(r) for r in A.rows]
    rows[i][j] = -rows[i][j]
    if (n - 1 - i, n - 1 - j) != (i, j):
        rows[n - 1 - i][n - 1 - j] = -rows[n - 1 - i][n - 1 - j]
    return Matrix(rows)


def _random_numeric_inputs():
    rng = random.Random(6)
    inputs = [Matrix([[1, 2], [3, 4]])]
    for n in range(1, 10):
        for _ in range(40):
            inputs.append(random_cross_symmetric(rng, n))
            inputs.append(random_cross_symmetric(rng, n, lo=0, hi=3, max_den=1))
            A = _atom_product(rng, n)
            inputs.append(A)
            if rng.random() < 0.5:
                inputs.append(_negate_mirrored(A, rng.randrange(n), rng.randrange(n)))
    return inputs


class TestVerdictDoc:
    """The document form of the minors oracle's verdicts, which carry index sets."""

    def test_negative_minor_witness(self):
        assert verdict_to_doc(brute_force_tnn(Matrix([[1, 2], [3, 1]]))) == {
            "verdict": "not-totally-nonnegative",
            "witness": {"reason": "negative-minor", "rows": [1, 2], "cols": [1, 2], "value": "-5"},
        }

    def test_symbolic_indefinite_minor(self):
        assert verdict_to_doc(brute_force_tnn(amazing_matrix_symbolic(4), ray=2)) == {
            "verdict": "inapplicable",
            "reason": INAPPLICABLE_SYMBOLIC_INDEFINITE,
            "bound": 3,
            "rows": [1],
            "cols": [4],
        }

    def test_label_needs_a_verdict(self):
        with pytest.raises(TypeError, match="^not a verdict: None$"):
            verdict_label(None)


def _symbolic_rational_matrix():
    """The n = 4 symbolic carries matrix with rows scaled by palindromic RatFuncs."""
    S = amazing_matrix_symbolic(4)
    f = [RatFunc(B + 1, B + 2), RatFunc(B * B + 1, 2 * B + 3)]
    f = f + f[::-1]
    return Matrix([[f[i] * x for x in row] for i, row in enumerate(S.rows)])


class TestAgainstReference:
    """The integer row kernel gives the reference sweep's verdicts and steps."""

    @staticmethod
    def assert_same(A, ray=None):
        run, ref = eliminate_detailed(A, ray=ray), reference_eliminate(A, ray=ray)
        assert verdict_to_doc(run.verdict) == verdict_to_doc(ref.verdict)
        assert [(st.kind, st.s, st.t, st.c) for st in run.steps] == [
            (st.kind, st.s, st.t, st.c) for st in ref.steps
        ]
        return ref

    def test_random_numeric_matrices(self):
        seen = set()
        center = odd_middle = False
        for A in _random_numeric_inputs():
            ref = self.assert_same(A)
            verdict = ref.verdict
            seen.add(verdict.witness.reason if isinstance(verdict, NotTnn) else getattr(verdict, "reason", None))
            center |= any(step.is_center for step in ref.steps)
            odd_middle |= any(2 * step.s + 1 == A.n for step in ref.steps)
        assert seen >= {
            REASON_NEGATIVE_MULTIPLIER,
            REASON_ZERO_PIVOT_NONZERO_BELOW,
            REASON_NONPOSITIVE_PIVOT,
            REASON_CENTER_NOT_LESS_THAN_ONE,
            REASON_NONPOSITIVE_DIAGONAL,
            INAPPLICABLE_SINGULAR,
            INAPPLICABLE_NOT_CROSS_SYMMETRIC,
            None,
        }
        assert center and odd_middle

    def test_certified_products_and_flipped_copies(self):
        rng = random.Random(7)
        for trial in range(120):
            n = trial % 7 + 1
            A, _ = random_certified_tnn(n, f"diff-{trial}", atom_count=trial % 8)
            self.assert_same(A)
            i, j = rng.randrange(n), rng.randrange(n)
            if A.rows[i][j]:
                self.assert_same(_negate_mirrored(A, i, j))

    @pytest.mark.parametrize("b", [2, 3, 10])
    def test_carries_matrices(self, b):
        for n in range(1, 13):
            for scaled in (False, True):
                ref = self.assert_same(amazing_matrix(n, b, scaled=scaled))
                assert isinstance(ref.verdict, TotallyNonnegative)

    def test_symbolic_carries_matrices(self):
        bounds = []
        for n in range(1, 8):
            A = amazing_matrix_symbolic(n)
            for ray in sorted({1, 2, n}):
                ref = self.assert_same(A, ray=ray)
                bounds.append(getattr(ref.verdict, "bound", None))
        assert any(bound is not None for bound in bounds)

    @pytest.mark.parametrize("ray", [1, 4])
    def test_rational_function_entries(self, ray):
        A = _symbolic_rational_matrix()
        self.assert_same(A, ray=ray)
        self.assert_same(_negate_mirrored(A, 2, 1), ray=ray)

    @pytest.mark.parametrize("n", [39, 40])
    @pytest.mark.parametrize("b", [3, 10])
    def test_large_carries_matrices_and_flipped_copies(self, n, b):
        # Full size, where most row pairs a step meets lie outside its live
        # columns; the flips sit in column n/2, as in the benchmark.
        A = amazing_matrix(n, b, scaled=True)
        assert isinstance(self.assert_same(A).verdict, TotallyNonnegative)
        for row in (5, 25):
            flipped = _negate_mirrored(A, row, n // 2 - 1)
            assert isinstance(self.assert_same(flipped).verdict, NotTnn)

    def test_singular_only_after_steps(self):
        # Bridge steps run before the sweep meets the zero diagonal block.
        M = Matrix.diagonal([1, 0, 0, 0, 1])
        for s, c in [(1, Fraction(2)), (3, Fraction(1, 3)), (2, Fraction(5, 2)), (4, Fraction(3))]:
            M = materialize_atom(Atom("bridge", 5, s, c)) * M
        run = eliminate_detailed(M)
        assert verdict_to_doc(run.verdict) == {"verdict": "inapplicable", "reason": "singular"}
        assert run.steps == ()
        self.assert_same(M)


class TestIntegerSigns:
    """The numeric sweep decides its signs on integer numerators."""

    def test_one_fraction_per_step(self):
        # Every Fraction the sweep builds: one c per step, then the diagonal.
        A = amazing_matrix(16, 10, scaled=True)
        real = Fraction.__dict__["__new__"]
        built = []

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return real.__func__(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        try:
            run = eliminate_detailed(A)
        finally:
            Fraction.__new__ = real
        assert isinstance(run.verdict, TotallyNonnegative)
        assert len(built) <= len(run.steps) + A.n

    def test_check_builds_one_fraction_per_atom_and_diagonal_entry(self, tmp_path, capsys):
        # An integer file reaches the sweep's rows without a Fraction per
        # entry: the whole command builds only the atoms' c and the diagonal.
        n = 12
        path = tmp_path / "carries.txt"
        path.write_text(matrix_to_text(amazing_matrix(n, 10, scaled=True)), encoding="utf-8")
        real = Fraction.__dict__["__new__"]
        built = []

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return real.__func__(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        try:
            code = main(["check", str(path), "--method", "cross"])
        finally:
            Fraction.__new__ = real
        out = capsys.readouterr().out
        assert code == 0
        atoms = int(out.split("atoms: ")[1].split()[0])
        assert len(built) <= atoms + n


class TestNevilleAgainstReference:
    """The row-kernel Neville test gives the reference's verdicts and witnesses."""

    @staticmethod
    def assert_same(A, ray=None):
        ref = reference_neville(A, ray=ray)
        assert verdict_to_doc(neville_tnn_test(A, ray=ray)) == verdict_to_doc(ref)
        return ref

    @settings(max_examples=200, deadline=None)
    @given(matrices_on_rays())
    def test_random_matrices(self, case):
        self.assert_same(*case)

    def test_random_numeric_matrices(self):
        seen = set()
        for A in _random_numeric_inputs():
            for M in (A, A.transpose()):
                verdict = self.assert_same(M)
                seen.add(verdict.witness.reason if isinstance(verdict, NotTnn) else getattr(verdict, "reason", None))
        assert seen == {
            REASON_NEGATIVE_MULTIPLIER,
            REASON_ZERO_PIVOT_NONZERO_BELOW,
            REASON_NONPOSITIVE_DIAGONAL,
            INAPPLICABLE_SINGULAR,
            None,
        }

    def test_symbolic_carries_matrices(self):
        reasons = set()
        for n in range(1, 8):
            A = amazing_matrix_symbolic(n)
            for ray in sorted({1, 2, n}):
                for M in (A, _negate_mirrored(A, n - 1, 0)):
                    verdict = self.assert_same(M, ray=ray)
                    reasons.add(type(verdict).__name__)
        assert reasons == {"TotallyNonnegative", "NotTnn", "Inapplicable"}

    @pytest.mark.parametrize("ray", [1, 2, 3, 4])
    def test_rational_function_entries(self, ray):
        A = _symbolic_rational_matrix()
        self.assert_same(A, ray=ray)
        self.assert_same(_negate_mirrored(A, 2, 1), ray=ray)
