"""Symmetry-preserving elimination and atom factorization certificates.

Classical column-clearing tests for total nonnegativity destroy
cross-symmetry.  The elimination here clears below-diagonal entries
bottom-up, column by column, with *paired* adjacent-row operations
F = I - c E(s+1, s) - c E(w0(s+1), w0(s)) that keep every intermediate
matrix cross-symmetric.  On invertible cross-symmetric input it either
reaches a positive diagonal -- yielding a certificate that writes the
matrix as a product of totally nonnegative "atoms" and a positive
diagonal -- or fails at a concrete position that witnesses a negative
minor.

Two independent oracles accompany it: the classical Neville test
(:func:`neville_tnn_test`) and the all-minors brute force in
:mod:`crosstnn.matrix`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .exact import (
    Poly,
    RatFunc,
    SignUndecidedOnRay,
    format_scalar,
    parse_doc_scalar,
    parse_int,
    parse_list,
)
from .matrix import Matrix, is_cross_symmetric, w0
from .network import network_from_factorization, path_matrix
from .verdicts import (
    INAPPLICABLE_NOT_CROSS_SYMMETRIC,
    INAPPLICABLE_SINGULAR,
    INAPPLICABLE_SYMBOLIC_INDEFINITE,
    REASON_CENTER_NOT_LESS_THAN_ONE,
    REASON_NEGATIVE_MULTIPLIER,
    REASON_NONPOSITIVE_DIAGONAL,
    REASON_NONPOSITIVE_PIVOT,
    REASON_ZERO_PIVOT_NONZERO_BELOW,
    Inapplicable,
    NotTnn,
    TotallyNonnegative,
    Verdict,
    Witness,
    verdict_label,
)

__all__ = [
    "Atom",
    "Factorization",
    "EliminationRun",
    "materialize_atom",
    "cross_symmetric_eliminate",
    "eliminate_detailed",
    "neville_tnn_test",
    "factorization_product",
    "random_certified_tnn",
    "factorization_to_doc",
    "factorization_from_doc",
    "verdict_to_doc",
]


@dataclass(frozen=True)
class Atom:
    """One sweep step and one certificate factor.

    The sweep's step at (s+1, t) is F = I - c E(s+1, s) - c E(w0(s+1), w0(s))
    with c = a(s+1,t) / a(s,t), and the atom is F^-1.  A bridge atom
    (n != 2s) is I + c E(s+1, s) + c E(w0(s+1), w0(s)) with c > 0.  A
    center atom (n = 2s) is the identity except for the middle 2x2 block
    [[1/(1-c^2), c/(1-c^2)], [c/(1-c^2), 1/(1-c^2)]] with 0 < c < 1.  Both
    are cross-symmetric and totally nonnegative.
    Symbolic coefficients skip the numeric range checks here; their signs
    are certified on a ray by the elimination that produced them, or by
    :func:`crosstnn.audit.check_factorization_signs` for a loaded
    certificate.  ``t``, the column the sweep cleared, is None off the
    sweep and is never compared, hashed or serialized.
    """

    kind: str
    n: int
    s: int
    c: object
    t: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("bridge", "center"):
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if not 1 <= self.s < self.n:
            raise ValueError(f"atom row {self.s} outside 1..{self.n - 1}")
        if self.t is not None and not 1 <= self.t <= self.s:
            raise ValueError(f"step needs 1 <= t <= s, got s={self.s}, t={self.t}")
        if self.kind == "bridge" and self.n == 2 * self.s:
            raise ValueError("bridge atom requires n != 2s")
        if self.kind == "center" and self.n != 2 * self.s:
            raise ValueError("center atom requires n = 2s")
        # A numeric c is decided on its numerator over its positive denominator.
        c = self.c
        if isinstance(c, (int, Fraction)):
            if c.numerator <= 0:
                raise ValueError("atom coefficient must be positive")
            if self.kind == "center" and c.numerator >= c.denominator:
                raise ValueError("center atom coefficient must be < 1")

    @property
    def is_center(self) -> bool:
        return self.kind == "center"


@dataclass(frozen=True)
class Factorization:
    """Certificate: the matrix equals atoms[0] * ... * atoms[-1] * diag(diagonal)."""

    n: int
    atoms: tuple
    diagonal: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.diagonal) != self.n:
            raise ValueError("diagonal length must equal n")
        for atom in self.atoms:
            if atom.n != self.n:
                raise ValueError("atom dimension mismatch")
        diagonal = self.diagonal
        for d in diagonal:
            if isinstance(d, (int, Fraction)) and d.numerator <= 0:
                raise ValueError("diagonal entries must be positive")
        if any(diagonal[i] != diagonal[-1 - i] for i in range(self.n // 2)):
            raise ValueError("diagonal must be palindromic")

    @property
    def is_symbolic(self) -> bool:
        scalars = (*self.diagonal, *(atom.c for atom in self.atoms))
        return any(isinstance(x, (Poly, RatFunc)) for x in scalars)


@dataclass(frozen=True)
class EliminationRun:
    """One elimination: its verdict and the steps taken.

    Each step is an :class:`Atom` with its ``t`` set.  A certified run's
    steps are its certificate's atoms, and a refutation's are its
    witness's ``trace``.  No intermediate matrix is stored: after k steps
    of a certified run the sweep holds the suffix product
    ``atoms[k] * ... * atoms[-1] * diag(diagonal)``.
    """

    verdict: Verdict
    steps: tuple


def materialize_atom(atom: Atom) -> Matrix:
    """The dense atom matrix; the oracle the planar-network chips are tested against."""
    n, s, c = atom.n, atom.s, atom.c
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if atom.kind == "bridge":
        rows[s][s - 1] = rows[s][s - 1] + c
        r2, c2 = w0(s + 1, n), w0(s, n)
        rows[r2 - 1][c2 - 1] = rows[r2 - 1][c2 - 1] + c
        return Matrix(rows)
    diag_value = 1 / (1 - c * c)
    off_value = c * diag_value
    rows[s - 1][s - 1] = diag_value
    rows[s][s] = diag_value
    rows[s - 1][s] = off_value
    rows[s][s - 1] = off_value
    return Matrix(rows)


def eliminate_detailed(A: Matrix, ray: int | None = None) -> EliminationRun:
    """Run the symmetry-preserving elimination: its verdict and its steps.

    The sweep clears the columns left to right, each bottom-up, with one
    step at each nonzero below-diagonal entry; see :func:`_sweep`.
    Failure conditions, each of which certifies a negative minor in the
    original matrix:

    * the first nonzero below-diagonal entry is negative,
    * the pivot directly above it is zero (an invertible totally
      nonnegative matrix cannot have a zero row-prefix with a nonzero
      entry just below) or negative,
    * in the n = 2s case, a multiplier c >= 1 (the two middle rows of an
      invertible cross-symmetric totally nonnegative matrix satisfy
      a(s+1, t) < a(s, t) strictly),
    * a nonpositive entry on the final diagonal.

    The sweep decides and records each step as its kernel pair; this
    builds one :class:`Atom` per record, its c the pair's reduced ratio,
    and attaches the atoms as the certificate's or as the witness's
    ``trace``.  A certified run's steps are its certificate's atoms, whose
    suffix products are its intermediate matrices.  ``crosstnn check``
    reads the sweep alone: it decides and counts the steps without
    building them, while ``factor`` writes the certificate built here.

    A singular matrix is inapplicable, with no steps.  For symbolic
    matrices, signs are decided on [ray, inf); an undecidable query
    yields an inapplicable verdict carrying the bound beyond which that
    query becomes definite, with the steps taken before it.  With
    ``ray=None`` the first sign query raises ``ValueError``, singular
    matrices included.
    """
    verdict, records, diagonal = _sweep(A, ray)
    steps = _atoms(A, records)
    if isinstance(verdict, TotallyNonnegative):
        verdict = TotallyNonnegative(Factorization(n=A.n, atoms=steps, diagonal=diagonal))
    elif isinstance(verdict, NotTnn):
        verdict = NotTnn(replace(verdict.witness, trace=steps))
    return EliminationRun(verdict, steps)


def _atoms(A: Matrix, records) -> tuple:
    """One validated :class:`Atom` per :func:`_sweep` record of ``A``.

    A step at (s+1, t) inverts a center atom when s = n/2, else a
    bridge; its c is the record's kernel pair, reduced.
    """
    n, scalar = A.n, A.kernel.scalar
    return tuple(
        Atom("center" if n == 2 * s else "bridge", n, s, scalar(num, den), t)
        for s, t, num, den in records
    )


def _sweep(A: Matrix, ray: int | None) -> tuple:
    """The elimination's decision: (verdict, records, diagonal).

    ``verdict`` carries no certificate and no trace.  ``records`` holds
    one ``(s, t, num, den)`` per step taken, with ``num``/``den`` the
    kernel pair whose reduced ratio is the step's c (see
    :func:`eliminate_detailed`, which builds the atoms from them), and
    ``diagonal`` is the final diagonal when certified, else None.

    One sweep over a mutable copy of the rows clears the columns left to
    right, each bottom-up, skipping zero entries.  A step at (s+1, t)
    rewrites only row s+1 and its mirror row w0(s+1); every position the
    sweep has already cleared stays zero, so no position is visited twice.

    The sweep updates a copy of the matrix's started rows, integer
    numerators over one row denominator (see
    :class:`crosstnn.matrix._RowKernel`), on which cross-symmetry is also
    tested.  Every intermediate matrix is cross-symmetric, so row w0(s+1)
    is row s+1 reversed and only row s+1 is computed, on the columns where
    it can be nonzero, by the kernel's paired update (the certificate peel
    runs the same one).  Numeric denominators are positive, so numeric
    signs are read from numerators, and the center test is B*d(s-1) <
    P*d(s).  A step records its c as the unreduced pair (Bc*d(s-1),
    Pc*d(s)) of the cancelled pivot and entry: no step builds a scalar.
    Witness values are built only when the sweep refutes, and the c of a
    center step only when it is the witness value.

    Each sign is read once.  After any step at s + 1 the next B in the
    column is positive, so its sign is carried: after a bridge step it is
    that step's pivot, unchanged and already read positive, and after a
    center step, which rewrites row s, it is P(1 - c^2) with P > 0 and
    0 < c < 1.  A B is read only at the start of each column and after a
    skipped zero entry.
    The final rows are mirrors, so diagonal entry n + 1 - i equals entry
    i: only the first ceil(n/2) entries are built and read, and the first
    nonpositive one is the same.

    Singularity is decided only when the sweep does not certify: a bridge
    step has determinant 1 and a center step 1 - c^2 with 0 < c < 1, so a
    certified sweep proves det A = prod(diagonal) / prod(1 - c^2) != 0.
    On every other exit the swept rows are A times such steps, each row
    then scaled by a nonzero factor, so they are singular exactly when A
    is.  The row kernel's ``singular`` decides that on them, as
    :func:`neville_tnn_test` does on its rows: a pivot search on their
    residues modulo a prime (symbolic entries evaluated at a fixed point
    first) proves almost every nonsingular input so, and the exact pivot
    search decides the rest, every singular input among them.  A singular
    matrix is inapplicable, with no records.
    """
    n = A.n
    records: list = []

    def finish(verdict: Verdict) -> tuple:
        # Not certified: only now is singularity worth deciding, on the
        # swept rows, which are singular exactly when A is.
        if kernel.singular(rows, dens):
            return Inapplicable(INAPPLICABLE_SINGULAR), [], None
        return verdict, records, None

    def refute(reason: str, **where) -> tuple:
        return finish(NotTnn(Witness(reason, **where)))

    kernel = A.kernel
    scalar, sign, mul = kernel.scalar, kernel.sign, kernel.mul
    if not is_cross_symmetric(A):
        return Inapplicable(INAPPLICABLE_NOT_CROSS_SYMMETRIC), [], None
    rows, dens = A.row_lists(kernel)

    try:
        for t in range(1, n):
            # Whether B is known positive: after a step it is (see below),
            # so it is never zero, and a skipped zero is followed by a read.
            carried = False
            for i in range(n, t, -1):
                s = i - 1
                B = rows[s][t - 1]
                if not B:
                    continue
                dB, dP = dens[s], dens[s - 1]
                if not carried and sign(B, dB, ray) < 0:
                    return refute(REASON_NEGATIVE_MULTIPLIER, s=s, t=t, value=scalar(B, dB))
                P = rows[s - 1][t - 1]
                if not P:
                    return refute(REASON_ZERO_PIVOT_NONZERO_BELOW, s=s, t=t, value=scalar(B, dB))
                if sign(P, dP, ray) < 0:
                    return refute(REASON_NONPOSITIVE_PIVOT, s=s, t=t, value=scalar(P, dP))
                # c and the row update share one cancelled pair; the center
                # test keeps P and B, whose gcd may change sign on the ray.
                Pc, Bc = kernel.cancel(P, B)
                num, den = mul(Bc, dP), mul(Pc, dB)
                # c < 1 iff pivot - below = (P*dB - B*dP) / (dP*dB) > 0
                if n == 2 * s and sign(kernel.sub(mul(P, dB), mul(B, dP)), mul(dP, dB), ray) <= 0:
                    return refute(
                        REASON_CENTER_NOT_LESS_THAN_ONE, s=s, t=t, value=scalar(num, den)
                    )
                records.append((s, t, num, den))
                # Rows s and s+1 are nonzero only in columns t .. n - min(t-1,
                # n-s-1), the mirror of row w0(s+1)'s cleared start.
                kernel.paired_update(rows, dens, s, Pc, Bc, t - 1, n - min(t - 1, n - s - 1))
                # The next B is positive: after a bridge step it is this
                # step's pivot P, unchanged, and after a center step it is
                # P - c*B = P(1 - c^2), with P > 0 read and 0 < c < 1 tested.
                carried = True

        # Cross-symmetry of the final matrix forces the upper triangle to
        # be zero once the lower one is; assert rather than assume.
        for i, row in enumerate(rows):
            if any(row[:i]) or any(row[i + 1 :]):
                raise AssertionError(f"off-diagonal residue in row {i + 1} after elimination")
        # Row n-1-i is row i reversed, so diagonal entry n-1-i is entry i.
        half = [(rows[i][i], dens[i]) for i in range((n + 1) // 2)]
        for i, (d, dd) in enumerate(half):
            if sign(d, dd, ray) <= 0:
                return refute(REASON_NONPOSITIVE_DIAGONAL, index=i + 1, value=scalar(d, dd))
        diag = [scalar(d, dd) for d, dd in half]
    except SignUndecidedOnRay as exc:
        return finish(
            Inapplicable(INAPPLICABLE_SYMBOLIC_INDEFINITE, bound=exc.witness_bound)
        )

    return TotallyNonnegative(), records, (*diag, *reversed(diag[: n // 2]))


def cross_symmetric_eliminate(A: Matrix, ray: int | None = None) -> Verdict:
    """Test an invertible cross-symmetric matrix for total nonnegativity.

    Certified verdicts carry a factorization whose product reproduces the
    input exactly.  Singular or non-cross-symmetric inputs are
    inapplicable (use :func:`crosstnn.matrix.brute_force_tnn` for those).
    """
    return eliminate_detailed(A, ray).verdict


def neville_tnn_test(A: Matrix, ray: int | None = None) -> Verdict:
    """Classical adjacent-row elimination test, as an independent oracle.

    Eliminates each column bottom-up using only the row immediately
    above, on the matrix and then on its transpose; every multiplier must
    be nonnegative, no zero pivot may sit above a nonzero entry, and the
    final diagonals must be positive.  Valid for invertible input, where
    it must agree with :func:`cross_symmetric_eliminate`; singular input
    is inapplicable.  No factorization is produced.  Witness positions
    for the second pass refer to the transposed matrix.

    The steps are unpaired, but the rows are updated on the sweep's row
    kernel: a copy of the matrix's started rows, then the transpose's
    rows, formed from them over a common denominator.  The multiplier
    (B/dB) / (P/dP) is read as the pair B*dP over P*dB, and each diagonal
    entry as its row numerator over its denominator, through the kernel's
    one sign query: a numeric sign from the signs of the two integers, a
    symbolic one from the shifts of both polynomials at the ray, or else
    from the reduced scalar.  A witness value is built only for a
    refutation.

    Singularity is decided only when the test does not certify, and from
    the test's own rows.  The first pass applies unit lower-triangular row
    operations, each row then scaled by a nonzero factor, so its rows are
    singular exactly when A is: an exit there runs the row kernel's
    ``singular`` on them, the residue test of the sweep with the exact
    pivot search behind it.  An exit in the second pass needs no check,
    because the first pass reached an upper triangular matrix with a
    positive diagonal, which proves det A > 0.  A symbolic matrix needs a
    ray: with ``ray=None`` the first sign query raises ``ValueError``,
    singular matrices included.
    """
    kernel = A.kernel
    rows, dens = A.row_lists(kernel)
    verdict = _neville_pass(kernel, rows, dens, ray)
    if verdict is not None:
        return Inapplicable(INAPPLICABLE_SINGULAR) if kernel.singular(rows, dens) else verdict
    rows, dens = kernel.transposed(A.nums, A.dens)
    return _neville_pass(kernel, rows, dens, ray) or TotallyNonnegative()


def _neville_pass(kernel, rows: list, dens: list, ray: int | None) -> Verdict | None:
    # One pass over (rows, dens) in place; None if it certifies.  Rows i-1
    # and i are zero left of column t, so only columns t.. are updated.
    n = len(rows)
    scalar = kernel.scalar
    try:
        for t in range(n - 1):
            for i in range(n - 1, t, -1):
                B = rows[i][t]
                if not B:
                    continue
                P, dB, dP = rows[i - 1][t], dens[i], dens[i - 1]
                if not P:
                    return NotTnn(
                        Witness(REASON_ZERO_PIVOT_NONZERO_BELOW, s=i, t=t + 1, value=scalar(B, dB))
                    )
                # The multiplier (B/dB) / (P/dP), as one unreduced pair.
                num, den = kernel.mul(B, dP), kernel.mul(P, dB)
                if kernel.sign(num, den, ray) < 0:
                    value = scalar(num, den)
                    return NotTnn(Witness(REASON_NEGATIVE_MULTIPLIER, s=i, t=t + 1, value=value))
                rows[i][t:], dens[i] = kernel.combine(P, rows[i][t:], dB, B, rows[i - 1][t:])
        for d in range(n):
            if kernel.sign(rows[d][d], dens[d], ray) <= 0:
                diagonal = scalar(rows[d][d], dens[d])
                return NotTnn(Witness(REASON_NONPOSITIVE_DIAGONAL, index=d + 1, value=diagonal))
    except SignUndecidedOnRay as exc:
        return Inapplicable(INAPPLICABLE_SYMBOLIC_INDEFINITE, bound=exc.witness_bound)
    return None


def factorization_product(f: Factorization) -> Matrix:
    """Multiply the certificate back out, exactly, through its planar network."""
    return path_matrix(network_from_factorization(f))


def random_certified_tnn(n: int, seed, atom_count: int = 3):
    """Sample a certified-by-construction instance: (matrix, factorization).

    Atoms are drawn with positive rational coefficients (center atoms
    strictly inside (0, 1)) and the diagonal is palindromic positive, so
    the product is invertible, cross-symmetric and totally nonnegative.
    Deterministic per seed.  For n = 1 no atom exists and the diagonal is
    returned on its own.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if atom_count < 0:
        raise ValueError("atom_count must be >= 0")
    rng = random.Random(seed)
    atoms = []
    if n >= 2:
        for _ in range(atom_count):
            s = rng.randint(1, n - 1)
            if n == 2 * s:
                den = rng.randint(2, 12)
                num = rng.randint(1, den - 1)
                atoms.append(Atom("center", n, s, Fraction(num, den)))
            else:
                atoms.append(
                    Atom("bridge", n, s, Fraction(rng.randint(1, 12), rng.randint(1, 12)))
                )
    half = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range((n + 1) // 2)]
    diagonal = tuple(half + list(reversed(half[: n // 2])))
    fact = Factorization(n=n, atoms=tuple(atoms), diagonal=diagonal)
    return factorization_product(fact), fact


# -- serialization -----------------------------------------------------


def factorization_to_doc(f: Factorization) -> dict:
    return {
        "n": f.n,
        "atoms": [
            {"kind": atom.kind, "s": atom.s, "c": format_scalar(atom.c)}
            for atom in f.atoms
        ],
        "diagonal": [format_scalar(d) for d in f.diagonal],
    }


def factorization_from_doc(doc: dict) -> Factorization:
    n = parse_int(doc["n"])
    atom_docs = parse_list(doc["atoms"], "atoms", dict)
    diagonal_docs = parse_list(doc["diagonal"], "diagonal")
    atoms = tuple(
        Atom(kind=a["kind"], n=n, s=parse_int(a["s"]), c=parse_doc_scalar(a["c"]))
        for a in atom_docs
    )
    diagonal = tuple(map(parse_doc_scalar, diagonal_docs))
    return Factorization(n=n, atoms=atoms, diagonal=diagonal)


def _witness_to_doc(witness: Witness) -> dict:
    doc: dict = {"reason": witness.reason}
    if witness.s is not None:
        doc["s"] = witness.s
    if witness.t is not None:
        doc["t"] = witness.t
    if witness.index is not None:
        doc["index"] = witness.index
    if witness.rows is not None:
        doc["rows"] = list(witness.rows)
    if witness.cols is not None:
        doc["cols"] = list(witness.cols)
    if witness.value is not None:
        doc["value"] = format_scalar(witness.value)
    if witness.trace:
        doc["trace"] = [
            {
                "s": step.s,
                "t": step.t,
                "c": format_scalar(step.c),
                "center": step.is_center,
            }
            for step in witness.trace
        ]
    return doc


def verdict_to_doc(verdict: Verdict) -> dict:
    doc: dict = {"verdict": verdict_label(verdict)}
    if isinstance(verdict, TotallyNonnegative):
        if verdict.factorization is not None:
            doc["factorization"] = factorization_to_doc(verdict.factorization)
    elif isinstance(verdict, NotTnn):
        doc["witness"] = _witness_to_doc(verdict.witness)
    else:
        doc["reason"] = verdict.reason
        if verdict.bound is not None:
            doc["bound"] = verdict.bound
        if verdict.rows is not None:
            doc["rows"] = list(verdict.rows)
            doc["cols"] = list(verdict.cols)
    return doc
