"""Dense exact matrices with the rotation operator and minor machinery.

Matrices are immutable square arrays of exact scalars (rationals,
polynomials, or rational functions; homogeneous per matrix), indexed
1-based to match the usual linear-algebra conventions for the
order-reversing map w0(i) = n + 1 - i.  Alongside the basic operators
this module carries the brute-force all-minors total-nonnegativity
oracle and the plain-text / JSON-compatible matrix formats.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .exact import (
    Poly,
    RatFunc,
    SignUndecidedOnRay,
    _int_add,
    _int_eval,
    _int_exact_div,
    _int_mul,
    _int_poly_gcd,
    _int_sign_on_ray,
    _int_sub,
    _numeric_reduce,
    _over_common_denominator,
    _poly,
    _ratfunc,
    _rational_row,
    _symbolic_reduce,
    format_scalar,
    parse_doc_scalar,
    parse_int,
    parse_json,
    parse_scalar,
    scalar_sign,
    split_scalar_tokens,
)
from .verdicts import (
    INAPPLICABLE_SYMBOLIC_INDEFINITE,
    REASON_NEGATIVE_MINOR,
    Inapplicable,
    NotTnn,
    TotallyNonnegative,
    Verdict,
    Witness,
)

__all__ = [
    "Matrix",
    "w0",
    "tau",
    "is_cross_symmetric",
    "exchange_matrix",
    "minor",
    "determinant",
    "brute_force_tnn",
    "matrix_to_text",
    "matrix_from_text",
    "matrix_to_doc",
    "matrix_from_doc",
    "matrix_from_payload",
]


class Matrix:
    """Immutable dense square matrix over exact scalars.

    A matrix is held in the row kernel's started form (see
    :class:`_RowKernel`): ``nums[i]`` is row i's tuple of integer
    numerators (integer coefficient lists for symbolic rows) over the
    reduced row denominator ``dens[i]``, with ``kernel`` the kernel those
    rows run on and ``kind`` the scalar kind of the entries: ``Fraction``,
    ``Poly`` or ``RatFunc``.  Every elimination, determinant and minor
    oracle reads these rows, so none converts a scalar first.  Each entry
    starts as it is; any polynomial (or rational-function) entry makes
    that the kind.  An entry that is not an int, ``Fraction``, ``Poly`` or
    ``RatFunc``, a float included, raises ``TypeError``.

    :attr:`rows` is the tuple of entries of that kind.  It is kept as
    given when every entry already has the kind, else built from the
    started rows when first read.
    """

    __slots__ = ("n", "kind", "kernel", "nums", "dens", "_rows")

    def __init__(self, rows):
        rows = [tuple(r) for r in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square with n >= 1")
        kinds = set(map(type, itertools.chain.from_iterable(rows)))
        bad = [t.__name__ for t in kinds - {Poly, RatFunc} if not issubclass(t, (int, Fraction))]
        if bad:
            raise TypeError(f"matrix entry of type {min(bad)} is not an exact scalar")
        kernel, kind = _row_kind(kinds)
        self._set(kernel, kind, map(kernel.start, rows), rows if kinds == {kind} else None)

    @classmethod
    def _from_rows(cls, kernel, kind, nums, dens) -> "Matrix":
        """The matrix of kind ``kind`` with row i the kernel's numerators nums[i] over dens[i]."""
        self = cls.__new__(cls)
        self._set(kernel, kind, map(kernel.reduce, nums, dens), None)
        return self

    def _set(self, kernel, kind, started, rows) -> None:
        nums, dens = zip(*started)
        self.n, self.kernel, self.kind = len(nums), kernel, kind
        self.nums, self.dens = tuple(map(tuple, nums)), dens
        self._rows = None if rows is None else tuple(rows)

    @property
    def rows(self) -> tuple:
        """The entries, row by row, as ``Fraction``, ``Poly`` or ``RatFunc``."""
        if self._rows is None:
            entry = (lambda x, d: _poly(x, d[0])) if self.kind is Poly else self.kernel.scalar
            self._rows = tuple(
                tuple(entry(x, d) for x in row) for row, d in zip(self.nums, self.dens)
            )
        return self._rows

    def row_lists(self, kernel) -> tuple:
        """A copy of the started rows as (rows, dens) lists, to update in place.

        ``kernel`` is :attr:`kernel` or, for rational rows, the symbolic
        kernel, on which an integer is a constant coefficient list.
        """
        if kernel is self.kernel:
            return [list(r) for r in self.nums], list(self.dens)
        return [[[x] if x else [] for x in r] for r in self.nums], [[d] for d in self.dens]

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int):
        """1-based access."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"entry ({i},{j}) outside 1..{self.n}")
        return self.rows[i - 1][j - 1]

    @property
    def is_symbolic(self) -> bool:
        return self.kind is not Fraction

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        return Matrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.n:
            return False
        # A reduced row is unique, so rows on one kernel compare as started.
        if self.kernel is other.kernel:
            return self.nums == other.nums and self.dens == other.dens
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(format_scalar(x) for x in r) for r in self.rows)
        return f"Matrix({self.n}x{self.n}: {body})"


def w0(i: int, n: int) -> int:
    """The order-reversing index map i -> n + 1 - i."""
    if not 1 <= i <= n:
        raise IndexError(f"index {i} outside 1..{n}")
    return n + 1 - i


def exchange_matrix(n: int) -> Matrix:
    """Ones on the anti-diagonal, zeros elsewhere; an involution."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Matrix([[Fraction(int(i + j == n - 1)) for j in range(n)] for i in range(n)])


def tau(A: Matrix) -> Matrix:
    """Rotate the matrix half a turn: entry (i,j) becomes entry (w0(i), w0(j))."""
    n = A.n
    return Matrix([[A.rows[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)])


def is_cross_symmetric(A: Matrix) -> bool:
    """True iff the matrix equals its half-turn rotation, exactly.

    A row's start commutes with reversal, so the test is that each started
    row is its mirror row reversed, over the same denominator.
    """
    rows, dens = A.nums, A.dens
    return all(
        dens[i] == dens[-1 - i] and rows[i] == rows[-1 - i][::-1]
        for i in range((len(rows) + 1) // 2)
    )


# -- the row kernel ----------------------------------------------------
#
# Every elimination in the package runs on one row kernel: the
# symmetry-preserving sweep, the Neville test, the determinant, the
# all-minors oracle, the certificate peel and path_matrix.  A numeric row
# is a list of ints over a positive int.  A symbolic row is a list of
# integer coefficient lists (ascending by degree, [] for zero) over one
# such list.  A Matrix holds its rows in this started form, reduced, from
# construction on: integer text, both generators and path_matrix hand it
# their integer rows without a scalar per entry, and each consumer copies
# the rows it updates in place.  _RowKernel holds the routines both kinds
# share: the start, the gcd-cancelled update, the transpose, the mirrored
# row layout of the sweep and the peel, and the pivot search.  Its two
# siblings, _NumericKernel and _SymbolicKernel, each give their ring as
# class attributes, and their own split, common-factor removal, sign
# query and residues.  :func:`_row_kind` picks the kind.


class _RowKernel:
    """The row routines of both kinds, on the ring a subclass gives.

    A kind gives ``mul``, ``add`` and ``sub`` on numerators; ``split``, the
    reduced (numerator, denominator) of one scalar of any kind it takes;
    ``common``, a common denominator of a row; ``reduce``, which removes
    the common factor of numerators and denominator; ``scalar``, the
    reduced ``Fraction`` or ``RatFunc`` of one numerator over a
    denominator; ``cancel`` and ``update`` for :meth:`combine`;
    ``residues`` for :meth:`singular`; and one query, ``sign(num, den,
    ray)``, the sign of num/den on the ray, which every elimination reads.
    """

    __slots__ = ()

    def start(self, entries) -> tuple:
        """(numerators, denominator) of a row of scalars, each taken as it is, reduced."""
        nums, dens = zip(*map(self.split, entries))
        common, scales = self.common(dens)
        return self.reduce(list(map(self.mul, nums, scales)), common)

    def combine(self, P, T: list, dT, B, S: list) -> tuple:
        """Row T/dT minus (B/P) times row S: P*T - B*S over dT*P, reduced.

        With P and B the numerators in one column of S and of T, this
        clears that column of T whatever the denominator of S.  Columns
        where T and S are both zero may be left out: they stay zero.
        ``cancel`` first divides P and B by their gcd, so ``update`` forms
        smaller products and, since a reduced row is unique, the same row.
        """
        P, B = self.cancel(P, B)
        return self.update(P, T, dT, B, S)

    def transposed(self, rows, dens) -> tuple:
        """The started rows of the transpose, as (rows, dens) lists.

        Column j's entries rows[i][j] / dens[i] are brought over one common
        denominator of the rows and reduced, which gives the same reduced
        row as starting the column's scalars.
        """
        common, scales = self.common(dens)
        mul, reduce = self.mul, self.reduce
        columns = [reduce(list(map(mul, column, scales)), common) for column in zip(*rows)]
        return [list(c) for c, _ in columns], [d for _, d in columns]

    def paired_update(self, rows: list, dens: list, s: int, P, B, lo: int = 0, hi=None) -> None:
        """Take c = (B*dens[s-1]) / (P*dens[s]) times row s from row s+1 (1-based).

        Row w0(s+1) loses c times row w0(s), which on cross-symmetric rows
        is the first update reversed: row s+1 is one :meth:`update`, and
        its reverse is stored as row w0(s+1) (for n = 2s, row s, after it
        was read).  The odd middle row takes both updates, from row s plus
        its reverse.  Only columns lo..hi-1 are updated: the rows must be
        zero outside them, a window symmetric for the middle row.  Callers
        pass P and B through :meth:`cancel` first, and may share its result.
        """
        n = len(rows)
        source = rows[s - 1][lo:hi]
        if 2 * s + 1 == n:
            source = [self.add(x, y) for x, y in zip(source, reversed(source))]
        row = rows[s]
        row[lo:hi], dens[s] = self.update(P, row[lo:hi], dens[s], B, source)
        rows[n - 1 - s], dens[n - 1 - s] = row[::-1], dens[s]

    def singular(self, rows: list, dens: list) -> bool:
        """Whether the started rows are linearly dependent.

        The rows are numerators over nonzero denominators, so they are
        singular exactly when the scaled rows are.  Their determinant D is
        an integer, or an integer polynomial in b for symbolic rows.  Each
        numerator is first reduced modulo the prime p = ``_RESIDUE_PRIME``,
        a polynomial after evaluation at b = xi = ``_RESIDUE_POINT``.  That
        map is a ring homomorphism, so the residue matrix has determinant
        D mod p (D(xi) mod p for symbolic rows), and an elimination of the
        residues modulo p (:func:`_residues_independent`) finds a full set
        of nonzero pivots only if that is nonzero, which proves D != 0 and
        the rows independent.  A zero residue proves nothing: then, and so
        for every singular input, the exact :meth:`pivots` on the rows
        decides.  So the test is one-sided and the answer always exact
        (S. Cabay and T. P. L. Lam, *ACM TOMS* 3, 1977; J. T. Schwartz,
        *J. ACM* 27, 1980).
        """
        if _residues_independent(self.residues(rows)):
            return False
        return self.pivots(list(zip(rows, dens))) is None

    def pivots(self, block: list):
        """Eliminate (row, denominator) pairs: None if singular, else (sign, pivots).

        Each column pivots on its first nonzero row, which moves to the
        front, and clears that column of the rows after it with
        :meth:`combine`.  ``sign`` is the sign of the row permutation, and
        each pivot is a (numerator, denominator) pair, so the determinant
        is ``sign`` times the product of the pivots.
        """
        sign, out = 1, []
        while block:
            k = next((k for k, (row, _) in enumerate(block) if row[0]), None)
            if k is None:
                return None
            S, dS = block.pop(k)
            if k % 2:
                sign = -sign
            out.append((S[0], dS))
            block = [
                self.combine(S[0], T[1:], dT, T[0], S[1:]) if T[0] else (T[1:], dT)
                for T, dT in block
            ]
        return sign, out


class _NumericKernel(_RowKernel):
    """Rows of ints over a positive int: integer updates, signs from numerators."""

    __slots__ = ()
    mul, add, sub, scalar = operator.mul, operator.add, operator.sub, Fraction
    reduce = staticmethod(_numeric_reduce)
    start = staticmethod(_over_common_denominator)

    def split(self, value) -> tuple:
        return value.numerator, value.denominator

    def cancel(self, P, B) -> tuple:
        g = math.gcd(P, B)
        return (P // g, B // g) if g != 1 else (P, B)

    def common(self, dens) -> tuple:
        D = math.lcm(*dens)
        return D, [D // d for d in dens]

    def update(self, P, T: list, dT, B, S: list) -> tuple:
        return _numeric_reduce([P * x - B * y for x, y in zip(T, S)], dT * P)

    def sign(self, num, den, ray) -> int:
        # Row denominators are positive; Neville's multiplier pair may not be.
        return (num > 0) - (num < 0) if den > 0 else (num < 0) - (num > 0)

    def residues(self, rows: list) -> list:
        p = _RESIDUE_PRIME
        return [[x % p for x in row] for row in rows]


class _SymbolicKernel(_RowKernel):
    """Rows of integer polynomials: exact gcds, signs on the ray [ray, inf).

    A sign is read from the shifts of numerator and denominator at the ray
    when both are of one sign there, else from the reduced scalar.
    """

    __slots__ = ()
    mul, add, sub = staticmethod(_int_mul), staticmethod(_int_add), staticmethod(_int_sub)
    reduce, scalar = staticmethod(_symbolic_reduce), staticmethod(_ratfunc)

    def split(self, value) -> tuple:
        # The canonical forms of Poly and RatFunc make each pair reduced.
        if isinstance(value, RatFunc):
            num = value.num
            return list(num.numerators), [num.denominator * v for v in value.den.numerators]
        if isinstance(value, Poly):
            return list(value.numerators), [value.denominator]
        return [value.numerator] if value else [], [value.denominator]

    def cancel(self, P, B) -> tuple:
        return _int_poly_gcd(P, B)[1:]

    def common(self, dens) -> tuple:
        D = functools.reduce(_int_mul, {tuple(d): d for d in dens}.values())
        return D, [_int_exact_div(D, d) for d in dens]

    def update(self, P, T: list, dT, B, S: list) -> tuple:
        products = [_int_mul(P, x, B, y) for x, y in zip(T, S)]
        return _symbolic_reduce(products, _int_mul(dT, P))

    def sign(self, num, den, ray) -> int:
        """Sign of num/den on [ray, inf).

        When the shift test certifies num and den, neither has a root on
        the ray, so neither has the reduced quotient, and its sign is
        theirs.  Otherwise, and for a ray that is not an integer >= 1, on
        which the query raises, the reduced scalar's sign query decides.
        """
        if isinstance(ray, int) and ray >= 1:
            signs = _int_sign_on_ray(num, ray) * _int_sign_on_ray(den, ray)
            if signs:
                return signs
        return scalar_sign(self.scalar(num, den), ray)

    def residues(self, rows: list) -> list:
        """Each numerator's value at ``_RESIDUE_POINT`` modulo ``_RESIDUE_PRIME``."""
        p, point = _RESIDUE_PRIME, _RESIDUE_POINT
        return [[_int_eval(coeffs, point) % p for coeffs in row] for row in rows]


# The residue test's prime and point (see _RowKernel.singular): the largest
# prime below 2^30, so that residues are one-digit CPython ints, and a point
# at which no factor j*b + k with 1 <= j <= 1000 and |k| < 1,000,003 is zero
# modulo the prime (0 < |j*xi + k| < p), which covers the small rational
# roots of the carries determinants.
_RESIDUE_PRIME = 2**30 - 35
_RESIDUE_POINT = 1_000_003


def _residues_independent(rows: list) -> bool:
    """Whether rows of residues are independent modulo ``_RESIDUE_PRIME``; uses them up.

    :meth:`_RowKernel.pivots` modulo the prime: scaling a row by a nonzero
    pivot and taking a multiple of the pivot row keeps the rank.
    """
    p = _RESIDUE_PRIME
    while rows:
        k = next((k for k, T in enumerate(rows) if T[0]), None)
        if k is None:
            return False
        P, *S = rows.pop(k)
        rows = [[(P * x - B * y) % p for x, y in zip(T, S)] if B else T for B, *T in rows]
    return True


_NUMERIC = _NumericKernel()
_SYMBOLIC = _SymbolicKernel()


def _row_kind(kinds) -> tuple:
    """(kernel, kind) for scalars whose types are in ``kinds``.

    Any ``RatFunc`` makes the kind ``RatFunc``, else any ``Poly`` makes it
    ``Poly``, both on the symbolic kernel; else all are rationals
    (``Fraction``) on the numeric one.
    """
    if RatFunc in kinds:
        return _SYMBOLIC, RatFunc
    if Poly in kinds:
        return _SYMBOLIC, Poly
    return _NUMERIC, Fraction



def _det_rows(kernel, block):
    # The routine behind determinant and minor, on a list of started
    # (row, denominator) pairs; see determinant.
    sign, pivots = kernel.pivots(block) or (1, [kernel.split(0)])
    det = kernel.scalar(*pivots[0])
    for p, d in pivots[1:]:
        det = det * kernel.scalar(p, d)
    return det if sign > 0 else -det


def determinant(A: Matrix):
    """Exact determinant; zero iff singular (identically zero for symbolic entries).

    One elimination on the row kernel: each row is held as integer
    numerators over one row denominator (polynomials over Z for symbolic
    matrices), each column pivots on its first nonzero row, and the
    result is the sign of the row permutation times the product of the
    pivots.  Numeric matrices give a ``Fraction``; symbolic ones always
    give a reduced ``RatFunc``, whose denominator is 1 whenever the
    entries are polynomials.  :func:`minor` uses the same routine.
    """
    return _det_rows(A.kernel, list(zip(A.nums, A.dens)))


def _check_index_set(indices, n: int) -> tuple:
    idx = tuple(indices)
    if not idx:
        raise ValueError("index set must be nonempty")
    if any(not 1 <= i <= n for i in idx):
        raise ValueError(f"indices must lie in 1..{n}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("indices must be strictly increasing")
    return idx


def minor(A: Matrix, row_indices, col_indices):
    """Exact determinant of the submatrix on the given 1-based index sets."""
    rows_idx = _check_index_set(row_indices, A.n)
    cols_idx = _check_index_set(col_indices, A.n)
    if len(rows_idx) != len(cols_idx):
        raise ValueError("index sets must have the same size")
    # A row's numerators in the chosen columns, over its denominator, are
    # that row of the submatrix, perhaps not reduced, which pivots allows.
    nums, dens = A.nums, A.dens
    block = [([nums[i - 1][j - 1] for j in cols_idx], dens[i - 1]) for i in rows_idx]
    return _det_rows(A.kernel, block)


@functools.cache
def _minor_tables(n: int, size: int) -> tuple:
    """The index tables of :func:`brute_force_tnn`'s size-k minors of an n x n matrix.

    (subsets, heads, width, terms): the k-subsets of 1..n in
    lexicographic order, the rank of each without its last index among
    the (k-1)-subsets, the number of (k-1)-subsets, and for each subset
    one (0-based column, rank of the (k-1)-subset without that column,
    cofactor sign is negative) triple per column.  They depend on n and
    k only, so they are built once per process and shared, as tuples,
    and kept for the life of the process.
    """
    prev = _minor_tables(n, size - 1)[0] if size > 1 else ((),)
    combos = tuple(itertools.combinations(range(1, n + 1), size))
    rank = {c: r for r, c in enumerate(prev)}
    heads = tuple(rank[c[:-1]] for c in combos)
    terms = tuple(
        tuple((c[j] - 1, rank[c[:j] + c[j + 1 :]], (size - 1 - j) % 2) for j in range(size))
        for c in combos
    )
    return combos, heads, len(prev), terms


def brute_force_tnn(A: Matrix, ray: int | None = None) -> Verdict:
    """Enumerate every minor, smallest sizes first, then lexicographically.

    Returns the first negative minor as the refutation witness; a
    symbolic sign query that stays indefinite on the ray aborts with the
    offending minor attached.  Certified verdicts carry no factorization.

    One sweep over sizes: each k x k minor is the Laplace expansion along
    its last row over the (k-1) x (k-1) minors of the size before, kept
    in a flat list indexed by the ranks of the row set and the column
    set, so a minor costs at most k products and zero terms are skipped.
    The subsets, ranks and expansion terms depend on n and k only; they
    are built once per process (see :func:`_minor_tables`), n * 2 ** (n - 1)
    expansion triples over all sizes, and kept for the life of the
    process: one that checks matrices of many orders n holds each one's.
    The minors are summed from the matrix's started rows (see
    :class:`_RowKernel`): row i is integer numerators over a denominator
    D_i (integer polynomials in b for symbolic matrices), so a minor is a
    numerator summed with the kernel's ring operations over the product of
    its rows' D_i, and never divides.  The kernel reads the sign of each nonzero minor, and a
    witness value is built only for the refuting one.  Two sizes of
    minors are held at once, so memory grows as C(n, n // 2) ** 2.
    """
    n = A.n
    kernel, rows, dens = A.kernel, A.nums, A.dens
    mul, add, sub, sign = kernel.mul, kernel.add, kernel.sub, kernel.sign
    one, zero = kernel.split(1)[0], kernel.split(0)[0]
    prev, prev_dens = [one], [one]  # the empty minor, 1 over 1
    for size in range(1, n + 1):
        combos, heads, width, terms = _minor_tables(n, size)
        minor_dens = [mul(prev_dens[h], dens[c[-1] - 1]) for c, h in zip(combos, heads)]
        minors = []
        for rows_idx, head, den in zip(combos, heads, minor_dens):
            last = rows[rows_idx[-1] - 1]
            base = head * width
            for cols_idx, expansion in zip(combos, terms):
                m = zero
                for col, rest, negative in expansion:
                    a = last[col]
                    if a:
                        b = prev[base + rest]
                        if b:
                            m = sub(m, mul(a, b)) if negative else add(m, mul(a, b))
                try:  # a zero minor needs no sign query
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
        prev, prev_dens = minors, minor_dens
    return TotallyNonnegative()


# -- matrix formats ----------------------------------------------------


def matrix_to_text(A: Matrix) -> str:
    """Plain text: first line n, then n rows of whitespace-separated scalars."""
    lines = [str(A.n)]
    for r in A.rows:
        lines.append(" ".join(format_scalar(x) for x in r))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> Matrix:
    """Read :func:`matrix_to_text`'s format: n, then exactly n rows of n scalars.

    Blank lines are skipped.  A row of plain integer or p/q tokens is read
    as integers over one denominator, by the rule :func:`parse_scalar`
    applies first, so a matrix of such rows reaches its started rows
    without a ``Fraction`` per entry.  Any other row, and a row with a
    zero denominator, is read by :func:`parse_scalar`, token by token.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    n = int(lines[0].strip())
    if n < 1:
        raise ValueError("matrix must be square with n >= 1")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        tokens = split_scalar_tokens(ln)
        if len(tokens) != n:
            raise ValueError(f"expected {n} entries per row, found {len(tokens)}")
        row = _rational_row(tokens)
        rows.append(row if row and row[1] else [parse_scalar(tok) for tok in tokens])
    if all(type(row) is tuple for row in rows):
        return Matrix._from_rows(_NUMERIC, Fraction, *zip(*rows))
    return Matrix(
        [[Fraction(p, row[1]) for p in row[0]] if type(row) is tuple else row for row in rows]
    )


def matrix_to_doc(A: Matrix) -> dict:
    return {
        "n": A.n,
        "entries": [[format_scalar(x) for x in r] for r in A.rows],
    }


def matrix_from_doc(doc: dict) -> Matrix:
    n = parse_int(doc["n"])
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != n or any(
        not isinstance(r, list) or len(r) != n for r in entries
    ):
        raise ValueError("entries do not form an n x n array")
    return Matrix([[parse_doc_scalar(x) for x in row] for row in entries])


def matrix_from_payload(text: str) -> Matrix:
    """Accept either the plain-text format or the JSON document form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return matrix_from_doc(parse_json(stripped))
    return matrix_from_text(text)
