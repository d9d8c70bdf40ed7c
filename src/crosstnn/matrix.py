"""Dense exact matrices with the rotation operator and minor machinery.

Matrices are immutable square arrays of exact scalars (rationals,
polynomials, or rational functions; homogeneous per matrix), indexed
1-based to match the usual linear-algebra conventions for the
order-reversing map w0(i) = n + 1 - i.  Alongside the basic operators
this module carries the brute-force all-minors total-nonnegativity
oracle and the plain-text / JSON-compatible matrix formats.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .exact import (
    Poly,
    RatFunc,
    SignUndecidedOnRay,
    _as_poly,
    _int_add,
    _int_exact_div,
    _int_mul,
    _int_poly_gcd,
    _int_sign_on_ray,
    _int_sub,
    _numeric_reduce,
    _over_common_denominator,
    _poly,
    _symbolic_reduce,
    as_ratfunc,
    as_rational,
    format_scalar,
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
    "zero_pattern_violation",
    "brute_force_tnn",
    "matrix_to_text",
    "matrix_from_text",
    "matrix_to_doc",
    "matrix_from_doc",
    "matrix_from_payload",
]


class Matrix:
    """Immutable dense square matrix over exact scalars.

    Entries are coerced to a homogeneous scalar kind at construction:
    plain integers become rationals, and the presence of any polynomial
    (or rational-function) entry lifts the whole matrix to that kind.
    Any other entry, a float included, raises ``TypeError``.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = [tuple(r) for r in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square with n >= 1")
        kinds = set(map(type, itertools.chain.from_iterable(rows)))
        if kinds != {Fraction}:
            lift = _row_kind(kinds)[1]
            rows = [tuple(map(lift, r)) for r in rows]
        self.n = n
        self.rows = tuple(rows)

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
        return isinstance(self.rows[0][0], (Poly, RatFunc))

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
        return self.n == other.n and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

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
    """True iff the matrix equals its half-turn rotation, exactly."""
    flat = [x for r in A.rows for x in r]
    half = len(flat) // 2
    return flat[:half] == flat[: -half - 1 : -1]


# -- the row kernel ----------------------------------------------------
#
# Every elimination in the package runs on one row kernel: the
# symmetry-preserving sweep, the Neville test, the determinant, the
# certificate peel and path_matrix.  A numeric row is a list of ints over
# a positive int.  A symbolic row is a list of integer coefficient lists
# (ascending by degree, [] for zero) over one such list.  Both kinds
# divide P and B by gcd(P, B) before a row update, and share the update
# formula, the pivot search and the mirrored row layout of the sweep and
# the peel; only the ring operations and the common-factor removal
# differ.  :func:`_row_kind` picks the kind.


class _RowKernel:
    """The ring operations of one row kind, and the row routines built on them.

    ``start`` turns a row of exact scalars into (numerators, denominator):
    ints and Fractions on either kernel, Polys and RatFuncs too on the
    symbolic one, as they are, so no caller converts a scalar first.
    ``reduce`` removes the common factor of numerators and denominator,
    and ``scalar`` builds the reduced ``Fraction`` or ``RatFunc`` of one
    numerator over a denominator.  This class is the symbolic kernel: it
    reads a sign from the shifts of numerator and denominator at the ray
    when both are of one sign there, else from the reduced scalar.
    :class:`_NumericKernel` reads its signs from integers.
    """

    __slots__ = ("mul", "add", "sub", "start", "reduce", "scalar")

    def __init__(self, mul, add, sub, start, reduce, scalar):
        self.mul, self.add, self.sub = mul, add, sub
        self.start, self.reduce, self.scalar = start, reduce, scalar

    def cancel(self, P, B) -> tuple:
        """P and B divided by their gcd (their primitive gcd, for polynomials).

        :meth:`update` then forms smaller products and, since a reduced
        row is unique, the same row.
        """
        g = _int_poly_gcd(P, B)
        if len(g) > 1:
            P, B = _int_exact_div(P, g), _int_exact_div(B, g)
        return P, B

    def update(self, P, T: list, dT, B, S: list) -> tuple:
        """Row T/dT minus (B/P) times row S: P*T - B*S over dT*P, reduced.

        With P and B the numerators in one column of S and of T, this
        clears that column of T whatever the denominator of S.  Columns
        where T and S are both zero may be left out: they stay zero.
        """
        mul, sub = self.mul, self.sub
        return self.reduce([sub(mul(P, x), mul(B, y)) for x, y in zip(T, S)], mul(dT, P))

    def combine(self, P, T: list, dT, B, S: list) -> tuple:
        """:meth:`update` on P and B as :meth:`cancel` leaves them."""
        P, B = self.cancel(P, B)
        return self.update(P, T, dT, B, S)

    def split(self, value) -> tuple:
        """(numerator, denominator) of one scalar of any kind :attr:`start` takes."""
        (num,), den = self.start([value])
        return num, den

    def mirrored(self, entries):
        """The started rows as (rows, dens) lists, or None if not cross-symmetric.

        A row's start commutes with reversal, so the test is that each row
        is its mirror row reversed, over the same denominator.
        """
        rows, dens = map(list, zip(*map(self.start, entries)))
        for i in range((len(rows) + 1) // 2):
            if dens[i] != dens[-1 - i] or rows[i] != rows[-1 - i][::-1]:
                return None
        return rows, dens

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

    def sign(self, num, den, ray) -> int:
        """Sign of num/den, on [ray, inf) for symbolic values."""
        return _shift_sign((num, den), ray) or scalar_sign(self.scalar(num, den), ray)

    def ratio(self, B, dB, P, dP):
        """The reduced scalar (B/dB) / (P/dP)."""
        return self.scalar(self.mul(B, dP), self.mul(P, dB))

    def ratio_sign(self, B, dB, P, dP, ray) -> int:
        """Sign of :meth:`ratio`."""
        return _shift_sign((B, dB, P, dP), ray) or scalar_sign(self.ratio(B, dB, P, dP), ray)

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

    def cancel(self, P, B) -> tuple:
        g = math.gcd(P, B)
        return (P // g, B // g) if g != 1 else (P, B)

    def update(self, P, T: list, dT, B, S: list) -> tuple:
        return _numeric_reduce([P * x - B * y for x, y in zip(T, S)], dT * P)

    def sign(self, num, den, ray) -> int:
        return (num > 0) - (num < 0)

    def ratio_sign(self, B, dB, P, dP, ray) -> int:
        return ((B > 0) - (B < 0)) * ((P > 0) - (P < 0))


def _shift_sign(polys, ray) -> int:
    # The product of the polynomials' signs on [ray, inf) if the shift test
    # certifies each one, else 0.  Certified factors have no root on the
    # ray, so the reduced quotient has none and this sign.  A ray that is
    # not an integer >= 1 gives 0, so the reduced query raises.
    if not isinstance(ray, int) or ray < 1:
        return 0
    return math.prod(_int_sign_on_ray(p, ray) for p in polys)


def _symbolic_start(entries) -> tuple:
    # Entries are int, Fraction, Poly or RatFunc; a rational is taken as a
    # constant Poly.  Entry k is p_k / (d_k * q_k): integer numerators p_k
    # over the integer d_k, and q_k the entry's denominator in Z[b].  The row
    # starts over lcm(d_k) times the product of the q_k.
    parts = [
        (e.num, list(e.den.numerators)) if isinstance(e, RatFunc) else (_as_poly(e), [1])
        for e in entries
    ]
    d = math.lcm(*(p.denominator for p, _ in parts))
    nums, q_product = [], [1]
    for p, q in parts:
        if q != [1]:
            nums = [_int_mul(v, q) for v in nums]
        nums.append(_int_mul([v * (d // p.denominator) for v in p.numerators], q_product))
        q_product = _int_mul(q_product, q)
    return _symbolic_reduce(nums, [d * v for v in q_product])


_NUMERIC = _NumericKernel(
    mul=operator.mul,
    add=operator.add,
    sub=operator.sub,
    start=_over_common_denominator,
    reduce=_numeric_reduce,
    scalar=Fraction,
)

_SYMBOLIC = _RowKernel(
    mul=_int_mul,
    add=_int_add,
    sub=_int_sub,
    start=_symbolic_start,
    reduce=_symbolic_reduce,
    scalar=lambda num, den: RatFunc(_poly(num), _poly(den)),
)


def _row_kind(kinds) -> tuple:
    """(kernel, lift) for scalars whose types are in ``kinds``.

    Any ``RatFunc`` lifts all to ``RatFunc``, else any ``Poly`` to ``Poly``,
    both on the symbolic kernel; else all are rationals on the numeric one.
    """
    if RatFunc in kinds:
        return _SYMBOLIC, as_ratfunc
    if Poly in kinds:
        return _SYMBOLIC, _as_poly
    return _NUMERIC, as_rational


def _det_rows(rows):
    # The routine behind determinant and minor; see determinant.
    kernel = _row_kind((type(rows[0][0]),))[0]
    sign, pivots = kernel.pivots(list(map(kernel.start, rows))) or (1, [kernel.split(0)])
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
    return _det_rows(A.rows)


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
    sub = [[A.rows[i - 1][j - 1] for j in cols_idx] for i in rows_idx]
    return _det_rows(sub)


def zero_pattern_violation(A: Matrix) -> tuple | None:
    """First pair (s, t) with row s zero through column t but a nonzero entry below.

    An invertible totally nonnegative matrix admits no such pair, so this
    is a cheap pre-filter before the full test.
    """
    n = A.n
    for s in range(1, n):
        for t in range(1, n + 1):
            if A.entry(s, t) != 0:
                break
            if A.entry(s + 1, t) != 0:
                return (s, t)
    return None


def _laplace_terms(combos, rank: dict) -> list:
    # For each column k-set, one (0-based column, rank of the (k-1)-set
    # without that column, cofactor sign is negative) triple per column.
    k = len(combos[0])
    return [
        [(c[j] - 1, rank[c[:j] + c[j + 1 :]], (k - 1 - j) % 2) for j in range(k)]
        for c in combos
    ]


def brute_force_tnn(A: Matrix, ray: int | None = None) -> Verdict:
    """Enumerate every minor, smallest sizes first, then lexicographically.

    Returns the first negative minor as the refutation witness; a
    symbolic sign query that stays indefinite on the ray aborts with the
    offending minor attached.  Certified verdicts carry no factorization.

    One sweep over sizes: each k x k minor is the Laplace expansion along
    its last row over the (k-1) x (k-1) minors of the size before, kept
    in a flat list indexed by the ranks of the row set and the column
    set, so a minor costs at most k products and zero terms are skipped.
    The rows are started on the row kernel (see :class:`_RowKernel`): row
    i is integer numerators over a denominator D_i (integer polynomials in
    b for symbolic matrices), so a minor is a numerator summed with the
    kernel's ring operations over the product of its rows' D_i, and never
    divides.  The kernel reads the sign of each nonzero minor, and a
    witness value is built only for the refuting one.  Two sizes of
    minors are held at once, so memory grows as C(n, n // 2) ** 2.
    """
    n = A.n
    kernel = _row_kind((type(A.rows[0][0]),))[0]
    mul, add, sub, sign = kernel.mul, kernel.add, kernel.sub, kernel.sign
    rows, dens = zip(*map(kernel.start, A.rows))
    one, zero = kernel.split(1)[0], kernel.split(0)[0]
    indices = range(1, n + 1)
    prev_combos, prev, prev_dens = [()], [one], [one]  # the empty minor, 1 over 1
    for size in indices:
        combos = list(itertools.combinations(indices, size))
        rank = {c: r for r, c in enumerate(prev_combos)}
        width = len(prev_combos)
        terms = _laplace_terms(combos, rank)
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
        prev_combos, prev, prev_dens = combos, minors, minor_dens
    return TotallyNonnegative()


# -- matrix formats ----------------------------------------------------


def matrix_to_text(A: Matrix) -> str:
    """Plain text: first line n, then n rows of whitespace-separated scalars."""
    lines = [str(A.n)]
    for r in A.rows:
        lines.append(" ".join(format_scalar(x) for x in r))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> Matrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    n = int(lines[0].strip())
    if len(lines) < n + 1:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1 : n + 1]:
        tokens = split_scalar_tokens(ln)
        if len(tokens) != n:
            raise ValueError(f"expected {n} entries per row, found {len(tokens)}")
        rows.append([parse_scalar(tok) for tok in tokens])
    return Matrix(rows)


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
    return Matrix(
        [[parse_scalar(str(x)) for x in row] for row in entries]
    )


def matrix_from_payload(text: str) -> Matrix:
    """Accept either the plain-text format or the JSON document form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return matrix_from_doc(parse_json(stripped))
    return matrix_from_text(text)
