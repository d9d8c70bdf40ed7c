"""Shared helpers for the test suites: random exact matrices and the reference determinant."""

from fractions import Fraction

from hypothesis import strategies as st

from crosstnn import Matrix, Poly, RatFunc, random_certified_tnn
from crosstnn.exact import as_ratfunc


def random_rational(rng, lo=-9, hi=9, max_den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_matrix(rng, n, lo=-9, hi=9, max_den=4) -> Matrix:
    return Matrix(
        [[random_rational(rng, lo, hi, max_den) for _ in range(n)] for _ in range(n)]
    )


def random_cross_symmetric(rng, n, lo=-9, hi=9, max_den=4) -> Matrix:
    """Random matrix invariant under the half-turn rotation."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if rows[i][j] is None:
                value = random_rational(rng, lo, hi, max_den)
                rows[i][j] = value
                rows[n - 1 - i][n - 1 - j] = value
    return Matrix(rows)


def reference_determinant(rows):
    """Gaussian elimination over the entries' field: Fraction, or RatFunc for symbolic rows.

    Each column pivots on its first nonzero entry and a row swap negates
    the result; determinant and minor must give the same values.
    """
    if isinstance(rows[0][0], (Poly, RatFunc)):
        m = [[as_ratfunc(x) for x in r] for r in rows]
        det = RatFunc(Poly((1,)))
    else:
        m = [list(r) for r in rows]
        det = Fraction(1)
    n = len(m)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k]), None)
        if pivot_row is None:
            return m[k][k]  # a zero of the entries' kind
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        top = m[k]
        det = det * top[k]
        for row in m[k + 1 :]:
            if row[k]:
                factor = row[k] / top[k]
                row[k + 1 :] = [
                    x - factor * y if y else x for x, y in zip(row[k + 1 :], top[k + 1 :])
                ]
    return det


_ENTRIES = {
    "numeric": st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    "nonnegative": st.builds(Fraction, st.integers(0, 9), st.integers(1, 6)),
    "poly": st.lists(st.integers(-3, 5), max_size=3).map(Poly),
    "ratfunc": st.builds(
        RatFunc,
        st.lists(st.integers(-3, 5), max_size=3).map(Poly),
        st.sampled_from([(1,), (1, 1), (2, 1), (3, 2), (1, 0, 1)]).map(Poly),
    ),
}


@st.composite
def matrices_on_rays(draw, max_n=7, max_symbolic_n=5):
    """(matrix, ray): a numeric matrix with ray None, or a symbolic one with a ray in 1..n.

    Numeric entries have mixed denominators; symbolic ones are Poly or
    RatFunc.  About half the entries are zero, and half the matrices get a
    row replaced by a combination of two others, which makes them
    singular.  One kind is a certified product of atoms.
    """
    kind = draw(st.sampled_from(["certified", *_ENTRIES]))
    symbolic = kind in ("poly", "ratfunc")
    n = draw(st.integers(1, max_symbolic_n if symbolic else max_n))
    if kind == "certified":
        seed, atoms = draw(st.integers(0, 10**6)), draw(st.integers(0, 8))
        return random_certified_tnn(n, seed, atom_count=atoms)[0], None
    entry = st.one_of(st.just(0), _ENTRIES[kind])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(st.sampled_from([x for x in range(n) if x != j]))
        a, c = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[j] = [a * x + c * y for x, y in zip(rows[i], rows[k])]
    return Matrix(rows), draw(st.integers(1, n)) if symbolic else None
