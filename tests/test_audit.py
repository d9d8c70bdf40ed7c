"""The certificate peel: it must accept exactly the certificates whose product is the input.

``factorization_product`` multiplies a certificate out through its planar
network; it is the differential reference for every check here.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import random_cross_symmetric

from crosstnn import (
    Atom,
    Factorization,
    Matrix,
    Poly,
    RatFunc,
    TotallyNonnegative,
    amazing_matrix,
    amazing_matrix_symbolic,
    cross_symmetric_eliminate,
    eliminate_detailed,
    factorization_product,
    peel_certificate,
    random_certified_tnn,
)

B = Poly.variable()


def _agrees(f, A) -> bool:
    """The peel's answer, after checking it against the product."""
    accepted = peel_certificate(f, A)
    assert accepted == (factorization_product(f) == A)
    return accepted


def _perturbed(rng, A: Matrix) -> Matrix:
    """A with one entry and its half-turn mirror moved by a nonzero amount."""
    n = A.n
    rows = [list(r) for r in A.rows]
    i, j = rng.randrange(n), rng.randrange(n)
    delta = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice([1, -1])
    rows[i][j] += delta
    if (n - 1 - i, n - 1 - j) != (i, j):
        rows[n - 1 - i][n - 1 - j] += delta
    return Matrix(rows)


def test_agrees_with_the_product_on_the_acceptance_battery():
    rng = random.Random("audit-battery")
    sizes = [1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6, 7]
    accepted = rejected = 0
    for trial in range(300):
        n = rng.choice(sizes)
        A, f = random_certified_tnn(n, f"audit-{trial}", atom_count=rng.randint(0, 5))
        assert _agrees(f, A)
        moved = _perturbed(rng, A)
        assert not _agrees(f, moved)
        for C in (moved, random_cross_symmetric(rng, n, lo=-3, hi=9)):
            verdict = cross_symmetric_eliminate(C)
            if isinstance(verdict, TotallyNonnegative):
                assert _agrees(verdict.factorization, C)
                accepted += 1
            else:
                rejected += 1
    assert accepted >= 100 and rejected >= 100


def _positive_numeric():
    return st.builds(Fraction, st.integers(1, 9), st.integers(1, 6))


def _below_one():
    return st.builds(lambda k, j: Fraction(k, k + j), st.integers(1, 9), st.integers(1, 6))


def _poly():
    # degree >= 1, so 1 - c^2 is never zero and a center atom has a product
    return st.builds(
        lambda low, top: Poly((*low, top)),
        st.lists(st.integers(0, 4), min_size=1, max_size=2),
        st.integers(1, 3),
    )


def _ratfunc():
    # p / (k + B) is 1 when p = k + B; a center atom needs 1 - c^2 nonzero
    return st.builds(lambda k, p: RatFunc(p, Poly((k, 1))), st.integers(1, 5), _poly()).filter(
        lambda r: r != 1
    )


@st.composite
def certificates(draw):
    """A certificate with numeric, Poly or RatFunc weights, mixed with numeric ones."""
    kind = draw(st.sampled_from(["numeric", "poly", "ratfunc"]))
    n = draw(st.integers(1, 7 if kind == "numeric" else 5))
    symbolic = {"numeric": [], "poly": [_poly()], "ratfunc": [_poly(), _ratfunc()]}[kind]
    bridge = st.one_of(_positive_numeric(), *symbolic)
    center = st.one_of(_below_one(), *symbolic)
    atoms = []
    if n > 1:
        for s in draw(st.lists(st.integers(1, n - 1), max_size=6)):
            if n == 2 * s:
                atoms.append(Atom("center", n, s, draw(center)))
            else:
                atoms.append(Atom("bridge", n, s, draw(bridge)))
    half = draw(st.lists(bridge, min_size=(n + 1) // 2, max_size=(n + 1) // 2))
    diagonal = tuple(half + half[: n // 2][::-1])
    return Factorization(n=n, atoms=tuple(atoms), diagonal=diagonal)


def _tampered(f: Factorization, how: str, k: int):
    """f changed in one way, or None if it has too few atoms for that."""
    atoms = list(f.atoms)
    if how == "diagonal":
        i = k % f.n
        diagonal = list(f.diagonal)
        diagonal[i] = diagonal[f.n - 1 - i] = diagonal[i] * 2
        return replace(f, diagonal=tuple(diagonal))
    if not atoms:
        return None
    i = k % len(atoms)
    if how == "c":
        atoms[i] = replace(atoms[i], c=atoms[i].c * Fraction(2, 3))
    elif how == "drop":
        del atoms[i]
    else:  # swap
        if len(atoms) < 2:
            return None
        j = (i + 1) % len(atoms)
        atoms[i], atoms[j] = atoms[j], atoms[i]
    return replace(f, atoms=tuple(atoms))


@settings(max_examples=150, deadline=None)
@given(certificates(), st.sampled_from(["c", "diagonal", "drop", "swap"]), st.integers(0, 20))
def test_agrees_with_the_product_on_drawn_certificates(f, how, k):
    A = factorization_product(f)
    assert peel_certificate(f, A)
    g = _tampered(f, how, k)
    if g is not None:
        _agrees(g, A)


def _carries(n: int, ray):
    A = amazing_matrix(n, 10, scaled=True) if ray is None else amazing_matrix_symbolic(n)
    return A, eliminate_detailed(A, ray=ray).verdict.factorization


# Numeric and symbolic, odd n (middle-row bridges) and even n (center atoms).
CARRIES = [(12, None), (13, None), (5, 5), (6, 6)]


@pytest.mark.parametrize("n, ray", CARRIES)
def test_accepts_the_carries_certificate(n, ray):
    A, f = _carries(n, ray)
    kinds = {atom.kind for atom in f.atoms}
    middle = [atom for atom in f.atoms if 2 * atom.s + 1 == n]
    assert kinds == ({"bridge", "center"} if n % 2 == 0 else {"bridge"})
    assert n % 2 == 0 or middle
    assert peel_certificate(f, A)


@pytest.mark.parametrize("n, ray", CARRIES)
@pytest.mark.parametrize("how", ["c", "diagonal", "drop", "swap"])
def test_rejects_a_tampered_carries_certificate(n, ray, how):
    A, f = _carries(n, ray)
    assert not _agrees(_tampered(f, how, 0), A)


@pytest.mark.parametrize(
    "n, ray, where",
    [pytest.param(n, ray, "first", id=f"{n}-{ray}") for n, ray in CARRIES]
    + [pytest.param(n, ray, "middle", id=f"middle-{n}-{ray}") for n, ray in CARRIES if n % 2]
    + [pytest.param(n, ray, "last", id=f"last-{n}-{ray}") for n, ray in CARRIES],
)
def test_rejects_a_matrix_that_is_not_cross_symmetric(n, ray, where):
    A, f = _carries(n, ray)
    rows = [list(r) for r in A.rows]
    # One entry moves and its half-turn mirror does not: entry (1, 2), or
    # the first entry of the middle row (odd n only) or of the last row.
    i, j = {"first": (0, 1), "middle": (n // 2, 0), "last": (n - 1, 0)}[where]
    rows[i][j] = rows[i][j] + 1
    M = Matrix(rows)
    assert not peel_certificate(f, M)
    assert eliminate_detailed(M, ray).verdict.reason == "not-cross-symmetric"


def test_rejects_a_matrix_of_another_size():
    A5, f5 = _carries(5, None)
    A6, f6 = _carries(6, None)
    assert not peel_certificate(f5, A6)
    assert not peel_certificate(f6, A5)


def test_n_equal_to_one():
    f = Factorization(n=1, atoms=(), diagonal=(Fraction(3),))
    assert peel_certificate(f, Matrix([[3]]))
    assert not peel_certificate(f, Matrix([[4]]))
    g = Factorization(n=1, atoms=(), diagonal=(B + 1,))
    assert peel_certificate(g, Matrix([[B + 1]]))
    assert not peel_certificate(g, Matrix([[B]]))
    assert not peel_certificate(g, Matrix([[1]]))


def test_lifts_a_numeric_matrix_to_symbolic_weights():
    # A numeric matrix against a Poly certificate whose weights are constants.
    f = Factorization(n=3, atoms=(Atom("bridge", 3, 1, Poly((2,))),), diagonal=(1, 1, 1))
    A = Matrix([[1, 0, 0], [2, 1, 2], [0, 0, 1]])
    assert _agrees(f, A)
    assert not _agrees(f, Matrix.identity(3))
