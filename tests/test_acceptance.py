"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is exact (zero) -- the whole stack is integer and
rational arithmetic, so equality is equality.
"""

import itertools
import json
import random
import re
import time
from fractions import Fraction

import pytest

from crosstnn import (
    Inapplicable,
    Matrix,
    NotTnn,
    TotallyNonnegative,
    amazing_matrix,
    brute_force_tnn,
    cross_symmetric_eliminate,
    determinant,
    eliminate_detailed,
    export_dot,
    factorization_product,
    is_cross_symmetric,
    matrix_to_text,
    minor,
    network_from_factorization,
    neville_tnn_test,
    path_matrix,
    random_certified_tnn,
    tau,
    verify_amazing,
    w0,
)
from crosstnn.cli import main as cli_main
from conftest import random_cross_symmetric, random_matrix, suffix_products


def _passed(name: str) -> None:
    print(f"[acceptance] {name}: PASS")


def _perturbed(rng: random.Random, matrix: Matrix) -> Matrix:
    """Perturb one entry and its half-turn mirror, keeping cross-symmetry."""
    n = matrix.n
    rows = [list(r) for r in matrix.rows]
    i, j = rng.randrange(n), rng.randrange(n)
    delta = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice([1, -1])
    rows[i][j] += delta
    if (n - 1 - i, n - 1 - j) != (i, j):
        rows[n - 1 - i][n - 1 - j] += delta
    return Matrix(rows)


@pytest.fixture(scope="module")
def battery():
    """>= 1000 cross-symmetric instances of size <= 5, deterministic.

    Mix: certified-by-construction atom products, sign-perturbed variants
    of those, and uniformly random cross-symmetric rational matrices.
    """
    rng = random.Random("acceptance-battery")
    sizes = [1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5]
    instances = []
    for trial in range(400):
        n = rng.choice(sizes)
        matrix, _ = random_certified_tnn(n, f"ac-prod-{trial}", atom_count=rng.randint(0, 4))
        instances.append(matrix)
    for trial in range(400):
        n = rng.choice(sizes)
        base, _ = random_certified_tnn(n, f"ac-pert-{trial}", atom_count=rng.randint(0, 4))
        instances.append(_perturbed(rng, base))
    for trial in range(250):
        n = rng.choice(sizes)
        instances.append(random_cross_symmetric(rng, n, lo=-3, hi=9))
    return instances


def test_criterion_1_amazing_matrix_reproduction():
    start = time.perf_counter()
    assert amazing_matrix(2, 3, scaled=True) == Matrix([[6, 3], [3, 6]])
    assert amazing_matrix(3, 3, scaled=True) == Matrix(
        [[10, 16, 1], [4, 19, 4], [1, 16, 10]]
    )
    assert amazing_matrix(4, 3, scaled=True) == Matrix(
        [[15, 51, 15, 0], [5, 45, 30, 1], [1, 30, 45, 5], [0, 15, 51, 15]]
    )
    assert time.perf_counter() - start < 1.0
    _passed("criterion 1 (scaled matrices for (n,b)=(2,3),(3,3),(4,3), exact)")


def test_criterion_2_worked_factorizations(tmp_path, capsys):
    path33 = tmp_path / "a33.txt"
    path33.write_text(matrix_to_text(amazing_matrix(3, 3, scaled=True)))
    cert33 = tmp_path / "a33.cert.json"
    assert cli_main(["factor", str(path33), "--out", str(cert33), "--verify"]) == 0
    doc = json.loads(cert33.read_text())
    assert doc["atoms"] == [
        {"kind": "bridge", "s": 2, "c": "1/4"},
        {"kind": "bridge", "s": 1, "c": "4/9"},
        {"kind": "bridge", "s": 2, "c": "5/4"},
    ]
    assert doc["diagonal"] == ["9", "9", "9"]

    path23 = tmp_path / "a23.txt"
    path23.write_text(matrix_to_text(amazing_matrix(2, 3, scaled=True)))
    cert23 = tmp_path / "a23.cert.json"
    assert cli_main(["factor", str(path23), "--out", str(cert23), "--verify"]) == 0
    doc = json.loads(cert23.read_text())
    assert doc["atoms"] == [{"kind": "center", "s": 1, "c": "1/2"}]
    assert doc["diagonal"] == ["9/2", "9/2"]
    _passed("criterion 2 (worked factorizations of scaled (3,3) and (2,3), exact)")


def test_criterion_3_network_of_the_3x3_certificate():
    A = amazing_matrix(3, 3, scaled=True)
    fact = cross_symmetric_eliminate(A).factorization
    net = network_from_factorization(fact)
    assert path_matrix(net) == A
    dot = export_dot(net)
    weights = [
        w for w in re.findall(r'label="([^"]+)"', dot) if not w.startswith(("S", "T"))
    ]
    assert sorted(weights) == ["1/4", "1/4", "4/9", "4/9", "5/4", "5/4", "9", "9", "9"]
    _passed("criterion 3 (3x3 network path matrix + labeled weight multiset)")


def test_criterion_4_arbitrary_base_certification_up_to_n6():
    start = time.perf_counter()
    for n in range(1, 7):
        report = verify_amazing(n)
        assert report.overall == "certified", f"n={n} not certified"
        # numeric coverage below the symbolic regime, ray coverage above
        assert [c.b for c in report.base_checks] == list(range(2, n))
        assert report.final_ray.beta <= max(n, 2)
        assert isinstance(report.final_ray.verdict, TotallyNonnegative)
    assert time.perf_counter() - start < 300.0
    _passed("criterion 4 (all bases b >= 2 certified for every n <= 6)")


def test_criterion_5_base_two_spot_check():
    for n in range(1, 7):
        A = amazing_matrix(n, 2, scaled=True)
        assert isinstance(cross_symmetric_eliminate(A), TotallyNonnegative)
        if n <= 5:
            assert isinstance(brute_force_tnn(A), TotallyNonnegative)
    _passed("criterion 5 (base-2 matrices certified, confirmed by minors up to n=5)")


def test_criterion_6_two_by_two_minors():
    for n in range(1, 8):
        for b in range(2, 11):
            A = amazing_matrix(n, b)
            for rows in itertools.combinations(range(1, n + 1), 2):
                for cols in itertools.combinations(range(1, n + 1), 2):
                    assert minor(A, rows, cols) >= 0
    _passed("criterion 6 (all 2x2 minors nonnegative for n <= 7, b in 2..10)")


def test_criterion_7_oracle_equivalence(battery):
    assert len(battery) >= 1000
    invertible_cross_symmetric = 0
    refuted = 0
    for A in battery:
        assert is_cross_symmetric(A)
        if determinant(A) == 0:
            assert isinstance(cross_symmetric_eliminate(A), Inapplicable)
            continue
        ours = cross_symmetric_eliminate(A)
        neville = neville_tnn_test(A)
        brute = brute_force_tnn(A)
        invertible_cross_symmetric += 1
        assert isinstance(ours, (TotallyNonnegative, NotTnn))
        assert isinstance(neville, (TotallyNonnegative, NotTnn))
        assert (
            isinstance(ours, TotallyNonnegative)
            == isinstance(neville, TotallyNonnegative)
            == isinstance(brute, TotallyNonnegative)
        )
        if isinstance(ours, TotallyNonnegative):
            assert factorization_product(ours.factorization) == A
            # invertible + totally nonnegative forces a positive diagonal
            assert all(A.entry(i, i) > 0 for i in range(1, A.n + 1))
        else:
            refuted += 1
    assert invertible_cross_symmetric >= 900
    assert refuted >= 100  # the battery genuinely exercises both outcomes
    _passed(
        "criterion 7 (three oracles agree on "
        f"{invertible_cross_symmetric} invertible instances; certificates re-multiply)"
    )


def test_criterion_8_step_preservation():
    rng = random.Random("step-preservation")
    inputs = []
    for trial in range(60):
        n = rng.randint(2, 5)
        matrix, _ = random_certified_tnn(n, f"ac8-{trial}", atom_count=rng.randint(1, 4))
        inputs.append(matrix)
    for n in range(1, 6):
        for b in (2, 3, 4):
            inputs.append(amazing_matrix(n, b, scaled=True))
    certified = 0
    center_steps = 0
    for A in inputs:
        run = eliminate_detailed(A)
        assert isinstance(run.verdict, TotallyNonnegative)
        certified += 1
        # The matrix after k steps is the certificate's k-th suffix product.
        intermediates = suffix_products(run.verdict.factorization)
        assert intermediates[0] == A
        assert intermediates[-1] == Matrix.diagonal(run.verdict.factorization.diagonal)
        for M in intermediates:
            assert is_cross_symmetric(M)
            assert isinstance(brute_force_tnn(M), TotallyNonnegative)
        for step in run.steps:
            if step.is_center:
                center_steps += 1
                assert 0 < step.c < 1
    assert certified == len(inputs)
    assert center_steps > 0
    _passed(
        f"criterion 8 (all intermediates of {certified} certified runs are "
        f"cross-symmetric and minor-nonnegative; {center_steps} center steps had c < 1)"
    )


def test_criterion_9_rotation_calculus(battery):
    rng = random.Random("rotation-calculus")
    for _ in range(200):
        n = rng.randint(1, 5)
        A = random_matrix(rng, n)
        C = random_matrix(rng, n)
        # involution and multiplicativity
        assert tau(tau(A)) == A
        assert tau(A * C) == tau(A) * tau(C)
        # minor identity under rotation
        size = rng.randint(1, n)
        rows = sorted(rng.sample(range(1, n + 1), size))
        cols = sorted(rng.sample(range(1, n + 1), size))
        mirrored_rows = sorted(w0(i, n) for i in rows)
        mirrored_cols = sorted(w0(j, n) for j in cols)
        assert minor(tau(A), rows, cols) == minor(A, mirrored_rows, mirrored_cols)
        # verdict invariance
        assert type(brute_force_tnn(A)) is type(brute_force_tnn(tau(A)))
    _passed("criterion 9 (rotation involution, multiplicativity, minor identity, verdict invariance)")
