"""Holte's "amazing" carries matrix, numerically and symbolically in the base.

The n x n matrix P has entry p(i, j) = the probability that the next
carry is j when adding n uniformly random base-b numbers, given that the
previous carry was i (rows and columns indexed 0..n-1):

    p(i, j) = b^-n * sum_{r=0}^{j - floor(i/b)} (-1)^r C(n+1, r)
                      * C(n - 1 - i + (j + 1 - r)*b, n)

The scaled version b^n * P keeps entries integral, and scaling by a
positive constant changes no minor's sign.  For b >= n the floor term
vanishes (every row index i <= n-1 is < b), so the entries become honest
polynomials in b; total nonnegativity "for every base b >= 2" then splits
into finitely many numeric checks for b < n plus one polynomial
certificate on the ray [n, inf).  :func:`verify_amazing` runs exactly
that split, escalating the ray start past any indefinite sign query.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .elimination import cross_symmetric_eliminate, verdict_to_doc
from .exact import Poly, _int_mul
from .matrix import _NUMERIC, _SYMBOLIC, Matrix
from .verdicts import (
    INAPPLICABLE_SYMBOLIC_INDEFINITE,
    Inapplicable,
    NotTnn,
    TotallyNonnegative,
    Verdict,
)

__all__ = [
    "amazing_entry",
    "amazing_matrix",
    "amazing_matrix_symbolic",
    "BaseCheck",
    "RayRound",
    "VerificationReport",
    "verify_amazing",
    "report_to_doc",
]


def _falling_product(alpha: int, beta: int, k: int) -> list:
    """Coefficients, ascending, of prod_{m=0}^{k-1} (alpha + beta*b - m)."""
    out = [1]
    for m in range(k):
        out = _int_mul([alpha - m, beta], out)
    return out


def amazing_entry(n: int, b: int, i: int, j: int) -> Fraction:
    """Exact transition probability p(i, j); 0-based indices.

    The binomial convention C(m, n) = 0 for m < n applies; on this
    formula's domain the top argument is always at least b, so it stays
    nonnegative and the integer and polynomial conventions agree.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if b < 2:
        raise ValueError("b must be >= 2")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"indices ({i},{j}) outside 0..{n - 1}")
    total = 0
    for r in range(j - i // b + 1):
        top = n - 1 - i + (j + 1 - r) * b
        total += (-1) ** r * math.comb(n + 1, r) * math.comb(top, n)
    return Fraction(total, b**n)


def _carry_weights(n: int) -> list:
    """(-1)^r C(n+1, r) for r = 0..n, the weights of both generators' sums."""
    return [(-1) ** r * math.comb(n + 1, r) for r in range(n + 1)]


def _carry_sums(weights: list, low: int, table: list) -> list:
    """sum_{k=low}^{j+1} weights[j+1-k] * table[k-low] for j = 0..n-1.

    ``table`` holds the values for k = low..n, with n = len(weights) - 1
    and low >= 1; entries with j + 1 < low are empty sums.
    """
    return [0] * (low - 1) + [
        sum(map(operator.mul, weights[m::-1], table)) for m in range(len(table))
    ]


def amazing_matrix(n: int, b: int, scaled: bool = False) -> Matrix:
    """The n x n carries matrix for base b; scaled multiplies by b^n.

    Row i is built from its own table T_i[k] = C(n - 1 - i + k*b, n),
    k = 1..n, zero for k <= floor(i/b): scaled entry (i, j) is
    sum_{k=floor(i/b)+1}^{j+1} (-1)^(j+1-k) C(n+1, j+1-k) T_i[k], which is
    :func:`amazing_entry` times b^n.  That is n binomials and O(n^2)
    integer products per row, O(n^3) for the matrix.  The matrix gets
    these integers as they are (over b^n when unscaled), with no
    ``Fraction`` per entry.  Row sums are
    exactly 1 (unscaled) or b^n (scaled), and the matrix is
    cross-symmetric.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if b < 2:
        raise ValueError("b must be >= 2")
    weights = _carry_weights(n)
    rows = []
    for i in range(n):
        low = i // b + 1
        table = [math.comb(n - 1 - i + k * b, n) for k in range(low, n + 1)]
        rows.append(_carry_sums(weights, low, table))
    return Matrix._from_rows(_NUMERIC, Fraction, rows, [1 if scaled else b**n] * n)


def amazing_matrix_symbolic(n: int) -> Matrix:
    """Scaled entries b^n * p(i, j) as polynomials in b, valid for b >= n.

    In that regime floor(i/b) = 0, so entry (i, j) is
    sum_{r=0}^{j} (-1)^r C(n+1, r) * C(n - 1 - i + (j + 1 - r) b, n),
    each entry of degree exactly n; specializing at any integer b >= n
    reproduces the numeric generator.  The base enters only through
    k*b, k = j + 1 - r, so with G_a(x) = prod_{m<n} (a - m + x) and
    S_j[t] = sum_{r<=j} (-1)^r C(n+1, r) (j+1-r)^t, coefficient t of
    entry (i, j) is G_{n-1-i}[t] * S_j[t] / n!.  The n polynomials G_a
    and the table S take O(n^3) integer operations, and each entry is
    n + 1 integer products.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    falling = [_falling_product(a, 1, n) for a in reversed(range(n))]
    weights = _carry_weights(n)
    # One weighted sum of the powers k^t per t gives S_j[t] for every j.
    sums = [_carry_sums(weights, 1, [k**t for k in range(1, n + 1)]) for t in range(n + 1)]
    columns = list(zip(*sums))
    rows = [[[g * s for g, s in zip(G, S)] for S in columns] for G in falling]
    return Matrix._from_rows(_SYMBOLIC, Poly, rows, [[math.factorial(n)]] * n)


@dataclass(frozen=True)
class BaseCheck:
    """Verdict of the elimination on the exact scaled matrix for one base."""

    b: int
    verdict: Verdict


@dataclass(frozen=True)
class RayRound:
    """Verdict of one symbolic elimination pass on the ray [beta, inf)."""

    beta: int
    verdict: Verdict


@dataclass(frozen=True)
class VerificationReport:
    """Coverage record for all bases b >= 2 at one size n.

    ``certified`` means every base is covered either by a numeric check
    (``base_checks`` below the symbolic regime, plus ``residual_checks``
    swept up during ray escalation) or by the final ray certificate.
    ``refuted`` means some check produced a concrete negative witness;
    ``partial`` means the escalation cap ran out with a ray uncovered.
    """

    n: int
    base_checks: tuple
    ray_rounds: tuple
    residual_checks: tuple
    overall: str

    @property
    def final_ray(self) -> RayRound:
        return self.ray_rounds[-1]


def verify_amazing(n: int, escalation_cap: int = 3) -> VerificationReport:
    """Certify total nonnegativity of the size-n carries matrix for all b >= 2.

    Numeric eliminations cover the integer bases 2..n-1; one symbolic
    elimination over rational functions with signs decided on [beta, inf)
    covers the rest, starting at beta = max(n, 2).  Whenever a sign query
    is indefinite up to some bound W, the integers beta..W are checked
    numerically and the ray restarts at W + 1, at most ``escalation_cap``
    times.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def numeric_check(b: int) -> BaseCheck:
        return BaseCheck(b, cross_symmetric_eliminate(amazing_matrix(n, b, scaled=True)))

    base_checks = [numeric_check(b) for b in range(2, n)]
    symbolic = amazing_matrix_symbolic(n)
    beta = max(n, 2)
    ray_rounds, residual_checks = [], []
    for round_index in range(max(escalation_cap, 0) + 1):
        verdict = cross_symmetric_eliminate(symbolic, ray=beta)
        ray_rounds.append(RayRound(beta, verdict))
        if round_index >= escalation_cap or not (
            isinstance(verdict, Inapplicable) and verdict.reason == INAPPLICABLE_SYMBOLIC_INDEFINITE
        ):
            break
        residual_checks.extend(numeric_check(b) for b in range(beta, verdict.bound + 1))
        beta = verdict.bound + 1

    numeric = base_checks + residual_checks
    final = ray_rounds[-1].verdict
    if isinstance(final, NotTnn) or any(isinstance(c.verdict, NotTnn) for c in numeric):
        overall = "refuted"
    elif isinstance(final, TotallyNonnegative) and all(
        isinstance(c.verdict, TotallyNonnegative) for c in numeric
    ):
        overall = "certified"
    else:
        overall = "partial"
    return VerificationReport(
        n=n,
        base_checks=tuple(base_checks),
        ray_rounds=tuple(ray_rounds),
        residual_checks=tuple(residual_checks),
        overall=overall,
    )


def report_to_doc(report: VerificationReport) -> dict:
    """JSON-ready rendering with stable field order."""
    def base_doc(check: BaseCheck) -> dict:
        return {"b": check.b, **verdict_to_doc(check.verdict)}

    return {
        "n": report.n,
        "bases": [base_doc(c) for c in report.base_checks],
        "ray": {
            "rounds": [
                {"beta": r.beta, **verdict_to_doc(r.verdict)} for r in report.ray_rounds
            ],
            "final_beta": report.final_ray.beta,
        },
        "residual_bases": [base_doc(c) for c in report.residual_checks],
        "overall": report.overall,
    }
