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
from dataclasses import dataclass
from fractions import Fraction

from .elimination import cross_symmetric_eliminate, verdict_to_doc
from .exact import Poly, _int_mul, _over_common_denominator, _poly, as_rational
from .matrix import Matrix
from .verdicts import (
    INAPPLICABLE_SYMBOLIC_INDEFINITE,
    Inapplicable,
    NotTnn,
    TotallyNonnegative,
    Verdict,
)

__all__ = [
    "binomial_poly",
    "amazing_entry",
    "amazing_matrix",
    "amazing_matrix_symbolic",
    "BaseCheck",
    "RayRound",
    "VerificationReport",
    "verify_amazing",
    "report_to_doc",
]


def binomial_poly(alpha, beta, k: int) -> Poly:
    """The degree-k polynomial (1/k!) * prod_{m=0}^{k-1} (alpha + beta*b - m).

    This is the falling-factorial extension of the binomial coefficient
    C(alpha + beta*b, k); for integer tops in 0..k-1 a factor vanishes,
    matching the combinatorial convention C(m, k) = 0 for m < k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    # alpha = a / d and beta = c / d, so each factor is (a - m*d + c*b) / d.
    (a, c), d = _over_common_denominator((as_rational(alpha), as_rational(beta)))
    return _poly(_falling_product(a, c, k, d), d**k * math.factorial(k))


def _falling_product(alpha: int, beta: int, k: int, unit: int = 1) -> list:
    """Coefficients, ascending, of prod_{m=0}^{k-1} (alpha + beta*b - m*unit)."""
    out = [1]
    for m in range(k):
        out = _int_mul(out, [alpha - m * unit, beta])
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


def amazing_matrix(n: int, b: int, scaled: bool = False) -> Matrix:
    """The n x n carries matrix for base b; scaled multiplies by b^n.

    Row sums are exactly 1 (unscaled) or b^n (scaled), and the matrix is
    cross-symmetric.
    """
    factor = b**n if scaled else 1
    return Matrix(
        [[amazing_entry(n, b, i, j) * factor for j in range(n)] for i in range(n)]
    )


def amazing_matrix_symbolic(n: int) -> Matrix:
    """Scaled entries b^n * p(i, j) as polynomials in b, valid for b >= n.

    In that regime floor(i/b) = 0, so entry (i, j) is
    sum_{r=0}^{j} (-1)^r C(n+1, r) * C(n - 1 - i + (j + 1 - r) b, n)
    with the binomial realized by :func:`binomial_poly`; each entry has
    degree exactly n, and specializing at any integer b >= n reproduces
    the numeric generator.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # Entry (i, j) uses the binomials with tops n-1-i + k*b for k = 1..j+1,
    # all over the common denominator n!.  The n^2 distinct integer
    # numerators are built once per call, each entry's sum is taken over
    # the integers, and one Poly is built per entry.
    numerators = {
        (a, k): _falling_product(a, k, n) for a in range(n) for k in range(1, n + 1)
    }
    denominator = math.factorial(n)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = [0] * (n + 1)
            for r in range(j + 1):
                weight = (-1) ** r * math.comb(n + 1, r)
                term = numerators[n - 1 - i, j + 1 - r]
                entry = [v + weight * x for v, x in zip(entry, term)]
            row.append(_poly(entry, denominator))
        rows.append(row)
    return Matrix(rows)


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
    base_checks = []
    for b in range(2, n):
        verdict = cross_symmetric_eliminate(amazing_matrix(n, b, scaled=True))
        base_checks.append(BaseCheck(b, verdict))

    symbolic = amazing_matrix_symbolic(n)
    beta = max(n, 2)
    ray_rounds = []
    residual_checks = []
    raises_left = escalation_cap
    while True:
        verdict = cross_symmetric_eliminate(symbolic, ray=beta)
        ray_rounds.append(RayRound(beta, verdict))
        if (
            isinstance(verdict, Inapplicable)
            and verdict.reason == INAPPLICABLE_SYMBOLIC_INDEFINITE
            and raises_left > 0
        ):
            for b in range(beta, verdict.bound + 1):
                residual_checks.append(
                    BaseCheck(b, cross_symmetric_eliminate(amazing_matrix(n, b, scaled=True)))
                )
            beta = verdict.bound + 1
            raises_left -= 1
            continue
        break

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
