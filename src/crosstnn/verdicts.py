"""Verdict values shared by the elimination and the brute-force oracle.

A total-nonnegativity test ends in one of three ways: certified
(optionally with a factorization certificate), refuted (with a concrete
witness), or inapplicable (the test's preconditions fail, or a symbolic
sign query could not be settled on the requested ray).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

__all__ = [
    "Witness",
    "TotallyNonnegative",
    "NotTnn",
    "Inapplicable",
    "Verdict",
    "REASON_NONPOSITIVE_PIVOT",
    "REASON_NEGATIVE_MULTIPLIER",
    "REASON_ZERO_PIVOT_NONZERO_BELOW",
    "REASON_CENTER_NOT_LESS_THAN_ONE",
    "REASON_NONPOSITIVE_DIAGONAL",
    "REASON_NEGATIVE_MINOR",
    "INAPPLICABLE_SINGULAR",
    "INAPPLICABLE_NOT_CROSS_SYMMETRIC",
    "INAPPLICABLE_SYMBOLIC_INDEFINITE",
    "verdict_label",
]

REASON_NONPOSITIVE_PIVOT = "nonpositive-pivot"
REASON_NEGATIVE_MULTIPLIER = "negative-multiplier"
REASON_ZERO_PIVOT_NONZERO_BELOW = "zero-pivot-nonzero-below"
REASON_CENTER_NOT_LESS_THAN_ONE = "center-coefficient-not-less-than-one"
REASON_NONPOSITIVE_DIAGONAL = "nonpositive-diagonal"
REASON_NEGATIVE_MINOR = "negative-minor"

INAPPLICABLE_SINGULAR = "singular"
INAPPLICABLE_NOT_CROSS_SYMMETRIC = "not-cross-symmetric"
INAPPLICABLE_SYMBOLIC_INDEFINITE = "symbolic-indefinite"


@dataclass(frozen=True)
class Witness:
    """Concrete evidence behind a refutation.

    Which fields are set depends on ``reason``: pivot-style reasons carry
    ``s``/``t`` (1-based), a bad diagonal carries ``index``, a negative
    minor carries ``rows``/``cols``.  ``value`` is the offending scalar
    and ``trace`` lists the elimination steps completed before failure,
    each an atom with its column ``t`` set.
    """

    reason: str
    s: int | None = None
    t: int | None = None
    index: int | None = None
    rows: tuple | None = None
    cols: tuple | None = None
    value: object = None
    trace: tuple = field(default=())


@dataclass(frozen=True)
class TotallyNonnegative:
    """Certified verdict; elimination attaches a factorization, brute force does not."""

    factorization: object = None


@dataclass(frozen=True)
class NotTnn:
    witness: Witness


@dataclass(frozen=True)
class Inapplicable:
    """The test does not apply, or symbolic signs were indefinite.

    For ``symbolic-indefinite``, ``bound`` is the last integer at which
    the offending sign query can still change; beyond it the query is
    definite.  ``rows``/``cols`` identify the offending minor when the
    brute-force oracle hit the indefinite query.
    """

    reason: str
    bound: int | None = None
    rows: tuple | None = None
    cols: tuple | None = None


Verdict = Union[TotallyNonnegative, NotTnn, Inapplicable]


def verdict_label(verdict: Verdict) -> str:
    if isinstance(verdict, TotallyNonnegative):
        return "totally-nonnegative"
    if isinstance(verdict, NotTnn):
        return "not-totally-nonnegative"
    if isinstance(verdict, Inapplicable):
        return "inapplicable"
    raise TypeError(f"not a verdict: {verdict!r}")
