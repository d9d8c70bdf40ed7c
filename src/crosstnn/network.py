"""Weighted planar networks realizing atom factorizations.

A totally nonnegative matrix is exactly the weighted path matrix of a
planar network: n wires run left to right through a sequence of "chips",
each chip contributing one horizontal edge per wire plus slant edges
between adjacent wires, all weights positive.  Entry (i, j) of the path
matrix sums, over directed paths from source i to sink j, the product of
edge weights -- which is precisely the product of the chips' transfer
matrices.

:func:`network_from_factorization` turns each bridge atom into a single
chip (two slants of weight c, unit horizontals), expands each center atom
through the exact identity

    [[a, e], [e, a]] = (I + c E(s+1,s)) * diag(a, 1) * (I + c E(s,s+1)),
    a = 1/(1 - c^2),  e = c/(1 - c^2)

into three consecutive chips, and closes with one chip holding the
positive diagonal.  Wires are numbered top to bottom, 1 at the top; a
matrix entry (p, q) = c becomes a slant from wire p to wire q.

:func:`path_matrix` multiplies the chips out as column updates on the
row kernel of :mod:`crosstnn.matrix`, so a certificate is re-multiplied
over the integers (integer polynomials for symbolic weights).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    format_scalar,
    parse_doc_scalar,
    parse_int,
    parse_list,
    parse_scalar,
)
from .matrix import Matrix, _row_kind, w0

__all__ = [
    "Slant",
    "Chip",
    "PlanarNetwork",
    "network_from_factorization",
    "path_matrix",
    "reflect",
    "export_dot",
    "network_to_doc",
    "network_from_doc",
]


@dataclass(frozen=True)
class Slant:
    """Directed edge from wire ``src`` to adjacent wire ``dst``, positive weight."""

    src: int
    dst: int
    weight: object


@dataclass(frozen=True)
class Chip:
    """One column of the network: a horizontal edge per wire plus slants."""

    horizontals: tuple
    slants: tuple


def _per_row(f, chips) -> list:
    """``[f(chip.horizontals) for chip in chips]``, calling f once per distinct row.

    Rows are told apart by identity: chips that share a horizontals tuple
    share its contents, so the result is exact, and no weight is hashed.
    Nearly every chip of a certificate shares one row of unit weights.
    """
    rows = [chip.horizontals for chip in chips]
    distinct = {id(row): row for row in rows}
    done = {key: f(row) for key, row in distinct.items()}
    return [done[id(row)] for row in rows]


def _has_nonpositive(weights) -> bool:
    # A Fraction's denominator is positive: the numerator has its sign.
    return any(isinstance(w, (int, Fraction)) and w.numerator <= 0 for w in weights)


@dataclass(frozen=True)
class PlanarNetwork:
    """n wires through a sequence of chips; every edge weight is positive.

    Each chip's slants are checked on their own, and each distinct
    horizontals tuple (length and signs) once, however many chips share it.
    """

    n: int
    chips: tuple

    def __post_init__(self):
        rows = _per_row(lambda row: (len(row) == self.n, _has_nonpositive(row)), self.chips)
        for chip, (full, nonpositive) in zip(self.chips, rows):
            if not full:
                raise ValueError("each chip needs exactly one horizontal per wire")
            for slant in chip.slants:
                if abs(slant.src - slant.dst) != 1:
                    raise ValueError("slants must join adjacent wires")
                if not (1 <= slant.src <= self.n and 1 <= slant.dst <= self.n):
                    raise ValueError("slant wire outside 1..n")
            if nonpositive or _has_nonpositive(slant.weight for slant in chip.slants):
                raise ValueError("edge weights must be positive")
            # Two slants cross iff their left and right endpoints are
            # oppositely ordered; sharing an endpoint is planar.
            for a in chip.slants:
                for b in chip.slants:
                    if (a.src - b.src) * (a.dst - b.dst) < 0:
                        raise ValueError(f"crossing slants {a} and {b} in one chip")


def _bridge_chip(ones: tuple, s: int, c) -> Chip:
    n = len(ones)
    slants = (Slant(s + 1, s, c), Slant(w0(s + 1, n), w0(s, n), c))
    return Chip(ones, tuple(sorted(slants, key=lambda e: (e.src, e.dst))))


def _center_chips(ones: tuple, s: int, c) -> tuple:
    a = 1 / (1 - c * c)
    middle = ones[: s - 1] + (a,) + ones[s:]
    return (
        Chip(ones, (Slant(s + 1, s, c),)),
        Chip(middle, ()),
        Chip(ones, (Slant(s, s + 1, c),)),
    )


def network_from_factorization(f) -> PlanarNetwork:
    """One chip per bridge atom, three per center atom, one for the diagonal."""
    ones = (Fraction(1),) * f.n  # unit horizontals, shared by every atom chip
    chips = []
    for atom in f.atoms:
        if atom.kind == "bridge":
            chips.append(_bridge_chip(ones, atom.s, atom.c))
        else:
            chips.extend(_center_chips(ones, atom.s, atom.c))
    chips.append(Chip(tuple(f.diagonal), ()))
    return PlanarNetwork(n=f.n, chips=tuple(chips))


def path_matrix(net: PlanarNetwork) -> Matrix:
    """Exact path-weight sums source-to-sink, by chip-wise column updates.

    Right-multiplying by a chip rescales column q by the horizontal weight
    on wire q and adds w times the old column p for each slant p -> q.
    The columns start from the identity and run on the row kernel of
    :mod:`crosstnn.matrix`: each is held as integer numerators over one
    denominator (integer coefficient lists when a weight is symbolic),
    and at the end the columns become the matrix's started rows, over a
    common denominator, with no scalar per entry.  Entries are
    ``RatFunc`` if any applied weight is one, else ``Poly`` if any is
    one, else ``Fraction``; a unit horizontal is not applied.  Each
    distinct horizontals tuple is scanned for its non-unit weights once.
    """
    row_scales = _per_row(lambda row: [(q, h) for q, h in enumerate(row) if h != 1], net.chips)
    chips = [
        (scales, [(s.src - 1, s.dst - 1, s.weight) for s in chip.slants])
        for chip, scales in zip(net.chips, row_scales)
    ]
    kernel, kind = _row_kind({type(w) for scales, slants in chips for *_, w in (*scales, *slants)})
    mul, sub, combine, split = kernel.mul, kernel.sub, kernel.combine, kernel.split
    n = net.n
    cols = [kernel.start([int(i == j) for i in range(n)]) for j in range(n)]
    zero = split(0)[0]
    for scales, slants in chips:
        sources = [cols[p] for p, _, _ in slants]  # before any rewrite
        for q, h in scales:
            hn, hd = split(h)
            X, d = cols[q]
            cols[q] = kernel.reduce([mul(hn, x) for x in X], mul(d, hd))
        for (_, q, w), (Xp, dp) in zip(slants, sources):
            # Xq/dq + (wn/wd)(Xp/dp) is one combine, with B = -wn*dq; negating
            # the numerator is cheaper than negating a Fraction weight.
            wn, wd = split(w)
            Xq, dq = cols[q]
            cols[q] = combine(mul(wd, dp), Xq, dq, sub(zero, mul(wn, dq)), Xp)
    return Matrix._from_rows(kernel, kind, *kernel.transposed(*zip(*cols)))


def reflect(net: PlanarNetwork) -> PlanarNetwork:
    """Mirror the network in the horizontal centre line (wire w -> n + 1 - w).

    The path matrix of the reflection is the half-turn rotation of the
    original path matrix.
    """
    n = net.n
    chips = []
    rows = _per_row(lambda row: tuple(reversed(row)), net.chips)
    for chip, horizontals in zip(net.chips, rows):
        slants = tuple(
            sorted(
                (Slant(w0(s.src, n), w0(s.dst, n), s.weight) for s in chip.slants),
                key=lambda e: (e.src, e.dst),
            )
        )
        chips.append(Chip(horizontals, slants))
    return PlanarNetwork(n=n, chips=tuple(chips))


def _dot_label(weight) -> str:
    return "" if weight == 1 else f' [label="{format_scalar(weight)}"]'


def export_dot(net: PlanarNetwork) -> str:
    """Deterministic DOT digraph: one rank-aligned node column per chip boundary.

    Edge labels carry the exact weights; weight-1 edges stay unlabeled,
    matching the usual drawing convention.
    """
    n = net.n
    columns = len(net.chips) + 1
    lines = [
        "digraph planar_network {",
        "  rankdir=LR;",
        '  node [shape=point, width=0.08];',
    ]
    for col in range(columns):
        lines.append("  { rank=same;")
        for wire in range(1, n + 1):
            name = f"c{col}w{wire}"
            if col == 0:
                lines.append(f'    {name} [shape=plaintext, label="S{wire}"];')
            elif col == columns - 1:
                lines.append(f'    {name} [shape=plaintext, label="T{wire}"];')
            else:
                lines.append(f"    {name};")
        lines.append("  }")
    rows = _per_row(lambda row: list(map(_dot_label, row)), net.chips)
    for col, (chip, labels) in enumerate(zip(net.chips, rows)):
        for wire, label in enumerate(labels, 1):
            lines.append(f"  c{col}w{wire} -> c{col + 1}w{wire}{label};")
        for slant in chip.slants:
            label = _dot_label(slant.weight)
            lines.append(f"  c{col}w{slant.src} -> c{col + 1}w{slant.dst}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def network_to_doc(net: PlanarNetwork) -> dict:
    """The network as a JSON-ready document, every weight in scalar syntax.

    Each distinct horizontals tuple is formatted once; the chips that
    share it share the one list of tokens.
    """
    rows = _per_row(lambda row: list(map(format_scalar, row)), net.chips)
    return {
        "n": net.n,
        "chips": [
            {
                "horizontals": row,
                "slants": [
                    {"from": s.src, "to": s.dst, "weight": format_scalar(s.weight)}
                    for s in chip.slants
                ],
            }
            for chip, row in zip(net.chips, rows)
        ],
    }


def network_from_doc(doc: dict) -> PlanarNetwork:
    n = parse_int(doc["n"])
    # Nearly every horizontal is "1": each distinct text token is parsed
    # once, and rows of the same text tokens become one shared tuple, so
    # the network's per-row work runs once per distinct row of the document.
    text = functools.cache(parse_scalar)
    rows = {}

    def scalar(token):
        return text(token) if type(token) is str else parse_doc_scalar(token)

    def horizontals(tokens) -> tuple:
        key = tuple(tokens)
        if set(map(type, key)) != {str}:
            return tuple(map(scalar, key))
        if key not in rows:
            rows[key] = tuple(map(text, key))
        return rows[key]

    chips = tuple(
        Chip(
            horizontals(parse_list(chip["horizontals"], "horizontals")),
            tuple(
                Slant(parse_int(s["from"]), parse_int(s["to"]), scalar(s["weight"]))
                for s in parse_list(chip["slants"], "slants", dict)
            ),
        )
        for chip in parse_list(doc["chips"], "chips", dict)
    )
    return PlanarNetwork(n=n, chips=chips)
