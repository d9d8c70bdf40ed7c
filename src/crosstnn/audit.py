"""Certificate checks: peel the atoms off the input, and re-derive the signs.

A certificate claims A = F_1 * ... * F_m * D with atoms F_k and a
positive palindromic diagonal D.  That holds exactly when
F_m^-1 * ... * F_1^-1 * A = D, and each atom's inverse is one explicit
row operation:

* a bridge atom I + N (n != 2s) has N^2 = 0, so its inverse I - N takes
  c times row s from row s+1 and c times row w0(s) from row w0(s+1); in
  the odd middle case 2s + 1 = n both land in the middle row;
* a center atom (n = 2s) has the middle block [[a, e], [e, a]] with
  a = 1/(1 - c^2) and e = c/(1 - c^2), whose inverse is
  [[1, -c], [-c, 1]].

:func:`peel_certificate` applies these on the row kernel of
:mod:`crosstnn.matrix`, so a certificate is checked for about the cost of
one elimination, without multiplying the atoms together.  This is the
bidiagonal (Neville) factorization read backwards.
:func:`check_factorization_signs` re-derives the signs a certificate
rests on.
"""

from __future__ import annotations

from .exact import (
    Poly,
    RatFunc,
    SignUndecidedOnRay,
    _as_poly,
    as_ratfunc,
    as_rational,
    format_scalar,
    scalar_sign,
)
from .matrix import _NUMERIC, _SYMBOLIC

__all__ = ["peel_certificate", "check_factorization_signs"]


def peel_certificate(f, A) -> bool:
    """True iff the matrix ``A`` equals the product the certificate ``f`` claims.

    A is put on the row kernel and must be cross-symmetric: every atom and
    the palindromic diagonal are, so their product is.  Each atom is then
    peeled in certificate order with the certificate's own c.  Every atom
    inverse is cross-symmetric too, so row w0(i) stays row i reversed:
    only one target row is computed per atom and its reverse is stored as
    the mirror row.  The result must be diag(diagonal) exactly.  Weights
    are lifted as in :func:`crosstnn.network.path_matrix`: to ``RatFunc``
    if any scalar is one, else to ``Poly`` if any is one.  Signs are not
    checked here; see :func:`check_factorization_signs`.
    """
    n = f.n
    if A.n != n:
        return False
    kinds = {type(x) for x in (A.rows[0][0], *f.diagonal, *(atom.c for atom in f.atoms))}
    if RatFunc in kinds:
        kernel, lift = _SYMBOLIC, as_ratfunc
    elif Poly in kinds:
        kernel, lift = _SYMBOLIC, _as_poly
    else:
        kernel, lift = _NUMERIC, as_rational
    mul, start, combine = kernel.mul, kernel.start, kernel.combine
    rows, dens = map(list, zip(*(start([lift(x) for x in row]) for row in A.rows)))
    # A row's start commutes with reversal, so A is cross-symmetric iff each
    # kernel row is its mirror row reversed, over the same denominator.
    if any(dens[i] != dens[-1 - i] or rows[i] != rows[-1 - i][::-1] for i in range((n + 1) // 2)):
        return False
    for atom in f.atoms:
        (cn,), cd = start([lift(atom.c)])
        s = atom.s  # 1-based: the inverse writes row s+1, 0-based index s
        S, dS = rows[s - 1], dens[s - 1]
        if 2 * s + 1 == n:
            S = [kernel.add(x, y) for x, y in zip(S, reversed(S))]
        # Row s+1 minus (cn/cd) times S/dS; for a center atom the mirror of
        # row s+1 is row s, whose new value is row s minus c times row s+1.
        T, dT = rows[s], dens[s]
        rows[s], dens[s] = combine(mul(cd, dS), T, dT, mul(cn, dT), S)
        rows[n - 1 - s], dens[n - 1 - s] = rows[s][::-1], dens[s]
    scalar = kernel.scalar
    return all(
        not any(row[:i]) and not any(row[i + 1 :]) and scalar(row[i], den) == d
        for i, (row, den, d) in enumerate(zip(rows, dens, f.diagonal))
    )


def check_factorization_signs(f, ray: int | None) -> None:
    """Re-derive the signs a certificate rests on, symbolic entries on [ray, inf).

    Every atom needs c > 0, every center atom also 1 - c > 0, and every
    diagonal entry d > 0; :class:`Atom` and :class:`Factorization` check
    these only for numeric entries.  A sign that fails, or that cannot be
    decided on the ray, raises ``ValueError``.
    """
    claims = [(atom.c, "atom coefficient") for atom in f.atoms]
    claims += [(1 - atom.c, "1 - c of a center atom") for atom in f.atoms if atom.kind == "center"]
    claims += [(d, "diagonal entry") for d in f.diagonal]
    try:
        for value, what in claims:
            if scalar_sign(value, ray) <= 0:
                raise ValueError(f"{what} {format_scalar(value)} is not positive on the ray")
    except SignUndecidedOnRay as exc:
        raise ValueError(f"certificate sign: {exc}") from exc
