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
:mod:`crosstnn.matrix`: it runs the sweep's own paired row update
(:meth:`crosstnn.matrix._RowKernel.paired_update`) with the certificate's
c, so a certificate is checked for about the cost of one elimination,
without multiplying the atoms together.  This is the bidiagonal
(Neville) factorization read backwards.
:func:`check_factorization_signs` re-derives the signs a certificate
rests on.
"""

from __future__ import annotations

from .exact import SignUndecidedOnRay, format_scalar, scalar_sign
from .matrix import _row_kind, is_cross_symmetric

__all__ = ["peel_certificate", "check_factorization_signs"]


def peel_certificate(f, A) -> bool:
    """True iff the matrix ``A`` equals the product the certificate ``f`` claims.

    A's started rows must be cross-symmetric: every atom and the
    palindromic diagonal are, so their product is.  Each atom is then
    peeled, from a copy of those rows, in certificate order with the
    certificate's own c, by the sweep's paired update: every atom inverse
    is cross-symmetric too, so row w0(i) stays row i reversed.  The result
    must be diag(diagonal) exactly.  The kernel is chosen for the entries
    and weights together (rational rows join a symbolic certificate as
    constant polynomials), and takes each weight as it is.  Signs are not
    checked here; see :func:`check_factorization_signs`.
    """
    if A.n != f.n:
        return False
    scalars = (*f.diagonal, *(atom.c for atom in f.atoms))
    kernel = _row_kind({A.kind, *map(type, scalars)})[0]
    if not is_cross_symmetric(A):
        return False
    rows, dens = A.row_lists(kernel)
    for atom in f.atoms:
        # This P and B make the update's c = cn/cd; for a center atom the new
        # row s is row s minus c times row s+1, as [[1, -c], [-c, 1]] asks.
        cn, cd = kernel.split(atom.c)
        s = atom.s
        P, B = kernel.cancel(kernel.mul(cd, dens[s - 1]), kernel.mul(cn, dens[s]))
        kernel.paired_update(rows, dens, s, P, B)
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
