"""Exact total-nonnegativity certification for cross-symmetric matrices.

The package tests invertible cross-symmetric (centrosymmetric) matrices
for total nonnegativity with an elimination that preserves the symmetry,
emits factorizations into totally nonnegative "atoms" as machine-checkable
certificates, generates Holte's carries transition matrix numerically and
symbolically in the base, and renders certificates as weighted planar
networks whose path matrices reproduce the input.  All arithmetic is
exact: arbitrary-precision rationals, polynomials, and rational functions
with sign decisions on rays.
"""

from .exact import (
    MIXED,
    NEGATIVE_ON_RAY,
    POSITIVE_ON_RAY,
    ZERO_IDENTICALLY,
    Poly,
    RatFunc,
    Rational,
    RaySign,
    SignUndecidedOnRay,
    format_scalar,
    parse_scalar,
    scalar_sign,
    sign_on_ray,
)
from .matrix import (
    Matrix,
    brute_force_tnn,
    determinant,
    exchange_matrix,
    is_cross_symmetric,
    matrix_from_doc,
    matrix_from_payload,
    matrix_from_text,
    matrix_to_doc,
    matrix_to_text,
    minor,
    tau,
    w0,
)
from .verdicts import (
    Inapplicable,
    NotTnn,
    TotallyNonnegative,
    Verdict,
    Witness,
    verdict_label,
)
from .elimination import (
    Atom,
    EliminationRun,
    Factorization,
    cross_symmetric_eliminate,
    eliminate_detailed,
    factorization_from_doc,
    factorization_product,
    factorization_to_doc,
    materialize_atom,
    neville_tnn_test,
    random_certified_tnn,
)
from .audit import check_factorization_signs, peel_certificate
from .amazing import (
    VerificationReport,
    amazing_entry,
    amazing_matrix,
    amazing_matrix_symbolic,
    report_to_doc,
    verify_amazing,
)
from .network import (
    Chip,
    PlanarNetwork,
    Slant,
    export_dot,
    network_from_doc,
    network_from_factorization,
    network_to_doc,
    path_matrix,
    reflect,
)

__version__ = "0.1.0"

__all__ = [
    "Rational",
    "Poly",
    "RatFunc",
    "RaySign",
    "SignUndecidedOnRay",
    "POSITIVE_ON_RAY",
    "NEGATIVE_ON_RAY",
    "ZERO_IDENTICALLY",
    "MIXED",
    "sign_on_ray",
    "scalar_sign",
    "format_scalar",
    "parse_scalar",
    "Matrix",
    "w0",
    "tau",
    "is_cross_symmetric",
    "exchange_matrix",
    "minor",
    "determinant",
    "brute_force_tnn",
    "matrix_to_text",
    "matrix_from_text",
    "matrix_to_doc",
    "matrix_from_doc",
    "matrix_from_payload",
    "Witness",
    "TotallyNonnegative",
    "NotTnn",
    "Inapplicable",
    "Verdict",
    "verdict_label",
    "Atom",
    "Factorization",
    "EliminationRun",
    "materialize_atom",
    "cross_symmetric_eliminate",
    "eliminate_detailed",
    "neville_tnn_test",
    "factorization_product",
    "random_certified_tnn",
    "factorization_to_doc",
    "factorization_from_doc",
    "peel_certificate",
    "check_factorization_signs",
    "amazing_entry",
    "amazing_matrix",
    "amazing_matrix_symbolic",
    "VerificationReport",
    "verify_amazing",
    "report_to_doc",
    "Slant",
    "Chip",
    "PlanarNetwork",
    "network_from_factorization",
    "path_matrix",
    "reflect",
    "export_dot",
    "network_to_doc",
    "network_from_doc",
    "__version__",
]
