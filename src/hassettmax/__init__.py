"""Exact-arithmetic toolkit for quadratic form representation certificates.

Subpackages: qforms (forms and enumeration), adc (denominator descent),
local_global (p-adic certificates), hassett_rep (the constructive
representation pipeline), lattices (rank-5 Gram matrices), geometry
(plane configurations and vanishing cubics), cli (command-line front end).
"""

from .adc import (
    DescentTrace,
    RationalPoint,
    adc_check,
    cube_bound,
    descend,
    rational_point,
    verify_trace,
)
from .hassett_rep import (
    HassettCertificate,
    in_hassett,
    odd_representation,
    represent,
    verify_certificate,
)
from .lattices import gram_M, induced_form_F, isometry_to, voisin_value
from .local_global import (
    GlobalSolvabilityReport,
    LocalCertificate,
    certify_global,
    certify_local,
    hilbert_symbol,
    jacobi,
)
from .qforms import (
    QuadraticForm,
    builtin_form,
    evaluate,
    integer_image_upto,
    is_primitive,
    primitive_image,
    representations,
)

__all__ = [
    "DescentTrace",
    "GlobalSolvabilityReport",
    "HassettCertificate",
    "LocalCertificate",
    "QuadraticForm",
    "RationalPoint",
    "adc_check",
    "builtin_form",
    "certify_global",
    "certify_local",
    "cube_bound",
    "descend",
    "evaluate",
    "gram_M",
    "hilbert_symbol",
    "in_hassett",
    "induced_form_F",
    "integer_image_upto",
    "isometry_to",
    "is_primitive",
    "jacobi",
    "odd_representation",
    "primitive_image",
    "rational_point",
    "represent",
    "representations",
    "verify_certificate",
    "verify_trace",
    "voisin_value",
]

__version__ = "0.1.0"
