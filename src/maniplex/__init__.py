"""Maniplexes: flag graphs, their face posets, voltage double covers,
rank-raising extensions, and the sparse/semisparse classification."""

__version__ = "0.2.0"

from .core import (
    Face,
    FormatError,
    Maniplex,
    ValidationReport,
    Violation,
    automorphism_count,
    components,
    dual,
    faces,
    isomorphic,
    maniplex_from_json,
    maniplex_to_json,
    restrict,
    to_dot,
    validate,
)
from .certify import Refusal
from .corpus import corpus_names, platonic, torus_44
from .cosets import CosetCapExceeded, Presentation, coset_enumerate, string_coxeter
from .counterexample import (
    BuildError,
    ThetaNotFound,
    build_B,
    build_B_star,
    build_E_theta,
    find_theta,
    verify_B_conditions,
)
from .coxeter import Verdict, verdict
from .extension import extend, verify_extension
from .poset import (
    RankedPoset,
    flag_function,
    is_faithful,
    is_polytopal,
    is_polytope,
    polytope_report,
    pos_of,
    poset_isomorphism,
    section,
)
from .voltage import double_cover, lift_connected

__all__ = [
    "__version__",
    "Face",
    "FormatError",
    "Maniplex",
    "ValidationReport",
    "Violation",
    "automorphism_count",
    "components",
    "dual",
    "faces",
    "isomorphic",
    "maniplex_from_json",
    "maniplex_to_json",
    "restrict",
    "to_dot",
    "validate",
    "Refusal",
    "corpus_names",
    "platonic",
    "torus_44",
    "CosetCapExceeded",
    "Presentation",
    "coset_enumerate",
    "string_coxeter",
    "BuildError",
    "ThetaNotFound",
    "build_B",
    "build_B_star",
    "build_E_theta",
    "find_theta",
    "verify_B_conditions",
    "Verdict",
    "verdict",
    "extend",
    "verify_extension",
    "RankedPoset",
    "flag_function",
    "is_faithful",
    "is_polytopal",
    "is_polytope",
    "polytope_report",
    "pos_of",
    "poset_isomorphism",
    "section",
    "double_cover",
    "lift_connected",
]
