"""Exact calculator and certifier for coordinate quiver models of
perfect-complex categories over one-cycle gentle algebras.

The package computes, with no floating point and no field arithmetic, hom
bases, monomial compositions, finitely presented quotient functors, symbolic
supports over difference-bound regions, and replays the exact-sequence case
analyses that pin the Krull-Gabriel dimension of the model at 2 (finite
global dimension) or 1 (infinite global dimension).
"""

from .presentation import (
    GentleTriple,
    build_bound_quiver,
    validate_triple,
)
from .model import (
    ArrowMorphism,
    IdentityMorphism,
    VertexId,
    ZERO,
    ar_sink_maps,
    arrow_exists,
    arrow_fan,
    compose,
    hom_basis,
    vertex_valid,
)
from .functors import (
    FpFunctor,
    Subfunctor,
    Window,
    eval_fp,
    eval_sub,
    image_presentation_check,
    is_in_c0,
    quotient_support,
    ses_check,
    support_channels,
    support_region,
)
from .certifier import (
    Certificate,
    Simple1Instance,
    build_simple0,
    build_simple1,
    certify,
    check_c2_simple,
    check_finite1,
    check_nonsimple1,
    check_simple0,
    check_simple1_tower,
)

__all__ = [
    "GentleTriple",
    "validate_triple",
    "build_bound_quiver",
    "VertexId",
    "ArrowMorphism",
    "IdentityMorphism",
    "ZERO",
    "vertex_valid",
    "arrow_fan",
    "arrow_exists",
    "hom_basis",
    "compose",
    "ar_sink_maps",
    "Subfunctor",
    "FpFunctor",
    "Window",
    "eval_sub",
    "eval_fp",
    "support_channels",
    "support_region",
    "is_in_c0",
    "image_presentation_check",
    "ses_check",
    "quotient_support",
    "Certificate",
    "Simple1Instance",
    "build_simple0",
    "build_simple1",
    "check_simple0",
    "check_simple1_tower",
    "check_finite1",
    "check_nonsimple1",
    "check_c2_simple",
    "certify",
]

__version__ = "0.1.0"
