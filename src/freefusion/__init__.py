"""Fusion-semiring calculus for the free unitary quantum groups and their
projective quotients.

Simple comodules are indexed by binary words over {0, 1}; the library
implements the fusion product, bounded sub-semiring saturation with
derivation certificates, ad-saturated closures, and desk-scale checkers
for simplicity of the projective quotient.
"""

from .words import (
    degree,
    format_word,
    involute,
    is_balanced,
    parse_word,
    shortlex_key,
)
from .fusion import (
    Element,
    dual,
    mul,
    mul_many,
    mul_simple,
    trivial_multiplicity,
)
from .closure import (
    AdStep,
    Certificate,
    ClosureConfig,
    ClosureResult,
    Generator,
    Membership,
    ProductTerm,
    Unit,
    enumerate_words,
    generate,
    member,
    verify_certificate,
    witness,
)
from .normality import (
    AdConfig,
    Ambient,
    SimplicityReport,
    ad_candidates,
    ad_closure,
    check_circle_corollary,
    check_simplicity,
    find_invertibles,
)

__version__ = "0.1.0"

__all__ = [
    "AdConfig",
    "AdStep",
    "Ambient",
    "Certificate",
    "ClosureConfig",
    "ClosureResult",
    "Element",
    "Generator",
    "Membership",
    "ProductTerm",
    "SimplicityReport",
    "Unit",
    "ad_candidates",
    "ad_closure",
    "check_circle_corollary",
    "check_simplicity",
    "degree",
    "dual",
    "enumerate_words",
    "find_invertibles",
    "format_word",
    "generate",
    "involute",
    "is_balanced",
    "member",
    "mul",
    "mul_many",
    "mul_simple",
    "parse_word",
    "shortlex_key",
    "trivial_multiplicity",
    "verify_certificate",
    "witness",
]
