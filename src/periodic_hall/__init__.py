"""Exact structure constants for m-periodic derived Hall algebras.

The package builds, over a prime field F_q and a small acyclic quiver:

- the representation category (isomorphism classes, Hom/Ext, automorphism
  counts, submodule Hall numbers),
- a concrete model of the bounded derived category with brute-force
  mapping-cone counting of derived Hall numbers,
- the m-periodic derived Hall algebra (odd m) and its extension by
  half-lattice K-elements (any m),
- the basis-wise algebra embedding of the former into the latter, with an
  exact verification harness.

Elements of both algebras are `Element` values: finite scalar combinations
of basis elements, tied to the algebra that built them.

All arithmetic is exact, in the field Q[t]/(t^8 - q) with v = sqrt(q) = t^4.
"""

from .derived import DerivedContext, GradedObject, ProjComplex
from .embed import Embedding, PhiImage, check_identity_3_2, phi_exponent_t_units
from .errors import (
    EvenPeriodError,
    HallError,
    InvariantError,
    ParseError,
    ResourceLimitError,
    UsageError,
)
from .combo import Element
from .extended import ExtendedAlgebra, ExtendedBasisElement
from .periodic import PeriodicAlgebra, PeriodicObject
from .repcat import IsoClass, Quiver, Rep, RepContext
from .scalar import Scalar, ScalarField, parse_scalar

__version__ = "0.1.0"

__all__ = [
    "DerivedContext",
    "Element",
    "Embedding",
    "EvenPeriodError",
    "ExtendedAlgebra",
    "ExtendedBasisElement",
    "GradedObject",
    "HallError",
    "InvariantError",
    "IsoClass",
    "ParseError",
    "PeriodicAlgebra",
    "PeriodicObject",
    "PhiImage",
    "ProjComplex",
    "Quiver",
    "Rep",
    "RepContext",
    "ResourceLimitError",
    "Scalar",
    "ScalarField",
    "UsageError",
    "check_identity_3_2",
    "parse_scalar",
    "phi_exponent_t_units",
]
