"""Numerical laboratory for non-invertible hyperbolic maps on the torus.

Subpackages cover the pipeline from exact integer linear algebra to the
dichotomy experiment:

    linear      exact matrix analysis, lattice cosets, preimage density
    maps        torus map fixtures, lifts, preimages, cone certificates
    conjugacy   constructive conjugacy to the linear model, specialness
    orbits      periodic orbit continuation and stable spectra
    bundles     branch-dependent unstable directions, the most-contracted
                stable direction
    leafmetric  cocycle solvers, affine leaf metrics, holonomies
    scenarios   config-driven experiment runner used by the CLI
"""

from anosovlab.errors import (
    AnosovLabError,
    CertificationFailed,
    ConfigInvalid,
    GapTooSmall,
    IncompleteEnumeration,
    NoConvergence,
    NoIntersection,
    NotHyperbolic,
    NotLocalDiffeo,
    ObstructionNonzero,
    RefusedNonIntegrable,
    ResourceLimit,
    SingularJacobian,
    UnknownFixture,
)

__version__ = "0.1.0"

__all__ = [
    "AnosovLabError",
    "CertificationFailed",
    "ConfigInvalid",
    "GapTooSmall",
    "IncompleteEnumeration",
    "NoConvergence",
    "NoIntersection",
    "NotHyperbolic",
    "NotLocalDiffeo",
    "ObstructionNonzero",
    "RefusedNonIntegrable",
    "ResourceLimit",
    "SingularJacobian",
    "UnknownFixture",
    "__version__",
]
