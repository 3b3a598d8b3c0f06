"""Exception taxonomy shared by all modules.

Every failure that a caller can act on gets its own class; genuinely negative
scientific results (a non-rigid map, a non-integrable bundle) are modelled as
exceptions carrying the measured evidence, not as silent flags.
"""

from __future__ import annotations


class AnosovLabError(Exception):
    """Base class for all package errors."""


class NotHyperbolic(AnosovLabError):
    """An eigenvalue modulus sits within tolerance of the unit circle."""


class ResourceLimit(AnosovLabError):
    """An exact enumeration would exceed the configured cap."""


class NoConvergence(AnosovLabError):
    """An iterative solve ran out of iterations before hitting tolerance."""


class NotLocalDiffeo(AnosovLabError):
    """A Jacobian became singular where the map must be a local diffeo."""


class IncompleteEnumeration(AnosovLabError):
    """A preimage/orbit enumeration lost or duplicated a solution."""


class CertificationFailed(AnosovLabError):
    """Cone-field verification failed; the witness is attached."""

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness


class UnknownFixture(AnosovLabError):
    """Requested fixture name is not in the catalog."""


class SingularJacobian(AnosovLabError):
    """Newton system for a periodic point is singular."""


class GapTooSmall(AnosovLabError):
    """Consecutive contraction rates too close to resolve a splitting."""


class ObstructionNonzero(AnosovLabError):
    """Periodic averages rule out a coboundary; best fit is attached."""

    def __init__(self, message: str, solution: object = None):
        super().__init__(message)
        self.solution = solution


class RefusedNonIntegrable(AnosovLabError):
    """Holonomy requested without an integrability verdict to stand on."""


class NoIntersection(AnosovLabError):
    """A leaf never crossed the target leaf within the search length."""


class ConfigInvalid(AnosovLabError):
    """Scenario config failed validation; messages list every problem."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid scenario config: " + "; ".join(problems))
        self.problems = list(problems)
