"""Exception types shared across the package."""


class ParameterDomainError(ValueError):
    """Input outside the domain a construction or formula is defined for (CLI exit 2)."""


class ForeignVertexError(ParameterDomainError):
    """A vertex that does not belong to the graph it was used with."""


class SizeCapError(ParameterDomainError):
    """Instance exceeds an exact-search size cap."""


class CoverageError(ParameterDomainError):
    """Color classes do not partition the vertex set."""


class ShapeError(ParameterDomainError):
    """A class has the wrong size or shape for the requested operation."""


class SearchExhaustedError(RuntimeError):
    """A search ended without a certificate: it ran out of budget or found none.

    A search that counts nodes sets `nodes` (how many it searched) and
    `budget` (how many it was allowed); both are None otherwise.
    """

    def __init__(self, message, nodes=None, budget=None):
        super().__init__(message)
        self.nodes = nodes
        self.budget = budget


class CertificateError(RuntimeError):
    """A construction failed its own verification; output is withheld."""
