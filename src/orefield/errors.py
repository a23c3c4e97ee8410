"""Exception hierarchy.

Every failure the library can diagnose maps to one class here, so callers
(and the command line driver) can translate failures into exit codes without
string matching.
"""

from __future__ import annotations


class OrefieldError(Exception):
    """Base class for all library errors."""


class MixedFields(OrefieldError):
    """Operands live over different ground fields."""


class DivisionByZero(OrefieldError, ZeroDivisionError):
    """Inversion of zero (element, polynomial, fraction or series)."""


class NotInvertible(OrefieldError):
    """A nonzero element has no inverse (the algebra is not a division ring)."""


class NotAnAutomorphism(OrefieldError):
    """The configured map is not a field automorphism."""


class InfiniteOrder(OrefieldError):
    """Automorphism order search exceeded its cap."""


class ReduciblePolynomial(OrefieldError):
    """A defining polynomial that must be irreducible is not."""


class CapExceeded(OrefieldError):
    """A degree/size cap was exceeded."""


class ZeroSeries(OrefieldError):
    """Inversion of a series that is zero to its stated precision."""


class InsufficientPrecision(OrefieldError):
    """Series precision does not exceed its valuation."""


class NotSimpleRoot(OrefieldError):
    """Newton seed is not a simple residual root (derivative vanishes mod t)."""


class NoResidualRoot(OrefieldError):
    """Newton seed is not a residual root (value does not vanish mod t)."""


class MixedScenarios(OrefieldError):
    """Tensor elements from different extension scenarios were combined."""


class SingularElement(OrefieldError):
    """The inversion system is singular: the element is a zero divisor."""


class UnknownGroupElement(OrefieldError):
    """A group element name is not part of the declared group."""


class EmbeddingMissing(OrefieldError):
    """A tower level pair has no declared embedding."""


class UnknownCatalogEntry(OrefieldError):
    """Requested catalog name does not exist."""


class NotPolynomial(OrefieldError):
    """A fraction with a nontrivial denominator where a polynomial is required."""


class NotInvariantSeries(OrefieldError):
    """Series coefficients must lie in the invariant subfield at exponents
    divisible by the automorphism order."""


class ExprSyntaxError(OrefieldError):
    """Expression syntax error; carries 1-based column information."""

    def __init__(self, message: str, column: int) -> None:
        super().__init__(f"{message} (column {column})")
        self.column = column


class ExprEvalError(OrefieldError):
    """Expression parsed but cannot be evaluated in the given context."""


class ScenarioFormatError(OrefieldError):
    """Scenario document is malformed (unknown keys, wrong types, bad shape)."""


class ScenarioValidationError(OrefieldError):
    """Scenario parsed but failed semantic validation."""
