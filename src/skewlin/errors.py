"""Exception types shared across the library."""


class ParseError(ValueError):
    """Malformed quaternion or matrix text.  ``position`` is the offset of
    the offending character in the original input string."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible for the requested product."""


class SingularMatrixError(ArithmeticError):
    """The matrix has no two-sided inverse under the row-times-column product."""


class InvalidRowError(ValueError):
    """A row index was passed where a row outside the major minor is required."""


class InvalidMorphismError(ValueError):
    """A pair of maps fails the representation-morphism laws."""


class InvalidRepresentationError(InvalidMorphismError):
    """A morphism's source or target fails the representation laws: the unit
    must act as the identity and a product as the composition of actions."""


class IllDefinedQuotientError(RuntimeError):
    """The induced quotient action is not constant on equivalence classes.

    Cannot occur for a morphism that passed validation; kept as an explicit
    guard instead of a bare assert.
    """


class BaseMismatchError(ValueError):
    """Sections over different bases were combined pointwise."""
