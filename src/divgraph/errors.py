"""Exception hierarchy shared by all divgraph modules, and the check on caps.

Exit-code mapping used by the CLI:
  ValidationError subclasses  -> 1 (bad input)
  ResourceCapExceeded         -> 2 (cap or budget exhausted)
  InternalInvariantError      -> 3 (a theorem failed to hold; a bug either way)
"""


class DivgraphError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DivgraphError):
    """Input data violates a documented precondition."""


class NotClosed(ValidationError):
    """A table row or column is not a permutation of the element indices."""


class NoIdentity(ValidationError):
    """No two-sided identity element exists in the table."""


class NoInverse(ValidationError):
    """Some element has no two-sided inverse."""


class NotAssociative(ValidationError):
    """A witnessing triple (a, b, c) with (ab)c != a(bc) was found."""


class DegreeMismatch(ValidationError):
    """Permutations of different degrees were combined."""


class UnknownDescriptor(ValidationError):
    """A catalog descriptor does not match the known grammar."""


class NotEvenClass(ValidationError):
    """A cycle type describing odd permutations where an even one is required."""


class NotSplitClass(ValidationError):
    """A cycle type that does not split into two alternating-group classes."""


class TypeMismatch(ValidationError):
    """Two permutations that were required to share a cycle type do not."""


class MalformedGraph(ValidationError):
    """A division graph lacking the structure the analysis relies on."""


class ResourceCapExceeded(DivgraphError):
    """Base class for configurable-cap errors."""


class OrderCapExceeded(ResourceCapExceeded):
    """A group (or a closure in progress) exceeds the configured order cap."""


class LatticeCapExceeded(ResourceCapExceeded):
    """Group order or subgroup count exceeds the lattice enumeration caps."""


class CanonicalizationBudgetExceeded(ResourceCapExceeded):
    """The canonical-labeling search exceeded its node budget; inconclusive."""


class InternalInvariantError(DivgraphError):
    """A structural invariant that should be a theorem failed to hold."""


def check_cap(value, what: str) -> None:
    """A cap or budget whose type is not int (a bool's is not), or a negative
    one, is bad input (exit 1), not a cap that ran out."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an int, got {value!r}")
    if value < 0:
        raise ValidationError(f"{what} must be non-negative, got {value}")
