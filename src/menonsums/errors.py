"""Exception types shared across the package, and the one statement of each
refusal message that several checks share.  Every bound is inclusive: a value
equal to it is accepted, and one past it is refused."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ResourceError(RuntimeError):
    """The request is well-formed but exceeds the configured desk-scale bounds."""


class IntegrityError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def refuse_below(value: int, low: int, name: str) -> None:
    """DomainError "{name} must be >= {low}, got {value}" when value < low."""
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")


def refuse_above(value: int, bound: int, what: str) -> None:
    """ResourceError "{what} bound is {bound}, got {value}" when value > bound."""
    if value > bound:
        raise ResourceError(f"{what} bound is {bound}, got {value}")


def refuse_exceeding(value: int, bound: int, what: str) -> None:
    """ResourceError "{what} {value} exceeds bound {bound}" when value > bound."""
    if value > bound:
        raise ResourceError(f"{what} {value} exceeds bound {bound}")
