"""Exception types shared across the package, and the two steps that map
a batch member's error back to what a per-item loop would name."""

from contextlib import contextmanager


class LabError(Exception):
    """Base class for all errors raised by this package.

    ``point`` is the index of the offending member when the error comes
    from a stacked computation, and None otherwise; it is named in the
    message.
    """

    point = None

    def __str__(self):
        text = super().__str__()
        return text if self.point is None else f"{text} (point {self.point})"

    def at(self, point):
        """Name the offending member of a stack; returns the error."""
        self.point = point
        return self


class AddressError(LabError):
    """A dyadic index does not exist on the tree it was used with."""


class DimensionMismatchError(LabError):
    """Operands have incompatible dimensions or depths."""


class NumericError(LabError):
    """A numerical routine failed (e.g. the eigensolver did not converge)."""


class SingularMatrixError(NumericError):
    """A matrix violates the positivity needed for the requested operation.

    Carries the offending smallest eigenvalue and, when known, the cube
    where the matrix came from.
    """

    def __init__(self, message, lambda_min=None, cube=None):
        if lambda_min is not None:
            message = f"{message} (lambda_min={lambda_min:.3e})"
        if cube is not None:
            message = f"{message} at cube {cube}"
        super().__init__(message)
        self.lambda_min = lambda_min
        self.cube = cube


class DomainError(LabError):
    """A point lies outside the admissible domain of a function.

    ``margins`` maps constraint names to their (signed) slack; negative
    entries identify the violated constraints.
    """

    def __init__(self, message, margins=None):
        if margins:
            detail = ", ".join(f"{k}={v:.3e}" for k, v in margins.items())
            message = f"{message} [{detail}]"
        super().__init__(message)
        self.margins = dict(margins or {})


class PreconditionError(LabError):
    """A documented precondition of an operation was violated."""


class ConfigError(LabError):
    """An experiment configuration failed to parse or validate."""


@contextmanager
def relabel(label):
    """Map the ``point`` of a LabError raised in the block through ``label``.

    A label of None clears the point; an error that names no point passes
    through unchanged.
    """
    try:
        yield
    except LabError as exc:
        if exc.point is not None:
            exc.point = None if label is None else label(exc.point)
        raise


def first_failure(evaluate, n):
    """Evaluate a batch of ``n`` members, failing as a loop over them would.

    ``evaluate(sl)`` evaluates the members ``sl`` (a slice) together, and
    an error it raises names its member by the index in ``sl``.  Returns
    ``(results, n, None)`` if the batch passes.  Otherwise ``b`` is the
    first member that fails when evaluated alone, and the return is
    (results of the members [0, b), or None if b is 0; b; b's error, its
    point shifted to the index in the batch).  A batch that fails while no
    member fails alone raises the batch's error.
    """
    try:
        return evaluate(slice(None)), n, None
    except LabError as exc:
        error = exc
    for b in range(n):
        try:
            with relabel(lambda p: b + p):
                evaluate(slice(b, b + 1))
        except LabError as exc:
            return (evaluate(slice(0, b)) if b else None), b, exc
    raise error
