"""Shared exception types, the names of the refinement methods, and the
one checked division of a count."""
from __future__ import annotations

# the refinement methods, by their ``--method`` names
METHODS = ("wl1", "fwl2", "drfwl")


class CapabilityError(RuntimeError):
    """A count or refinement was requested outside the supported envelope
    (7-cycles below d=3, closed-form 4-cliques, dense-size caps...)."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, never bad input.

    Raised explicitly rather than by ``assert``, so ``python -O`` keeps it."""


def exact_quotient(total: int, factor: int, what: str) -> int:
    """``total // factor`` for a count that ``factor`` divides by
    construction, such as a node total over its orbit size; a remainder
    is a bug in the count of ``what`` and raises InvariantError."""
    if total % factor:
        raise InvariantError(f"{what}: {total} is not divisible by {factor}")
    return total // factor
