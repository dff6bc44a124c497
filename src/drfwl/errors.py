"""Shared exception types, and the names of the refinement methods."""
from __future__ import annotations

# the refinement methods, by their ``--method`` names
METHODS = ("wl1", "fwl2", "drfwl")


class CapabilityError(RuntimeError):
    """A count or refinement was requested outside the supported envelope
    (7-cycles below d=3, closed-form 4-cliques, dense-size caps...)."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, never bad input.

    Raised explicitly rather than by ``assert``, so ``python -O`` keeps it."""
