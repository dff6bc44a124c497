"""Shared exception types."""
from __future__ import annotations


class CapabilityError(RuntimeError):
    """A count or refinement was requested outside the supported envelope
    (7-cycles below d=3, closed-form 4-cliques, dense-size caps...)."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, never bad input.

    Raised explicitly rather than by ``assert``, so ``python -O`` keeps it."""
