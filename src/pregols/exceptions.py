"""Package exception hierarchy.

Rank-structure failures get their own class so callers (and the CLI exit-code
mapping) can tell "your data violates a rank precondition" apart from plain
bad input such as non-finite entries or mismatched shapes.
"""

__all__ = [
    "PregolsError",
    "InvalidInputError",
    "RankAssumptionError",
    "ExperimentAbortedError",
]


class PregolsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PregolsError, ValueError):
    """Input is malformed: non-finite entries, wrong shapes, bad options.

    Every public boundary applies :mod:`~pregols.linalg`'s rule: arrays finite,
    names known, integers and reals real ones; a ``bool`` is neither, so
    ``Seed.rng(True)`` and ``gen_ate_dataset(tau=True)`` are refused.
    """


class RankAssumptionError(PregolsError, ValueError):
    """A rank precondition on the design does not hold.

    The message names the block and the condition that failed, e.g. the
    penalized block lacking full row rank or the unpenalized block lacking
    full column rank.
    """


class ExperimentAbortedError(RankAssumptionError):
    """Too many simulation trials failed rank validation in one grid cell."""
