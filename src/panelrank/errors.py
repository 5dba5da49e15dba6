"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: input problems are exit 1, panels
that are structurally valid but mathematically unusable (zero rows or
columns) are exit 2, and fixed-point non-convergence is exit 3.
"""

from __future__ import annotations


class PanelRankError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PanelRankError):
    """Malformed or inconsistent input: files, rosters, maps, config."""


class DegeneratePanelError(PanelRankError):
    """A panel row or column sums to zero, so the scores are undefined."""


class NonConvergenceError(PanelRankError):
    """The fixed-point iteration did not reach its tolerance within max_steps."""
