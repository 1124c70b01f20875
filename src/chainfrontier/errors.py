"""Exception types shared across the package."""

from __future__ import annotations


class InputError(Exception):
    """Bad user-supplied input (config, file contents, CLI arguments).

    The CLI maps this class to exit code 1; everything else is an
    internal error and exits 2.
    """


class LedgerOrderError(InputError):
    """Event stream handed to the ledger builder was not sorted."""


class DependencyError(InputError):
    """A pipeline stage was started before its upstream outputs exist."""


class UnidentifiableFitError(ValueError):
    """Fit inputs carry no signal for one or more model parameters."""
