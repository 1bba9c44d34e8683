"""Exception types shared across the package.

Each error class maps to one failure mode of the public API; the CLI
translates them into distinct process exit codes.
"""

from __future__ import annotations


class CapacityError(Exception):
    """A world exceeds the qubit cap, or a script has more transcripts than memory can hold."""


class LayoutError(ValueError):
    """A state is not the 4x4 pair, or an operator or target does not fit it."""


class ContractError(Exception):
    """A value violating its own invariants was passed where a valid one is required."""


class EmptyCellError(Exception):
    """A correlation estimate was requested for a setting pair with zero trials."""

    def __init__(self, cell: str):
        self.cell = cell
        super().__init__(f"no trials recorded for setting pair {cell}")


class ConfigError(Exception):
    """Run configuration is missing, malformed, or inconsistent."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message if key is None else f"{message} (key: {key})")
