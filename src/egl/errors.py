"""Exception taxonomy shared across the package.

The CLI maps these onto its exit codes: scenario problems exit 1, solver
problems exit 2, I/O problems exit 3.
"""

from __future__ import annotations


class EglError(Exception):
    """Base class for all errors raised by this package."""


class ScenarioParseError(EglError):
    """A scenario document is not well-formed JSON."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.line = line
        self.column = column
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{message}{where}")


class ScenarioValidationError(EglError):
    """A scenario document violates a model invariant."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class SolverError(EglError):
    """A solve failed; ``kind`` is one of infeasible / no_bracket /
    degenerate / inaccurate (a solution that misses its own tolerance)."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(f"{kind}: {message}")
