"""Shared diagnostic and source-location types used across the toolkit."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass


class TMError(Exception):
    """Base class for all toolkit errors."""


class Severity(enum.Enum):
    ERROR = "Error"
    WARNING = "Warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SourceSpan:
    """Line/column of the start of a statement or token (1-based)."""

    line: int
    col: int


@dataclass(frozen=True)
class Diagnostic:
    """A single finding about a model, suitable for JSON-lines reporting.

    `code` is a stable short string drawn from the documented set (see
    README); `subject` names the stage ref, arc id, or event the finding
    is about.
    """

    severity: Severity
    code: str
    message: str
    subject: str = ""
    span: SourceSpan | None = None

    def sort_key(self) -> tuple[int, int, str, str]:
        # Source-anchored diagnostics first, model-level ones last.
        line = self.span.line if self.span else 1 << 30
        col = self.span.col if self.span else 0
        return (line, col, self.code, self.subject)

    def to_json(self) -> str:
        return json.dumps(
            {
                "severity": str(self.severity),
                "code": self.code,
                "message": self.message,
                "subject": self.subject,
                "line": self.span.line if self.span else None,
                "col": self.span.col if self.span else None,
            },
            sort_keys=True,
        )


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(diags, key=Diagnostic.sort_key)
