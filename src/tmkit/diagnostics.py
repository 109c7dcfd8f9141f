"""Shared diagnostic and source-location types used across the toolkit."""

from __future__ import annotations

import enum

from .records import Record


class TMError(Exception):
    """Base class for all toolkit errors."""


class Severity(enum.Enum):
    ERROR = "Error"
    WARNING = "Warning"

    def __str__(self) -> str:
        return self.value


class SourceSpan(Record):
    """Line/column of the start of a statement or token (1-based)."""

    line: int
    col: int


class Diagnostic(Record):
    """A single finding about a model, suitable for JSON-lines reporting.

    `code` is a stable short string drawn from the documented set (see
    README) and fixes the severity: a `W_` code is a Warning, any other
    an Error.  `subject` names the stage ref, arc id, or event the finding
    is about.
    """

    code: str
    message: str
    subject: str = ""
    span: SourceSpan | None = None

    @property
    def severity(self) -> Severity:
        return Severity.WARNING if self.code.startswith("W_") else Severity.ERROR

    def sort_key(self) -> tuple[int, int, str, str]:
        # Source-anchored diagnostics first, model-level ones last.
        line = self.span.line if self.span else 1 << 30
        col = self.span.col if self.span else 0
        return (line, col, self.code, self.subject)

    def to_json(self) -> str:
        import json  # a clean `tm check` writes no JSON, so skips the import

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


class ModelError(TMError):
    """An error about the model, carried as the `diagnostics` that `tm`
    prints for it: the list it is given, or else one Error diagnostic made
    of the class's `code`, the message, `subject` and, where known, `span`."""

    code: str

    def __init__(
        self,
        message: str,
        span: SourceSpan | None = None,
        subject: str = "",
        diagnostics: list[Diagnostic] | None = None,
    ):
        super().__init__(message)
        if diagnostics is None:
            diagnostics = [Diagnostic(self.code, message, subject, span)]
        self.diagnostics = diagnostics


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(diags, key=Diagnostic.sort_key)
