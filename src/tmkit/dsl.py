"""Parser and pretty-printer for the textual `.tm` model format.

The format is a flat statement language, whitespace-insensitive, with
`#` line comments.  A file is either a `model NAME { ... }` block or a
bare sequence of statements:

    model coffee_mill {
      thimac Mill
      flow Beans: Mill.transfer -> Mill.receive -> Mill.process
      trigger Mill.process ~> Powder.create
      event E1 "beans arrive" { Mill.transfer, Mill.receive }
      behavior E1 -> E2
    }

`->` chains are sugar: `A -> B -> C` expands to the arcs (A, B) and
(B, C) sharing the flow's thing label.  Event regions list stage refs
(or arc ids such as `F1`); an arc belongs to a region exactly when both
its endpoints do, so regions never need to enumerate arcs.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import Diagnostic, Severity, SourceSpan, TMError
from .model import (
    BehaviorDecl,
    Declaration,
    EventDecl,
    FlowDecl,
    KIND_ORDER,
    ModelDecl,
    StageKind,
    StageRef,
    ThimacDecl,
    TMModel,
    TriggerDecl,
    kind_from_name,
)


class ParseError(TMError):
    """Raised when parsing fails; carries every diagnostic found in the pass."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        first = diagnostics[0]
        where = f"{first.span.line}:{first.span.col}: " if first.span else ""
        more = f" (+{len(diagnostics) - 1} more)" if len(diagnostics) > 1 else ""
        super().__init__(f"{where}{first.message}{more}")


class _Token(NamedTuple):
    kind: str  # IDENT | STRING | -> | ~> | { | } | : | , | @ | . | EOF
    value: str
    line: int
    col: int

    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col)


# The lexical grammar, tried in order at each offset.  A string ends at its
# closing quote or at the end of its line; `\"` and `\\` are its only escapes.
_LEXEME = re.compile(
    "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("blank", r"[ \t\r]+"),
            ("comment", r"#[^\n]*"),
            ("newline", r"\n"),
            ("punct", r"->|~>|[{}:,@.]"),
            ("string", r'"(?P<body>(?:\\["\\]|[^"\n])*)(?P<closed>"?)'),
            ("word", r"[^\W\d]\w*"),
            ("other", r"."),
        )
    )
)
_ESCAPE = re.compile(r'\\(["\\])')


def _tokenize(text: str, diags: list[Diagnostic]) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start, pos, end = 1, 0, 0, len(text)
    while pos < len(text):
        m = _LEXEME.match(text, pos)
        kind, start, pos = m.lastgroup, pos, m.end()
        col = start - line_start + 1
        if kind == "word" and (text[start].isalpha() or text[start] == "_"):
            tokens.append(_Token("IDENT", m[kind], line, col))
        elif kind == "punct":
            tokens.append(_Token(m[kind], m[kind], line, col))
        elif kind == "newline":
            line, line_start = line + 1, pos
        elif kind == "string":
            if not m["closed"]:
                diags.append(_syntax_error("unterminated string literal", line, col))
            tokens.append(_Token("STRING", _ESCAPE.sub(r"\1", m["body"]), line, col))
        elif kind == "comment" and pos == len(text):
            end = start  # columns stop at a comment, so EOF sits at its '#'
        elif kind in ("word", "other"):
            pos = start + 1  # `\w` also admits '²', '½': report one, go on
            diags.append(_syntax_error(f"unexpected character {text[start]!r}", line, col))
    tokens.append(_Token("EOF", "", line, end - line_start + 1))
    return tokens


def _syntax_error(message: str, line: int, col: int) -> Diagnostic:
    return Diagnostic(Severity.ERROR, "E_SYNTAX", message, span=SourceSpan(line, col))


class _Parser:
    def __init__(self, tokens: list[_Token], diags: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diags = diags

    # -- token helpers ------------------------------------------------------

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def match(self, kind: str) -> bool:
        return self.cur.kind == kind

    def accept(self, kind: str) -> _Token | None:
        if self.match(kind):
            return self.advance()
        return None

    def expect(self, kind: str, what: str, code: str = "E_SYNTAX") -> _Token | None:
        if self.match(kind):
            return self.advance()
        self.error(f"expected {what}, found {self._describe(self.cur)}", code)
        return None

    @staticmethod
    def _describe(tok: _Token) -> str:
        if tok.kind == "EOF":
            return "end of input"
        if tok.kind in ("IDENT", "STRING"):
            return f"{tok.value!r}"
        return f"{tok.kind!r}"

    def error(self, message: str, code: str = "E_SYNTAX", tok: _Token | None = None) -> None:
        tok = tok or self.cur
        self.diags.append(
            Diagnostic(Severity.ERROR, code, message, span=tok.span())
        )

    def sync(self) -> None:
        """Skip ahead to the next statement so later errors are still found."""
        while not self.match("EOF"):
            if self.match("}"):
                return
            if self.match("IDENT") and self.cur.value in _STATEMENTS:
                return
            self.advance()

    # -- grammar ------------------------------------------------------------

    def parse_file(self) -> list[Declaration]:
        decls: list[Declaration] = []
        in_model_block = False
        while not self.match("EOF"):
            if self.match("}"):
                if in_model_block:
                    self.advance()
                    in_model_block = False
                    continue
                self.error("unmatched '}'")
                self.advance()
                continue
            tok = self.cur
            if tok.kind != "IDENT":
                self.error(f"expected a statement, found {self._describe(tok)}")
                self.advance()
                self.sync()
                continue
            before = len(self.diags)
            statement = _STATEMENTS.get(tok.value)
            if statement is None:
                self.error(f"unknown statement {tok.value!r}")
                self.advance()
            else:
                decl = statement(self)
                if decl is not None:
                    decls.append(decl)
                    in_model_block = in_model_block or isinstance(decl, ModelDecl)
            if len(self.diags) > before:
                self.sync()
        if in_model_block:
            self.error("missing '}' at end of model block", "E_UNTERMINATED_BLOCK")
        return decls

    def parse_model_header(self) -> ModelDecl | None:
        start = self.advance()
        name = self.expect("IDENT", "model name")
        if name is None:
            return None
        if self.expect("{", "'{' after model name") is None:
            return None
        return ModelDecl(name.value, start.span())

    def parse_thimac(self) -> ThimacDecl | None:
        start = self.advance()
        parts = self.dotted("a name")
        if parts is None:
            return None
        path = ".".join(t.value for t in parts)
        stages: list = []
        if self.accept("{"):
            while not self.match("}") and not self.match("EOF"):
                tok = self.expect("IDENT", "stage kind")
                if tok is None:
                    return None
                kind = self._kind(tok)
                if kind is None:
                    return None
                stages.append(kind)
            if self.expect("}", "'}' closing stage list") is None:
                return None
        return ThimacDecl(path, tuple(stages), start.span())

    def dotted(self, what: str) -> list[_Token] | None:
        """Read `IDENT ('.' IDENT)*`; `what` names the expected first token."""
        tok = self.expect("IDENT", what)
        if tok is None:
            return None
        parts = [tok]
        while self.accept("."):
            tok = self.expect("IDENT", "name after '.'")
            if tok is None:
                return None
            parts.append(tok)
        return parts

    def _kind(self, tok: _Token) -> StageKind | None:
        """The stage kind `tok` names, or None after reporting it."""
        kind = kind_from_name(tok.value)
        if kind is None:
            self.error(
                f"{tok.value!r} is not a stage kind "
                f"(expected one of {', '.join(k.value for k in KIND_ORDER)})",
                "E_UNKNOWN_KIND",
                tok,
            )
        return kind

    def stage_ref(self, parts: list[_Token]) -> StageRef | None:
        """`thimac.path.kind` from dotted tokens, at least two of them."""
        kind = self._kind(parts[-1])
        if kind is None:
            return None
        return StageRef(".".join(t.value for t in parts[:-1]), kind)

    def parse_stage_ref(self) -> StageRef | None:
        parts = self.dotted("a stage reference")
        if parts is None:
            return None
        if len(parts) < 2:
            self.error(
                f"stage reference needs a thimac and a stage kind, got {parts[0].value!r}",
                tok=parts[0],
            )
            return None
        return self.stage_ref(parts)

    def parse_flow(self) -> FlowDecl | None:
        start = self.advance()
        label = self.expect("IDENT", "thing label")
        if label is None:
            return None
        if self.expect(":", "':' after thing label") is None:
            return None
        chain: list[StageRef] = []
        ref = self.parse_stage_ref()
        if ref is None:
            return None
        chain.append(ref)
        while self.accept("->"):
            ref = self.parse_stage_ref()
            if ref is None:
                return None
            chain.append(ref)
        if len(chain) < 2:
            self.error("flow chain needs at least two stage references", tok=start)
            return None
        return FlowDecl(label.value, tuple(chain), start.span())

    def parse_trigger(self) -> TriggerDecl | None:
        start = self.advance()
        source = self.parse_stage_ref()
        if source is None:
            return None
        if self.expect("~>", "'~>' between trigger endpoints") is None:
            return None
        target = self.parse_stage_ref()
        if target is None:
            return None
        return TriggerDecl(source, target, start.span())

    def parse_event(self) -> EventDecl | None:
        start = self.advance()
        name = self.expect("IDENT", "event name")
        if name is None:
            return None
        description = None
        time = None
        tok = self.accept("STRING")
        if tok is not None:
            description = tok.value
        if self.accept("@"):
            tok = self.expect("STRING", "time annotation string after '@'")
            if tok is None:
                return None
            time = tok.value
        if self.expect("{", "'{' opening the event region") is None:
            return None
        members: list[StageRef | str] = []
        more = not self.match("}")  # `{ }` is an empty region
        while more:
            parts = self.dotted("a region member")
            if parts is None:
                return None
            if len(parts) == 1:
                members.append(parts[0].value)  # arc id reference
            else:
                ref = self.stage_ref(parts)
                if ref is None:
                    return None
                members.append(ref)
            more = self.accept(",") is not None
        if self.expect("}", "'}' closing the event region", "E_UNTERMINATED_BLOCK") is None:
            return None
        return EventDecl(
            name.value, tuple(members), description, time, start.span()
        )

    def parse_behavior(self) -> BehaviorDecl | None:
        start = self.advance()
        chain: list[str] = []
        tok = self.expect("IDENT", "event name")
        if tok is None:
            return None
        chain.append(tok.value)
        while self.accept("->"):
            tok = self.expect("IDENT", "event name after '->'")
            if tok is None:
                return None
            chain.append(tok.value)
        if len(chain) < 2:
            self.error("behavior chain needs at least two event names", tok=start)
            return None
        return BehaviorDecl(tuple(chain), start.span())


_STATEMENTS = {
    "model": _Parser.parse_model_header,
    "thimac": _Parser.parse_thimac,
    "flow": _Parser.parse_flow,
    "trigger": _Parser.parse_trigger,
    "event": _Parser.parse_event,
    "behavior": _Parser.parse_behavior,
}


def parse(text: str) -> list[Declaration]:
    """Parse `.tm` source into declarations, in source order.

    On malformed input, recovery continues at the next statement so a
    single call reports every statement-level error; the collected
    diagnostics are raised as a ParseError.
    """
    diags: list[Diagnostic] = []
    tokens = _tokenize(text, diags)
    decls = _Parser(tokens, diags).parse_file()
    if diags:
        raise ParseError(diags)
    return decls


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

def format_model(model: TMModel) -> str:
    """Emit canonical `.tm` text for an assembled model.

    Thimacs come first in path order with explicit stage lists, then flow
    chains in declaration order, then triggers, events, and behavior.
    The output re-parses and re-assembles to a structurally identical
    model, and formatting is idempotent byte-for-byte.
    """
    name = model.name or "untitled"
    lines: list[str] = []
    for path in sorted(model.thimacs):
        if not path:
            continue
        thimac = model.thimacs[path]
        if thimac.stages:
            kinds = " ".join(k.value for k in KIND_ORDER if k in thimac.stages)
            lines.append(f"thimac {path} {{ {kinds} }}")
        else:
            lines.append(f"thimac {path}")
    for chain in _stitch(
        model.flows, lambda a: (a.label, a.source), lambda a: (a.label, a.target)
    ):
        refs = [chain[0].source] + [arc.target for arc in chain]
        lines.append(f"flow {chain[0].label}: " + " -> ".join(map(str, refs)))
    for trig in model.triggers:
        lines.append(f"trigger {trig.source} ~> {trig.target}")
    for event in model.events.values():
        parts = [f"event {event.name}"]
        if event.description is not None:
            parts.append(_quote(event.description))
        if event.time is not None:
            parts.append(f"@ {_quote(event.time)}")
        members = ", ".join(
            str(ref)
            for ref in sorted(event.region, key=lambda r: (r.thimac, r.kind.value))
        )
        lines.append(f"{' '.join(parts)} {{ {members} }}")
    for chain in _stitch(model.behavior.edges, lambda e: e[0], lambda e: e[1]):
        names = [chain[0][0]] + [edge[1] for edge in chain]
        lines.append("behavior " + " -> ".join(names))
    if not lines:
        return f"model {name} {{ }}\n"
    body = "\n".join(f"  {line}" for line in lines)
    return f"model {name} {{\n{body}\n}}\n"


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _stitch(arcs: tuple, head, tail) -> list[list]:
    """Greedily rebuild `->` chains from arcs, preserving order: an arc
    extends a chain when it is the only unused arc whose head equals the
    chain's tail."""
    by_head: dict = {}
    for i, arc in enumerate(arcs):
        by_head.setdefault(head(arc), []).append(i)
    used = [False] * len(arcs)
    chains = []
    for i, arc in enumerate(arcs):
        if used[i]:
            continue
        used[i] = True
        chain = [arc]
        while True:
            nexts = [j for j in by_head.get(tail(chain[-1]), ()) if not used[j]]
            if len(nexts) != 1:
                break
            used[nexts[0]] = True
            chain.append(arcs[nexts[0]])
        chains.append(chain)
    return chains
