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

from dataclasses import dataclass

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

_STATEMENT_KEYWORDS = frozenset(
    {"model", "thimac", "flow", "trigger", "event", "behavior"}
)


class ParseError(TMError):
    """Raised when parsing fails; carries every diagnostic found in the pass."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        first = diagnostics[0]
        where = f"{first.span.line}:{first.span.col}: " if first.span else ""
        more = f" (+{len(diagnostics) - 1} more)" if len(diagnostics) > 1 else ""
        super().__init__(f"{where}{first.message}{more}")


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT | STRING | -> | ~> | { | } | : | , | @ | . | EOF
    value: str
    line: int
    col: int

    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col)


def _tokenize(text: str, diags: list[Diagnostic]) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == "-" and text[i : i + 2] == "->":
            tokens.append(_Token("->", "->", start_line, start_col))
            i += 2
            col += 2
            continue
        if ch == "~" and text[i : i + 2] == "~>":
            tokens.append(_Token("~>", "~>", start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in "{}:,@.":
            tokens.append(_Token(ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == '"':
            i += 1
            col += 1
            buf = []
            closed = False
            while i < n:
                c = text[i]
                if c == "\n":
                    break
                if c == "\\" and i + 1 < n and text[i + 1] in '"\\':
                    buf.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                if c == '"':
                    i += 1
                    col += 1
                    closed = True
                    break
                buf.append(c)
                i += 1
                col += 1
            if not closed:
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "E_SYNTAX",
                        "unterminated string literal",
                        span=SourceSpan(start_line, start_col),
                    )
                )
            tokens.append(_Token("STRING", "".join(buf), start_line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        diags.append(
            Diagnostic(
                Severity.ERROR,
                "E_SYNTAX",
                f"unexpected character {ch!r}",
                span=SourceSpan(start_line, start_col),
            )
        )
        i += 1
        col += 1
    tokens.append(_Token("EOF", "", line, col))
    return tokens


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

    def expect(self, kind: str, what: str) -> _Token | None:
        if self.match(kind):
            return self.advance()
        self.error(f"expected {what}, found {self._describe(self.cur)}")
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
            if self.match("IDENT") and self.cur.value in _STATEMENT_KEYWORDS:
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
            keyword = tok.value
            before = len(self.diags)
            if keyword == "model":
                decl = self.parse_model_header()
                if decl is not None:
                    decls.append(decl)
                    in_model_block = True
            elif keyword == "thimac":
                decl = self.parse_thimac()
                if decl is not None:
                    decls.append(decl)
            elif keyword == "flow":
                decl = self.parse_flow()
                if decl is not None:
                    decls.append(decl)
            elif keyword == "trigger":
                decl = self.parse_trigger()
                if decl is not None:
                    decls.append(decl)
            elif keyword == "event":
                decl = self.parse_event()
                if decl is not None:
                    decls.append(decl)
            elif keyword == "behavior":
                decl = self.parse_behavior()
                if decl is not None:
                    decls.append(decl)
            else:
                self.error(f"unknown statement {keyword!r}")
                self.advance()
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
        while True:
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
            if self.accept(","):
                continue
            break
        if self.expect("}", "'}' closing the event region") is None:
            self.diags[-1] = Diagnostic(
                Severity.ERROR,
                "E_UNTERMINATED_BLOCK",
                self.diags[-1].message,
                span=self.diags[-1].span,
            )
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
