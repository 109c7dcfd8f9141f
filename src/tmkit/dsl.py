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
from bisect import bisect_right

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


# A token is a plain `(kind, value, offset)` tuple: kind is IDENT, STRING,
# one of -> ~> { } : , @ . (its own text), or EOF; offset is where it starts.
# An IDENT's value may be a dotted name with no blanks (`A.b.create`).
_Token = tuple[str, str, int]

# One match skips blanks, line breaks and comments, then reads one lexeme;
# only the match at the end of the text reads none.  The lexemes are tried
# in order.  A word is a name, or a dotted name with no blanks around its
# dots (`A.b.create`), which is one IDENT; the parser cuts it back into
# `IDENT '.' IDENT ...` wherever it wants a single name.  A string ends at
# its closing quote or at the end of its line; `\"` and `\\` are its only
# escapes.
_LEXEME = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*(?:"
    + "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("word", r"[^\W\d]\w*(?:\.[^\W\d]\w*)*"),
            ("punct", r"->|~>|[{}:,@.]"),
            ("string", r'"(?P<body>(?:\\["\\]|[^"\n])*)(?P<closed>"?)'),
            ("other", r"."),
        )
    )
    + ")?"
)
_ESCAPE = re.compile(r'\\(["\\])')
_NEWLINE = re.compile(r"\n")


class _Lines:
    """The line-start offsets of a text, to turn an offset into a span."""

    def __init__(self, text: str):
        self.starts = [0] + [m.end() for m in _NEWLINE.finditer(text)]

    def span(self, offset: int) -> SourceSpan:
        line = bisect_right(self.starts, offset)
        return SourceSpan(line, offset - self.starts[line - 1] + 1)


def _tokenize(text: str, lines: _Lines, diags: list[Diagnostic]) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    pos = 0
    while True:
        for m in _LEXEME.finditer(text, pos):
            kind = m.lastgroup
            if kind == "word":
                value = m[kind]
                start = m.end() - len(value)
                if value.isascii():
                    append(("IDENT", value, start))
                    continue
                # `\w` also admits '²', '½', so a segment may start with one:
                # read the first segment alone and rescan from its end.
                value = value.partition(".")[0]
                if not (value[0].isalpha() or value[0] == "_"):
                    pos = start + 1  # report the character, rescan after it
                    diags.append(_unexpected(text, start, lines))
                    break
                append(("IDENT", value, start))
                if start + len(value) < m.end():
                    pos = start + len(value)
                    break
            elif kind == "punct":
                value = m[kind]
                append((value, value, m.end() - len(value)))
            elif kind == "string":
                start = m.start(kind)
                if not m["closed"]:
                    diags.append(_syntax_error("unterminated string literal", start, lines))
                body = m["body"]
                append(("STRING", _ESCAPE.sub(r"\1", body) if "\\" in body else body, start))
            elif kind == "other":
                diags.append(_unexpected(text, m.start(kind), lines))
            else:
                # The end of the text; after a trailing comment, EOF sits at its '#'.
                skipped = m[0]
                comment = skipped.find("#", skipped.rfind("\n") + 1)
                append(("EOF", "", m.start() + comment if comment >= 0 else len(text)))
                return tokens


def _unexpected(text: str, offset: int, lines: _Lines) -> Diagnostic:
    return _syntax_error(f"unexpected character {text[offset]!r}", offset, lines)


def _syntax_error(message: str, offset: int, lines: _Lines) -> Diagnostic:
    return Diagnostic(Severity.ERROR, "E_SYNTAX", message, span=lines.span(offset))


class _Parser:
    def __init__(self, tokens: list[_Token], lines: _Lines, diags: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.lines = lines
        self.diags = diags
        self.refs: dict[str, StageRef] = {}  # by dotted name, see `stage_ref`

    # -- token helpers ------------------------------------------------------
    # Only `advance` can meet EOF: no caller accepts or expects it.  Only
    # `dotted` takes a joined dotted name whole; a statement keyword and
    # `expect` first call `split`, so they see the tokens that `A . b`
    # would have given.

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def match(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def accept(self, kind: str) -> _Token | None:
        tok = self.tokens[self.pos]
        if tok[0] == kind:
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, what: str, code: str = "E_SYNTAX") -> _Token | None:
        tok = self.split()
        if tok[0] == kind:
            self.pos += 1
            return tok
        self.error(f"expected {what}, found {self._describe(tok)}", code)
        return None

    def split(self) -> _Token:
        """The token at `pos`, after cutting a joined dotted name there into
        its `IDENT ('.' IDENT)*` tokens, each at its own offset."""
        tok = self.tokens[self.pos]
        kind, value, offset = tok
        if kind != "IDENT" or "." not in value:
            return tok
        parts: list[_Token] = []
        for name in value.split("."):
            if parts:
                parts.append((".", ".", offset))
                offset += 1
            parts.append(("IDENT", name, offset))
            offset += len(name)
        self.tokens[self.pos : self.pos + 1] = parts
        return parts[0]

    @staticmethod
    def _describe(tok: _Token) -> str:
        kind, value, _ = tok
        if kind == "EOF":
            return "end of input"
        if kind in ("IDENT", "STRING"):
            return f"{value!r}"
        return f"{kind!r}"

    def span(self, tok: _Token) -> SourceSpan:
        return self.lines.span(tok[2])

    def error(self, message: str, code: str = "E_SYNTAX", tok: _Token | None = None) -> None:
        tok = tok or self.tokens[self.pos]
        self.diags.append(Diagnostic(Severity.ERROR, code, message, span=self.span(tok)))

    def sync(self, start: int) -> None:
        """Skip the rest of the failed statement that began at token
        `start`, so later errors are still found: stop at a statement
        keyword that starts a line or at an enclosing block's `}`, or just
        after the `}` that closes the last brace the statement opened."""
        depth = sum(_BRACES.get(t[0], 0) for t in self.tokens[start : self.pos])
        while not self.match("EOF"):
            kind, value, _ = tok = self.tokens[self.pos]
            if kind == "}" and depth == 0:
                return
            if kind == "IDENT" and value.partition(".")[0] in _STATEMENTS:
                starts_line = self.span(self.tokens[self.pos - 1]).line < self.span(tok).line
                if starts_line:
                    return
            self.advance()
            depth += _BRACES.get(kind, 0)
            if kind == "}" and depth == 0:
                return

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
            tok, start = self.split(), self.pos
            if tok[0] != "IDENT":
                self.error(f"expected a statement, found {self._describe(tok)}")
                self.advance()
                self.sync(start)
                continue
            before = len(self.diags)
            statement = _STATEMENTS.get(tok[1])
            if statement is None:
                self.error(f"unknown statement {tok[1]!r}")
                self.advance()
            else:
                decl = statement(self)
                if decl is not None:
                    decls.append(decl)
                    in_model_block = in_model_block or isinstance(decl, ModelDecl)
            if len(self.diags) > before:
                self.sync(start)
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
        return ModelDecl(name[1], self.span(start))

    def parse_thimac(self) -> ThimacDecl | None:
        start = self.advance()
        path = self.dotted("a name")
        if path is None:
            return None
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
        return ThimacDecl(path, tuple(stages), self.span(start))

    def dotted(self, what: str) -> str | None:
        """Read `IDENT ('.' IDENT)*`, where an IDENT may itself be a joined
        dotted name, and return its names joined by dots; `what` names the
        expected first token."""
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok[0] != "IDENT":
            return self.expect("IDENT", what)  # None, after reporting it
        self.pos += 1
        dotted = tok[1]
        while tokens[self.pos][0] == ".":
            self.pos += 1
            tok = tokens[self.pos]
            if tok[0] != "IDENT":
                return self.expect("IDENT", "name after '.'")
            self.pos += 1
            dotted = f"{dotted}.{tok[1]}"
        return dotted

    def _kind(self, tok: _Token) -> StageKind | None:
        """The stage kind `tok` names, or None after reporting it."""
        kind = kind_from_name(tok[1])
        if kind is None:
            self.error(
                f"{tok[1]!r} is not a stage kind "
                f"(expected one of {', '.join(k.value for k in KIND_ORDER)})",
                "E_UNKNOWN_KIND",
                tok,
            )
        return kind

    def stage_ref(self, dotted: str) -> StageRef | None:
        """`thimac.path.kind` from the dotted name `dotted` just read, so
        the last token read ends with the kind.  Equal references share one
        `StageRef` within a parse."""
        ref = self.refs.get(dotted)
        if ref is None:
            path, _, name = dotted.rpartition(".")
            _, value, offset = self.tokens[self.pos - 1]
            kind = self._kind(("IDENT", name, offset + len(value) - len(name)))
            if kind is None:
                return None
            ref = self.refs[dotted] = StageRef(path, kind)
        return ref

    def parse_stage_ref(self) -> StageRef | None:
        dotted = self.dotted("a stage reference")
        if dotted is None:
            return None
        if "." not in dotted:
            self.error(
                f"stage reference needs a thimac and a stage kind, got {dotted!r}",
                tok=self.tokens[self.pos - 1],
            )
            return None
        return self.stage_ref(dotted)

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
        return FlowDecl(label[1], tuple(chain), self.span(start))

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
        return TriggerDecl(source, target, self.span(start))

    def parse_event(self) -> EventDecl | None:
        start = self.advance()
        name = self.expect("IDENT", "event name")
        if name is None:
            return None
        description = None
        time = None
        tok = self.accept("STRING")
        if tok is not None:
            description = tok[1]
        if self.accept("@"):
            tok = self.expect("STRING", "time annotation string after '@'")
            if tok is None:
                return None
            time = tok[1]
        if self.expect("{", "'{' opening the event region") is None:
            return None
        members: list[StageRef | str] = []
        more = not self.match("}")  # `{ }` is an empty region
        while more:
            dotted = self.dotted("a region member")
            if dotted is None:
                return None
            if "." not in dotted:
                members.append(dotted)  # arc id reference
            else:
                ref = self.stage_ref(dotted)
                if ref is None:
                    return None
                members.append(ref)
            more = self.accept(",") is not None
        if self.expect("}", "'}' closing the event region", "E_UNTERMINATED_BLOCK") is None:
            return None
        return EventDecl(
            name[1], tuple(members), description, time, self.span(start)
        )

    def parse_behavior(self) -> BehaviorDecl | None:
        start = self.advance()
        chain: list[str] = []
        tok = self.expect("IDENT", "event name")
        if tok is None:
            return None
        chain.append(tok[1])
        while self.accept("->"):
            tok = self.expect("IDENT", "event name after '->'")
            if tok is None:
                return None
            chain.append(tok[1])
        if len(chain) < 2:
            self.error("behavior chain needs at least two event names", tok=start)
            return None
        return BehaviorDecl(tuple(chain), self.span(start))


_BRACES = {"{": 1, "}": -1}

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
    lines = _Lines(text)
    tokens = _tokenize(text, lines, diags)
    decls = _Parser(tokens, lines, diags).parse_file()
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
