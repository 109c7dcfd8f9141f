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

from .diagnostics import Diagnostic, ModelError, SourceSpan
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
    _KIND_BY_NAME,
    _KIND_NAME,
    kind_from_name,
)


class ParseError(ModelError):
    """Raised when parsing fails; carries every diagnostic found in the pass."""

    def __init__(self, diagnostics: list[Diagnostic]):
        first = diagnostics[0]
        where = f"{first.span.line}:{first.span.col}: " if first.span else ""
        more = f" (+{len(diagnostics) - 1} more)" if len(diagnostics) > 1 else ""
        super().__init__(f"{where}{first.message}{more}", diagnostics=diagnostics)


# A token is a plain `(kind, value, offset)` tuple: kind is IDENT, STRING,
# one of -> ~> { } : , @ . (its own text), or EOF; offset is where it starts.
# An IDENT's value may be a dotted name with no blanks (`A.b.create`).
_Token = tuple[str, str, int]

# One match skips blanks, line breaks and comments, then reads one lexeme;
# only the match at the end of the text reads none.  The lexemes are tried
# in order.  A word is a name, or a dotted name with no blanks around its
# dots whose later names start with an ASCII letter or `_` (`A.b.create`),
# which is one IDENT; the parser cuts it back into `IDENT '.' IDENT ...`
# wherever it wants a single name, so a dot left unjoined reads the same.
# A string ends at its closing quote or at the end of its line; `\"` and
# `\\` are its only escapes.  Only the token parser uses these three patterns,
# and it compiles them on first use through `re`'s cache, so reading a
# well-formed file compiles none of them.
_LEXEME = (
    r"(?:[ \t\r\n]+|#[^\n]*)*(?:"
    + "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("word", r"[^\W\d]\w*(?:\.[A-Za-z_]\w*)*"),
            ("punct", r"->|~>|[{}:,@.]"),
            ("string", r'"(?P<body>(?:\\["\\]|[^"\n])*)(?P<closed>"?)'),
            ("other", r"."),
        )
    )
    + ")?"
)
_ESCAPE = r'\\(["\\])'
_NEWLINE = r"\n"


class _Lines:
    """The line-start offsets of a text, to turn an offset into a span."""

    def __init__(self, text: str):
        self.starts = [0] + [m.end() for m in re.finditer(_NEWLINE, text)]

    def span(self, offset: int) -> SourceSpan:
        line = bisect_right(self.starts, offset)
        return SourceSpan(line, offset - self.starts[line - 1] + 1)


def _tokenize(text: str, lines: _Lines, diags: list[Diagnostic]) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    pos = 0
    while True:
        for m in re.compile(_LEXEME).finditer(text, pos):
            kind = m.lastgroup
            if kind == "word":
                value = m[kind]
                start = m.end() - len(value)
                # `\w` also admits '²', '½', so a word may start with one.
                if not (value[0].isalpha() or value[0] == "_"):
                    pos = start + 1  # report the character, rescan after it
                    diags.append(_unexpected(text, start, lines))
                    break
                append(("IDENT", value, start))
            elif kind == "punct":
                value = m[kind]
                append((value, value, m.end() - len(value)))
            elif kind == "string":
                start = m.start(kind)
                if not m["closed"]:
                    diags.append(_syntax_error("unterminated string literal", start, lines))
                body = m["body"]
                append(("STRING", re.sub(_ESCAPE, r"\1", body) if "\\" in body else body, start))
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
    return Diagnostic("E_SYNTAX", message, span=lines.span(offset))


class _Failed(Exception):
    """The statement being parsed failed; `_Parser.fail` has reported why."""


class _Parser:
    def __init__(self, tokens: list[_Token], lines: _Lines, diags: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.lines = lines
        self.diags = diags
        self.refs = _Refs()  # see `stage_ref`

    # -- token helpers ------------------------------------------------------
    # Only `advance` can meet EOF: no caller accepts or expects it.  Only
    # `dotted` takes a joined dotted name whole; a statement keyword and
    # `expect` first call `split`, so they see the tokens that `A . b`
    # would have given.  A miss goes through `fail`, which reports it and
    # raises `_Failed`; `parse_file` catches that, abandons the statement
    # and resyncs, so a failed statement reports only its first error.

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

    def expect(self, kind: str, what: str, code: str = "E_SYNTAX") -> _Token:
        tok = self.split()
        if tok[0] != kind:
            self.missing(what, code)
        self.pos += 1
        return tok

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

    def span(self, tok: _Token) -> SourceSpan:
        return self.lines.span(tok[2])

    def error(self, message: str, code: str = "E_SYNTAX", tok: _Token | None = None) -> None:
        tok = tok or self.tokens[self.pos]
        self.diags.append(Diagnostic(code, message, span=self.span(tok)))

    def fail(self, message: str, code: str = "E_SYNTAX", tok: _Token | None = None):
        """Report the statement's error and abandon the statement."""
        self.error(message, code, tok)
        raise _Failed

    def missing(self, what: str, code: str = "E_SYNTAX"):
        """`fail` at the token at `pos`, which is not the `what` expected."""
        kind, value, _ = self.tokens[self.pos]
        if kind == "EOF":
            found = "end of input"
        elif kind in ("IDENT", "STRING"):
            found = repr(value)
        else:
            found = repr(kind)
        self.fail(f"expected {what}, found {found}", code)

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
                if not in_model_block:
                    self.error("unmatched '}'")
                in_model_block = False
                self.advance()
                continue
            start = self.pos
            try:
                tok = self.split()
                if tok[0] != "IDENT":
                    self.missing("a statement")
                statement = _STATEMENTS.get(tok[1])
                if statement is None:
                    self.fail(f"unknown statement {tok[1]!r}")
                decl = statement(self)
            except _Failed:
                self.sync(start)
                continue
            decls.append(decl)
            in_model_block = in_model_block or isinstance(decl, ModelDecl)
        if in_model_block:
            self.error("missing '}' at end of model block", "E_UNTERMINATED_BLOCK")
        return decls

    def parse_model_header(self) -> ModelDecl:
        start = self.advance()
        name = self.expect("IDENT", "model name")[1]
        self.expect("{", "'{' after model name")
        return ModelDecl(name, self.span(start))

    def parse_thimac(self) -> ThimacDecl:
        start = self.advance()
        path = self.dotted("a name")
        stages: list[StageKind] = []
        if self.accept("{"):
            while not self.match("}") and not self.match("EOF"):
                stages.append(self._kind(self.expect("IDENT", "stage kind")))
            self.expect("}", "'}' closing stage list")
        return ThimacDecl(path, tuple(stages), self.span(start))

    def dotted(self, what: str) -> str:
        """Read `IDENT ('.' IDENT)*`, where an IDENT may itself be a joined
        dotted name, and return its names joined by dots; `what` names the
        expected first token."""
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok[0] != "IDENT":
            self.missing(what)
        self.pos += 1
        dotted = tok[1]
        while tokens[self.pos][0] == ".":
            self.pos += 1
            tok = tokens[self.pos]
            if tok[0] != "IDENT":
                self.missing("name after '.'")
            self.pos += 1
            dotted = f"{dotted}.{tok[1]}"
        return dotted

    def _kind(self, tok: _Token) -> StageKind:
        """The stage kind `tok` names."""
        kind = kind_from_name(tok[1])
        if kind is None:
            self.fail(
                f"{tok[1]!r} is not a stage kind "
                f"(expected one of {', '.join(k.value for k in KIND_ORDER)})",
                "E_UNKNOWN_KIND",
                tok,
            )
        return kind

    def stage_ref(self, dotted: str) -> StageRef:
        """`thimac.path.kind` from the dotted name `dotted` just read, so
        the last token read ends with the kind.  Equal references share one
        `StageRef` within a parse."""
        if dotted not in self.refs:  # check its kind, the first time only
            name = dotted.rpartition(".")[2]
            _, value, offset = self.tokens[self.pos - 1]
            self._kind(("IDENT", name, offset + len(value) - len(name)))
        return self.refs[dotted]

    def parse_stage_ref(self) -> StageRef:
        dotted = self.dotted("a stage reference")
        if "." not in dotted:
            self.fail(
                f"stage reference needs a thimac and a stage kind, got {dotted!r}",
                tok=self.tokens[self.pos - 1],
            )
        return self.stage_ref(dotted)

    def parse_flow(self) -> FlowDecl:
        start = self.advance()
        label = self.expect("IDENT", "thing label")[1]
        self.expect(":", "':' after thing label")
        chain = [self.parse_stage_ref()]
        while self.accept("->"):
            chain.append(self.parse_stage_ref())
        if len(chain) < 2:
            self.fail("flow chain needs at least two stage references", tok=start)
        return FlowDecl(label, tuple(chain), self.span(start))

    def parse_trigger(self) -> TriggerDecl:
        start = self.advance()
        source = self.parse_stage_ref()
        self.expect("~>", "'~>' between trigger endpoints")
        return TriggerDecl(source, self.parse_stage_ref(), self.span(start))

    def parse_event(self) -> EventDecl:
        start = self.advance()
        name = self.expect("IDENT", "event name")[1]
        tok = self.accept("STRING")
        description = tok[1] if tok else None
        time = None
        if self.accept("@"):
            time = self.expect("STRING", "time annotation string after '@'")[1]
        self.expect("{", "'{' opening the event region")
        members: list[StageRef | str] = []
        more = not self.match("}")  # `{ }` is an empty region
        while more:
            dotted = self.dotted("a region member")
            # A name without a dot is an arc id reference.
            members.append(self.stage_ref(dotted) if "." in dotted else dotted)
            more = self.accept(",") is not None
        self.expect("}", "'}' closing the event region", "E_UNTERMINATED_BLOCK")
        return EventDecl(name, tuple(members), description, time, self.span(start))

    def parse_behavior(self) -> BehaviorDecl:
        start = self.advance()
        chain = [self.expect("IDENT", "event name")[1]]
        while self.accept("->"):
            chain.append(self.expect("IDENT", "event name after '->'")[1])
        if len(chain) < 2:
            self.fail("behavior chain needs at least two event names", tok=start)
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


# ---------------------------------------------------------------------------
# The statement reader: one regex match per statement of a well-formed file
# ---------------------------------------------------------------------------

# Blanks and comments between statements.  A comment must run to the end of
# its line: were it allowed to stop early, a failed match would retry every
# way of cutting a `####` run into comments (exponential in its length), and
# could restart inside a comment at a keyword.  So the skip matches any text
# one way only, and backtracking out of it costs time linear in its length.
_SKIP = r"[ \t\r\n]*(?:#[^\n]*(?![^\n])[ \t\r\n]*)*"
_B = r"[ \t\r\n]*"  # blanks inside a statement
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_DOTTED = rf"{_NAME}(?:\.{_NAME})*"
_KIND = "|".join(k.value for k in KIND_ORDER)
# A joined stage reference is read as a dotted name of two or more names, and
# a region member (a reference or an arc id) as any dotted name, so a match
# never gives back a kind's characters to try the kinds.  `_Refs` checks the
# last name, once per distinct reference.
_REF = rf"{_NAME}(?:\.{_NAME})+"
_TEXT = r'[^"\\\n]*'  # a string's body, with no escape

# Inside a statement only blanks may separate its tokens, a name is ASCII,
# and a string has no backslash.  Each statement ends where `_Parser` ends
# it: the text after it must start the next statement (a keyword with a
# blank after it), close the model or end the file, so a `->`, `.` or `{`
# that `_Parser` would read on with makes the file decline.
_STATEMENT = re.compile(
    _SKIP
    + "(?:"
    + "|".join(
        f"(?P<{keyword}>{keyword}[ \\t\\r\\n]+{body})"
        for keyword, body in (
            ("event", rf"(?P<event_name>{_NAME}){_B}"
                      rf'(?:"(?P<description>{_TEXT})"{_B})?'
                      rf'(?:@{_B}"(?P<time>{_TEXT})"{_B})?'
                      rf"\{{{_B}(?:(?P<members>{_DOTTED}(?:{_B},{_B}{_DOTTED})*){_B})?\}}"),
            ("flow", rf"(?P<label>{_NAME}){_B}:{_B}(?P<chain>{_REF}(?:{_B}->{_B}{_REF})+)"),
            ("trigger", rf"(?P<source>{_REF}){_B}~>{_B}(?P<target>{_REF})"),
            ("thimac", rf"(?P<path>{_DOTTED})"
                       rf"(?:{_B}\{{{_B}(?P<kinds>(?:(?:{_KIND})\b{_B})*)\}})?"),
            ("behavior", rf"(?P<order>{_NAME}(?:{_B}->{_B}{_NAME})+)"),
            ("model", rf"(?P<model_name>{_NAME}){_B}\{{"),
        )
    )
    + ")"
)
# What may follow the last statement: the model's `}`, then nothing.
_END = re.compile(_SKIP + rf"(?:(\}}){_SKIP})?\Z")


class _Refs(dict):
    """Stage refs by dotted name, made on first use, so equal references
    share one `StageRef` within a read.  A name whose last part is not a
    stage kind raises KeyError."""

    def __missing__(self, dotted: str) -> StageRef:
        path, _, kind = dotted.rpartition(".")
        ref = self[dotted] = StageRef(path, _KIND_BY_NAME[kind])
        return ref


def _read_statements(text: str) -> list[Declaration] | None:
    """The declarations `_Parser` reads from `text`, spans included, if
    every statement of it is in the reader's grammar; None otherwise.

    The grammar is a subset of the valid files: an optional leading
    `model NAME {` closed by a `}` that ends the file, and statements whose
    names are ASCII, whose stage references are joined (`A.b.create`) and
    end in a stage kind, and whose strings hold no backslash, with blanks
    and comments between statements and only blanks inside one."""
    decls: list[Declaration] = []
    append = decls.append
    refs = _Refs()
    in_model_block = False
    pos = 0
    # The line of offset `counted`, and the offset its line starts at: each
    # statement's span counts only the line breaks since the last one.
    line, line_start, counted = 1, 0, 0
    count, rfind = text.count, text.rfind
    match = _STATEMENT.match
    try:
        while (m := match(text, pos)) is not None:
            pos = m.end()
            keyword = m.lastgroup
            start = m.start(keyword)
            breaks = count("\n", counted, start)
            if breaks:
                line += breaks
                line_start = rfind("\n", counted, start) + 1
            counted = start
            span = SourceSpan(line, start - line_start + 1)
            if keyword == "event":
                # A name without a dot is an arc id reference.
                members = (m["members"] or "").replace(",", " ").split()
                region = tuple([refs[x] if "." in x else x for x in members])
                append(EventDecl(m["event_name"], region, m["description"], m["time"], span))
            elif keyword == "flow":
                chain = m["chain"].replace("->", " ").split()
                append(FlowDecl(m["label"], tuple([refs[x] for x in chain]), span))
            elif keyword == "trigger":
                append(TriggerDecl(refs[m["source"]], refs[m["target"]], span))
            elif keyword == "thimac":
                stages = tuple(map(kind_from_name, (m["kinds"] or "").split()))
                append(ThimacDecl(m["path"], stages, span))
            elif keyword == "behavior":
                append(BehaviorDecl(tuple(m["order"].replace("->", " ").split()), span))
            elif decls:  # a `model` after the first statement
                return None
            else:
                append(ModelDecl(m["model_name"], span))
                in_model_block = True
    except KeyError:  # a reference whose last name is not a stage kind
        return None
    end = _END.match(text, pos)
    if end is None or (end[1] is not None) != in_model_block:
        return None
    return decls


def parse(text: str) -> list[Declaration]:
    """Parse `.tm` source into declarations, in source order.

    A well-formed file is read one statement at a time by
    `_read_statements`; any other goes to the token parser.  On malformed
    input, recovery continues at the next statement so a single call
    reports every statement-level error; the collected diagnostics are
    raised as a ParseError.
    """
    decls = _read_statements(text)
    if decls is not None:
        return decls
    lines = _Lines(text)
    diags: list[Diagnostic] = []
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
            kinds = " ".join(_KIND_NAME[k] for k in KIND_ORDER if k in thimac.stages)
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
            for ref in sorted(event.region, key=lambda r: (r.thimac, _KIND_NAME[r.kind]))
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
