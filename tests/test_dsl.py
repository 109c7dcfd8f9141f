"""Parser and formatter behavior, including error recovery."""

import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmkit import (
    AssemblyError,
    ParseError,
    StageKind,
    assemble_model,
    format_model,
    parse,
)
from tmkit.behavior import check_all_events
from tmkit.corpus import ALL_NAMES, fixture_source
from tmkit.dsl import _Lines, _Parser, _read_statements, _tokenize
from tmkit.model import (
    KIND_ORDER,
    BehaviorDecl,
    EventDecl,
    FlowDecl,
    ModelDecl,
    StageRef,
    ThimacDecl,
    TriggerDecl,
)

from helpers import (
    load_model,
    mutated_corpus_text,
    reference_parse,
    reference_tokenize,
)


def test_empty_input_parses_to_nothing():
    assert parse("") == []


def test_comments_and_whitespace_only():
    assert parse("# just a comment\n\n   \t\n# another\n") == []


def test_flow_chain_five_elements():
    decls = parse(
        "flow Beans: Source.release -> Source.transfer -> Mill.transfer "
        "-> Mill.receive -> Mill.process"
    )
    assert len(decls) == 1
    decl = decls[0]
    assert isinstance(decl, FlowDecl)
    assert decl.label == "Beans"
    assert len(decl.chain) == 5
    assert decl.chain[0] == StageRef("Source", StageKind.RELEASE)
    assert decl.chain[4] == StageRef("Mill", StageKind.PROCESS)


def test_store_is_not_a_stage_kind():
    with pytest.raises(ParseError) as exc_info:
        parse("flow Goods: Rome.transfer -> Rome.receive -> Rome.store")
    diags = exc_info.value.diagnostics
    assert len(diags) == 1
    assert diags[0].code == "E_UNKNOWN_KIND"
    assert "store" in diags[0].message
    assert diags[0].span.line == 1


def test_unknown_kind_position_is_reported():
    with pytest.raises(ParseError) as exc_info:
        parse("thimac A\nflow X: A.creat -> A.release")
    (diag,) = exc_info.value.diagnostics
    assert diag.span.line == 2


def test_model_wrapper_and_all_statement_kinds():
    decls = parse(
        """
        model sample {
          thimac Mill { receive process }
          thimac Mill.Motor
          flow Beans: Mill.receive -> Mill.process
          trigger Mill.process ~> Powder.create
          event E1 "beans in" @ "t0" { Mill.receive, Mill.process }
          behavior E1 -> E2
        }
        """
    )
    kinds = [type(d) for d in decls]
    assert kinds == [
        ModelDecl,
        ThimacDecl,
        ThimacDecl,
        FlowDecl,
        TriggerDecl,
        EventDecl,
        BehaviorDecl,
    ]
    assert decls[0].name == "sample"
    assert decls[1].stages == (StageKind.RECEIVE, StageKind.PROCESS)
    event = decls[5]
    assert event.description == "beans in"
    assert event.time == "t0"
    assert len(event.members) == 2


def test_event_member_may_name_an_arc():
    decls = parse("event E1 { F1, Mill.process }")
    (decl,) = decls
    assert decl.members[0] == "F1"
    assert decl.members[1] == StageRef("Mill", StageKind.PROCESS)


def test_error_recovery_reports_every_bad_statement():
    text = """
    flow X: A.create
    trigger B.process ~>
    flow Y: A.create -> A.release
    event E {
    """
    with pytest.raises(ParseError) as exc_info:
        parse(text)
    diags = exc_info.value.diagnostics
    assert len(diags) >= 3
    lines = {d.span.line for d in diags if d.span}
    assert len(lines) >= 3  # three independent statements, three sites


def test_recovery_still_returns_good_declarations_in_message():
    # After k independent statement errors, all k are in one ParseError.
    text = "flow A: X.store -> Y.create\nflow B: X.create -> Y.store"
    with pytest.raises(ParseError) as exc_info:
        parse(text)
    assert len(exc_info.value.diagnostics) == 2


def test_recovery_resumes_after_the_failed_statements_own_brace():
    # The `}` closing the bad stage list belongs to the thimac, not to the
    # model block, so `thimac B` is still inside the block.
    text = "model m {\n  thimac A { create stor }\n  thimac B\n}\n"
    with pytest.raises(ParseError) as exc_info:
        parse(text)
    assert [(d.code, d.span.line) for d in exc_info.value.diagnostics] == [
        ("E_UNKNOWN_KIND", 2)
    ]


def test_recovery_skips_keywords_used_as_names_in_the_failed_statement():
    # `event` here names a thimac in the middle of the line, so it does not
    # start a new statement.
    with pytest.raises(ParseError) as exc_info:
        parse("flow X: A.stor -> event.create")
    assert [d.code for d in exc_info.value.diagnostics] == ["E_UNKNOWN_KIND"]


def test_string_escapes_round_trip():
    decls = parse(r'event E "say \"hi\" \\ done" { A.create, A.process }')
    assert decls[0].description == 'say "hi" \\ done'
    model = assemble_model(
        [
            FlowDecl("T", (StageRef("A", StageKind.CREATE), StageRef("A", StageKind.PROCESS))),
            decls[0],
        ]
    )
    again = assemble_model(parse(format_model(model)))
    assert again.events["E"].description == 'say "hi" \\ done'


def test_time_annotation_round_trips():
    model = assemble_model(
        parse(
            "flow X: A.create -> A.process\n"
            'event E1 "first" @ "t = 0" { A.create }\n'
            'event E2 @ "t = 1" { A.process }\n'
        )
    )
    assert model.events["E1"].time == "t = 0"
    assert model.events["E2"].description is None
    again = assemble_model(parse(format_model(model)))
    assert again.events["E1"].time == "t = 0"
    assert again.events["E2"].time == "t = 1"


def test_unterminated_string():
    with pytest.raises(ParseError) as exc_info:
        parse('event E "oops { A.create }')
    assert any(d.code == "E_SYNTAX" for d in exc_info.value.diagnostics)


def test_empty_region_parses_and_is_reported_by_check():
    (decl,) = parse("event E { }")
    assert decl.members == ()
    model = assemble_model(parse("flow X: A.create -> A.process\nevent E {  }"))
    assert [d.code for d in check_all_events(model)] == ["E_EMPTY_REGION"]
    with pytest.raises(ParseError, match="expected a region member"):
        parse("event E { A.create, }")


def test_line_break_in_description_or_time_is_an_assembly_error():
    region = (StageRef("A", StageKind.CREATE),)
    for decl in (
        EventDecl("E", region, description="two\nlines"),
        EventDecl("E", region, time="t\n0"),
    ):
        with pytest.raises(AssemblyError, match="line break"):
            assemble_model([decl])


def test_unterminated_model_block():
    with pytest.raises(ParseError) as exc_info:
        parse("model m {\nthimac A\n")
    assert any(
        d.code == "E_UNTERMINATED_BLOCK" for d in exc_info.value.diagnostics
    )


def test_format_empty_model():
    assert format_model(assemble_model([])) == "model untitled { }\n"


def test_format_round_trips_coffee_mill():
    model = load_model("coffee-mill")
    text = format_model(model)
    again = assemble_model(parse(text))
    assert [(f.label, f.source, f.target) for f in again.flows] == [
        (f.label, f.source, f.target) for f in model.flows
    ]
    assert again.behavior == model.behavior


def test_format_idempotent_on_pump():
    model = load_model("pump")
    once = format_model(model)
    twice = format_model(assemble_model(parse(once)))
    assert once == twice


@pytest.mark.parametrize(
    "name",
    [
        "automobile",
        "coffee-mill",
        "pump",
        "window",
        "boiling",
        "distillation",
        "pay-service",
        "add-service",
        "producer-consumer",
        "submit-order",
        "hammer-nails",
        "add-service-alt",
    ],
)
def test_format_idempotent_on_all_fixtures(name):
    model = load_model(name)
    once = format_model(model)
    twice = format_model(assemble_model(parse(once)))
    assert once == twice


# ---------------------------------------------------------------------------
# Properties: the lexer and the parser against their references, and the
# formatter's round trip over generated declaration lists
# ---------------------------------------------------------------------------

# DSL punctuation, quotes, escapes, comments, blanks, ASCII words and digits,
# and characters whose class differs between `str.isalpha` and `\w`.
_LEX_ALPHABET = '{}:,@.->~"\\# \t\r\naxZ_09é١²½Ⅻ'


def _lexed(text):
    """`_tokenize`'s tokens with each offset as a line and a column, and
    each joined dotted name (`A.b`) as its `IDENT '.' IDENT` tokens."""
    diags, lines = [], _Lines(text)
    expanded = []
    for kind, value, offset in _tokenize(text, lines, diags):
        if kind == "IDENT":
            for i, name in enumerate(value.split(".")):
                if i:
                    expanded.append((".", ".", offset))
                    offset += 1
                expanded.append(("IDENT", name, offset))
                offset += len(name)
        else:
            expanded.append((kind, value, offset))
    spans = [lines.span(offset) for _, _, offset in expanded]
    return [(kind, value, s.line, s.col) for (kind, value, _), s in zip(expanded, spans)], diags


def _reference_lexed(text):
    diags = []
    tokens = reference_tokenize(text, diags)
    return [(t.kind, t.value, t.line, t.col) for t in tokens], diags


# A dotted name whose later name starts with a non-ASCII letter.
_NON_ASCII_AFTER_DOT = "flow X: A.Ämter.create -> A.b.process"

# Inputs where the parser cuts a joined dotted name back into its tokens: a
# keyword, a label, a kind or a failed `expect` meets one, or recovery skips
# one or stops at one; and a name, a dot and '²', which the lexer leaves
# unjoined and reports.
_SPLIT_PATHS = [
    "flow.x: A.b.create -> B.c.process",
    "thimac A { create.x }",
    "flow L.x: A.b.create -> A.b.process",
    "trigger A.b.create ~> B.\nflow L: A.b.create -> A.b.process",
    "event E { A.x.create, , B.\nflow L: A.b.create -> A.b.process",
    "thimac x.² { create }",
    "flow X: A.stor -> B.create\nflow.y: A.b.create -> A.b.process",
]


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(st.text(alphabet=_LEX_ALPHABET, max_size=60))
@example(_SPLIT_PATHS[0])
@example(_SPLIT_PATHS[1])
@example(_SPLIT_PATHS[2])
@example(_SPLIT_PATHS[3])
@example(_SPLIT_PATHS[4])
@example(_SPLIT_PATHS[5])
@example(_SPLIT_PATHS[6])
@example(_NON_ASCII_AFTER_DOT)
def test_tokenize_matches_reference_on_text(text):
    assert _lexed(text) == _reference_lexed(text)


def test_a_dot_joins_a_name_only_where_it_starts_with_an_ascii_letter():
    text = "A.b.Ämter.c_d._e"
    assert _tokenize(text, _Lines(text), []) == [
        ("IDENT", "A.b", 0), (".", ".", 3), ("IDENT", "Ämter.c_d._e", 4), ("EOF", "", 16),
    ]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mutated_corpus_text(list(_LEX_ALPHABET) + ["->", "~>", '\\"', "event"]))
def test_tokenize_matches_reference_on_corpus_text(text):
    assert _lexed(text) == _reference_lexed(text)


def _chain_text(n):
    """A request/response chain of `n` events between two thimacs, with
    comments, strings and blank lines between statements."""
    lines = ["# relay", "model relay {", "  thimac A { create release transfer receive }"]
    for i in range(n):
        a, b = ("A", "B") if i % 2 == 0 else ("B", "A")
        stages = [f"{a}.M{i}.create", f"{a}.M{i}.release", f"{a}.M{i}.transfer",
                  f"{b}.M{i}.transfer", f"{b}.M{i}.receive"]
        lines.append(f"  flow M{i}: " + " -> ".join(stages))
        lines.append(f'  event E{i} "{a} sends M{i}" @ "t{i}" {{ {", ".join(stages)} }}')
        if i:
            lines.append(f"  trigger {b}.M{i - 1}.receive ~> {a}.M{i}.create  # reply")
        lines.append("")
    lines.append("  behavior " + " -> ".join(f"E{i}" for i in range(n)))
    return "\n".join(lines) + "\n}\n"


_PARSE_PIECES = list(_LEX_ALPHABET) + [
    "->", "~>", '\\"', "\n", "model", "thimac", "flow", "trigger", "event", "behavior",
    "create", "receive", "A.x.create", "F1",
]


# One text per way the statement reader declines a file; all but the last
# seven are valid, so the token parser reads them.  The last five name a
# reference whose last name is not a stage kind.
_DECLINED = [
    "flow X: A.b.create -> # the target is next\n  B.c.create",  # a comment inside a chain
    "flow X: A.b.create # c\n-> B.c.create",  # `->` after a comment
    "flow X: A . b.create -> B.c.create",  # a dotted name with blanks
    "thimac Mühle { create }",  # a non-ASCII name
    'event E "say \\"hi\\"" { A.b.create }',  # an escaped string
    "model M {\n  thimac A\n}\nthimac B",  # a statement after the model's `}`
    "model M {\n  model N {\n}",  # a second `model`
    "thimac A # stages:\n{ create }",  # `{` after a comment
    "flow.x: A.b.create -> B.c.create",  # a keyword with no blank after it
    "trigger A.b.create ~> B.c.createflow X: A.b.create -> B.c.create",  # no blank after a kind
    "flow X: A.b.create -> A.b.stor",  # at the end of a flow
    "trigger A.b.create ~> A.b.createx",  # at the end of a trigger
    "event E { A.b.create, A.b.create_1 }",  # region members
    "event E { A.b.createé }",
    "trigger A.create.b ~> A.b.create",  # a kind before the last name
]


def _parse_outcome(parse_fn, text):
    """The declarations, or the diagnostics and message of the ParseError."""
    try:
        return parse_fn(text)
    except ParseError as exc:
        return exc.diagnostics, str(exc)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(
    st.one_of(
        mutated_corpus_text(_PARSE_PIECES),
        mutated_corpus_text(_PARSE_PIECES, text=_chain_text(12)),
        st.lists(st.sampled_from(_PARSE_PIECES), max_size=40).map("".join),
    )
)
@example(_chain_text(300))
@example('event E "say \\"hi\\" \\\\ bye" @ "t\\\\" { A.x.create, F1 }')
@example("flow X: A.b.create -> # the target is missing")
@example("thimac x² { create }\nflow ½: x².create -> Ⅻ.release")
@example("thimac A { create")
@example("flow X: A.create")
@example("event E @ x { A.create }")
@example("behavior E1 -> ->")
@example("thimac A\n{ create }")  # the statement reader takes a stage list on the next line
@example(_DECLINED[0])
@example(_DECLINED[1])
@example(_DECLINED[2])
@example(_DECLINED[3])
@example(_DECLINED[4])
@example(_DECLINED[5])
@example(_DECLINED[6])
@example(_DECLINED[7])
@example(_DECLINED[8])
@example(_DECLINED[9])
@example(_DECLINED[10])
@example(_DECLINED[11])
@example(_DECLINED[12])
@example(_DECLINED[13])
@example(_DECLINED[14])
@example(_NON_ASCII_AFTER_DOT)
@example("thimac A\n# flow X: A.b.create -> A.c.create")  # a statement inside a comment
def test_parse_matches_reference(text):
    # Declarations compare with their spans, diagnostics with theirs.
    assert _parse_outcome(parse, text) == _parse_outcome(reference_parse, text)


@pytest.mark.parametrize("text", _SPLIT_PATHS)
def test_split_dotted_names_parse_like_the_reference(text):
    assert _parse_outcome(parse, text) == _parse_outcome(reference_parse, text)


def _token_parsed(text):
    """The token parser's declarations for the valid `text`."""
    diags, lines = [], _Lines(text)
    decls = _Parser(_tokenize(text, lines, diags), lines, diags).parse_file()
    assert not diags
    return decls


def _read(text):
    return _read_statements(text)


def _dialogue_text(n, seed=0):
    """A request/response chain of `n` events written the way the
    benchmark's generator writes one: two role thimacs, then each event's
    flow, event (region shuffled) and trigger in shuffled order, then the
    behavior chain."""
    rng = random.Random(seed)
    roles = ("ClientA", "ServerB")
    body, names = [], []
    for i in range(n):
        src, dst = roles[i % 2], roles[1 - i % 2]
        label, name = f"Msg{i}", f"Ev{i}"
        refs = [f"{src}.{label}.create", f"{src}.{label}.release", f"{src}.{label}.transfer",
                f"{dst}.{label}.transfer", f"{dst}.{label}.receive", f"{dst}.{label}.process"]
        body.append(f"flow {label}: " + " -> ".join(refs))
        region = rng.sample(refs, len(refs))
        body.append(f'event {name} "{src} hands {label} to {dst}" @ "t{i}" {{ {", ".join(region)} }}')
        if i:
            body.append(f"trigger {src}.Msg{i - 1}.process ~> {src}.{label}.create")
        names.append(name)
    rng.shuffle(body)
    lines = [f"thimac {role}" for role in roles] + body + ["behavior " + " -> ".join(names)]
    return "model dialogue {\n" + "".join(f"  {line}\n" for line in lines) + "}\n"


_READER_TEXTS = {name: fixture_source(name) for name in ALL_NAMES}
_READER_TEXTS["chain"] = _chain_text(300)
_READER_TEXTS["dialogue"] = _dialogue_text(60)
# Line and column counting: CRLF line ends, comment-only lines, runs of
# blank lines, a first statement below line 1 and statements over lines.
_READER_TEXTS["crlf"] = _dialogue_text(12, seed=1).replace("\n", "\r\n")
_READER_TEXTS["spaced"] = (
    "\n\n# a model written by hand\n#\n\n\n   model spaced {\n\n\n"
    "  # the roles\n  thimac A\n\n\n\n  thimac B { create\n process }\n"
    "\t# a step\n\n  flow X: A.b.create ->\n\n    A.b.release -> A.b.transfer\n"
    "  event E1 \"first\"\n  @ \"t1\" {\n    A.b.create,\n\n    F1 }  # trailing\n"
    "\n#\n##\n  flow Y: A.b.transfer -> B.b.transfer\n"
    "  event E2 { B.b.transfer,\r\n A.b.transfer } event E3 { F2 }\n"
    "  trigger B.b.transfer ~> B.create  behavior E1 -> E2\n\n\n}\n\n# done\n"
)
_READER_TEXTS["crlf-spaced"] = _READER_TEXTS["spaced"].replace("\n", "\r\n")


@pytest.mark.parametrize("name", sorted(_READER_TEXTS))
def test_statement_reader_takes_well_formed_files(name):
    text = _READER_TEXTS[name]
    decls = _read(text)
    assert decls is not None
    assert decls == _token_parsed(text)  # spans included


def test_statement_reader_shares_one_stage_ref_per_name():
    refs = {}
    for decl in _read(_chain_text(20)):
        for ref in (*getattr(decl, "chain", ()), *getattr(decl, "members", ())):
            if isinstance(ref, StageRef):
                assert refs.setdefault(str(ref), ref) is ref
    assert len(refs) == 20 * 5


@pytest.mark.parametrize("text", _DECLINED)
def test_statement_reader_declines_outside_its_grammar(text):
    assert _read(text) is None


# After each statement: 10,000 blanks, 500 comments made of '#' runs, and a
# token that continues the statement or that no statement can start with.
_FAR_TAILS = " " * 10_000 + ("# " + "#" * 30 + "\n") * 500
# A stage reference of 10,000 dotted names.
_LONG_REF = ".".join(["n"] * 10_000)


@pytest.mark.parametrize(
    "statement, tail",
    [
        ("flow X: A.b.create -> A.b.release", "-> A.c.create"),
        ("flow X: A.b.create -> A.b.release", "?"),
        ("trigger A.b.create ~> A.b.release", ". x"),
        ("trigger A.b.create ~> A.b.release", "?"),
        ("thimac A", "{ create }"),
        ("thimac A", "?"),
        (f"flow X: A.b.create -> {_LONG_REF}.release", "?"),
        (f"flow X: A.b.create -> {_LONG_REF}.stor", "?"),
    ],
)
def test_parse_time_is_linear_in_blanks_and_comments(statement, tail):
    text = statement + _FAR_TAILS + tail
    start = time.perf_counter()
    outcome = _parse_outcome(parse, text)
    assert time.perf_counter() - start < 0.2
    assert outcome == _parse_outcome(reference_parse, text)


def test_dotted_names_with_or_without_blanks_are_one_reference():
    joined, spaced = parse(
        "flow X: A.b.create -> A . b . release\nflow Y: A.b . release -> A .b.create"
    )
    assert joined.chain == spaced.chain[::-1] == (
        StageRef("A.b", StageKind.CREATE),
        StageRef("A.b", StageKind.RELEASE),
    )
    assert joined.chain[0] is spaced.chain[1]  # one interned StageRef


def test_unknown_kind_points_at_the_kind_in_a_joined_name():
    with pytest.raises(ParseError) as exc_info:
        parse("flow X: A.b.create -> A.b.stor")
    (diag,) = exc_info.value.diagnostics
    assert (diag.code, diag.span.line, diag.span.col) == ("E_UNKNOWN_KIND", 1, 27)


_NAMES = ["A", "b_2", "Mill", "é", "_x", "create", "model", "thimac", "flow",
          "trigger", "event", "behavior"]
# Descriptions and times: quotes, backslashes, '#', '\r' and non-ASCII, no '\n'.
_TEXT = st.none() | st.text(alphabet='ab #"\\\r\té→{}', max_size=8)


@st.composite
def _declarations(draw):
    """Declaration lists that assemble: explicit thimacs (parents first),
    flow chains legal or not, triggers, events whose regions mix stage refs
    and arc ids (or are empty), and behavior chains."""
    name = st.sampled_from(_NAMES)
    roots = draw(st.lists(name, unique=True, max_size=3))
    paths = roots + [f"{r}.{c}" for r in roots for c in draw(st.lists(name, max_size=1))]
    decls = [ModelDecl(draw(name))] if draw(st.booleans()) else []
    kinds = st.lists(st.sampled_from(KIND_ORDER), unique=True)
    decls += [ThimacDecl(path, tuple(draw(kinds))) for path in paths]
    ref = st.builds(
        StageRef, st.sampled_from(paths + ["Z", "Z.y"]), st.sampled_from(KIND_ORDER)
    )

    flow_arcs: set = set()
    flow = st.tuples(name, st.lists(ref, min_size=2, max_size=4))
    for label, chain in draw(st.lists(flow, max_size=4)):
        arcs = [(label, a, b) for a, b in zip(chain, chain[1:])]
        if len(set(arcs)) == len(arcs) and flow_arcs.isdisjoint(arcs):
            flow_arcs.update(arcs)
            decls.append(FlowDecl(label, tuple(chain)))
    trigger = st.tuples(ref, ref).filter(lambda t: t[0] != t[1])
    triggers = draw(st.lists(trigger, unique=True, max_size=3))
    decls += [TriggerDecl(src, dst) for src, dst in triggers]

    arc_ids = [f"F{i + 1}" for i in range(len(flow_arcs))]
    arc_ids += [f"T{i + 1}" for i in range(len(triggers))]
    member = st.one_of(ref, st.sampled_from(arc_ids)) if arc_ids else ref
    events = draw(st.lists(name, unique=True, min_size=1, max_size=4))
    decls += [
        EventDecl(
            event, tuple(draw(st.lists(member, max_size=3))), draw(_TEXT), draw(_TEXT)
        )
        for event in events
    ]
    behavior = st.lists(st.sampled_from(events), min_size=2, max_size=4)
    for chain in draw(st.lists(behavior, max_size=3)):
        if all(a != b for a, b in zip(chain, chain[1:])):
            decls.append(BehaviorDecl(tuple(chain)))
    return decls


def _structure(model):
    return (
        {path: thimac.stages for path, thimac in model.thimacs.items()},
        Counter((arc.label, arc.source, arc.target) for arc in model.flows),
        Counter((arc.source, arc.target) for arc in model.triggers),
        {e.name: (set(e.region), e.description, e.time) for e in model.events.values()},
        set(model.behavior.edges),
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_declarations())
def test_format_round_trips_generated_models(decls):
    model = assemble_model(decls)
    text = format_model(model)
    again = assemble_model(parse(text))
    assert format_model(again) == text
    assert _structure(again) == _structure(model)
    # The statement reader declines the text or reads what the token parser reads.
    read = _read(text)
    assert read is None or read == _token_parsed(text)
