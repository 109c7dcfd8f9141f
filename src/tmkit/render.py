"""Deterministic DOT export of static models, behavior graphs, and
simplified graphs.

Flow arcs render solid and triggers dashed, matching the diagram
convention the models come from.  Output is byte-identical across runs
for identical input: thimacs and stages are emitted in path-sorted
order, arcs in model order.
"""

from __future__ import annotations

from .dsl import _quote
from .model import BehaviorGraph, TMModel, _KIND_NAME
from .records import Record

_HEADER = "// generated by tmkit; do not edit\n"


class RenderOptions(Record):
    view: str = "static"  # static | behavior | simplified
    show_thing_labels: bool = True


def to_dot(
    obj: TMModel | BehaviorGraph | SimplifiedGraph,
    opts: RenderOptions | None = None,
) -> str:
    opts = opts or RenderOptions()
    if opts.view == "static":
        if not isinstance(obj, TMModel):
            raise TypeError("static view renders a TMModel")
        return _static_dot(obj, opts)
    if opts.view == "behavior":
        if isinstance(obj, TMModel):
            obj = obj.behavior
        if not isinstance(obj, BehaviorGraph):
            raise TypeError("behavior view renders a BehaviorGraph")
        return _behavior_dot(obj)
    if opts.view == "simplified":
        return _simplified_dot(obj, opts)
    raise ValueError(f"unknown view {opts.view!r}")


def _static_dot(model: TMModel, opts: RenderOptions) -> str:
    name = model.name or "untitled"
    lines = [_HEADER + f"digraph {_quote(name)} {{"]
    lines.append("  node [shape=box, fontsize=10];")

    def stage_lines(path: str, indent: str) -> list[str]:
        # A stage prints as its `StageRef` does, `path.kind`.
        stages = model.thimacs[path].stages
        return [
            f"{indent}{_quote(f'{path}.{name}')} [label={_quote(name)}];"
            for kind, name in _KIND_NAME.items()
            if kind in stages
        ]

    # An explicit stack of clusters to open and closing lines to emit:
    # thimac paths nest arbitrarily deep.
    stack: list[tuple[str, int] | str] = [
        (top, 0) for top in reversed(model.thimacs[""].children)
    ]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        path, depth = item
        indent = "  " * (depth + 1)
        thimac = model.thimacs[path]
        lines.append(f"{indent}subgraph {_quote('cluster_' + path)} {{")
        lines.append(f"{indent}  label={_quote(thimac.name)};")
        lines.extend(stage_lines(path, indent + "  "))
        stack.append(f"{indent}}}")
        stack.extend((child, depth + 1) for child in reversed(thimac.children))

    for arc in model.flows:
        attrs = []
        if opts.show_thing_labels:
            attrs.append(f"label={_quote(arc.label)}")
        attr_text = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(
            f"  {_quote(str(arc.source))} -> {_quote(str(arc.target))}{attr_text};"
        )
    for trig in model.triggers:
        lines.append(
            f"  {_quote(str(trig.source))} -> {_quote(str(trig.target))} "
            "[style=dashed];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _behavior_dot(behavior: BehaviorGraph) -> str:
    lines = [_HEADER + "digraph behavior {"]
    lines.append("  node [shape=ellipse, fontsize=10];")
    for node in sorted(behavior.nodes):
        lines.append(f"  {_quote(node)};")
    for a, b in behavior.edges:
        lines.append(f"  {_quote(a)} -> {_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _simplified_dot(g: SimplifiedGraph, opts: RenderOptions) -> str:
    # Imported here: the static and behavior views need no matching.
    from .match import FLOW, SimplifiedGraph

    if not isinstance(g, SimplifiedGraph):
        raise TypeError("simplified view renders a SimplifiedGraph")
    lines = [_HEADER + "digraph simplified {"]
    lines.append("  node [shape=box, fontsize=10];")
    for node in g.nodes:
        attrs = [f"label={_quote(f'{node.role} {node.kind.value}')}"]
        if node.is_env:
            attrs.append("style=dashed")
        lines.append(f"  {_quote(node.id)} [{', '.join(attrs)}];")
    for edge in g.edges:
        attrs = []
        if edge.kind != FLOW:
            attrs.append("style=dashed")
        if opts.show_thing_labels and edge.thing:
            attrs.append(f"label={_quote(edge.thing)}")
        attr_text = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quote(edge.src)} -> {_quote(edge.dst)}{attr_text};")
    lines.append("}")
    return "\n".join(lines) + "\n"
