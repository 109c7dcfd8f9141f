"""DOT emission: well-formedness and determinism."""

import pytest

from tmkit import RenderOptions, assemble_model, simplify, to_dot

from helpers import check_dot_syntax, load_model

ALL_FIXTURES = (
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
)


def test_empty_model_renders():
    dot = to_dot(assemble_model([]), RenderOptions(view="static"))
    assert dot.startswith("// generated by tmkit")
    assert 'digraph "untitled" {' in dot
    assert check_dot_syntax(dot)


def test_automobile_static_view():
    model = load_model("automobile")
    dot = to_dot(model, RenderOptions(view="static"))
    assert check_dot_syntax(dot)
    assert 'subgraph "cluster_Automobile"' in dot
    assert 'subgraph "cluster_Place1"' in dot
    # flows are solid (no style), triggers dashed
    assert '"Place2.receive" -> "Place2.process" [style=dashed];' in dot
    assert dot.count("style=dashed") == len(model.triggers)
    assert '[label="Cargo"]' in dot


def test_automobile_behavior_view():
    model = load_model("automobile")
    dot = to_dot(model, RenderOptions(view="behavior"))
    assert check_dot_syntax(dot)
    for name in ("E1", "E2", "E3"):
        assert f'"{name}"' in dot
    assert '"E1" -> "E2";' in dot
    assert '"E2" -> "E3";' in dot
    assert dot.count("->") == 2


def test_simplified_view_styles_env_nodes():
    model = load_model("pump")
    dot = to_dot(simplify(model), RenderOptions(view="simplified"))
    assert check_dot_syntax(dot)
    assert '"env:Pump.transfer" [label="env create", style=dashed];' in dot


def test_nested_clusters_for_subthimacs():
    model = load_model("coffee-mill")
    dot = to_dot(model, RenderOptions(view="static"))
    assert check_dot_syntax(dot)
    assert '"cluster_Mill.Motor"' in dot


def test_thing_labels_can_be_hidden():
    model = load_model("pump")
    dot = to_dot(model, RenderOptions(view="static", show_thing_labels=False))
    assert check_dot_syntax(dot)
    assert '[label="Water"]' not in dot


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_all_views_well_formed_and_deterministic(name):
    model = load_model(name)
    for view in ("static", "behavior", "simplified"):
        obj = simplify(model) if view == "simplified" else model
        opts = RenderOptions(view=view)
        first = to_dot(obj, opts)
        second = to_dot(obj, opts)
        assert first == second, (name, view)
        assert check_dot_syntax(first), (name, view)


def test_view_type_mismatch_raises():
    model = load_model("pump")
    with pytest.raises(TypeError):
        to_dot(simplify(model), RenderOptions(view="static"))
    with pytest.raises(ValueError):
        to_dot(model, RenderOptions(view="sideways"))
