"""The value records behave like the frozen dataclasses they replace.

Each record type is checked against a frozen dataclass twin with the same
name, fields and values: the same repr and hash, equal to a copy of itself
but not to the twin, no assignment or deletion, and ``replace`` validates a
change exactly as direct construction does.  A golden cell parses its
reference and works out its relative error once, into slots that none of
that sees, and grades by the formula of the ``golden`` docstring.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vla_roofline import golden
from vla_roofline.golden import INFO, LABEL, VALUE, GoldenCell
from vla_roofline.opgraph import Operator, pipeline_graph
from vla_roofline.record import Record, replace, set_field
from vla_roofline.scenarios import Placement, sync_scenario

RECORDS = [
    pytest.param(lambda lib: lib.component("gemma-2b"), "precision_bytes", 3,
                 id="TransformerConfig"),
    pytest.param(lambda lib: lib.model("pi0"), "chunk_size", 0,
                 id="VlaModelSpec"),
    pytest.param(lambda lib: Operator("q_proj", 10, 20, "vlm"), "flops", -1,
                 id="Operator"),
    pytest.param(lambda lib: pipeline_graph(lib.model("pi0")), "ops",
                 ((Operator("q_proj", 10, 20, "vlm"), -1),),
                 id="OperatorGraph"),
    pytest.param(lambda lib: lib.accelerator("thor"), "mem_bandwidth", 0.0,
                 id="AcceleratorConfig"),
    pytest.param(lambda lib: lib.network("wifi7"), "base_latency", -1.0,
                 id="NetworkConfig"),
    pytest.param(lambda lib: Placement.edge_server(lib.accelerator("b100"),
                                                   lib.network("wifi7")),
                 "access_net", None, id="Placement"),
    pytest.param(lambda lib: sync_scenario(
                     lib.model("pi0"),
                     Placement.on_device(lib.accelerator("b100"))),
                 None, None, id="ScenarioResult"),
    pytest.param(lambda lib: lib, None, None, id="PresetLibrary"),
    pytest.param(lambda lib: GoldenCell("1 cam", "ms", modeled=1.02,
                                        reference="1.0", rel_tol=0.05),
                 None, None, id="GoldenCell"),
]


@pytest.mark.parametrize("make, field, invalid", RECORDS)
def test_record_behaves_like_a_frozen_dataclass(lib, make, field, invalid):
    record = make(lib)
    cls = type(record)
    names = list(inspect.signature(cls).parameters)
    values = {name: getattr(record, name) for name in names}
    twin = dataclasses.make_dataclass(cls.__qualname__, names,
                                      frozen=True)(**values)

    assert repr(record) == repr(twin)
    for same in (replace(record), copy.copy(record)):
        assert same == record and same is not record
    assert record != twin and twin != record
    try:
        expected_hash = hash(twin)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(replace(record)) == expected_hash

    with pytest.raises(AttributeError):
        setattr(record, names[0], values[names[0]])
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    with pytest.raises(AttributeError):
        record.extra = 1

    if field is not None:
        with pytest.raises(ValueError) as direct:
            cls(**{**values, field: invalid})
        with pytest.raises(ValueError) as replaced:
            replace(record, **{field: invalid})
        assert str(replaced.value) == str(direct.value)


def test_replaced_golden_cell_grades_again():
    cell = GoldenCell("1 cam", "ms", modeled=1.2, reference="1.0",
                      rel_tol=0.05)
    assert cell.passed is False
    assert replace(cell, modeled=1.02).passed is True
    # A new reference is parsed again, and the cell graded against it.
    moved = replace(cell, reference="1.19")
    assert moved.reference_value == 1.19 and moved.passed is True
    assert moved.relative_error == pytest.approx(1.2 / 1.19 - 1.0)


@pytest.mark.parametrize("reference, rel_tol, abs_tol, tolerance", [
    ("4", 0.25, None, 1.5),   # 0.25 * 4 + half of the printed unit, 1
    ("4.0", 0.0, 0.5, 0.5),   # an absolute tolerance replaces the slack
])
def test_a_golden_cell_whose_error_equals_its_tolerance_passes(
        reference, rel_tol, abs_tol, tolerance):
    cell = GoldenCell("tie", "ms", modeled=4.0 + tolerance,
                      reference=reference, rel_tol=rel_tol, abs_tol=abs_tol)
    assert cell.tolerance == tolerance and cell.passed is True
    beyond = replace(cell, modeled=4.0 + tolerance + 2.0 ** -20)
    assert beyond.passed is False


@st.composite
def graded_cells(draw):
    """A cell's arguments, drawn for each kind (value, label, info and an
    N/A reference), and its verdict, relative error and tolerance as the
    ``golden`` docstring defines them, worked out here."""
    kind = draw(st.sampled_from([VALUE, LABEL, INFO, "N/A"]))
    if kind == LABEL:
        modeled, reference = (draw(st.sampled_from(["Memory", "Compute",
                                                    "N/A", "holds"]))
                              for _ in range(2))
        return (dict(modeled=modeled, reference=reference, kind=LABEL),
                (modeled == reference, None, None))
    rel_tol = draw(st.one_of(st.sampled_from([0.0, 0.03, 0.15]),
                             st.floats(0.0, 1.0)))
    abs_tol = draw(st.one_of(st.none(), st.floats(0.0, 10.0)))
    modeled = draw(st.one_of(st.none(), st.floats(-1e6, 1e6)))
    if kind == "N/A":
        return (dict(modeled=modeled, rel_tol=rel_tol, abs_tol=abs_tol),
                (modeled is None, None, None))
    # A decimal text with ``digits`` printed decimals; zero now and then.
    digits = draw(st.integers(0, 4))
    whole = draw(st.one_of(st.just(0), st.integers(-999, 9999)))
    fraction = draw(st.integers(0, 10 ** digits - 1))
    reference = f"{whole}.{fraction:0{digits}d}" if digits else f"{whole}"
    value = float(reference)
    slack = abs_tol if abs_tol is not None else 0.5 * 10.0 ** -digits
    tolerance = rel_tol * abs(value) + slack
    error = None if modeled is None or value == 0 else modeled / value - 1.0
    if kind == INFO:
        passed = None
    else:
        passed = modeled is not None and abs(modeled - value) <= tolerance
    return (dict(modeled=modeled, reference=reference, rel_tol=rel_tol,
                 abs_tol=abs_tol, kind=kind), (passed, error, tolerance))


@settings(max_examples=300, deadline=None)
@given(graded_cells())
def test_golden_cell_grades_by_the_docstring_formula(case):
    arguments, expected = case
    cell = GoldenCell("cell", "ms", **arguments)
    assert (cell.passed, cell.relative_error, cell.tolerance) == expected


@pytest.mark.parametrize("reference, modeled", [
    ("0", 0.0), ("0.00", 0.004), ("0.0", None), ("1.5", None)])
def test_golden_cell_edge_grades(reference, modeled):
    """A zero reference has no relative error but still grades by its
    slack; a missing modeled value has none and fails."""
    cell = GoldenCell("edge", "ms", modeled=modeled, reference=reference)
    assert cell.relative_error is None
    assert cell.tolerance == 0.5 * 10.0 ** -(len(reference.partition(".")[2]))
    assert cell.passed is (modeled is not None)


def test_golden_cell_relative_error_is_derived():
    """The relative error is stored once, out of ==, hash, repr and
    pickling, and worked out again for every copy."""
    cell = GoldenCell("1 cam", "ms", modeled=1.02, reference="1.0",
                      rel_tol=0.05)
    assert cell.relative_error == pytest.approx(0.02)
    stale = replace(cell)
    set_field(stale, "_relative_error", -1.0)
    assert stale == cell and hash(stale) == hash(cell)
    assert repr(stale) == repr(cell) and "_relative_error" not in repr(cell)
    for copied in (pickle.loads(pickle.dumps(stale)), copy.copy(stale),
                   replace(stale)):
        assert copied.relative_error == cell.relative_error


@pytest.fixture
def parses(monkeypatch):
    """The references that ``golden`` parses with ``float``."""
    parsed = []

    def counting(text):
        parsed.append(text)
        return float(text)

    monkeypatch.setattr(golden, "float", counting, raising=False)
    return parsed


def test_golden_cell_parses_its_reference_once(parses):
    cell = GoldenCell("1 cam", "ms", modeled=1.02, reference="1.0",
                      rel_tol=0.05)
    assert parses == ["1.0"]
    assert cell.passed is True and cell.reference_value == 1.0
    assert cell.tolerance == pytest.approx(0.1)
    assert cell.relative_error == pytest.approx(0.02)
    assert parses == ["1.0"]
    # The parsed value is derived: out of ==, hash, repr and pickling.
    stale = replace(cell)
    set_field(stale, "_reference_value", -1.0)
    assert stale == cell and hash(stale) == hash(cell)
    assert repr(stale) == repr(cell) and "_reference_value" not in repr(cell)
    assert pickle.loads(pickle.dumps(stale)).reference_value == 1.0


def test_golden_cell_without_a_number_parses_nothing(parses):
    label = GoldenCell("thor vlm bound", "", kind=LABEL,
                       modeled="Memory", reference="Memory")
    missing = GoldenCell("b100 vlm latency", "ms", modeled=None)
    for cell in (label, missing):
        assert cell.reference_value is None and cell.tolerance is None
        assert cell.relative_error is None
    assert label.passed is True and missing.passed is True
    assert parses == []


@pytest.mark.parametrize("name", ["nope", "_hash", "_prefix_tokens"])
def test_replace_refuses_a_name_that_is_not_a_field(lib, name):
    """As ``dataclasses.replace`` does: a ``TypeError`` naming the argument,
    for a derived slot too."""
    spec = lib.model("pi0")
    with pytest.raises(TypeError, match=f"unexpected keyword argument "
                                        f"'{name}'"):
        replace(spec, **{name: 1})
    with pytest.raises(TypeError, match=f"'{name}'"):
        replace(lib.component("gemma-2b"), **{name: 1})


def _record_types(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("vla_roofline."):
            yield sub
        yield from _record_types(sub)


def test_every_record_takes_its_fields_in_order():
    """``replace`` and pickling pass a record's fields to its constructor
    by position, in ``_fields`` order, so that is its parameter list."""
    # Load every module that defines a record type.
    from vla_roofline import commands, golden  # noqa: F401

    types = set(_record_types())
    assert len(types) == 10
    for cls in types:
        parameters = inspect.signature(cls).parameters.values()
        assert [p.name for p in parameters] == list(cls._fields), cls
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)
        assert cls._positions == {name: i for i, name
                                  in enumerate(cls._fields)}


def test_spec_token_counts_are_derived(lib):
    """The token counts are stored once, out of ==, hash, repr and
    pickling, and worked out again for every copy."""
    spec = lib.model("pi0")
    assert (spec.vision_tokens(), spec.prefix_tokens()) == (768, 800)
    assert "_vision_tokens" not in repr(spec)
    assert "_prefix_tokens" not in repr(spec)
    stale = replace(spec)
    set_field(stale, "_vision_tokens", -1)
    set_field(stale, "_prefix_tokens", -1)
    assert stale == spec and hash(stale) == hash(spec)
    assert repr(stale) == repr(spec)
    for copied in (pickle.loads(pickle.dumps(stale)), copy.copy(stale),
                   replace(stale)):
        assert (copied.vision_tokens(), copied.prefix_tokens()) == (768, 800)
    moved = replace(spec, num_cameras=1, language_tokens=8)
    assert (moved.vision_tokens(), moved.prefix_tokens()) == (256, 264)
