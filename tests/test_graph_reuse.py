"""``reproduce`` builds each distinct phase once per command, a sweep
builds each distinct phase and each layer a phase repeats once per command,
each built phase is figured (its seconds, OI and bound) once per
accelerator, and a sweep checks its whole grid before it builds anything.

A build is one ``(builder, args)`` key of ``opgraph.phase_builds`` that
``opgraph.build`` does not find in its memo, so it calls the builder; a key
nested in another is a layer build.  ``build`` and ``pipeline_graph`` are
bound by name in several modules, so the counter replaces every binding of
each of them in every loaded package module.
"""

import sys

import pytest

import vla_roofline.cli as cli
from vla_roofline import golden, load_presets, opgraph, references, roofline
from vla_roofline.opgraph import ACTION, VISION, VLM
from vla_roofline.record import replace
from vla_roofline.scenarios import (
    Placement,
    decoding_variant_spec,
    scaling_sweep,
    sync_sweep,
)
from vla_roofline.workload import AUTOREGRESSIVE, AUTOREGRESSIVE_PARALLEL

# The phase of each phase builder.
PHASE_BUILDERS = {"vision_runs": VISION, "prefill_runs": VLM,
                  "diffusion_runs": ACTION, "token_decode_runs": ACTION,
                  "parallel_decode_runs": ACTION}
# The kind of a build whose key is nested in another: the expert layer of
# diffusion, or the one-token step of token decoding.
LAYER = "layer"
# Builds of ``reproduce all``.  The tables share one memo, so a phase is
# built the first time any table needs it, in ``_ALL_TABLES`` order:
# vision T1 3 (the 3-camera one is pi0's) and T5 3; VLM and action T1 3,
# T3 1 (pi0), T5 3 and T6 4 (t = 1 is pi0's).  Each diffusion action phase
# builds its own expert layer.  T4 builds its own pi0 graph, which counts
# one ``pipeline_graph`` and one build of each phase and layer.
REPRODUCE_ALL_BUILDS = {"pipeline_graph": 1, VISION: 7, VLM: 12, ACTION: 12}
# Phases figured by ``reproduce all``: 61 distinct phases on the
# accelerators that price them, through the command's memo.  T4 reads its
# pi0 graph's phases through the graph API, which figures none.
REPRODUCE_ALL_FIGURES = 61
# Operators hashed by ``reproduce all``: none, since no graph merges runs
# and the memo keys hold no operator.
REPRODUCE_ALL_OPERATORS = 0


def _replace_everywhere(monkeypatch, original, replacement):
    for module_name, module in list(sys.modules.items()):
        if module_name == "vla_roofline" or module_name.startswith(
                "vla_roofline."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def builds(monkeypatch):
    """The ``(kind, builder name, args)`` of every build and every
    ``pipeline_graph`` call.  The kind of a build is its phase, or
    ``LAYER`` for a nested key; ``args`` are the key's, nested keys
    included."""
    calls = []
    nesting = []  # the keys being built now
    original_build, original_graph = opgraph.build, opgraph.pipeline_graph

    def build(key, memo):
        if key not in memo:
            name = key[0].__name__
            kind = LAYER if nesting else PHASE_BUILDERS[name]
            calls.append((kind, name, key[1]))
        nesting.append(key)
        try:
            return original_build(key, memo)
        finally:
            nesting.pop()

    def pipeline_graph(*args):
        calls.append(("pipeline_graph", "pipeline_graph", args))
        return original_graph(*args)

    _replace_everywhere(monkeypatch, original_build, build)
    _replace_everywhere(monkeypatch, original_graph, pipeline_graph)
    return calls


@pytest.fixture
def figures(monkeypatch):
    """The ``(phase, accelerator name, runs)`` of every
    ``roofline.figure_phase`` call."""
    calls = []
    original = roofline.figure_phase

    def figure_phase(runs, hw):
        calls.append((runs[0][0].phase, hw.name, runs))
        return original(runs, hw)

    _replace_everywhere(monkeypatch, original, figure_phase)
    return calls


def _count(calls, kind):
    """Builds of a phase or of layers, or calls of ``pipeline_graph``."""
    return sum(1 for call_kind, _, _ in calls if call_kind == kind)


def _args(calls, kind):
    return [args for call_kind, _, args in calls if call_kind == kind]


def _phase_args(spec, phase, timesteps=(None,)):
    """The arguments of ``spec``'s phase at each timestep."""
    return [opgraph.phase_builds(spec, t)[phase][1] for t in timesteps]


def test_reproduce_all_builds_each_phase_once_per_command(builds, capsys):
    assert cli.main(["reproduce", "all", "--format", "json"]) == 0
    assert capsys.readouterr().err == ""
    assert {kind: _count(builds, kind)
            for kind in REPRODUCE_ALL_BUILDS} == REPRODUCE_ALL_BUILDS


def test_reproduce_all_figures_each_priced_phase_once(figures, monkeypatch,
                                                      capsys):
    """Every priced phase is figured, and a memo hit figures nothing: no
    phase is figured twice on the same peak and bandwidth."""
    priced = []
    original = roofline.price_phase

    def price_phase(runs, hw):
        priced.append(hw.name)
        return original(runs, hw)

    _replace_everywhere(monkeypatch, original, price_phase)
    assert cli.main(["reproduce", "all", "--format", "json"]) == 0
    assert capsys.readouterr().err == ""
    assert len(figures) == len(priced) == REPRODUCE_ALL_FIGURES
    lib = load_presets()
    distinct = {(tuple(runs), lib.accelerator(name).peak_flops,
                 lib.accelerator(name).mem_bandwidth)
                for _, name, runs in figures}
    assert len(distinct) == REPRODUCE_ALL_FIGURES


def test_sweep_figures_each_phase_once_per_accelerator(builds, figures,
                                                      capsys):
    """Split serving over a 2 x 2 grid: vision and the VLM are built once
    and figured once on the server; each of the four action phases is
    figured once on the robot."""
    assert cli.main(["sweep", "--placement", "collaborative", "--net",
                     "wifi7", "--device-hw", "thor", "--hw", "b100",
                     "--chunk", "5,50", "--steps", "5,10",
                     "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.count(",yes,") == 4
    assert [(phase, name) for phase, name, _ in figures] == [
        (VISION, "b100"), (VLM, "b100"), (ACTION, "thor"), (ACTION, "thor"),
        (ACTION, "thor"), (ACTION, "thor")]
    assert len({id(runs) for _, _, runs in figures}) == len(figures)
    assert len(figures) == sum(_count(builds, kind)
                               for kind in (VISION, VLM, ACTION))


def test_tables_sharing_one_memo_equal_fresh_tables():
    """One memo through every table of ``reproduce all``, in its order,
    changes no cell; nor does it change ``scaling_sweep``."""
    lib = load_presets()
    memo = {}
    for name in cli._ALL_TABLES:
        assert golden.TABLES[name](lib, memo) == golden.TABLES[name](
            lib, {}), name
    assert memo
    hardware = [lib.accelerator(name) for name in sorted(lib.hardware)]
    assert scaling_sweep(lib, hardware, memo) == scaling_sweep(
        lib, hardware, {})


def test_long_context_table_builds_its_vision_phase_once(builds):
    lib = load_presets()
    golden.long_context_table(lib, {})
    pi0 = lib.model("pi0")
    assert _args(builds, VISION) == _phase_args(pi0, VISION)
    assert _args(builds, VLM) == _phase_args(
        pi0, VLM, references.LONG_CONTEXT_TIMESTEPS)
    assert _count(builds, "pipeline_graph") == 0


def test_reproduce_all_hashes_no_operator(monkeypatch, capsys):
    original = opgraph.Operator.__hash__
    hashes = []

    def counting(op):
        hashes.append(op.label)
        return original(op)

    monkeypatch.setattr(opgraph.Operator, "__hash__", counting)
    assert cli.main(["reproduce", "all", "--format", "json"]) == 0
    assert capsys.readouterr().err == ""
    assert len(hashes) == REPRODUCE_ALL_OPERATORS


def test_sweep_prices_vision_once_and_vlm_once_per_context_step(builds,
                                                               capsys):
    argv = ["sweep", "--hw", "b100", "--context-steps", "1,10,100",
            "--chunk", "5,50", "--decoding", "diffusion,autoregressive",
            "--format", "csv"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.count(",yes,") == 12
    assert _count(builds, "pipeline_graph") == 0
    pi0 = load_presets().model("pi0")
    assert _args(builds, VISION) == _phase_args(pi0, VISION)
    assert _args(builds, VLM) == _phase_args(pi0, VLM, (1, 10, 100))
    assert _count(builds, ACTION) == 12
    # The reuse lives in one command: a second sweep builds it all again.
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == out
    assert _count(builds, VISION) == 2
    assert _count(builds, VLM) == 6


def test_autoregressive_sweep_builds_its_action_phase_once_per_decoding(
        builds):
    """Token and parallel decoding do not read the denoising steps (the
    CLI refuses ``--steps`` for them), so three step counts still share
    one action phase per decoding."""
    lib = load_presets()
    points = [(replace(decoding_variant_spec(lib.model("pi0"), variant),
                       denoise_steps=steps), None)
              for variant in (AUTOREGRESSIVE, AUTOREGRESSIVE_PARALLEL)
              for steps in (1, 10, 50)]
    results = sync_sweep(points, Placement.on_device(lib.accelerator("b100")))
    assert [result.feasible for result in results] == [True] * 6
    assert [name for kind, name, _ in builds if kind == ACTION] == [
        "token_decode_runs", "parallel_decode_runs"]
    assert _count(builds, LAYER) == 1


@pytest.mark.parametrize("args, layer, actions", [
    # DoF and steps change the action phase, not the expert layer.
    (("--dof", "4,5,6", "--steps", "5,10", "--decoding", "diffusion"),
     "_expert_layer", 6),
    # Chunk and DoF change the token count, not the one-token step.
    (("--chunk", "5,50", "--dof", "4,6", "--decoding", "autoregressive"),
     "parallel_decode_runs", 4),
])
def test_sweep_builds_each_repeated_layer_once_per_command(
        builds, capsys, args, layer, actions):
    argv = ["sweep", "--hw", "b100", *args, "--format", "csv"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.count(",yes,") == actions
    spec = cli._configure_spec(load_presets().model("pi0"), None, None, None,
                               args[-1])
    nested = opgraph.phase_builds(spec)[ACTION][1][0]
    assert nested[0].__name__ == layer
    assert [(name, key_args) for kind, name, key_args in builds
            if kind == LAYER] == [(layer, nested[1])]
    assert _count(builds, ACTION) == actions
    # A second command builds the layer and every phase again.
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == out
    assert _count(builds, LAYER) == 2
    assert _count(builds, ACTION) == 2 * actions


def test_infeasible_sweep_builds_nothing(builds, capsys):
    assert cli.main(["sweep", "--model", "pi0-xxl", "--hw", "rtx4090",
                     "--chunk", "5,50", "--decoding",
                     "diffusion,autoregressive", "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count(",no,") == 4 and ",yes," not in out
    assert builds == []


@pytest.mark.parametrize("args, message", [
    (("--placement", "collaborative", "--net", "wifi7", "--device-hw", "thor",
      "--decoding", "diffusion,autoregressive"),
     "collaborative serving requires a diffusion action expert"),
    (("--placement", "collaborative", "--net", "wifi7", "--device-hw", "thor",
      "--context-steps", "1,2"),
     "collaborative serving does not model cached camera history"),
    (("--hw", "b100", "--context-steps", "5,0"),
     "context_timesteps must be >= 1"),
])
def test_sweep_rejects_an_invalid_grid_before_pricing(builds, capsys,
                                                      args, message):
    assert cli.main(["sweep", *args]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert builds == []
