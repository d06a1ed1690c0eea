"""``reproduce`` builds each distinct phase once per command, a sweep
builds each distinct vision and VLM phase once and only the action phase
per point, and a sweep checks its whole grid before it builds anything.

A phase build is one call of a builder that ``opgraph.phase_builds`` names.
The builders are bound by name in several modules, so the counter replaces
every binding of each of them in every loaded package module.
"""

import sys

import pytest

import vla_roofline.cli as cli
from vla_roofline import golden, load_presets, opgraph, references
from vla_roofline.opgraph import ACTION, VISION, VLM
from vla_roofline.scenarios import scaling_sweep

# The phase of each phase builder.
PHASE_BUILDERS = {"vision_runs": VISION, "prefill_runs": VLM,
                  "diffusion_runs": ACTION, "token_decode_runs": ACTION,
                  "parallel_decode_runs": ACTION}
# Builds of ``reproduce all``.  The tables share one memo, so a phase is
# built the first time any table needs it, in ``_ALL_TABLES`` order:
# vision T1 3 (the 3-camera one is pi0's) and T5 3; VLM and action T1 3,
# T3 1 (pi0), T5 3 and T6 4 (t = 1 is pi0's).  T4 builds its own pi0
# graph, which counts one ``pipeline_graph`` and one build of each phase.
REPRODUCE_ALL_BUILDS = {"pipeline_graph": 1, VISION: 7, VLM: 12, ACTION: 12}
# Operators hashed by ``reproduce all``: the runs of T4's one merge of the
# pi0 graph.  The scenarios' phases are priced without a merge.
REPRODUCE_ALL_OPERATORS = 25


@pytest.fixture
def builds(monkeypatch):
    """The ``(builder name, args)`` of every phase or graph build.  A
    builder that another phase builder calls (``token_decode_runs`` calls
    ``parallel_decode_runs``) makes no build of its own."""
    calls = []
    building = []  # the phase builders running now

    def counting(name, original):
        def build(*args):
            if not building:
                calls.append((name, args))
            if name == "pipeline_graph":
                return original(*args)
            building.append(name)
            try:
                return original(*args)
            finally:
                building.pop()
        return build

    for name in ("pipeline_graph", *PHASE_BUILDERS):
        original = getattr(opgraph, name)
        replacement = counting(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name == "vla_roofline" or module_name.startswith(
                    "vla_roofline."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, replacement)
    return calls


def _count(calls, kind):
    """Builds of a phase, or calls of ``pipeline_graph``."""
    return sum(1 for name, _ in calls
               if PHASE_BUILDERS.get(name, name) == kind)


def _args(calls, phase):
    return [args for name, args in calls if PHASE_BUILDERS.get(name) == phase]


def _phase_args(spec, phase, timesteps=(None,)):
    """The arguments of ``spec``'s phase at each timestep."""
    return [opgraph.phase_builds(spec, t)[phase][1] for t in timesteps]


def test_reproduce_all_builds_each_phase_once_per_command(builds, capsys):
    assert cli.main(["reproduce", "all", "--format", "json"]) == 0
    assert capsys.readouterr().err == ""
    assert {kind: _count(builds, kind)
            for kind in REPRODUCE_ALL_BUILDS} == REPRODUCE_ALL_BUILDS


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


def test_reproduce_all_hashes_each_operator_once(monkeypatch, capsys):
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
        builds, capsys):
    """Token and parallel decoding do not read the denoising steps, so the
    three step counts share one action phase per decoding."""
    assert cli.main(["sweep", "--hw", "b100", "--steps", "1,10,50",
                     "--decoding", "autoregressive,autoregressive_parallel",
                     "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.count(",yes,") == 6
    assert [name for name, _ in builds
            if PHASE_BUILDERS.get(name) == ACTION] == [
        "token_decode_runs", "parallel_decode_runs"]


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
