"""Each table builder builds a graph once per distinct (spec, timestep), and
a sweep checks its whole grid before it builds any graph.

``pipeline_graph`` is bound by name in several modules, so the counter
replaces every binding of it in every loaded package module.
"""

import sys

import pytest

import vla_roofline.cli as cli
from vla_roofline import opgraph

# One graph per distinct (spec, timestep) of each table: T1 3, T3 1, T4 1,
# T5 4, T6 5, T8 1, T9 1, collab 1.
REPRODUCE_ALL_GRAPHS = 17


@pytest.fixture
def graph_builds(monkeypatch):
    """The (spec name, timestep) of every ``pipeline_graph`` call."""
    original = opgraph.pipeline_graph
    builds = []

    def counting(spec, context_timestep=None):
        builds.append((spec.name, context_timestep))
        return original(spec, context_timestep)

    for name, module in list(sys.modules.items()):
        if name == "vla_roofline" or name.startswith("vla_roofline."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return builds


def test_reproduce_all_builds_each_table_graph_once(graph_builds, capsys):
    assert cli.main(["reproduce", "all", "--format", "json"]) == 0
    assert capsys.readouterr().err == ""
    assert len(graph_builds) <= REPRODUCE_ALL_GRAPHS


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
def test_sweep_rejects_an_invalid_grid_before_pricing(graph_builds, capsys,
                                                      args, message):
    assert cli.main(["sweep", *args]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert graph_builds == []
