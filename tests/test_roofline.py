"""Roofline timing, boundedness, and memory-capacity accounting."""


import pytest

from vla_roofline.opgraph import ACTION, VISION, VLM, Operator, pipeline_graph
from vla_roofline.roofline import (
    COMPUTE_BOUND,
    GIB,
    MEMORY_BOUND,
    AcceleratorConfig,
    boundedness,
    fits,
    graph_oi,
    graph_time,
    kv_cache_bytes,
    memory_footprint,
    op_time,
)
from vla_roofline.scenarios import _breakdown

# Round numbers so each expected time is exact in binary-friendly arithmetic.
HW = AcceleratorConfig(name="unit", peak_flops=100.0,
                       mem_bandwidth=10.0, mem_capacity=1000)


def test_op_time_takes_the_slower_side():
    compute_heavy = Operator("c", flops=1000, bytes=10, phase=VLM)
    memory_heavy = Operator("m", flops=100, bytes=100, phase=VLM)
    assert op_time(compute_heavy, HW) == (10.0, COMPUTE_BOUND)
    assert op_time(memory_heavy, HW) == (10.0, MEMORY_BOUND)


def test_op_time_tie_counts_as_memory_bound():
    tied = Operator("t", flops=1000, bytes=100, phase=VLM)
    assert op_time(tied, HW) == (10.0, MEMORY_BOUND)


def test_graph_time_sums_per_operator_maxima():
    from vla_roofline.opgraph import OperatorGraph
    runs = ((Operator("a", 1000, 10, VISION), 1),
            (Operator("b", 100, 100, VLM), 1))
    graph = OperatorGraph(runs)
    assert graph_time(graph, HW) == 20.0
    assert graph_time(graph.subgraph(VISION), HW) == 10.0
    assert graph_time(graph.subgraph(VLM), HW) == 10.0
    # A run of n launches costs n times one launch.
    tripled = OperatorGraph((op, 3 * count) for op, count in runs)
    assert graph_time(tripled, HW) == 60.0
    assert graph_time(tripled.subgraph(VISION), HW) == 30.0
    assert graph_time(tripled.subgraph(VLM), HW) == 30.0


@pytest.mark.parametrize("hw_name, balance", [
    ("thor", 1481.4814814814815),   # 400e12 / 270e9
    ("rtx4090", 163.69047619047618),
    ("a100", 153.01618440412948),
    ("h100", 295.2238805970149),
    ("b100", 218.75),
])
def test_balance_oi_of_packaged_accelerators(lib, hw_name, balance):
    assert lib.accelerator(hw_name).balance_oi() == pytest.approx(
        balance, rel=1e-12)


def test_phase_times_baseline(lib, pi0):
    """Frozen full-precision phase latencies for the baseline policy.

    Derived operator-by-operator with exact integer FLOP/byte counts and
    rational peak rates; a change here is a model change.
    """
    expected = {
        "thor": (6.1872242, 20.1960107, 27.0763514),
        "rtx4090": (4.2997097, 19.7894889, 7.2525941),
        "a100": (2.2738849, 10.4655951, 3.5853923),
        "h100": (0.7174931, 3.3219315, 2.1822731),
        "b100": (0.4054012, 1.8699169, 0.9138269),
    }
    graph = pipeline_graph(pi0)
    for hw_name, times in expected.items():
        hw = lib.accelerator(hw_name)
        for phase, t_ms in zip((VISION, VLM, ACTION), times):
            assert graph_time(graph.subgraph(phase), hw) * 1e3 == \
                pytest.approx(t_ms, abs=5e-8)


def test_graph_oi_baseline_phases(pi0):
    graph = pipeline_graph(pi0)
    assert graph_oi(graph.subgraph(VISION)) == pytest.approx(424.68, abs=0.005)
    assert graph_oi(graph.subgraph(VLM)) == pytest.approx(598.81, abs=0.005)
    assert graph_oi(graph.subgraph(ACTION)) == pytest.approx(51.18, abs=0.005)


def test_boundedness_labels(lib, pi0):
    """Thor sits below every phase OI; the faster parts flip vision and VLM
    to compute while the low-intensity action phase stays on memory."""
    graph = pipeline_graph(pi0)
    for hw_name in ("rtx4090", "a100", "h100", "b100"):
        hw = lib.accelerator(hw_name)
        assert boundedness(graph.subgraph(VISION), hw) == COMPUTE_BOUND
        assert boundedness(graph.subgraph(VLM), hw) == COMPUTE_BOUND
        assert boundedness(graph.subgraph(ACTION), hw) == MEMORY_BOUND
    thor = lib.accelerator("thor")
    for phase in (VISION, VLM, ACTION):
        assert boundedness(graph.subgraph(phase), thor) == MEMORY_BOUND


def test_memory_footprint_stateless(pi0):
    # Weights of all three stacks plus one step's KV cache (800 tokens).
    assert memory_footprint(pi0) == 5_409_967_104 + 800 * 18_432


def test_memory_footprint_long_context(pi0):
    # The footprint holds the 800-token prefix plus 768 camera tokens of each
    # earlier step; the paper's T6 KV count holds camera tokens only.
    for t in (1, 10, 100, 1000, 10000):
        assert memory_footprint(pi0, t) == (
            5_409_967_104 + (800 + 768 * (t - 1)) * 18_432)
        assert kv_cache_bytes(pi0, t) == 768 * t * 18_432


def test_fits_capacity_boundary(lib, pi0):
    assert fits(pi0, lib.accelerator("thor"))
    assert fits(pi0, lib.accelerator("b100"), context_timesteps=10_000)
    assert not fits(pi0, lib.accelerator("thor"), context_timesteps=10_000)
    assert not fits(pi0, lib.accelerator("rtx4090"), context_timesteps=10_000)


def test_footprint_in_gib(lib, pi0):
    total = memory_footprint(pi0, 100) / GIB  # about 6.3573
    assert total == (5_409_967_104 + (800 + 768 * 99) * 18_432) / GIB


def test_scenario_breakdown_is_consistent_with_the_graph(lib, pi0):
    """The scenarios' one phase breakdown gives, per phase, the seconds, OI
    and bound of that phase's subgraph of the pipeline graph."""
    hw = lib.accelerator("a100")
    graph = pipeline_graph(pi0)
    latencies, intensity, labels = _breakdown(pi0, None, hw, None, {})
    subgraphs = {phase: graph.subgraph(phase)
                 for phase in (VISION, VLM, ACTION)}
    assert latencies == {phase: graph_time(sub, hw)
                         for phase, sub in subgraphs.items()}
    assert intensity == {phase: graph_oi(sub)
                         for phase, sub in subgraphs.items()}
    assert labels == {phase: boundedness(sub, hw)
                      for phase, sub in subgraphs.items()}
    assert sum(latencies.values()) == pytest.approx(graph_time(graph, hw),
                                                    rel=1e-12)
