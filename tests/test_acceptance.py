"""Acceptance gate: one test per shipped accuracy commitment.

Each test states its tolerance inline and fails with the offending cell's
label, so ``pytest -v`` reads as a per-commitment pass/fail report.  The
reference numbers come from the bundled tables (``references.py``); cells
published as N/A must come out infeasible here too, not merely different.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from vla_roofline import (
    GIB,
    UPLOAD,
    Payload,
    Placement,
    async_scenario,
    dual_system_scenario,
    fits,
    golden,
    graph_time,
    kv_bytes_per_token,
    long_context_sweep,
    op_time,
    param_count,
    pipeline_graph,
    sync_scenario,
    transfer_time,
)
from vla_roofline import references as refs
from vla_roofline.opgraph import ACTION, PHASES
from vla_roofline.record import replace
from vla_roofline.roofline import kv_cache_bytes
from vla_roofline.scenarios import decoding_variant_spec


def _assert_cells(cells):
    failures = [
        f"{cell.label}: modeled {cell.modeled!r} vs reference "
        f"{cell.reference or cell.reference_text!r} "
        f"(tolerance {cell.tolerance})"
        for cell in cells if cell.passed is False
    ]
    assert not failures, "\n".join(failures)


def _within(modeled, reference: str, rel: float) -> bool:
    target = float(reference)
    slack = 0.5 * golden.printed_ulp(reference)
    return abs(modeled - target) <= rel * abs(target) + slack


def test_c01_component_params_kv_bytes_and_balance_points(lib):
    for name, (reference, scale, rel) in refs.COMPONENT_PARAMS.items():
        params = param_count(lib.component(name))
        assert abs(params / (float(reference) * scale) - 1) <= rel, (
            f"{name} has {params} parameters vs {reference} x {scale:g}")
    assert kv_bytes_per_token(lib.component("gemma-2b")) == 18_432
    for hw_name, reference in refs.BALANCE_OI.items():
        balance = lib.accelerator(hw_name).balance_oi()
        assert abs(balance - float(reference)) <= 0.1, (
            f"{hw_name} balance {balance} vs {reference}")


def test_c02_long_context_memory_growth_and_capacity_limits(lib):
    spec = lib.model("pi0")
    timesteps = refs.LONG_CONTEXT_TIMESTEPS
    rows = long_context_sweep(
        spec, Placement.on_device(lib.accelerator("b100")), timesteps)
    for row, t in zip(rows, timesteps):
        reference = refs.LONG_CONTEXT[t]
        total = row.footprint_bytes / GIB
        kv = kv_cache_bytes(spec, t) / GIB
        assert _within(total, reference["total_gb"], 0.02), (
            f"t={t} total {total} vs {reference['total_gb']}")
        assert _within(kv, reference["kv_gb"], 0.02), (
            f"t={t} KV {kv} vs {reference['kv_gb']}")
    for hw_name in ("thor", "rtx4090"):
        limited = long_context_sweep(
            spec, Placement.on_device(lib.accelerator(hw_name)), (10_000,))
        assert not limited[0].feasible, f"{hw_name} must run out at t=10000"
    assert not fits(lib.model("pi0-xl"), lib.accelerator("rtx4090"))


def test_c03_baseline_latencies_anchor_and_boundedness_labels(lib):
    cells = golden.baseline_table(lib, {})
    latency_cells = [c for c in cells if c.unit == "ms"]
    assert len(latency_cells) == 20
    _assert_cells(cells)
    b100 = sync_scenario(lib.model("pi0"),
                         Placement.on_device(lib.accelerator("b100")))
    assert abs(b100.phase_latencies["vlm"] * 1e3 / 1.87 - 1) <= 0.05
    labels = [c for c in golden.boundedness_table(lib, {})
              if c.kind == golden.LABEL]
    assert len(labels) == 15
    _assert_cells(labels)


def test_c04_network_sync_latencies_async_rates_and_speedups(lib):
    cells = golden.async_table(lib, {})
    assert len([c for c in cells if c.label.endswith("sync latency")]) == 7
    _assert_cells(cells)


def test_c05_dual_system_frequencies_and_thor_speedups(lib):
    cells = golden.dual_system_table(lib, {})
    assert len([c for c in cells if "async @" in c.label]) == 8
    _assert_cells(cells)
    thor = dual_system_scenario(
        lib.model("pi0"), Placement.on_device(lib.accelerator("thor")), 5.0)
    assert abs(thor.async_frequency / thor.sync_frequency - 1.46) <= 0.03
    thor10 = dual_system_scenario(
        lib.model("pi0"), Placement.on_device(lib.accelerator("thor")), 10.0)
    assert abs(thor10.async_frequency / thor10.sync_frequency - 1.30) <= 0.03


def test_c06_collaborative_kv_legs_and_server_dominance(lib):
    cells = golden.collaboration_table(lib, {})
    assert len([c for c in cells if c.unit == "ms"]) == 3
    assert len([c for c in cells if c.kind == golden.LABEL]) == 8
    _assert_cells(cells)


def test_c07_sweep_linearity_chunk_cost_and_decoding_tradeoffs(lib):
    spec = lib.model("pi0")
    b100 = lib.accelerator("b100")

    def on_b100(variant_spec):
        return sync_scenario(variant_spec, Placement.on_device(b100))

    one, ten, fifty = (
        on_b100(replace(spec, denoise_steps=n, chunk_size=50))
        .phase_latencies[ACTION] for n in (1, 10, 50))
    assert ten == pytest.approx(10 * one, rel=1e-12)
    assert fifty == pytest.approx(50 * one, rel=1e-12)

    at50, at250 = (on_b100(replace(spec, denoise_steps=10, chunk_size=chunk))
                   for chunk in (50, 250))
    assert at250.e2e_latency / at50.e2e_latency - 1 <= 0.15

    rows = {(variant, chunk):
            on_b100(decoding_variant_spec(spec, variant, chunk, 14))
            for chunk in (5, 10, 50)
            for variant in ("diffusion", "autoregressive",
                            "autoregressive_parallel")}
    ratio = (rows[("autoregressive", 50)].e2e_latency
             / rows[("diffusion", 50)].e2e_latency)
    reference_ratio = float(refs.AR_OVER_DIFFUSION)
    assert reference_ratio / 1.3 <= ratio <= reference_ratio * 1.3

    for chunk, reference in refs.PARALLEL_OI.items():
        par = rows[("autoregressive_parallel", chunk)]
        oi = par.operational_intensity[ACTION]
        assert abs(oi / float(reference) - 1) <= 0.10, f"chunk {chunk} OI {oi}"

    for chunk in (5, 10):
        assert (rows[("autoregressive_parallel", chunk)].e2e_latency
                < rows[("diffusion", chunk)].e2e_latency)
    assert (rows[("autoregressive_parallel", 50)].e2e_latency
            > rows[("diffusion", 50)].e2e_latency)


def _loglog_slope(points):
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    x_bar = sum(xs) / len(xs)
    y_bar = sum(ys) / len(ys)
    return (sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
            / sum((x - x_bar) ** 2 for x in xs))


def test_c08_scaling_frequencies_na_cells_and_loglog_slopes(lib):
    cells = golden.scaling_table(lib, {})
    _assert_cells(cells)
    na_cells = [c for c in cells if c.reference is None]
    assert sorted(c.label for c in na_cells) == [
        "pi0-xl on rtx4090", "pi0-xxl on rtx4090", "pi0-xxl on thor"]
    assert all(c.modeled is None for c in na_cells)

    # Latency should track the responsible component's size roughly linearly.
    component = {"vision": lambda s: s.vision_encoder,
                 "vlm": lambda s: s.vlm,
                 "action": lambda s: s.action_expert}
    b100 = Placement.on_device(lib.accelerator("b100"))
    for phase in PHASES:
        points = []
        for name in ("pi0", "pi0-l", "pi0-xl", "pi0-xxl"):
            spec = lib.model(name)
            result = sync_scenario(spec, b100)
            points.append((param_count(component[phase](spec)),
                           result.phase_latencies[phase]))
        slope = _loglog_slope(points)
        assert 0.75 <= slope <= 1.25, f"{phase} slope {slope}"


def test_c09_validation_anchor_rtx4090_camera_sweep(lib):
    cells = golden.validation_table(lib, {})
    assert len(cells) == 3
    _assert_cells(cells)
    for cell, reference in zip(cells, (14.7, 22.5, 30.4)):
        assert abs(cell.modeled / reference - 1) <= 0.15


def test_c10_model_invariants_and_parallel_determinism(lib):
    spec = lib.model("pi0")
    graph = pipeline_graph(spec)
    hardware = [lib.accelerator(name) for name in sorted(lib.hardware)]

    # Roofline max law: every operator's time sits on exactly one wall.
    for hw in hardware:
        for op, _ in graph.ops[:40]:
            seconds, side = op_time(op, hw)
            walls = (op.flops / hw.peak(2), op.bytes / hw.mem_bandwidth)
            assert seconds == max(walls)
            assert seconds in walls

    # Additivity: phase subgraphs partition the totals and the time.
    subgraphs = [graph.subgraph(phase) for phase in PHASES]
    assert sum(g.total_flops for g in subgraphs) == graph.total_flops
    assert sum(g.total_bytes for g in subgraphs) == graph.total_bytes
    for hw in hardware:
        parts = sum(graph_time(g, hw) for g in subgraphs)
        assert graph_time(graph, hw) == pytest.approx(parts, rel=1e-12)

    # Affine transfer law across every bundled link.
    for name in sorted(lib.networks):
        net = lib.network(name)
        t_small = transfer_time(Payload(10_000, UPLOAD), net)
        t_big = transfer_time(Payload(90_000, UPLOAD), net)
        t_sum = transfer_time(Payload(100_000, UPLOAD), net)
        assert t_sum == pytest.approx(t_small + t_big - net.base_latency,
                                      rel=1e-12)

    # Monotonicity: pipelining never loses; tighter context caps never lose.
    b100 = lib.accelerator("b100")
    for name in sorted(lib.networks):
        placement = Placement.edge_server(b100, lib.network(name))
        sync = sync_scenario(spec, placement)
        pipelined = async_scenario(spec, placement)
        assert pipelined.async_frequency >= sync.sync_frequency
    thor = Placement.on_device(lib.accelerator("thor"))
    capped5 = dual_system_scenario(spec, thor, 5.0)
    capped10 = dual_system_scenario(spec, thor, 10.0)
    assert capped5.async_frequency >= capped10.async_frequency

    # Sweep determinism under parallel evaluation: bit-identical results.
    points = [(hw, t) for hw in hardware for t in (1, 10, 100, 1_000)]

    def evaluate(point):
        hw, t = point
        return sync_scenario(spec, Placement.on_device(hw),
                             context_timestep=t)

    serial = [evaluate(p) for p in points]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(evaluate, points))
    assert serial == threaded
