"""Structural invariants checked over randomized inputs.

Nothing in here depends on a particular preset's published numbers; these
are the laws any configuration must satisfy.
"""

import contextlib
import copy
import io
import json
import math
import pickle
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vla_roofline import (
    COMPUTE_BOUND,
    MEMORY_BOUND,
    AcceleratorConfig,
    NetworkConfig,
    Operator,
    Placement,
    VLM,
    async_scenario,
    dual_system_scenario,
    load_presets,
    op_time,
    param_count,
    prefill_runs,
    kv_bytes_per_token,
    sync_scenario,
    transfer_time,
)
from vla_roofline import cli, netmodel, opgraph
from vla_roofline.opgraph import ACTION, PHASES, OperatorGraph
from vla_roofline.record import replace, set_field
from vla_roofline.roofline import (
    figure_phase,
    graph_time,
    memory_footprint,
    price_phase,
)
from vla_roofline.scenarios import (
    CLOUD_SERVER,
    COLLABORATIVE,
    DECODING_VARIANTS,
    DIFFUSION_LARGE,
    EDGE_SERVER,
    ON_DEVICE,
    PLACEMENT_KINDS,
    collaborative_scenario,
    decoding_variant_spec,
    sync_sweep,
)
from vla_roofline.workload import (
    DECODING_MODES,
    DIFFUSION,
    TransformerConfig,
    VlaModelSpec,
    weight_bytes,
)

from reference import phase_runs, reference_figures, totals

operators = st.builds(
    Operator,
    label=st.just("op"),
    flops=st.integers(min_value=0, max_value=10**15),
    bytes=st.integers(min_value=0, max_value=10**13),
    phase=st.just(VLM),
)

accelerators = st.builds(
    AcceleratorConfig,
    name=st.just("hw"),
    peak_flops=st.floats(min_value=1e9, max_value=1e16),
    mem_bandwidth=st.floats(min_value=1e6, max_value=1e13),
    mem_capacity=st.just(256 * 1024**3),
)

graphs = st.lists(st.tuples(operators, st.integers(min_value=0, max_value=5)),
                  min_size=0, max_size=8).map(
    lambda runs: OperatorGraph(tuple(runs)))

# Few distinct labels, phases and sizes, so that equal operators recur.
small_operators = st.builds(
    Operator,
    label=st.sampled_from(("q_proj", "attn_out", "ffn_up")),
    flops=st.integers(min_value=0, max_value=3).map(lambda k: k * 10**12),
    bytes=st.integers(min_value=0, max_value=3).map(lambda k: k * 10**9),
    phase=st.sampled_from(PHASES),
)
run_lists = st.lists(
    st.tuples(small_operators, st.integers(min_value=0, max_value=300)),
    max_size=12)

networks = st.builds(
    NetworkConfig,
    name=st.just("net"),
    upload_bw=st.floats(min_value=1e5, max_value=1e11),
    download_bw=st.floats(min_value=1e5, max_value=1e11),
    base_latency=st.floats(min_value=0, max_value=0.5),
)


@given(op=operators, hw=accelerators)
def test_op_time_is_the_max_of_both_walls(op, hw):
    seconds, side = op_time(op, hw)
    t_compute = op.flops / hw.peak_flops
    t_memory = op.bytes / hw.mem_bandwidth
    assert seconds == max(t_compute, t_memory)
    # The returned time is exactly one of the walls, and the label names it
    # (ties count as memory bound).
    if side == COMPUTE_BOUND:
        assert seconds == t_compute and t_compute > t_memory
    else:
        assert side == MEMORY_BOUND and seconds == t_memory


@given(a=graphs, b=graphs, hw=accelerators)
def test_graph_concatenation_is_additive(a, b, hw):
    combined = OperatorGraph(a.ops + b.ops)
    (flops_a, bytes_a), (flops_b, bytes_b) = totals(a.ops), totals(b.ops)
    assert totals(combined.ops) == (flops_a + flops_b, bytes_a + bytes_b)
    assert graph_time(combined, hw) == pytest.approx(
        graph_time(a, hw) + graph_time(b, hw), rel=1e-12, abs=0.0)


@given(g=graphs, n=st.integers(min_value=0, max_value=20))
def test_repeated_graph_scales_exact_counts(g, n):
    repeated = OperatorGraph((op, n * count) for op, count in g.ops)
    flops, nbytes = totals(g.ops)
    assert totals(repeated.ops) == (n * flops, n * nbytes)


@given(runs=run_lists, hw=accelerators)
def test_run_graph_prices_like_its_flat_operator_list(runs, hw):
    """Pricing a run once times its count matches launching every kernel."""
    graph = OperatorGraph(tuple(runs))
    flat = [op for op, count in runs for _ in range(count)]
    assert totals(graph.ops) == (sum(op.flops for op in flat),
                                 sum(op.bytes for op in flat))
    reference = {}
    for op in flat:
        reference[op.phase] = reference.get(op.phase, 0.0) + op_time(op, hw)[0]
    assert graph_time(graph, hw) == pytest.approx(sum(reference.values()),
                                                  rel=1e-12, abs=0.0)
    assert {op.phase for op, _ in graph.ops} == set(reference)
    for phase, seconds in reference.items():
        assert graph_time(graph.subgraph(phase), hw) == pytest.approx(
            seconds, rel=1e-12, abs=0.0)


_counts = st.integers(min_value=0, max_value=300)

# Added up in float, these runs' times give 0.01 in this order and
# 0.010000000000000002 reversed.
_ORDER_SENSITIVE_RUNS = [
    (Operator(label=label, flops=10**12, bytes=0, phase=VLM), count)
    for label, count in (("q_proj", 1), ("attn_out", 1), ("ffn_up", 8))]


@given(runs_and_order=run_lists.flatmap(
           lambda runs: st.tuples(st.just(runs), st.permutations(runs))),
       hw=accelerators)
@example(runs_and_order=(_ORDER_SENSITIVE_RUNS, _ORDER_SENSITIVE_RUNS[::-1]),
         hw=AcceleratorConfig("hw", 1e15, 1e12, 1))
def test_phase_pricing_ignores_the_order_of_its_runs(runs_and_order, hw):
    runs, permuted = runs_and_order
    assert price_phase(permuted, hw) == price_phase(runs, hw)


@given(runs=run_lists, op=small_operators, a=_counts, b=_counts,
       at=st.integers(min_value=0, max_value=12), hw=accelerators)
def test_splitting_a_run_leaves_phase_pricing_unchanged(runs, op, a, b, at, hw):
    whole = runs[:at] + [(op, a + b)] + runs[at:]
    split = runs[:at] + [(op, a), (op, b)] + runs[at:]
    assert price_phase(split, hw) == price_phase(whole, hw)


@given(runs=run_lists, n=st.integers(min_value=0, max_value=20))
def test_a_graph_keeps_its_nonzero_runs_as_built(runs, n):
    graph = OperatorGraph(tuple(runs))
    assert graph.ops == tuple(run for run in runs if run[1])
    assert OperatorGraph((op, n * count) for op, count in graph.ops).ops == (
        tuple((op, n * count) for op, count in graph.ops) if n else ())
    assert OperatorGraph(graph.ops + graph.ops).ops == graph.ops + graph.ops
    for phase in PHASES:
        assert graph.subgraph(phase).ops == tuple(
            run for run in graph.ops if run[0].phase == phase)


@given(net=networks,
       a=st.integers(min_value=0, max_value=10**9),
       b=st.integers(min_value=0, max_value=10**9),
       upload=st.booleans())
def test_transfer_time_is_affine_in_bytes(net, a, b, upload):
    t_a = transfer_time(a, net, upload)
    t_b = transfer_time(b, net, upload)
    t_ab = transfer_time(a + b, net, upload)
    assert t_ab == pytest.approx(t_a + t_b - net.base_latency, rel=1e-9)
    assert t_a >= net.base_latency


@st.composite
def small_stacks(draw):
    kv_heads = draw(st.integers(min_value=1, max_value=4))
    group_ratio = draw(st.integers(min_value=1, max_value=4))
    return TransformerConfig(
        name="toy",
        num_layers=draw(st.integers(min_value=1, max_value=8)),
        hidden_size=draw(st.integers(min_value=1, max_value=64)),
        intermediate_size=draw(st.integers(min_value=1, max_value=128)),
        num_ffi=draw(st.integers(min_value=1, max_value=2)),
        num_q_heads=kv_heads * group_ratio,
        num_kv_heads=kv_heads,
        head_dim=draw(st.integers(min_value=1, max_value=32)),
    )


@given(cfg=small_stacks(), q_len=st.integers(min_value=1, max_value=64))
def test_prefill_flops_decompose_into_weights_and_attention(cfg, q_len):
    flops, _ = totals(prefill_runs(cfg, q_len))
    attention_flops = cfg.num_layers * 4 * q_len * q_len * cfg.q_width
    assert flops == 2 * q_len * param_count(cfg) + attention_flops


@given(cfg=small_stacks(), factor=st.integers(min_value=2, max_value=5))
def test_param_count_is_linear_in_depth(cfg, factor):
    deeper = replace(cfg, num_layers=cfg.num_layers * factor)
    assert param_count(deeper) == factor * param_count(cfg)
    assert kv_bytes_per_token(deeper) == factor * kv_bytes_per_token(cfg)


@given(cfg=small_stacks(), ratio=st.integers(min_value=2, max_value=8))
def test_kv_cache_ignores_extra_query_heads(cfg, ratio):
    wider = replace(cfg, num_q_heads=cfg.num_q_heads * ratio)
    assert kv_bytes_per_token(wider) == kv_bytes_per_token(cfg)


@st.composite
def layered_stacks(draw, patch=False):
    """Stacks of 0-3 layers with 1-4 FFN up projections and grouped-query
    heads; a vision stack (``patch``) has a patch input."""
    kv_heads = draw(st.integers(min_value=1, max_value=3))
    return TransformerConfig(
        name="toy",
        num_layers=draw(st.integers(min_value=0, max_value=3)),
        hidden_size=draw(st.integers(min_value=1, max_value=48)),
        intermediate_size=draw(st.integers(min_value=1, max_value=96)),
        num_ffi=draw(st.integers(min_value=1, max_value=4)),
        num_q_heads=kv_heads * draw(st.integers(min_value=1, max_value=4)),
        num_kv_heads=kv_heads,
        head_dim=draw(st.integers(min_value=1, max_value=16)),
        precision_bytes=draw(st.sampled_from((1, 2, 4))),
        patch_input_dim=(draw(st.integers(min_value=1, max_value=64))
                         if patch else None),
    )


@given(cfg=st.one_of(layered_stacks(), layered_stacks(patch=True)),
       layers=st.integers(min_value=0, max_value=5),
       precision=st.sampled_from((1, 2, 4)))
def test_weight_bytes_are_derived_once_per_stack(cfg, layers, precision):
    """``weight_bytes`` reads a slot set at construction: ``replace``
    recomputes it, and it stays out of ``==``, hash, repr and pickling."""
    assert weight_bytes(cfg) == param_count(cfg) * cfg.precision_bytes
    changed = replace(cfg, num_layers=layers, precision_bytes=precision)
    assert weight_bytes(changed) == param_count(changed) * precision
    stale = replace(cfg)
    set_field(stale, "_weight_bytes", -1)
    assert stale == cfg and hash(stale) == hash(cfg)
    assert repr(stale) == repr(cfg) and "_weight_bytes" not in repr(cfg)
    assert weight_bytes(pickle.loads(pickle.dumps(stale))) == weight_bytes(cfg)


@given(cfg=st.one_of(layered_stacks(), layered_stacks(patch=True)),
       layers=st.integers(min_value=0, max_value=5),
       name=st.sampled_from(("toy", "other")))
def test_stack_hash_is_derived_once_per_stack(cfg, layers, name):
    """A stack hashes as its field tuple from a slot set at construction:
    ``replace``, ``copy.copy`` and pickling rehash it, and the slot stays
    out of ``==`` and repr."""
    for same in (cfg, replace(cfg, num_layers=layers, name=name),
                 copy.copy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert hash(same) == hash(same._values(same))
    assert hash(replace(cfg, num_layers=layers)) == hash(
        (*cfg._values(cfg)[:1], layers, *cfg._values(cfg)[2:]))
    stale = replace(cfg)
    set_field(stale, "_hash", -1)
    assert stale == cfg and repr(stale) == repr(cfg)
    assert "_hash" not in repr(cfg)
    assert hash(pickle.loads(pickle.dumps(stale))) == hash(cfg)
    assert hash(copy.copy(stale)) == hash(cfg)


def _each_operator_once(runs):
    """A builder's non-zero runs hold no operator twice."""
    ops = [op for op, count in runs if count]
    return len(set(ops)) == len(ops)


_tokens = st.integers(min_value=1, max_value=40)


@given(vision=layered_stacks(patch=True), vlm=layered_stacks(),
       expert=layered_stacks(), cameras=st.integers(min_value=0, max_value=3),
       tokens_per_image=_tokens, language_tokens=_tokens, chunk=_tokens,
       dof=_tokens, steps=st.integers(min_value=0, max_value=4),
       history=st.integers(min_value=0, max_value=100),
       decoding=st.sampled_from(DECODING_MODES),
       context_timestep=st.one_of(st.none(),
                                  st.integers(min_value=1, max_value=5)))
def test_builders_emit_each_distinct_operator_once(
        vision, vlm, expert, cameras, tokens_per_image, language_tokens,
        chunk, dof, steps, history, decoding, context_timestep):
    """Every part and phase builder returns each operator in one run: the
    repeated FFN up projections come folded into one run."""
    assert _each_operator_once(opgraph.vision_runs(vision, cameras,
                                                   tokens_per_image,
                                                   vlm.hidden_size))
    assert _each_operator_once(opgraph.prefill_runs(vlm, language_tokens,
                                                    history))
    assert _each_operator_once(opgraph.parallel_decode_runs(vlm, chunk,
                                                            history))
    layer = opgraph._expert_layer(expert, chunk, language_tokens, history,
                                  vlm.kv_width, vlm.num_kv_heads)
    assert _each_operator_once(layer)
    assert _each_operator_once(opgraph.diffusion_runs(layer, expert, chunk,
                                                      steps, dof))
    spec = VlaModelSpec(
        "toy", vision, vlm,
        action_expert=expert if decoding == DIFFUSION else None,
        num_cameras=cameras, tokens_per_image=tokens_per_image,
        language_tokens=language_tokens, action_dof=dof, chunk_size=chunk,
        denoise_steps=steps, decoding_mode=decoding)
    for key in opgraph.phase_builds(spec, context_timestep).values():
        assert _each_operator_once(opgraph.build(key, {})[0])


@given(op=operators, hw=accelerators,
       scale=st.floats(min_value=1.5, max_value=100.0))
def test_faster_compute_only_helps_compute_bound_operators(op, hw, scale):
    faster = replace(hw, peak_flops=hw.peak_flops * scale)
    before, side = op_time(op, hw)
    after, _ = op_time(op, faster)
    assert after <= before
    if side == MEMORY_BOUND:
        assert after == before  # the memory wall did not move


_scale_exponents = st.sampled_from((-3, -2, -1, 1, 2, 3))


def _scaled(hw, factor):
    return replace(hw, peak_flops=hw.peak_flops * factor,
                   mem_bandwidth=hw.mem_bandwidth * factor)


@given(runs=run_lists, hw=accelerators, j=_scale_exponents)
def test_scaling_peak_and_bandwidth_divides_phase_seconds_exactly(runs, hw, j):
    assume(sum(op.bytes * count for op, count in runs) > 0)
    seconds, oi, label = figure_phase(runs, hw)
    assert figure_phase(runs, _scaled(hw, 2.0 ** j)) == (seconds / 2.0 ** j,
                                                        oi, label)


@given(runs=run_lists, hw=accelerators,
       peak_scale=st.floats(min_value=1.0, max_value=100.0),
       bandwidth_scale=st.floats(min_value=1.0, max_value=100.0))
def test_phase_seconds_never_rise_as_peak_or_bandwidth_grows(
        runs, hw, peak_scale, bandwidth_scale):
    seconds = price_phase(runs, hw)[0]
    faster = replace(hw, peak_flops=hw.peak_flops * peak_scale)
    wider = replace(hw, mem_bandwidth=hw.mem_bandwidth * bandwidth_scale)
    assert price_phase(runs, faster)[0] <= seconds
    assert price_phase(runs, wider)[0] <= seconds
    assert price_phase(runs, replace(faster, mem_bandwidth=wider.mem_bandwidth)
                       )[0] <= seconds


_LIB = load_presets()


@given(net=networks)
@settings(max_examples=30)
def test_pipelining_never_slows_a_served_deployment(net):
    spec = _LIB.model("pi0")
    placement = Placement.edge_server(_LIB.accelerator("b100"), net)
    sync = sync_scenario(spec, placement)
    pipelined = async_scenario(spec, placement)
    assert pipelined.async_frequency >= sync.sync_frequency * (1 - 1e-12)


@given(bw_scale=st.floats(min_value=1.1, max_value=50.0),
       extra_base=st.floats(min_value=1e-4, max_value=0.5))
@settings(max_examples=30)
def test_sync_latency_monotone_in_link_quality(bw_scale, extra_base):
    spec = _LIB.model("pi0")
    hw = _LIB.accelerator("b100")
    net = _LIB.network("wifi7")
    base = sync_scenario(spec, Placement.edge_server(hw, net)).e2e_latency
    faster = replace(net, upload_bw=net.upload_bw * bw_scale,
                     download_bw=net.download_bw * bw_scale)
    laggier = replace(net, base_latency=net.base_latency + extra_base)
    assert sync_scenario(spec, Placement.edge_server(hw, faster)).e2e_latency <= base
    assert sync_scenario(spec, Placement.edge_server(hw, laggier)).e2e_latency > base


@given(caps=st.lists(st.floats(min_value=0.5, max_value=40.0),
                     min_size=2, max_size=2, unique=True))
@settings(max_examples=30)
def test_dual_system_rate_decreases_with_context_cap(caps):
    spec = _LIB.model("pi0")
    placement = Placement.on_device(_LIB.accelerator("thor"))
    low, high = sorted(caps)
    slow = dual_system_scenario(spec, placement, high)
    fast = dual_system_scenario(spec, placement, low)
    assert fast.async_frequency >= slow.async_frequency


preset_accelerators = st.sampled_from(sorted(_LIB.hardware)).map(
    _LIB.accelerator)


@given(model=st.sampled_from(sorted(_LIB.models)),
       hw=st.one_of(preset_accelerators, accelerators), j=_scale_exponents)
@settings(max_examples=40, deadline=None)
def test_scaling_the_device_divides_on_device_latencies_exactly(model, hw, j):
    spec = _LIB.model(model)
    base = sync_scenario(spec, Placement.on_device(hw))
    assume(base.feasible)
    scaled = sync_scenario(spec, Placement.on_device(_scaled(hw, 2.0 ** j)))
    assert scaled.phase_latencies == {
        phase: seconds / 2.0 ** j
        for phase, seconds in base.phase_latencies.items()}
    assert scaled.e2e_latency == base.e2e_latency / 2.0 ** j
    assert scaled.operational_intensity == base.operational_intensity
    assert scaled.boundedness == base.boundedness


preset_networks = st.sampled_from(sorted(_LIB.networks)).map(_LIB.network)


def _placement(kind, hw, device_hw, net, cloud_net):
    if kind == COLLABORATIVE:
        return Placement.collaborative(device_hw, hw, net)
    if kind == CLOUD_SERVER:
        return Placement.cloud_server(hw, net, cloud_net)
    if kind == EDGE_SERVER:
        return Placement.edge_server(hw, net)
    return Placement.on_device(hw)


# Preset accelerators, and drawn ones whose memory ranges from far too
# small for any preset model to enough for every one.
sized_accelerators = st.one_of(preset_accelerators, st.builds(
    replace, accelerators,
    mem_capacity=st.integers(min_value=1, max_value=256 * 1024**3)))


def _accelerator_steps(hw):
    """A new accelerator, or ``hw`` with one figure changed."""
    return st.one_of(
        preset_accelerators, accelerators,
        st.integers(min_value=1, max_value=256 * 1024**3).map(
            lambda capacity: replace(hw, mem_capacity=capacity)),
        st.floats(min_value=1e6, max_value=1e13).map(
            lambda bandwidth: replace(hw, mem_bandwidth=bandwidth)),
        st.floats(min_value=1e9, max_value=1e16).map(
            lambda peak: replace(hw, peak_flops=peak)))


_WALK_AXES = {
    "model": st.sampled_from(sorted(_LIB.models)),
    "vision_encoder": st.sampled_from(sorted(
        name for name, cfg in _LIB.components.items()
        if cfg.patch_input_dim is not None)),
    "variant": st.sampled_from(DECODING_VARIANTS),
    "num_cameras": st.integers(min_value=0, max_value=3),
    "chunk_size": st.integers(min_value=1, max_value=300),
    "action_dof": st.integers(min_value=1, max_value=40),
    "denoise_steps": st.integers(min_value=0, max_value=20),
    "context_timestep": st.one_of(st.none(),
                                  st.integers(min_value=1, max_value=10_000)),
    "kind": st.sampled_from(PLACEMENT_KINDS),
    "net": preset_networks,
    "cloud_net": preset_networks,
}


def _walk_point(p):
    """The ``(spec, placement, context_timestep)`` of a walk's values,
    admitted by every scenario of its placement kind."""
    variant, context_timestep = p["variant"], p["context_timestep"]
    if p["kind"] == COLLABORATIVE:
        # Split serving needs an action expert and a stateless prefix.
        context_timestep = None
        if variant not in (DIFFUSION, DIFFUSION_LARGE):
            variant = DIFFUSION
    spec = replace(_LIB.model(p["model"]),
                   vision_encoder=_LIB.component(p["vision_encoder"]),
                   num_cameras=p["num_cameras"], chunk_size=p["chunk_size"],
                   action_dof=p["action_dof"],
                   denoise_steps=p["denoise_steps"])
    spec = decoding_variant_spec(spec, variant)
    placement = _placement(p["kind"], p["hw"], p["device_hw"], p["net"],
                           p["cloud_net"])
    return spec, placement, context_timestep


@st.composite
def scenario_walks(draw):
    """Points of a walk that changes each value once, in a drawn order (an
    accelerator changes one figure, or is replaced), so that consecutive
    points share every phase and price that the value does not define."""
    values = {name: draw(axis) for name, axis in _WALK_AXES.items()}
    values["hw"] = draw(st.one_of(preset_accelerators, accelerators))
    values["device_hw"] = draw(st.one_of(preset_accelerators, accelerators))
    points = [_walk_point(values)]
    for name in draw(st.permutations(sorted(values))):
        values[name] = draw(_WALK_AXES[name] if name in _WALK_AXES
                            else _accelerator_steps(values[name]))
        points.append(_walk_point(values))
    return points


def _outcome(call, memo):
    """``call(memo)``, or the message of the ``ValueError`` it raises."""
    try:
        return call(memo)
    except ValueError as exc:
        return str(exc)


def _scenario_calls(spec, placement, context_timestep):
    """``(name, call)`` of every scenario function that admits the point;
    ``call(memo)`` runs it with that memo."""
    calls = [("sync", lambda memo: sync_scenario(
        spec, placement, context_timestep, memo))]
    if placement.kind == COLLABORATIVE:
        return calls + [("collaborative", lambda memo: collaborative_scenario(
            spec, placement, memo))]
    if placement.kind != ON_DEVICE:
        calls.append(("async", lambda memo: async_scenario(
            spec, placement, context_timestep, memo)))
    if context_timestep is None:
        calls.append(("dual", lambda memo: dual_system_scenario(
            spec, placement, 5.0, memo)))
    return calls


@given(points=scenario_walks())
@settings(max_examples=60, deadline=None)
def test_scenarios_sharing_one_memo_equal_fresh_calls_and_the_reference(
        points):
    """One memo shared across specs, timesteps and placements changes
    nothing, bit for bit, and a fresh call prices each phase that has runs
    as the reference fold prices them: the action phase on the device of a
    collaborative placement, every other phase on ``placement.hw``."""
    memo = {}
    for spec, placement, context_timestep in points:
        for name, call in _scenario_calls(spec, placement, context_timestep):
            fresh = _outcome(call, None)
            assert _outcome(call, memo) == fresh, name
            if isinstance(fresh, str) or not fresh.phase_latencies:
                continue
            action_hw = (placement.device_hw
                         if placement.kind == COLLABORATIVE else placement.hw)
            figures = {phase: reference_figures(
                           runs, action_hw if phase == ACTION else placement.hw)
                       for phase, runs in phase_runs(
                           spec, context_timestep).items() if runs}
            assert (fresh.phase_latencies, fresh.operational_intensity,
                    fresh.boundedness) == tuple(
                {phase: figure[i] for phase, figure in figures.items()}
                for i in range(3)), name


@st.composite
def sweep_grids(draw, kind):
    """``(spec, context_timestep)`` points of a drawn grid, as ``sweep``
    builds them, for one placement kind."""
    spec = _LIB.model(draw(st.sampled_from(sorted(_LIB.models))))
    variants = DECODING_VARIANTS
    timesteps = st.one_of(st.none(), st.integers(min_value=1, max_value=5_000))
    if kind == COLLABORATIVE:
        # Split serving needs an action expert and a stateless prefix.
        variants = (DIFFUSION, DIFFUSION_LARGE)
        timesteps = st.none()

    def axis(values):
        return draw(st.lists(values, min_size=1, max_size=2))

    return [(decoding_variant_spec(
                replace(spec, denoise_steps=steps, chunk_size=chunk,
                        action_dof=dof), variant), context_timestep)
            for chunk in axis(st.integers(min_value=1, max_value=300))
            for context_timestep in axis(timesteps)
            for variant in axis(st.sampled_from(variants))
            for dof in axis(st.integers(min_value=1, max_value=40))
            for steps in axis(st.integers(min_value=0, max_value=20))]


@given(data=st.data(), kind=st.sampled_from(PLACEMENT_KINDS),
       hw=sized_accelerators, device_hw=sized_accelerators,
       net=preset_networks, cloud_net=preset_networks)
@settings(max_examples=40, deadline=None)
def test_sync_sweep_equals_sync_scenario_at_every_point(
        data, kind, hw, device_hw, net, cloud_net):
    """Sharing one memo across the grid changes nothing, bit for bit, on
    feasible and infeasible points alike."""
    points = data.draw(sweep_grids(kind))
    placement = _placement(kind, hw, device_hw, net, cloud_net)
    assert sync_sweep(points, placement) == [
        sync_scenario(spec, placement, t) for spec, t in points]


_ROOM = 2 ** 62  # bytes: room for any point priced here


def _lifted(hw):
    return replace(hw, mem_capacity=_ROOM)


@pytest.mark.parametrize("kind", (ON_DEVICE, EDGE_SERVER))
def test_the_first_context_step_is_the_stateless_baseline(kind):
    """Step 1 caches no earlier camera step, so it prices, footprint and
    all, like the stateless point, fitting or not."""
    net = _LIB.network("wifi7")
    for model, variant, name in product(sorted(_LIB.models),
                                        DECODING_VARIANTS,
                                        sorted(_LIB.hardware)):
        spec = decoding_variant_spec(_LIB.model(model), variant)
        placement = _placement(kind, _LIB.accelerator(name), None, net, None)
        assert sync_scenario(spec, placement, 1) == sync_scenario(
            spec, placement), (model, variant, name)


def _attended(action):
    """The VLM tokens that an action phase's ``(builder, args)`` attends."""
    builder, args = action
    if builder is opgraph.parallel_decode_runs:
        return args[2]
    layer_builder, layer_args = args[0]  # a decode step or an expert layer
    if layer_builder is opgraph.parallel_decode_runs:
        return layer_args[2]
    return layer_args[2] + layer_args[3]  # fresh prefix plus history


@given(model=st.sampled_from(sorted(_LIB.models)),
       variant=st.sampled_from(DECODING_VARIANTS),
       num_cameras=st.integers(min_value=0, max_value=4),
       tokens_per_image=st.integers(min_value=1, max_value=512),
       language_tokens=st.integers(min_value=1, max_value=128),
       context_timestep=st.one_of(st.none(),
                                  st.integers(min_value=1, max_value=10_000)))
@settings(max_examples=40, deadline=None)
def test_memory_and_attention_read_one_token_ledger(
        model, variant, num_cameras, tokens_per_image, language_tokens,
        context_timestep):
    """The footprint holds the KV of the cached tokens that the prefill and
    every decoder attend."""
    spec = decoding_variant_spec(replace(
        _LIB.model(model), num_cameras=num_cameras,
        tokens_per_image=tokens_per_image, language_tokens=language_tokens),
        variant)
    cached = opgraph.cached_tokens(spec, context_timestep)
    assert memory_footprint(spec, context_timestep) == (
        sum(weight_bytes(c) for c in spec.components())
        + cached * kv_bytes_per_token(spec.vlm))
    builds = opgraph.phase_builds(spec, context_timestep)
    _, (_, prefix, history) = builds[VLM]
    assert prefix + history == cached == _attended(builds[ACTION])


@pytest.mark.parametrize("variant", (DIFFUSION, DIFFUSION_LARGE))
@pytest.mark.parametrize("model", sorted(_LIB.models))
def test_each_side_of_a_split_holds_the_prefix_kv(model, variant):
    """The split footprint is the single-system one plus the prefix KV once
    more: the server and the robot each hold it."""
    spec = decoding_variant_spec(_LIB.model(model), variant)
    hw = _lifted(_LIB.accelerator("b100"))
    result = collaborative_scenario(
        spec, Placement.collaborative(hw, hw, _LIB.network("wifi7")))
    assert result.feasible
    assert result.footprint_bytes == memory_footprint(spec) + (
        opgraph.cached_tokens(spec) * kv_bytes_per_token(spec.vlm))


# Largest drawn value of each workload count; context steps grow along
# ``_CONTEXT_STEPS``, where ``None`` is the stateless point.
_WORKLOAD_COUNTS = {"chunk_size": 300, "denoise_steps": 20, "action_dof": 40,
                    "num_cameras": 4, "tokens_per_image": 512,
                    "language_tokens": 128}
_CONTEXT_STEPS = (None, 1, 2, 10, 100, 1000, 10_000)
_LEAST = {"denoise_steps": 0, "num_cameras": 0}  # the other counts start at 1
# Largest drawn layer count of each stack, above every preset's; a stack
# starts from one layer.
_LAYER_COUNTS = {"vision_encoder": 128, "vlm": 128, "action_expert": 128}


def _served_price(model, variant, placement, counts, step):
    """The e2e latency and footprint of ``model`` under ``variant`` with the
    workload and layer ``counts``; a model without an action expert ignores
    that stack's count."""
    spec = decoding_variant_spec(replace(_LIB.model(model), **{
        name: counts[name] for name in _WORKLOAD_COUNTS}), variant)
    spec = replace(spec, **{
        stack: replace(getattr(spec, stack), num_layers=counts[stack])
        for stack in _LAYER_COUNTS if getattr(spec, stack) is not None})
    result = sync_scenario(spec, placement, _CONTEXT_STEPS[step])
    return result.e2e_latency, result.footprint_bytes


@given(data=st.data(), model=st.sampled_from(sorted(_LIB.models)),
       variant=st.sampled_from(DECODING_VARIANTS),
       hw=preset_accelerators.map(_lifted),
       device_hw=preset_accelerators.map(_lifted),
       kind=st.sampled_from(PLACEMENT_KINDS),
       net=preset_networks, cloud_net=preset_networks)
@settings(max_examples=60, deadline=None)
def test_more_work_never_lowers_latency_or_footprint(data, model, variant,
                                                     hw, device_hw, kind,
                                                     net, cloud_net):
    """Served from devices with room for every point, on one device,
    across its links or split between server and robot, a walk that grows
    each workload and layer count in a drawn order, and the context steps
    one at a time from stateless, never lowers the end-to-end latency or
    the footprint, a split's server and device footprints together.  A
    split keeps a diffusion variant and the stateless prefix."""
    growth = {**_WORKLOAD_COUNTS, **_LAYER_COUNTS}
    counts = {name: data.draw(st.integers(min_value=_LEAST.get(name, 1),
                                          max_value=most))
              for name, most in growth.items()}
    if kind == COLLABORATIVE:
        if variant not in (DIFFUSION, DIFFUSION_LARGE):
            variant = DIFFUSION  # split serving needs an action expert
        last_step = 0
    else:
        last_step = data.draw(st.integers(min_value=1,
                                          max_value=len(_CONTEXT_STEPS) - 1))
    moves = []
    for name in data.draw(st.permutations([*growth, "context"])):
        if name == "context":
            moves.extend([name] * last_step)
        else:
            moves.append(name)
    placement = _placement(kind, hw, device_hw, net, cloud_net)
    step = 0
    before = _served_price(model, variant, placement, counts, step)
    for name in moves:
        if name == "context":
            step += 1
        else:
            counts[name] = data.draw(st.integers(
                min_value=counts[name], max_value=growth[name]))
        after = _served_price(model, variant, placement, counts, step)
        assert after[0] >= before[0] and after[1] >= before[1], (
            name, _CONTEXT_STEPS[step])
        before = after


@given(model=st.sampled_from(sorted(_LIB.models)),
       variant=st.sampled_from(DECODING_VARIANTS), hw=preset_accelerators,
       kind=st.sampled_from((ON_DEVICE, EDGE_SERVER, CLOUD_SERVER)),
       net=preset_networks,
       context_timestep=st.one_of(st.none(),
                                  st.integers(min_value=1, max_value=10_000)),
       spare=st.integers(min_value=0, max_value=2 ** 40))
@settings(max_examples=30, deadline=None)
def test_capacity_decides_feasibility_and_nothing_else(
        model, variant, hw, kind, net, context_timestep, spare):
    """A point that fits prices the same on any larger device, and one
    byte short of its footprint it does not fit."""
    spec = decoding_variant_spec(_LIB.model(model), variant)

    def at(capacity):
        placement = _placement(kind, replace(hw, mem_capacity=capacity),
                               None, net, net)
        return sync_scenario(spec, placement, context_timestep)

    fitted = at(_ROOM)
    need = fitted.footprint_bytes
    assert at(need) == at(need + spare) == fitted
    short = at(need - 1)
    assert not short.feasible and short.footprint_bytes == need


# How a drawn link field may grow from its value: bandwidths up to 100-fold,
# base latency by up to a second.
_LINK_GROWTH = {
    "upload_bw": lambda v: st.floats(min_value=v, max_value=100 * v),
    "download_bw": lambda v: st.floats(min_value=v, max_value=100 * v),
    "base_latency": lambda v: st.floats(min_value=v, max_value=v + 1.0),
}


@given(data=st.data(), model=st.sampled_from(sorted(_LIB.models)),
       variant=st.sampled_from(DECODING_VARIANTS),
       kind=st.sampled_from((EDGE_SERVER, CLOUD_SERVER, COLLABORATIVE)),
       hw=preset_accelerators.map(_lifted),
       device_hw=preset_accelerators.map(_lifted), net=networks,
       cloud_net=networks, link=st.sampled_from(("access_net", "cloud_net")),
       field=st.sampled_from(sorted(_LINK_GROWTH)))
@settings(max_examples=60, deadline=None)
def test_a_better_link_never_slows_a_served_deployment(
        data, model, variant, kind, hw, device_hw, net, cloud_net, link,
        field):
    """Growing one link's bandwidth never raises the end-to-end latency
    nor lowers the pipelined rate; growing its base latency never lowers
    the end-to-end latency."""
    if kind == COLLABORATIVE and variant not in (DIFFUSION, DIFFUSION_LARGE):
        variant = DIFFUSION  # split serving needs an action expert
    if kind != CLOUD_SERVER:
        link = "access_net"
    spec = decoding_variant_spec(_LIB.model(model), variant)
    placement = _placement(kind, hw, device_hw, net, cloud_net)
    old = getattr(placement, link)
    new = replace(old, **{field: data.draw(
        _LINK_GROWTH[field](getattr(old, field)))})
    grown = replace(placement, **{link: new})
    memo = {}
    before = sync_scenario(spec, placement, memo=memo)
    after = sync_scenario(spec, grown, memo=memo)
    assert before.feasible and after.feasible
    if field == "base_latency":
        assert after.e2e_latency >= before.e2e_latency
        return
    assert after.e2e_latency <= before.e2e_latency
    if kind != COLLABORATIVE:
        assert async_scenario(spec, grown, memo=memo).async_frequency >= (
            async_scenario(spec, placement, memo=memo).async_frequency)


@given(model=st.sampled_from(sorted(_LIB.models)),
       hw=preset_accelerators.map(_lifted),
       kind=st.sampled_from((EDGE_SERVER, CLOUD_SERVER)),
       net=st.one_of(preset_networks, networks),
       cloud_net=st.one_of(preset_networks, networks),
       chunk=st.integers(min_value=1, max_value=1000),
       dof=st.integers(min_value=1, max_value=4000))
@example(model="pi0", hw=_LIB.accelerator("b100"), kind=EDGE_SERVER,
         net=_LIB.network("4g"), cloud_net=None, chunk=50, dof=2000)
@example(model="pi0", hw=_LIB.accelerator("b100"), kind=CLOUD_SERVER,
         net=_LIB.network("ethernet-10g"),
         cloud_net=_LIB.network("slow-cloud"), chunk=50, dof=2000)
@settings(max_examples=40, deadline=None)
def test_the_pipelined_rate_is_its_slowest_stage(model, hw, kind, net,
                                                 cloud_net, chunk, dof):
    """The GPU, each hop's upload of an observation and each hop's download
    of an action chunk are stages; the examples bind on a download."""
    spec = replace(_LIB.model(model), chunk_size=chunk, action_dof=dof)
    placement = _placement(kind, hw, None, net, cloud_net)
    result = async_scenario(spec, placement)
    up_bits = 8 * netmodel.COMPRESSED_OBSERVATION_BYTES
    down_bits = 8 * netmodel.action_bytes(spec)
    path = placement.network_path()
    assert result.async_frequency == min(
        [1.0 / sum(result.phase_latencies.values())]
        + [hop.rate(upload=True) / up_bits for hop in path]
        + [hop.rate(upload=False) / down_bits for hop in path])


def _cli_json(*argv):
    """Exit code, stdout and stderr of ``argv`` in JSON format."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--format", "json"])
    return code, out.getvalue(), err.getvalue()


def _axis(values):
    return st.one_of(st.none(), st.lists(values, min_size=1, max_size=2))


@given(chunk=_axis(st.integers(min_value=1, max_value=300)),
       steps=_axis(st.integers(min_value=0, max_value=20)),
       dof=_axis(st.integers(min_value=1, max_value=40)),
       decoding=_axis(st.sampled_from(DECODING_VARIANTS)),
       context_steps=_axis(st.integers(min_value=1, max_value=5_000)),
       model=st.sampled_from(sorted(_LIB.models)),
       hw=st.sampled_from(sorted(_LIB.hardware)),
       placement=st.sampled_from([(), ("--placement", EDGE_SERVER, "--net",
                                       "wifi7"),
                                  ("--placement", EDGE_SERVER)]))
@settings(max_examples=30, deadline=None)
def test_each_sweep_row_is_the_analyze_record_of_its_point(
        chunk, steps, dof, decoding, context_steps, model, hw, placement):
    """A sweep configures each count triple and each decoding once; its
    rows, in grid order, still read what ``analyze`` prints for each
    point, duplicate axis values included.  A point that ``analyze``
    refuses (``--steps`` under an autoregressive decoding, an edge
    placement without ``--net``) refuses the sweep with the same one line,
    the first in grid order."""
    axes = {name: values for name, values in (
        ("chunk", chunk), ("context_steps", context_steps),
        ("decoding", decoding), ("dof", dof), ("steps", steps))
        if values is not None}
    common = ("--model", model, "--hw", hw, *placement)
    flags = [f"--{name.replace('_', '-')}" for name in axes]
    points = list(product(*axes.values()))
    analyzed = [_cli_json("analyze", *common, *(
        arg for flag, value in zip(flags, point)
        for arg in (flag, str(value)))) for point in points]
    swept = _cli_json("sweep", *common, *(
        arg for flag, values in zip(flags, axes.values())
        for arg in (flag, ",".join(map(str, values)))))
    refused = [result for result in analyzed if result[0] != 0]
    if refused:
        assert swept == refused[0]
        return
    code, out, err = swept
    assert (code, err) == (0, "")
    rows = json.loads(out)
    assert [tuple(row[name] for name in axes) for row in rows] == points
    for row, (_, record, _) in zip(rows, analyzed):
        record = json.loads(record)
        assert {col: row[col] for col in cli._SWEEP_COLUMNS} == {
            col: record.get(col) for col in cli._SWEEP_COLUMNS}


def _reference_decimals(key):
    for suffix, digits in {"_ms": 2, "_hz": 1, "_gb": 2, "_oi": 1}.items():
        if key.endswith(suffix):
            return digits
    return None


def _reference_project(key, value, digits, text):
    """One cell projected on its own, as the renderer once did per cell."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} is {value}, not a finite number")
    rounded = digits is not None and isinstance(value, (int, float))
    if not text:
        return round(value, digits) if rounded else value
    if value is None:
        return "N/A"
    return f"{value:.{digits}f}" if rounded else str(value)


# Real column names, with and without a decimals suffix.
_PROJECTED_NAMES = ("chunk", "decoding", "model", "placement", "vlm_bound",
                    "note_1", *cli._SWEEP_COLUMNS, "observation_upload_ms",
                    "async_frequency_hz", "s2_cap_hz", "vlm_oi")
_CELLS = st.one_of(
    st.none(), st.integers(min_value=-2 ** 53, max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.inf, -math.inf, math.nan]), st.text(max_size=3))


@st.composite
def _tables(draw):
    names = draw(st.lists(st.sampled_from(_PROJECTED_NAMES), min_size=1,
                          max_size=4))
    rows = draw(st.lists(st.tuples(*[_CELLS] * len(names)), max_size=4))
    return names, rows


@given(table=_tables(), fmt=st.sampled_from(cli.FORMATS))
# Column order would name the NaN of the first column; row order names the
# infinity of the first row.
@example(table=(["vlm_latency_ms", "e2e_latency_ms"],
                [(1.0, math.inf), (math.nan, 2.0)]), fmt="json")
@example(table=(["footprint_gb", "feasible"],
                [(None, "yes"), (3, None), ("x", 1.005), (2.675, 7)]),
         fmt="table")
@settings(max_examples=150, deadline=None)
def test_column_projection_matches_the_cell_by_cell_reference(table, fmt):
    """The projector gives the cells, types included, of the per-cell
    reference in row-major order, or its error for the first non-finite
    cell in that order."""
    names, rows = table
    columns = [[row[i] for row in rows] for i in range(len(names))]
    try:
        expected = [tuple(_reference_project(key, value,
                                             _reference_decimals(key),
                                             fmt != "json")
                          for key, value in zip(names, row)) for row in rows]
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            cli._project_columns(names, columns, fmt)
        assert str(raised.value) == str(exc)
    else:
        assert repr(cli._project_columns(names, columns, fmt)) == repr(
            expected)


def _per_value_columns(names, columns, fmt):
    """The projection as it was written before columns of floats were
    checked and rounded in C: every float checked first, then each value
    written on its own."""
    if not all(all(map(math.isfinite, [v for v in column
                                       if isinstance(v, float)]))
               for column in columns):
        for row in zip(*columns):
            for name, value in zip(names, row):
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"{name} is {value}, not a finite number")
    cells = []
    for name, column in zip(names, columns):
        digits = cli._DECIMALS.get(name.rpartition("_")[2])
        if fmt != "json":
            spec = "" if digits is None else f".{digits}f"
            column = [format(v, spec) if isinstance(v, (int, float))
                      else "N/A" if v is None else str(v) for v in column]
        elif digits is not None:
            column = [round(v, digits) if isinstance(v, (int, float)) else v
                      for v in column]
        cells.append(column)
    return list(zip(*cells))


_FLOATS = st.one_of(
    st.floats(), st.sampled_from([-0.0, 5e-324, -2.2e-308, 1e16, 2.5e16,
                                  1.7e308, math.inf, -math.inf, math.nan]))
_VALUES = st.one_of(_FLOATS, st.integers(), st.sampled_from([10 ** 400, True]),
                    st.none(), st.text(max_size=2))


@st.composite
def _column_tables(draw):
    """Names and equal-length columns, each of floats only, of ints only or
    of any mix of floats, ints, None and text."""
    names = draw(st.lists(st.sampled_from(_PROJECTED_NAMES), min_size=1,
                          max_size=5))
    length = draw(st.integers(min_value=0, max_value=5))
    kinds = st.sampled_from([_FLOATS, st.integers(), _VALUES])
    columns = [draw(st.lists(draw(kinds), min_size=length, max_size=length))
               for _ in names]
    return names, columns


def _projected(project, names, columns, fmt):
    try:
        return repr(project(names, columns, fmt))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@given(table=_column_tables(), fmt=st.sampled_from(cli.FORMATS))
# An int too large for a float fails to be written with decimals, but the
# NaN of a later column is named first.
@example(table=(["vlm_latency_ms", "chunk", "e2e_latency_ms"],
                [[10 ** 400, -0.0], [1, 2], [1.5, math.nan]]), fmt="table")
@example(table=(["footprint_gb", "sync_frequency_hz"],
                [[2.675, 1e16], [None, 0.25]]), fmt="json")
@settings(max_examples=300, deadline=None)
def test_column_projection_matches_the_per_value_projection(table, fmt):
    """Columns of floats, checked and rounded in C, give the rows of the
    per-value projection, or its error: the first NaN or infinity in row-major order
    before any other, else the same overflow."""
    names, columns = table
    assert (_projected(cli._project_columns, names, columns, fmt)
            == _projected(_per_value_columns, names, columns, fmt))


def test_sweep_results_identical_under_thread_pool():
    spec = _LIB.model("pi0")
    placements = [Placement.on_device(_LIB.accelerator(name))
                  for name in sorted(_LIB.hardware)]
    points = [(placement, t) for placement in placements
              for t in (1, 10, 100, 1000)]

    def evaluate(point):
        placement, t = point
        return sync_scenario(spec, placement, context_timestep=t)

    serial = [evaluate(p) for p in points]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(evaluate, points))
    assert serial == threaded  # equal records, not approx
