"""Structural invariants checked over randomized inputs.

Nothing in here depends on a particular preset's published numbers; these
are the laws any configuration must satisfy.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vla_roofline import (
    COMPUTE_BOUND,
    MEMORY_BOUND,
    UPLOAD,
    AcceleratorConfig,
    NetworkConfig,
    Operator,
    OperatorGraph,
    Payload,
    Placement,
    VLM,
    async_scenario,
    dual_system_scenario,
    graph_time,
    load_presets,
    op_time,
    param_count,
    pipeline_graph,
    prefill_runs,
    kv_bytes_per_token,
    sync_scenario,
    transfer_time,
)
from vla_roofline import opgraph
from vla_roofline.opgraph import ACTION, PHASES
from vla_roofline.record import replace
from vla_roofline.roofline import boundedness, graph_oi, phase_breakdown
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
)

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
    peak_flops=st.fixed_dictionaries({
        2: st.floats(min_value=1e9, max_value=1e16),
        4: st.floats(min_value=1e9, max_value=1e16),
    }),
    mem_bandwidth=st.floats(min_value=1e6, max_value=1e13),
    mem_capacity=st.just(256 * 1024**3),
)

graphs = st.lists(st.tuples(operators, st.integers(min_value=0, max_value=5)),
                  min_size=0, max_size=8).map(
    lambda runs: OperatorGraph(tuple(runs)))

# Few distinct labels, phases and sizes, so that equal operators recur and
# runs merge.
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
    efficiency=st.floats(min_value=0.05, max_value=1.0),
)


@given(op=operators, hw=accelerators)
def test_op_time_is_the_max_of_both_walls(op, hw):
    seconds, side = op_time(op, hw)
    t_compute = op.flops / hw.peak(2)
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
    assert combined.total_flops == a.total_flops + b.total_flops
    assert combined.total_bytes == a.total_bytes + b.total_bytes
    assert graph_time(combined, hw) == pytest.approx(
        graph_time(a, hw) + graph_time(b, hw), rel=1e-12, abs=0.0)


@given(g=graphs, n=st.integers(min_value=0, max_value=20))
def test_repeated_graph_scales_exact_counts(g, n):
    repeated = OperatorGraph((op, n * count) for op, count in g.ops)
    assert repeated.total_flops == n * g.total_flops
    assert repeated.total_bytes == n * g.total_bytes


@given(runs=run_lists, hw=accelerators)
def test_run_graph_prices_like_its_flat_operator_list(runs, hw):
    """Pricing a run once times its count matches launching every kernel."""
    graph = OperatorGraph(tuple(runs))
    flat = [op for op, count in runs for _ in range(count)]
    assert graph.total_flops == sum(op.flops for op in flat)
    assert graph.total_bytes == sum(op.bytes for op in flat)
    reference = {}
    for op in flat:
        reference[op.phase] = reference.get(op.phase, 0.0) + op_time(op, hw)[0]
    assert graph_time(graph, hw) == pytest.approx(sum(reference.values()),
                                                  rel=1e-12, abs=0.0)
    assert {op.phase for op, _ in graph.ops} == set(reference)
    for phase, seconds in reference.items():
        assert graph_time(graph.subgraph(phase), hw) == pytest.approx(
            seconds, rel=1e-12, abs=0.0)


@given(runs=run_lists, n=st.integers(min_value=0, max_value=20))
def test_runs_are_distinct_positive_and_first_seen(runs, n):
    graph = OperatorGraph(tuple(runs))
    ops = [op for op, _ in graph.ops]
    assert len(set(ops)) == len(ops)
    assert all(count > 0 for _, count in graph.ops)
    # Each launched operator sits where it first appears in the input.
    launched = {op for op, count in runs if count}
    assert ops == [op for op in dict.fromkeys(op for op, _ in runs)
                   if op in launched]
    assert sum(count for _, count in graph.ops) == \
        sum(count for _, count in runs)
    assert OperatorGraph((op, n * count) for op, count in graph.ops).ops == (
        tuple((op, n * count) for op, count in graph.ops) if n else ())
    assert OperatorGraph(graph.ops + graph.ops).ops == tuple(
        (op, 2 * count) for op, count in graph.ops)
    for phase in PHASES:
        assert graph.subgraph(phase).ops == tuple(
            run for run in graph.ops if run[0].phase == phase)


@given(net=networks,
       a=st.integers(min_value=0, max_value=10**9),
       b=st.integers(min_value=0, max_value=10**9))
def test_transfer_time_is_affine_in_bytes(net, a, b):
    t_a = transfer_time(Payload(a, UPLOAD), net)
    t_b = transfer_time(Payload(b, UPLOAD), net)
    t_ab = transfer_time(Payload(a + b, UPLOAD), net)
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
    graph = OperatorGraph(prefill_runs(cfg, q_len))
    attention_flops = cfg.num_layers * 4 * q_len * q_len * cfg.q_width
    assert graph.total_flops == 2 * q_len * param_count(cfg) + attention_flops


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


def _is_merged(runs):
    """A builder's non-zero runs are what a graph merge of them keeps."""
    return [run for run in runs if run[1]] == list(OperatorGraph(runs).ops)


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
    """Every part and phase builder returns runs that a merge leaves as
    they are: the repeated FFN up projections come folded into one run."""
    assert _is_merged(opgraph.vit_encode_runs(vision, cameras,
                                              tokens_per_image))
    assert _is_merged(opgraph.prefill_runs(vlm, language_tokens, history))
    assert _is_merged(opgraph.parallel_decode_runs(vlm, chunk, history))
    assert _is_merged(opgraph.diffusion_runs(
        expert, language_tokens, kv_bytes_per_token(vlm), chunk, steps, dof,
        context_cfg=vlm, history_tokens=history))
    spec = VlaModelSpec(
        "toy", vision, vlm,
        action_expert=expert if decoding == DIFFUSION else None,
        num_cameras=cameras, tokens_per_image=tokens_per_image,
        language_tokens=language_tokens, action_dof=dof, chunk_size=chunk,
        denoise_steps=steps, decoding_mode=decoding)
    assert _is_merged(opgraph.vision_runs(spec))
    assert _is_merged(opgraph.vlm_runs(spec, context_timestep))
    assert _is_merged(opgraph.action_runs(spec, context_timestep))


@given(op=operators, hw=accelerators,
       scale=st.floats(min_value=1.5, max_value=100.0))
def test_faster_compute_only_helps_compute_bound_operators(op, hw, scale):
    faster = replace(hw, peak_flops={p: v * scale
                                     for p, v in hw.peak_flops.items()})
    before, side = op_time(op, hw)
    after, _ = op_time(op, faster)
    assert after <= before
    if side == MEMORY_BOUND:
        assert after == before  # the memory wall did not move


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
       decoding=st.sampled_from(DECODING_MODES),
       context_timestep=st.one_of(st.none(),
                                  st.integers(min_value=1, max_value=10_000)),
       hw=st.one_of(preset_accelerators, accelerators),
       action_hw=st.one_of(st.none(), preset_accelerators, accelerators))
@settings(max_examples=60)
def test_phase_breakdown_prices_each_phase_like_its_subgraph(
        model, decoding, context_timestep, hw, action_hw):
    """One walk over the runs gives, bit for bit, what pricing each phase's
    subgraph separately gives."""
    spec = _LIB.model(model)
    spec = decoding_variant_spec(spec, decoding, spec.chunk_size,
                                 spec.action_dof)
    graph = pipeline_graph(spec, context_timestep)
    expected = {}
    for phase in PHASES:
        sub = graph.subgraph(phase)
        if not sub.ops:
            continue
        phase_hw = action_hw if phase == ACTION and action_hw else hw
        expected[phase] = (graph_time(sub, phase_hw), graph_oi(sub),
                           boundedness(sub, phase_hw))
    latencies, intensity, labels = phase_breakdown(graph, hw, action_hw)
    assert list(latencies) == list(intensity) == list(labels) == list(expected)
    assert {phase: (latencies[phase], intensity[phase], labels[phase])
            for phase in latencies} == expected


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
        *(st.floats(min_value=1e9, max_value=1e16).map(
            lambda peak, p=precision: replace(
                hw, peak_flops={**hw.peak_flops, p: peak}))
          for precision in (2, 4)))


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
    spec = decoding_variant_spec(spec, variant, spec.chunk_size,
                                 spec.action_dof)
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
def test_scenarios_sharing_one_memo_equal_fresh_calls_and_the_graph(points):
    """One memo shared across specs, timesteps and placements changes
    nothing, bit for bit, and a fresh call prices each phase as
    ``phase_breakdown`` prices the whole pipeline graph."""
    memo = {}
    for spec, placement, context_timestep in points:
        for name, call in _scenario_calls(spec, placement, context_timestep):
            fresh = _outcome(call, None)
            assert _outcome(call, memo) == fresh, name
            if isinstance(fresh, str) or not fresh.phase_latencies:
                continue
            action_hw = (placement.device_hw
                         if placement.kind == COLLABORATIVE else None)
            assert (fresh.phase_latencies, fresh.operational_intensity,
                    fresh.boundedness) == phase_breakdown(
                pipeline_graph(spec, context_timestep), placement.hw,
                action_hw), name


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

    return [(decoding_variant_spec(replace(spec, denoise_steps=steps),
                                   variant, chunk, dof), context_timestep)
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
    assert serial == threaded  # bit-identical dataclasses, not approx
