"""Deployment scenarios: sync/async rates, splits, and design sweeps.

Expected values are frozen from per-operator hand derivations (exact
FLOP/byte integers over rational peak rates, network legs as base latency
plus serialization); they are tighter than the published-table tolerances
exercised in test_acceptance.py.
"""

from itertools import combinations

import pytest

from vla_roofline.netmodel import (
    COMPRESSED_OBSERVATION_BYTES,
    NetworkConfig,
    action_bytes,
)
from vla_roofline.opgraph import ACTION, VISION, VLM
from vla_roofline.record import replace
from vla_roofline.roofline import (
    AcceleratorConfig,
    kv_cache_bytes,
    memory_footprint,
)
from vla_roofline.scenarios import (
    AUTOREGRESSIVE,
    AUTOREGRESSIVE_PARALLEL,
    DIFFUSION,
    DECODING_VARIANTS,
    DIFFUSION_LARGE,
    PLACEMENT_FIELDS,
    PLACEMENT_KINDS,
    Placement,
    async_scenario,
    check_scenario,
    collaborative_scenario,
    decoding_variant_spec,
    dual_system_scenario,
    dual_system_times,
    long_context_sweep,
    scaling_sweep,
    sync_scenario,
)

from reference import phase_runs, totals

REL = 1e-6  # frozen-value tolerance: float noise only


# --- synchronous on-device -------------------------------------------------

@pytest.mark.parametrize("hw_name, e2e_ms, freq", [
    ("thor", 53.459586, 18.7057),
    ("rtx4090", 31.341793, 31.9063),
    ("a100", 16.324872, 61.2562),
    ("h100", 6.221698, 160.7278),
    ("b100", 3.189145, 313.5637),
])
def test_on_device_sync(lib, pi0, hw_name, e2e_ms, freq):
    result = sync_scenario(pi0, Placement.on_device(lib.accelerator(hw_name)))
    assert result.feasible
    assert result.network_latencies == {}
    assert result.e2e_latency * 1e3 == pytest.approx(e2e_ms, rel=REL)
    assert result.sync_frequency == pytest.approx(freq, rel=1e-5)
    assert result.e2e_latency == sum(result.phase_latencies.values())


def test_on_device_boundedness_labels(lib, pi0):
    thor = sync_scenario(pi0, Placement.on_device(lib.accelerator("thor")))
    assert set(thor.boundedness.values()) == {"memory"}
    b100 = sync_scenario(pi0, Placement.on_device(lib.accelerator("b100")))
    assert b100.boundedness == {VISION: "compute", VLM: "compute",
                                ACTION: "memory"}


def test_infeasible_returns_na_result(lib):
    xxl = lib.model("pi0-xxl")
    result = sync_scenario(xxl, Placement.on_device(lib.accelerator("thor")))
    assert not result.feasible
    assert result.e2e_latency is None
    assert result.sync_frequency is None
    assert result.phase_latencies == {}
    assert "pi0-xxl needs 153.76 GB but thor has 128.00 GB" in result.notes


# --- networked serving (edge and cloud) -------------------------------------

def test_network_path_has_one_or_two_hops(lib, thor, b100):
    wifi7, cloud = lib.network("wifi7"), lib.network("fast-cloud")
    assert Placement.on_device(thor).network_path() == ()
    assert Placement.edge_server(b100, wifi7).network_path() == (wifi7,)
    assert Placement.collaborative(thor, b100, wifi7).network_path() == (wifi7,)
    assert (Placement.cloud_server(b100, wifi7, cloud).network_path()
            == (wifi7, cloud))
    with pytest.raises(ValueError, match="^edge-server placement needs "
                                         "access_net$"):
        Placement("edge-server", b100)
    with pytest.raises(ValueError, match="^cloud-server placement needs "
                                         "cloud_net$"):
        Placement("cloud-server", b100, access_net=wifi7)
    with pytest.raises(ValueError, match="^edge-server placement does not "
                                         "use device_hw$"):
        Placement("edge-server", b100, access_net=wifi7, device_hw=thor)
    with pytest.raises(ValueError, match="^on-device placement does not use "
                                         "access_net$"):
        Placement("on-device", thor, access_net=wifi7)
    with pytest.raises(ValueError, match="^collaborative placement does not "
                                         "use cloud_net$"):
        Placement("collaborative", b100, device_hw=thor, access_net=wifi7,
                  cloud_net=cloud)
    with pytest.raises(ValueError, match="^kind must be one of"):
        Placement("orbit", b100)


# Placement checks its optional fields in this order.
OPTIONAL_FIELDS = ("access_net", "cloud_net", "device_hw")
# What each kind's network_path() is, by the links given.
PATHS = {"on-device": (), "edge-server": ("access_net",),
         "cloud-server": ("access_net", "cloud_net"),
         "collaborative": ("access_net",)}


@pytest.mark.parametrize("kind", PLACEMENT_KINDS)
@pytest.mark.parametrize("given", [
    subset for size in range(len(OPTIONAL_FIELDS) + 1)
    for subset in combinations(OPTIONAL_FIELDS, size)],
    ids=lambda given: "+".join(given) or "none")
def test_placement_builds_only_with_its_kinds_fields(lib, thor, b100, kind,
                                                     given):
    """Every kind with each of the 8 subsets of its optional fields: it
    builds only from exactly ``PLACEMENT_FIELDS[kind]``, and otherwise names
    the first field, in checking order, that is missing or not used."""
    values = {"access_net": lib.network("wifi7"),
              "cloud_net": lib.network("fast-cloud"), "device_hw": thor}
    fields = {field: values[field] for field in given}
    used = PLACEMENT_FIELDS[kind]
    if set(given) == set(used):
        placement = Placement(kind, b100, **fields)
        assert placement.network_path() == tuple(values[field]
                                                 for field in PATHS[kind])
        return
    first = next(field for field in OPTIONAL_FIELDS
                 if (field in used) != (field in given))
    verb = "needs" if first in used else "does not use"
    with pytest.raises(ValueError) as raised:
        Placement(kind, b100, **fields)
    assert str(raised.value) == f"{kind} placement {verb} {first}"


SERVER_ROWS = [
    # (networks, sync ms, sync Hz, async Hz)
    (("ethernet-10g",), 3.328585, 300.42796, 313.56367),
    (("ethernet-1g",), 3.783545, 264.30239, 313.56367),
    (("wifi7",), 8.382612, 119.29456, 313.56367),
    (("5g",), 27.883945, 35.86293, 215.05376),
    (("4g",), 73.066759, 13.68611, 51.07527),
    (("ethernet-10g", "fast-cloud"), 23.368025, 42.79352, 313.56367),
    (("4g", "slow-cloud"), 273.461159, 3.65683, 51.07527),
]


@pytest.mark.parametrize("nets, sync_ms, sync_hz, async_hz", SERVER_ROWS)
def test_networked_sync_and_async(lib, pi0, b100, nets, sync_ms, sync_hz,
                                  async_hz):
    if len(nets) == 1:
        placement = Placement.edge_server(b100, lib.network(nets[0]))
    else:
        placement = Placement.cloud_server(b100, lib.network(nets[0]),
                                           lib.network(nets[1]))
    sync = sync_scenario(pi0, placement)
    assert sync.e2e_latency * 1e3 == pytest.approx(sync_ms, abs=1e-6)
    assert sync.sync_frequency == pytest.approx(sync_hz, abs=1e-5)
    assert set(sync.network_latencies) == {"observation_upload",
                                           "action_download"}
    pipelined = async_scenario(pi0, placement)
    assert pipelined.async_frequency == pytest.approx(async_hz, abs=1e-5)
    # Overlap can only help.
    assert pipelined.async_frequency >= sync.sync_frequency


def test_async_rate_is_gpu_bound_on_fast_links(lib, pi0, b100):
    placement = Placement.edge_server(b100, lib.network("ethernet-10g"))
    on_gpu = sync_scenario(pi0, Placement.on_device(b100))
    pipelined = async_scenario(pi0, placement)
    assert pipelined.async_frequency == pytest.approx(
        on_gpu.sync_frequency, rel=REL)


def test_async_rate_is_upload_bound_on_4g(lib, pi0, b100):
    placement = Placement.edge_server(b100, lib.network("4g"))
    pipelined = async_scenario(pi0, placement)
    # 19 Mbps / (8 * 46,500 B) = 51.0753 Hz, well below the GPU rate.
    assert pipelined.async_frequency == pytest.approx(19e6 / (8 * 46_500),
                                                      rel=REL)


@pytest.mark.parametrize("nets, async_hz", [
    (("4g",), 23.4375),  # 75 Mbps / (8 * 50 * 2000 * 4 B)
    (("4g", "slow-cloud"), 23.4375),
    # 1 Gbps on the cloud hop, just under the GPU's 312.52 Hz.
    (("ethernet-10g", "slow-cloud"), 312.5),
])
def test_async_rate_is_download_bound_for_large_chunks(lib, pi0, b100, nets,
                                                       async_hz):
    spec = replace(pi0, action_dof=2000)
    hops = [lib.network(name) for name in nets]
    placement = (Placement.edge_server(b100, *hops) if len(hops) == 1
                 else Placement.cloud_server(b100, *hops))
    assert async_scenario(spec, placement).async_frequency == async_hz


def test_async_requires_network(lib, pi0, b100, thor):
    with pytest.raises(ValueError, match="networked"):
        async_scenario(pi0, Placement.on_device(b100))
    collab = Placement.collaborative(thor, b100, lib.network("wifi7"))
    with pytest.raises(ValueError, match="collaborative"):
        async_scenario(pi0, collab)


# --- collaborative split ----------------------------------------------------

@pytest.mark.parametrize("net_name, kv_ms", [
    ("ethernet-10g", 11.84648),
    ("wifi7", 41.8216),
    ("5g", 245.9296),
])
def test_collaborative_kv_leg(lib, pi0, thor, b100, net_name, kv_ms):
    placement = Placement.collaborative(thor, b100, lib.network(net_name))
    result = sync_scenario(pi0, placement)       # dispatches to collaborative
    assert result.network_latencies["kv_download"] * 1e3 == pytest.approx(
        kv_ms, rel=REL)


def test_collaborative_phase_split(lib, pi0, thor, b100):
    result = collaborative_scenario(
        pi0, Placement.collaborative(thor, b100, lib.network("wifi7")))
    server_only = sync_scenario(pi0, Placement.on_device(b100))
    device_only = sync_scenario(pi0, Placement.on_device(thor))
    # Vision and VLM run at server speed, the expert at device speed.
    assert result.phase_latencies[VISION] == \
        server_only.phase_latencies[VISION]
    assert result.phase_latencies[VLM] == server_only.phase_latencies[VLM]
    assert result.phase_latencies[ACTION] == \
        device_only.phase_latencies[ACTION]
    assert any("server holds" in note for note in result.notes)


def test_collaborative_never_beats_server_only(lib, pi0, thor, b100):
    """Shipping the KV cache costs more than shipping a 2.8 KB action chunk
    on every packaged link."""
    for net_name in sorted(lib.networks):
        net = lib.network(net_name)
        collab = collaborative_scenario(
            pi0, Placement.collaborative(thor, b100, net))
        server = sync_scenario(pi0, Placement.edge_server(b100, net))
        assert collab.e2e_latency >= server.e2e_latency


def test_collaborative_without_denoise_steps_has_no_action_phase(
        lib, pi0, thor, b100):
    placement = Placement.collaborative(thor, b100, lib.network("wifi7"))
    result = collaborative_scenario(replace(pi0, denoise_steps=0), placement)
    with_steps = collaborative_scenario(pi0, placement)
    assert set(result.phase_latencies) == set(result.boundedness) == {
        VISION, VLM}
    assert result.e2e_latency == pytest.approx(
        with_steps.e2e_latency - with_steps.phase_latencies[ACTION], rel=REL)


def test_collaborative_rejects_cached_context(lib, pi0, thor, b100):
    placement = Placement.collaborative(thor, b100, lib.network("wifi7"))
    with pytest.raises(ValueError, match="camera history"):
        sync_scenario(pi0, placement, context_timestep=1000)


def test_collaborative_requires_diffusion(lib, pi0, thor, b100):
    ar = replace(pi0, action_expert=None, decoding_mode=AUTOREGRESSIVE)
    placement = Placement.collaborative(thor, b100, lib.network("wifi7"))
    with pytest.raises(ValueError, match="diffusion"):
        collaborative_scenario(ar, placement)


# --- dual-system serving -----------------------------------------------------

def test_dual_system_on_thor(lib, pi0, thor):
    r5 = dual_system_scenario(pi0, Placement.on_device(thor), 5.0)
    t_s1, t_s2 = dual_system_times(r5)
    assert t_s1 * 1e3 == pytest.approx(33.263576, rel=REL)
    assert t_s2 * 1e3 == pytest.approx(20.196011, rel=REL)
    assert r5.async_frequency == pytest.approx(27.0272, abs=5e-5)
    assert r5.sync_frequency == pytest.approx(1.0 / (t_s1 + t_s2), rel=REL)
    # Everything but the capped rate is the synchronous result.
    assert r5 == replace(sync_scenario(pi0, Placement.on_device(thor)),
                         async_frequency=r5.async_frequency)
    r10 = dual_system_scenario(pi0, Placement.on_device(thor), 10.0)
    assert r10.async_frequency == pytest.approx(23.9914, abs=5e-5)
    assert r10.async_frequency < r5.async_frequency


def test_dual_system_networked(lib, pi0, b100):
    placement = Placement.edge_server(b100, lib.network("ethernet-10g"))
    r = dual_system_scenario(pi0, placement, 5.0)
    # S1 = vision + action + both network legs; S2 = VLM on the GPU alone.
    assert dual_system_times(r)[0] * 1e3 == pytest.approx(1.458668, rel=REL)
    assert r.async_frequency == pytest.approx(679.14726, abs=1e-5)


def test_dual_system_flags_unreachable_cap(lib, pi0, thor):
    r = dual_system_scenario(pi0, Placement.on_device(thor), 25.0)
    assert r.feasible
    assert any("exceeds the achieved" in note for note in r.notes)


def test_dual_system_cap_beyond_s2_rate_is_infeasible(lib, pi0, thor):
    # 1 / 20.196 ms is about 49.5 Hz; a 50 Hz context cap cannot be met.
    r = dual_system_scenario(pi0, Placement.on_device(thor), 50.0)
    assert not r.feasible
    assert r.async_frequency is None
    assert any("cannot sustain" in note for note in r.notes)


def test_dual_system_rejects_bad_inputs(lib, pi0, thor, b100):
    for cap in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite positive"):
            dual_system_scenario(pi0, Placement.on_device(thor), cap)
    collab = Placement.collaborative(thor, b100, lib.network("wifi7"))
    with pytest.raises(ValueError, match="collaborative"):
        dual_system_scenario(pi0, collab, 5.0)


def _half_second_systems(pi0):
    """pi0 without cameras or denoising steps, at the edge, with both
    System 1 and System 2 taking exactly 0.5 s: every VLM run is
    compute-bound at a peak of twice the VLM's FLOPs, and each network
    leg takes 0.25 s."""
    spec = replace(pi0, num_cameras=0, denoise_steps=0)
    vlm_flops = totals(phase_runs(spec)[VLM])[0]
    hw = AcceleratorConfig(name="tie", peak_flops=2.0 * vlm_flops,
                           mem_bandwidth=2.0 ** 80, mem_capacity=2 ** 40)
    net = NetworkConfig(name="tie", base_latency=0.0,
                        upload_bw=4 * 8 * COMPRESSED_OBSERVATION_BYTES,
                        download_bw=4 * 8 * action_bytes(spec))
    placement = Placement.edge_server(hw, net)
    assert dual_system_times(sync_scenario(spec, placement)) == (0.5, 0.5)
    return spec, placement


def test_dual_system_at_a_full_system_2_cap_is_infeasible(pi0):
    """``s2_cap * T_s2 == 1`` leaves System 1 no time: infeasible."""
    spec, placement = _half_second_systems(pi0)
    r = dual_system_scenario(spec, placement, 2.0)
    assert not r.feasible and r.async_frequency is None
    assert r.notes == ("System 2 cannot sustain 2 Hz: refresh alone takes "
                       "500.00 ms",)


def test_dual_system_cap_equal_to_system_1_rate_is_not_flagged(pi0):
    """At a cap of 1 Hz, System 1 runs at (1 - 0.5) / 0.5 = 1 Hz: the cap
    does not exceed it, so no note; just above it, the note is there."""
    spec, placement = _half_second_systems(pi0)
    r = dual_system_scenario(spec, placement, 1.0)
    assert r.feasible and r.async_frequency == 1.0 and r.notes == ()
    above = dual_system_scenario(spec, placement, 1.125)
    assert above.async_frequency == 0.875
    assert above.notes == ("requested System-2 rate 1.125 Hz exceeds the "
                           "achieved System-1 rate 0.9 Hz",)


def test_dual_system_needs_system_1_work(pi0, thor):
    blind = replace(pi0, num_cameras=0, denoise_steps=0)
    with pytest.raises(ValueError, match="System-1 work"):
        dual_system_scenario(blind, Placement.on_device(thor), 5.0)


# --- one memo across calls ----------------------------------------------------

@pytest.mark.parametrize("change", [
    {"mem_bandwidth": 1e12},
    {"peak_flops": 1e13},
])
def test_one_memo_prices_accelerators_apart_by_each_figure(pi0, b100, change):
    """Accelerators that differ in one figure that pricing reads get their
    own prices from a shared memo."""
    placements = [Placement.on_device(hw)
                  for hw in (b100, replace(b100, **change))]
    memo = {}
    shared = [sync_scenario(pi0, placement, memo=memo)
              for placement in placements]
    assert shared == [sync_scenario(pi0, placement)
                      for placement in placements]
    assert shared[0].phase_latencies != shared[1].phase_latencies


# --- long-context sweep -------------------------------------------------------

def test_long_context_rows(lib, pi0, b100):
    timesteps = (1, 10, 100, 1000, 10000)
    rows = long_context_sweep(pi0, Placement.on_device(b100), timesteps)
    assert len(rows) == len(timesteps)
    for row, t in zip(rows, timesteps):
        kv_bytes = kv_cache_bytes(pi0, t)
        assert kv_bytes == 768 * t * 18_432
        assert row.footprint_bytes == (
            5_409_967_104 + (800 + 768 * (t - 1)) * 18_432)
        assert row.feasible
    # Step 1 with history enabled is exactly the stateless baseline.
    baseline = sync_scenario(pi0, Placement.on_device(b100))
    assert rows[0].e2e_latency == baseline.e2e_latency
    assert rows[1].e2e_latency * 1e3 == pytest.approx(3.89209, abs=1e-5)
    assert rows[3].e2e_latency * 1e3 == pytest.approx(87.17658, abs=1e-5)


@pytest.mark.parametrize("t", (0, -1))
@pytest.mark.parametrize("entry", ("memory_footprint", "kv_cache_bytes",
                                   "check_scenario"))
def test_a_context_step_below_one_is_one_error(pi0, b100, entry, t):
    calls = {
        "memory_footprint": lambda: memory_footprint(pi0, t),
        "kv_cache_bytes": lambda: kv_cache_bytes(pi0, t),
        "check_scenario": lambda: check_scenario(
            pi0, Placement.on_device(b100), t),
    }
    with pytest.raises(ValueError) as raised:
        calls[entry]()
    assert str(raised.value) == "context_timesteps must be >= 1"


def test_long_context_infeasible_on_small_gpus(lib, pi0):
    for hw_name in ("thor", "rtx4090"):
        rows = long_context_sweep(
            pi0, Placement.on_device(lib.accelerator(hw_name)), (10000,))
        assert not rows[0].feasible
        assert rows[0].e2e_latency is None


# --- decoding comparison -------------------------------------------------------

def _decodings(spec, hw, chunk=50, dof=14):
    """On-device result of every decoding variant at one chunk size and DoF."""
    placement = Placement.on_device(hw)
    spec = replace(spec, chunk_size=chunk, action_dof=dof)
    return {variant: sync_scenario(decoding_variant_spec(spec, variant),
                                   placement)
            for variant in DECODING_VARIANTS}


def test_decoding_comparison_baseline_chunk(lib, pi0, b100):
    rows = _decodings(pi0, b100)
    assert set(rows) == {DIFFUSION, DIFFUSION_LARGE, AUTOREGRESSIVE,
                         AUTOREGRESSIVE_PARALLEL}
    diffusion = rows[DIFFUSION]
    assert diffusion.e2e_latency * 1e3 == pytest.approx(3.189145, rel=REL)
    ar = rows[AUTOREGRESSIVE]
    assert ar.e2e_latency * 1e3 == pytest.approx(350.631, abs=5e-3)
    assert ar.e2e_latency / diffusion.e2e_latency == pytest.approx(
        109.94523, abs=1e-5)
    par = rows[AUTOREGRESSIVE_PARALLEL]
    assert par.operational_intensity[ACTION] == pytest.approx(479.20940,
                                                              abs=1e-5)
    assert par.e2e_latency * 1e3 == pytest.approx(3.953373, abs=1e-6)
    # A VLM-sized expert pays for its width at identical step count.
    assert rows[DIFFUSION_LARGE].e2e_latency > diffusion.e2e_latency


def test_parallel_decode_crossover_at_small_chunks(lib, pi0, b100):
    small = _decodings(pi0, b100, chunk=10)
    assert small[AUTOREGRESSIVE_PARALLEL].operational_intensity[ACTION] == \
        pytest.approx(131.04084, abs=1e-5)
    assert small[AUTOREGRESSIVE_PARALLEL].e2e_latency < \
        small[DIFFUSION].e2e_latency
    large = _decodings(pi0, b100, chunk=50)
    assert large[AUTOREGRESSIVE_PARALLEL].e2e_latency > \
        large[DIFFUSION].e2e_latency


def test_single_action_ordering(lib, pi0, b100):
    """At one 7-DoF action the expert still wins; a full-width expert is the
    most expensive way to denoise."""
    rows = _decodings(pi0, b100, chunk=1, dof=7)
    assert rows[DIFFUSION].e2e_latency < rows[AUTOREGRESSIVE].e2e_latency
    assert rows[AUTOREGRESSIVE].e2e_latency < \
        rows[DIFFUSION_LARGE].e2e_latency


# --- denoise / chunk sweeps -----------------------------------------------------

def _denoise_chunk(spec, hw, steps, chunks):
    """On-device results over denoising steps x chunk sizes."""
    return [sync_scenario(replace(spec, denoise_steps=n, chunk_size=chunk),
                          Placement.on_device(hw))
            for n in steps for chunk in chunks]


def test_action_latency_linear_in_denoise_steps(lib, pi0, b100):
    rows = _denoise_chunk(pi0, b100, steps=(1, 10, 50), chunks=(50,))
    per_step = rows[0].phase_latencies[ACTION]
    assert rows[1].phase_latencies[ACTION] == pytest.approx(10 * per_step,
                                                            rel=1e-12)
    assert rows[2].phase_latencies[ACTION] == pytest.approx(50 * per_step,
                                                            rel=1e-12)
    assert rows[2].e2e_latency / rows[1].e2e_latency == pytest.approx(
        2.14617, abs=5e-5)


def test_chunk_growth_is_sublinear_e2e(lib, pi0, b100):
    rows = _denoise_chunk(pi0, b100, steps=(10,), chunks=(50, 250))
    action_increase = (rows[1].phase_latencies[ACTION]
                       / rows[0].phase_latencies[ACTION] - 1)
    e2e_increase = rows[1].e2e_latency / rows[0].e2e_latency - 1
    assert action_increase == pytest.approx(0.378419, abs=1e-6)
    assert e2e_increase == pytest.approx(0.108433, abs=1e-6)


# --- scaling sweep ---------------------------------------------------------------

def test_scaling_sweep_frequencies(lib):
    hardware = [lib.accelerator(n) for n in ("thor", "rtx4090", "b100")]
    rows = scaling_sweep(lib, hardware, {})
    table = {(spec.name, hw.name): result for spec, hw, result in rows}
    assert len(rows) == 12

    expected = {
        ("pi0", "thor"): 18.70572, ("pi0", "rtx4090"): 31.90628,
        ("pi0", "b100"): 313.56367,
        ("pi0-l", "thor"): 4.44448, ("pi0-l", "rtx4090"): 8.59313,
        ("pi0-l", "b100"): 81.68281,
        ("pi0-xl", "thor"): 2.44106, ("pi0-xl", "b100"): 44.50917,
        ("pi0-xxl", "b100"): 10.07506,
    }
    for key, freq in expected.items():
        assert table[key].feasible, key
        assert table[key].sync_frequency == pytest.approx(freq, abs=1e-5), key

    for key in (("pi0-xl", "rtx4090"), ("pi0-xxl", "thor"),
                ("pi0-xxl", "rtx4090")):
        assert not table[key].feasible, key
        assert table[key].sync_frequency is None
