"""Network transfer model: affine cost, asymmetry, multi-hop paths."""

import pytest

from vla_roofline.netmodel import (
    COMPRESSED_OBSERVATION_BYTES,
    NetworkConfig,
    action_bytes,
    path_time,
    transfer_time,
)
from vla_roofline.scenarios import Placement, sync_scenario
from vla_roofline.workload import kv_bytes_per_token


def test_transfer_is_base_plus_serialization(lib):
    # 46,500 B over 1 Gbps with 0.10 ms base: 0.10 + 0.372 ms.
    assert transfer_time(COMPRESSED_OBSERVATION_BYTES,
                         lib.network("ethernet-1g"), upload=True) * 1e3 == \
        pytest.approx(0.472, abs=1e-9)


def test_zero_bytes_costs_base_latency_only(lib):
    assert transfer_time(0, lib.network("4g"), upload=True) == \
        pytest.approx(25e-3)


def test_direction_asymmetry(lib):
    g4 = lib.network("4g")
    assert (transfer_time(1_000_000, g4, upload=True)
            > transfer_time(1_000_000, g4, upload=False))
    assert g4.upload_bw == 19e6
    assert g4.download_bw == 75e6


def test_path_time_sums_hops(lib):
    path = (lib.network("ethernet-10g"), lib.network("fast-cloud"))
    assert path_time(0, path, upload=True) * 1e3 == \
        pytest.approx(10.05, abs=1e-9)


def test_observation_is_one_compressed_upload():
    assert COMPRESSED_OBSERVATION_BYTES == 46_500


def test_action_bytes_scale_with_chunk(pi0):
    assert action_bytes(pi0) == 50 * 14 * 4


def test_kv_download_is_the_prefix_cache(lib, pi0):
    """The collaborative download leg is the VLM cache of the 800-token
    prefix: 14,745,600 bytes over each hop of the path."""
    wifi7 = lib.network("wifi7")
    result = sync_scenario(pi0, Placement.collaborative(
        lib.accelerator("thor"), lib.accelerator("b100"), wifi7))
    assert pi0.prefix_tokens() * kv_bytes_per_token(pi0.vlm) == 14_745_600
    assert result.network_latencies["kv_download"] == \
        transfer_time(14_745_600, wifi7, upload=False)


def test_negative_byte_count_is_an_error(lib):
    with pytest.raises(ValueError, match=">= 0 bytes"):
        transfer_time(-1, lib.network("4g"), upload=False)
    with pytest.raises(ValueError, match=">= 0 bytes"):
        path_time(-1, (lib.network("4g"),), upload=True)


def test_network_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(name="bad", upload_bw=0.0, download_bw=1e9,
                      base_latency=0.0)
    with pytest.raises(ValueError):
        NetworkConfig(name="bad", upload_bw=1e9, download_bw=1e9,
                      base_latency=-1.0)
