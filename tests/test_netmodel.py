"""Network transfer model: affine cost, asymmetry, multi-hop paths."""

import pytest

from vla_roofline.netmodel import (
    COMPRESSED_OBSERVATION_BYTES,
    DOWNLOAD,
    UPLOAD,
    NetworkConfig,
    Payload,
    action_payload,
    kv_payload,
    observation_payload,
    path_time,
    transfer_time,
)


def test_transfer_is_base_plus_serialization(lib):
    # 46,500 B over 1 Gbps with 0.10 ms base: 0.10 + 0.372 ms.
    obs = Payload(bytes=COMPRESSED_OBSERVATION_BYTES, direction=UPLOAD)
    assert transfer_time(obs, lib.network("ethernet-1g")) * 1e3 == \
        pytest.approx(0.472, abs=1e-9)


def test_zero_bytes_costs_base_latency_only(lib):
    empty = Payload(bytes=0, direction=UPLOAD)
    assert transfer_time(empty, lib.network("4g")) == pytest.approx(25e-3)


def test_direction_asymmetry(lib):
    g4 = lib.network("4g")
    mb = Payload(bytes=1_000_000, direction=UPLOAD)
    down = Payload(bytes=1_000_000, direction=DOWNLOAD)
    assert transfer_time(mb, g4) > transfer_time(down, g4)
    assert g4.bandwidth(UPLOAD) == 19e6
    assert g4.bandwidth(DOWNLOAD) == 75e6


def test_efficiency_derates_bandwidth():
    net = NetworkConfig(name="n", upload_bw=1e9, download_bw=1e9,
                        base_latency=0.0, efficiency=0.5)
    payload = Payload(bytes=1_000, direction=UPLOAD)
    assert transfer_time(payload, net) == pytest.approx(8_000 / 0.5e9)


def test_path_time_sums_hops(lib):
    path = (lib.network("ethernet-10g"), lib.network("fast-cloud"))
    empty = Payload(bytes=0, direction=UPLOAD)
    assert path_time(empty, path) * 1e3 == pytest.approx(10.05, abs=1e-9)


def test_observation_payload_is_one_compressed_upload(pi0):
    payload = observation_payload(pi0)
    assert payload.bytes == 46_500
    assert payload.direction == UPLOAD


def test_action_payload_scales_with_chunk(pi0):
    payload = action_payload(pi0)
    assert payload.bytes == 50 * 14 * 4
    assert payload.direction == DOWNLOAD


def test_kv_payload_for_prefix(pi0):
    payload = kv_payload(800, pi0.vlm)
    assert payload.bytes == 14_745_600
    assert payload.direction == DOWNLOAD


def test_network_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(name="bad", upload_bw=0.0, download_bw=1e9,
                      base_latency=0.0)
    with pytest.raises(ValueError):
        NetworkConfig(name="bad", upload_bw=1e9, download_bw=1e9,
                      base_latency=-1.0)
    with pytest.raises(ValueError):
        NetworkConfig(name="bad", upload_bw=1e9, download_bw=1e9,
                      base_latency=0.0, efficiency=1.5)
