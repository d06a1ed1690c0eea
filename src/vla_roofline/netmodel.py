"""Network links, payloads, and transfer-time arithmetic.

A transfer costs a fixed one-way base latency plus serialization at the
effective (efficiency-scaled) bandwidth of the payload's direction.  Paths of
one or two hops (device -> edge, or device -> edge -> cloud) sum per hop.
"""

from __future__ import annotations

import math
from typing import Sequence

from .record import Record, set_field
from .workload import TransformerConfig, VlaModelSpec, kv_bytes_per_token

UPLOAD = "upload"
DOWNLOAD = "download"
DIRECTIONS = (UPLOAD, DOWNLOAD)

# Calibrated wire size of one compressed multi-camera observation (JPEG-class
# compression of three 224x224 RGB frames plus proprioception).
COMPRESSED_OBSERVATION_BYTES = 46_500

# Actions travel as float32 values.
ACTION_VALUE_BYTES = 4


class NetworkConfig(Record):
    """One link: asymmetric bandwidth (bits/s), one-way base latency (s),
    and a (0, 1] protocol-efficiency factor applied to bandwidth."""

    __slots__ = ("name", "upload_bw", "download_bw", "base_latency",
                 "efficiency")

    def __init__(self, name: str, upload_bw: float, download_bw: float,
                 base_latency: float, efficiency: float = 1.0) -> None:
        set_field(self, "name", name)
        set_field(self, "upload_bw", upload_bw)
        set_field(self, "download_bw", download_bw)
        set_field(self, "base_latency", base_latency)
        set_field(self, "efficiency", efficiency)
        if not all(math.isfinite(bw) and bw > 0
                   for bw in (self.upload_bw, self.download_bw)):
            raise ValueError(f"{self.name}: bandwidths must be finite and positive")
        if not (math.isfinite(self.base_latency) and self.base_latency >= 0):
            raise ValueError(f"{self.name}: base latency must be finite and >= 0")
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"{self.name}: efficiency must be in (0, 1]")

    def bandwidth(self, direction: str) -> float:
        if direction == UPLOAD:
            return self.upload_bw
        if direction == DOWNLOAD:
            return self.download_bw
        raise ValueError(f"direction must be one of {DIRECTIONS}")


class Payload(Record):
    """Bytes moving in one direction."""

    __slots__ = ("bytes", "direction")

    def __init__(self, bytes: int, direction: str) -> None:
        set_field(self, "bytes", bytes)
        set_field(self, "direction", direction)
        if self.bytes < 0:
            raise ValueError("payload bytes must be >= 0")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")


def transfer_time(payload: Payload, net: NetworkConfig) -> float:
    """Seconds to move a payload across one link."""
    bw = net.bandwidth(payload.direction) * net.efficiency
    return net.base_latency + payload.bytes * 8 / bw


def path_time(payload: Payload, hops: Sequence[NetworkConfig]) -> float:
    """Seconds to move a payload across every link of a path, in order."""
    return sum(transfer_time(payload, hop) for hop in hops)


def observation_payload(spec: VlaModelSpec) -> Payload:
    """The per-step observation upload (camera frames + proprioception).

    Every policy ships the same calibrated compressed observation.
    """
    return Payload(COMPRESSED_OBSERVATION_BYTES, UPLOAD)


def action_payload(spec: VlaModelSpec) -> Payload:
    """The per-step action download: one chunk of DoF values."""
    return Payload(spec.chunk_size * spec.action_dof * ACTION_VALUE_BYTES,
                   DOWNLOAD)


def kv_payload(tokens: int, cfg: TransformerConfig) -> Payload:
    """A KV-cache shipment for ``tokens`` tokens of one stack's cache."""
    if tokens < 0:
        raise ValueError("tokens must be >= 0")
    return Payload(tokens * kv_bytes_per_token(cfg), DOWNLOAD)
