"""Network links and transfer-time arithmetic.

A transfer of a byte count costs a fixed one-way base latency plus
serialization at the link's achievable bandwidth in that direction.  Paths
of one or two hops (device -> edge, or device -> edge -> cloud) sum per
hop.
"""

from __future__ import annotations

import math
from typing import Sequence

from .record import Record, set_field
from .workload import VlaModelSpec

# Calibrated wire size of one compressed multi-camera observation (JPEG-class
# compression of three 224x224 RGB frames plus proprioception).  Every
# policy uploads it once per step.
COMPRESSED_OBSERVATION_BYTES = 46_500

# Actions travel as float32 values.
ACTION_VALUE_BYTES = 4


class NetworkConfig(Record):
    """One link: asymmetric achievable bandwidth (bits/s) and one-way base
    latency (s)."""

    __slots__ = ("name", "upload_bw", "download_bw", "base_latency")

    def __init__(self, name: str, upload_bw: float, download_bw: float,
                 base_latency: float) -> None:
        set_field(self, "name", name)
        set_field(self, "upload_bw", upload_bw)
        set_field(self, "download_bw", download_bw)
        set_field(self, "base_latency", base_latency)
        if not all(math.isfinite(bw) and bw > 0
                   for bw in (self.upload_bw, self.download_bw)):
            raise ValueError(f"{self.name}: bandwidths must be finite and positive")
        if not (math.isfinite(self.base_latency) and self.base_latency >= 0):
            raise ValueError(f"{self.name}: base latency must be finite and >= 0")

    def rate(self, upload: bool) -> float:
        """Bits/s toward the server (``upload``) or back."""
        return self.upload_bw if upload else self.download_bw


def transfer_time(nbytes: int, net: NetworkConfig, upload: bool) -> float:
    """Seconds to move ``nbytes`` across one link, up or down."""
    if nbytes < 0:
        raise ValueError("a transfer moves >= 0 bytes")
    return net.base_latency + nbytes * 8 / net.rate(upload)


def path_time(nbytes: int, hops: Sequence[NetworkConfig],
              upload: bool) -> float:
    """Seconds to move ``nbytes`` across every link of a path, in order."""
    return sum(transfer_time(nbytes, hop, upload) for hop in hops)


def action_bytes(spec: VlaModelSpec) -> int:
    """The per-step action download: one chunk of DoF values."""
    return spec.chunk_size * spec.action_dof * ACTION_VALUE_BYTES
