"""Request loops shared by the in-process worker and the cold-process runner.

A *call* runs request ``index`` of the pool and returns its record
``[index, wall_ms, exit_code, output_digest, peak_rss_kb]``.  Both loops have
one client: the next request starts only when the previous one has ended.

The speed of a shared host drifts by up to a half over seconds to minutes,
as other tenants load its CPUs.  The closed loop therefore times a fixed
pure-Python reference loop before the first call of every pass and after
every call, on the same CPU, and gives each call the *scale*
``REFERENCE_MS / mean(reference before, reference after)``: its wall time
times its scale is the time the call would take on a host on which the
reference loop takes ``REFERENCE_MS``.

There are two reference loops, because the host's slow phases do not slow
all code alike.  Measured over five minutes on a shared two-vCPU host, whose
slow phases make a tight loop about 1.5 times slower: in-process calls run a
large body of interpreted code and slow down more than a tight loop, so
scaled by ``tight_loop_ms`` their median still read 4-9% higher in slow
phases than in fast ones, and scaled by ``mixed_code_ms``, which runs varied
library and interpreted code, within 1%.  A fresh process spends part of its
time in the kernel and slows down less: scaled by ``tight_loop_ms`` it read
3-5% lower in slow phases, and by ``mixed_code_ms`` 13% lower.
"""

from __future__ import annotations

import hashlib
import json
import re
from time import perf_counter

import tracer as tracing


def digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()[:32]


def request_key(argv) -> str:
    """Oracle key of a request."""
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()[:16]


# Timed calls a run needs at least, so that ten lie above its 90th
# percentile.
MIN_TIMED_CALLS = 100

# Nominal time of a reference loop: call times are scaled to a host on
# which the reference loop returns this.
REFERENCE_MS = 10.0
TIGHT_LOOP_ITERATIONS = 60_000
MIXED_CODE_ITERATIONS = 30


def tight_loop_ms() -> float:
    """Wall time of a small fixed dict-and-float loop, in ms: the host's
    speed at this moment, for fresh processes."""
    table: dict[int, float] = {}
    total = 0.0
    start = perf_counter()
    for i in range(TIGHT_LOOP_ITERATIONS):
        table[i & 1023] = i * 0.5
        total += table[i & 511]
    return (perf_counter() - start) * 1e3


class _Kernel:
    __slots__ = ("name", "flops", "nbytes")

    def __init__(self, name: str, flops: float, nbytes: float):
        self.name, self.flops, self.nbytes = name, flops, nbytes

    def seconds(self, peak: float, bandwidth: float) -> float:
        return max(self.flops / peak, self.nbytes / bandwidth)


_ROWS = {"rows": [{"name": f"op{i}", "flops": i * 1.5e9, "nbytes": i * 3e6,
                   "tags": ["a", "b", str(i)]} for i in range(60)]}
_NAME = re.compile(r"op(\d+)")


def mixed_code_ms() -> float:
    """Wall time of a fixed mix of JSON round trips, object creation,
    sorting, regular expressions and formatting, in ms: the host's speed at
    this moment, for in-process calls."""
    total = 0.0
    start = perf_counter()
    for _ in range(MIXED_CODE_ITERATIONS):
        rows = json.loads(json.dumps(_ROWS))["rows"]
        kernels = [_Kernel(row["name"], row["flops"], row["nbytes"])
                   for row in rows]
        kernels.sort(key=lambda k: (k.seconds(1e12, 2e9), k.name))
        for kernel in kernels:
            total += (int(_NAME.match(kernel.name).group(1))
                      + kernel.seconds(1e12, 2e9))
        total += len(f"{total:.3f}|{kernels[0].name:>8}")
    return (perf_counter() - start) * 1e3


def closed_loop(call, size: int, seconds: float, reference,
                between=None) -> dict:
    """One untimed warm-up request, then whole passes over the pool until
    ``seconds`` of passes have run and at least ``MIN_TIMED_CALLS`` calls are
    timed, so that every request of the pool is repeated equally often.  The
    pass in flight at the deadline completes and counts.  ``reference()`` is
    the reference loop around every call.  ``between(busy_s)``, if given,
    runs after every pass with the time spent in passes so far; its own time
    is not counted.  ``scale`` holds the scale of every timed call and
    ``reference_ms`` every reference time."""
    warmup = call(0)
    timed, scale, references, busy_s = [], [], [], 0.0
    while len(timed) < MIN_TIMED_CALLS or busy_s < seconds:
        began = perf_counter()
        references.append(reference())
        for index in range(size):
            timed.append(call(index))
            references.append(reference())
            scale.append(2 * REFERENCE_MS / sum(references[-2:]))
        busy_s += perf_counter() - began
        if between is not None:
            between(busy_s)
    return {"warmup": [warmup], "timed": timed, "scale": scale,
            "reference_ms": references, "elapsed_s": busy_s}


def traced_run(call, size: int, seconds: float, start_tracing) -> dict:
    """One untimed warm-up request, then whole passes over the pool:
    untraced for the first third of ``seconds`` (at least one), then traced
    to the end (at least two).

    ``start_tracing()`` returns ``(traced_call, take_spans)``;
    ``take_spans()`` hands over the spans recorded since its last call and
    starts a new list.  Per-layer metrics are computed per traced pass; the
    spans of the first traced pass are returned for writing out.
    """
    records, untraced_s, traced = [call(0)], [], []
    start = perf_counter()
    while not untraced_s or perf_counter() < start + seconds / 3:
        began = perf_counter()
        records += [call(index) for index in range(size)]
        untraced_s.append(perf_counter() - began)
    traced_call, take_spans = start_tracing()
    first_spans = None
    while len(traced) < 2 or perf_counter() < start + seconds:
        take_spans()
        began = perf_counter()
        records += [traced_call(index) for index in range(size)]
        wall = perf_counter() - began
        spans = take_spans()
        traced.append({"wall_s": wall,
                       "metrics": tracing.layer_metrics(spans)})
        if first_spans is None:
            first_spans = spans
    return {"records": records, "untraced_s": untraced_s, "traced": traced,
            "events": tracing.trace_events(first_spans)}
