"""Host-time benchmark of the vla-roofline calculator.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --check [--workload NAME] [--seed N]
    python3 bench/run.py --record-oracle

Run from the repository root; the package is used from ``src/`` without
being installed.  Timings are the calculator's own wall-clock time on the
host (not modelled time), scaled to a nominal host speed that a reference
loop timed around every call measures (see ``loop``); the run and all its
children are pinned to one CPU.  Workloads, each a closed loop with one
client:

* ``reproduce``: ``cli.main(["reproduce", "all", "--format", "json"])``
  in-process, over and over.
* ``sweep-decoding``: in-process ``sweep`` requests over all four decodings,
  one for every model and accelerator, each with a seeded chunk pair and
  DoF pair.
* ``cli-cold``: a seeded mix of fresh ``python -m vla_roofline ... --format
  json`` processes, one at a time.

In-process requests run in one worker process; at most one child Python
process runs beside this one at any time.  Every output is compared with
``oracle.json``, recorded at the seed commit, and any difference counts as a
failed request.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run, the tracing overhead, and writes the
spans of one traced pass to ``bench/out/`` in Trace Event Format.  The last
line of stdout is the result JSON; the line before it holds run metadata.

``--check`` runs each workload's pool once with outputs checked and timings
ignored, plus two traced ``reproduce`` passes whose counts must repeat.
``--record-oracle`` rewrites ``oracle.json`` from the current source tree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import loop
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
ORACLE = BENCH / "oracle.json"
# Set-up probes of an untimed run, spread evenly over its passes so that
# their median sees the same moments of the host's load as the requests.
SETUP_PROBES = 16
# Set-up probes before and after the passes of a traced run.
TRACE_SETUP_PROBES = 4
SETUP_PROBE = """\
import time
start = time.perf_counter()
import vla_roofline.cli
imported = time.perf_counter()
from vla_roofline.configio import load_presets
load_presets()
print((imported - start) * 1e3, (time.perf_counter() - imported) * 1e3)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("VLA_ROOFLINE_PRESETS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def wait_child(proc: subprocess.Popen) -> int:
    """Reap ``proc`` and return its peak resident set in KiB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def setup_probes(env: dict, count: int) -> list[tuple[float, ...]]:
    """``count`` fresh processes that import ``vla_roofline.cli`` and load
    the presets once: (wall s, scale, import ms, load_presets ms) of each,
    the scale taken from reference loops timed before and after it."""
    probes = []
    for _ in range(count):
        before = loop.tight_loop_ms()
        start = perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              env=env, check=True, capture_output=True,
                              text=True)
        wall_s = perf_counter() - start
        scale = 2 * loop.REFERENCE_MS / (before + loop.tight_loop_ms())
        import_ms, load_ms = map(float, done.stdout.split())
        probes.append((wall_s, scale, import_ms, load_ms))
    return probes


def setup_summary(probes) -> dict:
    wall_s, scale, import_ms, load_ms = zip(*probes)
    return {"setup_s": statistics.median(w * k for w, k in zip(wall_s, scale)),
            "unscaled_setup_s": statistics.median(wall_s),
            "import_ms": statistics.median(import_ms),
            "load_presets_ms": statistics.median(load_ms)}


def pin_to_one_cpu() -> int:
    """Run this process, and so every child it starts, on one CPU, so that
    the reference loop times the CPU the calls run on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe_schedule(env: dict, count: int, seconds: float):
    """The list that collects ``count`` set-up probes, and the ``between``
    hook of ``loop.closed_loop`` that runs them evenly over ``seconds`` of
    passes."""
    probes: list = []

    def between(busy_s: float) -> None:
        while len(probes) < count and busy_s >= len(probes) * seconds / count:
            probes.extend(setup_probes(env, 1))

    return probes, between


def run_worker(env: dict, job: dict, between=None) -> tuple[dict, int]:
    """Run a job in a fresh in-process worker; returns (result, peak RSS
    KiB).  ``between`` runs whenever the worker reports a finished pass."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")],
                            cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE)
    proc.stdin.write(json.dumps(job).encode() + b"\n")
    proc.stdin.flush()
    output = b""
    with proc.stdin, proc.stdout:
        for line in proc.stdout:
            if line.startswith(b"pass "):
                between(float(line.split()[1]))
                proc.stdin.write(b"\n")
                proc.stdin.flush()
            else:
                output = line
    rss_kb = wait_child(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(output), rss_kb


def cold_call(env: dict, requests, sink=None):
    """A call running each request in a fresh process.  With a ``sink``
    list, the process runs traced and its spans are appended to ``sink``."""
    spans_path = OUT / "child-spans.json"

    def call(index: int) -> list:
        argv = list(requests[index])
        if sink is None:
            command = [sys.executable, "-m", "vla_roofline", *argv]
        else:
            command = [sys.executable, str(BENCH / "traced_cli.py"),
                       str(spans_path), *argv]
        start = perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        with proc.stdout:
            output = proc.stdout.read()
        rss_kb = wait_child(proc)
        wall_ms = (perf_counter() - start) * 1e3
        if sink is not None:
            offset = len(sink)
            child_spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
            for name, begin, end, parent, _, info in child_spans:
                sink.append((name, begin, end,
                             parent + offset if parent >= 0 else -1,
                             index, info))
        return [index, wall_ms, proc.returncode, loop.digest(output), rss_kb]

    return call


def run_cold(env: dict, requests, mode: str, seconds: float,
             between=None) -> dict:
    call = cold_call(env, requests)
    if mode == "once":
        return {"records": [call(index) for index in range(len(requests))]}
    if mode == "loop":
        return loop.closed_loop(call, len(requests), seconds,
                                loop.tight_loop_ms, between)
    spans: list = []

    def take_spans():
        taken = spans[:]
        spans.clear()
        return taken

    return loop.traced_run(call, len(requests), seconds,
                           lambda: (cold_call(env, requests, spans),
                                    take_spans))


def run_pool(workload: str, env: dict, requests, mode: str,
             seconds: float, between=None) -> tuple[dict, int]:
    """Run a job for ``workload``; returns (result, peak RSS KiB of the
    process doing the modelling).  ``between`` runs after every pass of
    the ``loop`` mode."""
    OUT.mkdir(exist_ok=True)
    in_process = workloads.WORKLOADS[workload][0]
    if in_process:
        return run_worker(env, {"mode": mode, "requests": requests,
                                "seconds": seconds}, between)
    result = run_cold(env, requests, mode, seconds, between)
    records = all_records(result)
    return result, max(record[4] for record in records)


def all_records(result: dict) -> list:
    if "records" in result:
        return result["records"]
    return result["warmup"] + result["timed"]


def failures(workload: str, requests, records, oracle: dict) -> list:
    """The requests whose exit code or output differ from the oracle."""
    expected = oracle[workload]
    bad = []
    for index, _, code, output, *_ in records:
        key = loop.request_key(requests[index])
        if expected.get(key) != f"{code}:{output}":
            bad.append(requests[index])
    return bad


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def commit_hash():
    # The ceiling keeps git from reporting an enclosing repository when the
    # checkout has no git metadata of its own.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def end_to_end(setup: dict, result: dict, rss_kb: int,
               attempted: int, failed: int) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run.

    Every time is scaled to the nominal host speed (see ``loop``).  The
    median is taken over the requests of the pool, of each request's median
    time: the pools mix requests whose times differ by up to a factor of
    60, and a median over single calls lands between two of them and
    swings with every call's noise.  Every request is repeated equally
    often.  The 90th percentile is taken over every timed call, so that at
    least ten lie above it, and the closed-loop throughput is timed calls
    over the sum of their scaled times.  The unscaled figures go to the run
    metadata."""
    timed, scale = result["timed"], result["scale"]
    raw = [call[1] for call in timed]
    walls = [wall_ms * k for wall_ms, k in zip(raw, scale)]
    by_request: dict[int, list[float]] = {}
    for call, wall_ms in zip(timed, walls):
        by_request.setdefault(call[0], []).append(wall_ms)
    p50 = statistics.median(statistics.median(times)
                            for times in by_request.values())
    p90 = percentile(walls, 0.9)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "call_ms_p50": (p50, "ms"),
        "call_ms_p90": (p90, "ms"),
        "calls_per_s": (len(walls) * 1e3 / sum(walls), "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    references = result["reference_ms"]
    meta = {"timed_requests": len(walls),
            "requests_above_p90": sum(1 for wall in walls if wall > p90),
            "reference_ms": {"nominal": loop.REFERENCE_MS,
                             "median": statistics.median(references),
                             "min": min(references),
                             "max": max(references)},
            "unscaled": {"setup_s": setup["unscaled_setup_s"],
                         "call_ms_p50": statistics.median(raw),
                         "call_ms_p90": percentile(raw, 0.9),
                         "calls_per_s": len(raw) * 1e3 / sum(raw)}}
    return metrics, meta


def per_layer(result: dict) -> tuple[dict, dict, bool]:
    """Per-layer metrics of a traced run, its metadata, and whether every
    count repeated exactly across the traced passes."""
    passes = [entry["metrics"] for entry in result["traced"]]
    repeat = all(passes[0][name] == entry[name]
                 for entry in passes for name in tracing.COUNT_METRICS)
    metrics = {}
    for name, unit in tracing.LAYER_METRICS.items():
        value = (passes[0][name] if name in tracing.COUNT_METRICS
                 else statistics.median(entry[name] for entry in passes))
        metrics[name] = (value, unit)
    # Fastest pass of each kind: other work on a shared host only ever adds
    # time.
    untraced = min(result["untraced_s"])
    traced = min(entry["wall_s"] for entry in result["traced"])
    metrics["tracing.overhead_ms"] = ((traced - untraced) * 1e3, "ms")
    metrics["tracing.overhead_share"] = ((traced - untraced) / untraced,
                                         "ratio")
    meta = {"untraced_passes": len(result["untraced_s"]),
            "traced_passes": len(passes),
            "counts_repeat": repeat,
            "counts": {name: passes[0][name]
                       for name in tracing.COUNT_METRICS}}
    return metrics, meta, repeat


def write_trace(workload: str, seed: int, events) -> Path:
    path = OUT / f"{workload}-seed{seed}.trace.json"
    path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
    return path


def bench(args, oracle: dict) -> None:
    cpu = pin_to_one_cpu()
    env = child_env()
    requests = workloads.pool(args.workload, args.seed)
    setup_probes(env, 1)  # writes the bytecode caches
    if args.trace:
        probes = setup_probes(env, TRACE_SETUP_PROBES)
        result, rss_kb = run_pool(args.workload, env, requests, "trace",
                                  args.seconds)
        probes += setup_probes(env, TRACE_SETUP_PROBES)
    else:
        probes, between = probe_schedule(env, SETUP_PROBES, args.seconds)
        result, rss_kb = run_pool(args.workload, env, requests, "loop",
                                  args.seconds, between)
        probes += setup_probes(env, SETUP_PROBES - len(probes))
    setup = setup_summary(probes)
    records = all_records(result)
    bad = failures(args.workload, requests, records, oracle)
    for argv in bad[:5]:
        print("output differs from oracle:", " ".join(argv), file=sys.stderr)
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "commit": commit_hash(), "pinned_cpu": cpu,
        "requests_per_pass": len(requests), "setup": setup,
        "timing": "host wall-clock time of the calculator itself, not "
                  f"modelled time, on {os.cpu_count()} CPU(s) that may be "
                  "shared with other processes; end-to-end times are scaled "
                  "to a host on which the reference loop takes "
                  f"{loop.REFERENCE_MS} ms",
    }
    correct = not bad
    if args.trace:
        layers, extra, repeat = per_layer(result)
        metrics = {"cli.import_ms": (setup["import_ms"], "ms"), **layers}
        correct = correct and repeat
        extra["trace_file"] = str(write_trace(
            args.workload, args.seed, result["events"]).relative_to(ROOT))
    else:
        metrics, extra = end_to_end(setup, result, rss_kb, len(records),
                                    len(bad))
    meta.update(extra)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def check(args, oracle: dict) -> bool:
    env = child_env()
    passed = True
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for workload in names:
        requests = workloads.pool(workload, args.seed)
        result, _ = run_pool(workload, env, requests, "once", 0)
        bad = failures(workload, requests, result["records"], oracle)
        for argv in bad:
            print("  differs:", " ".join(argv))
        print(f"{workload}: {len(requests) - len(bad)}/{len(requests)} "
              "outputs match the oracle")
        passed = passed and not bad
    if "reproduce" in names:
        result, _ = run_pool("reproduce", env, workloads.pool("reproduce", 0),
                             "trace", 0)
        _, meta, repeat = per_layer(result)
        seed_counts = oracle["reproduce_counts"]
        print(f"reproduce trace counts repeat over "
              f"{meta['traced_passes']} passes: {repeat}")
        for name, value in meta["counts"].items():
            note = "" if value == seed_counts[name] else \
                f"  (seed commit: {seed_counts[name]})"
            print(f"  {name} = {value}{note}")
        passed = passed and repeat
    return passed


def record_oracle() -> None:
    """Record the exit code and output digest of every catalogue request."""
    env = child_env()
    oracle = {}
    for workload, (_, catalogue, _) in workloads.WORKLOADS.items():
        requests = catalogue()
        result, _ = run_worker(env, {"mode": "once", "requests": requests})
        entries = {}
        for index, _, code, output, _ in result["records"]:
            if code != 0:
                raise SystemExit(f"{' '.join(requests[index])} exited {code}")
            entries[loop.request_key(requests[index])] = f"{code}:{output}"
        oracle[workload] = dict(sorted(entries.items()))
        print(f"{workload}: {len(entries)} requests recorded")
    result, _ = run_worker(env, {"mode": "trace", "seconds": 0,
                                 "requests": workloads.pool("reproduce", 0)})
    _, meta, _ = per_layer(result)
    oracle["reproduce_counts"] = meta["counts"]
    ORACLE.write_text(json.dumps(oracle, indent=0) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="run each pool once and compare with the oracle")
    parser.add_argument("--record-oracle", action="store_true",
                        help="rewrite oracle.json from the current sources")
    args = parser.parse_args()
    if not (ROOT / "src" / "vla_roofline" / "cli.py").is_file():
        print(f"error: no vla_roofline sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.record_oracle:
        record_oracle()
        return 0
    oracle = json.loads(ORACLE.read_text(encoding="utf-8"))
    if args.check:
        return 0 if check(args, oracle) else 1
    if args.workload is None:
        parser.error("--workload is required")
    bench(args, oracle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
