"""Seeded request generators for the benchmark workloads.

A request is the argv of one ``vla-roofline`` invocation.  Each workload has
a finite *catalogue* of requests, whose outputs at the seed commit are
recorded in ``oracle.json``, and a *pool*: the requests one run cycles
through, drawn from the catalogue by the run's seed.  Pools are stratified
(fixed counts per kind of request, seeded values inside each stratum) so
that runs with different seeds carry comparable work.
"""

from __future__ import annotations

import random

MODELS = ("pi0", "pi0-l", "pi0-xl", "pi0-xxl")
ACCELERATORS = ("thor", "rtx4090", "a100", "h100", "b100")
NETWORKS = ("ethernet-1g", "ethernet-10g", "wifi6", "wifi7", "4g", "5g",
            "slow-cloud", "fast-cloud")
ACCESS_NETWORKS = NETWORKS[:6]
CLOUD_NETWORKS = ("slow-cloud", "fast-cloud")
JSON = ("--format", "json")


# --- reproduce: the paper's reference tables, in-process --------------------

REPRODUCE_ALL = ("reproduce", "all") + JSON


def reproduce_catalogue() -> list[tuple[str, ...]]:
    return [REPRODUCE_ALL]


def reproduce_pool(rng: random.Random) -> list[tuple[str, ...]]:
    return [REPRODUCE_ALL]


# --- sweep-decoding: every decoding strategy over a seeded grid -------------

SWEEP_DECODINGS = ("diffusion,diffusion_large,autoregressive,"
                   "autoregressive_parallel")
# Each sweep prices the grid of a chunk pair and a DoF pair.  Every pair
# holds the same largest value, so the largest graph of a sweep, which sets
# its peak memory, is the same whatever the seed; and the pairs' sums differ
# by at most 8% (chunk) and 10% (DoF), so the autoregressive action tokens,
# which dominate the cost of a sweep, hardly change from seed to seed.  Chunk
# sizes span 5 to 250.
CHUNK_PAIRS = ((5, 250), (10, 250), (15, 250), (20, 250), (25, 250))
DOF_PAIRS = ((4, 6), (5, 6))


def _csv(values) -> str:
    return ",".join(map(str, values))


def sweep_argv(model: str, hw: str, chunks, dofs) -> tuple[str, ...]:
    return ("sweep", "--model", model, "--hw", hw, "--chunk", _csv(chunks),
            "--dof", _csv(dofs), "--decoding", SWEEP_DECODINGS) + JSON


def sweep_catalogue() -> list[tuple[str, ...]]:
    return [sweep_argv(model, hw, chunks, dofs)
            for model in MODELS for hw in ACCELERATORS
            for chunks in CHUNK_PAIRS for dofs in DOF_PAIRS]


def sweep_pool(rng: random.Random) -> list[tuple[str, ...]]:
    """20 sweeps: every (model, accelerator) pair once, in seeded order,
    each with a seeded chunk pair and DoF pair.  Equal weight per pair needs
    no guess at how often users sweep which model; the pairs whose model
    does not fit the accelerator's memory (5 of 20) are infeasible at every
    point and return early."""
    pool = [sweep_argv(model, hw, rng.choice(CHUNK_PAIRS),
                       rng.choice(DOF_PAIRS))
            for model in MODELS for hw in ACCELERATORS]
    rng.shuffle(pool)
    return pool


# --- cli-cold: one fresh process per request --------------------------------

SERVERS = ("a100", "h100", "b100")
REPRODUCE_TABLES = ("T1", "T3", "T4", "T8", "T9", "collab")


def _analyze(*args: str) -> tuple[str, ...]:
    return ("analyze",) + args + JSON


def _cold_strata() -> dict[str, list[tuple[str, ...]]]:
    """Documented-valid argument combinations, grouped by kind.

    Collaborative runs use diffusion decoding only and never take
    ``--context-steps`` or ``--s2-cap``; ``--async`` needs a networked,
    non-collaborative placement.
    """
    decodings = ("diffusion", "autoregressive_parallel")
    return {
        "on-device": [
            _analyze("--model", model, "--hw", hw, "--decoding", decoding)
            for model in MODELS for hw in ACCELERATORS
            for decoding in decodings],
        "edge-server": [
            _analyze("--hw", hw, "--placement", "edge-server", "--net", net,
                     "--decoding", decoding)
            for hw in SERVERS for net in NETWORKS for decoding in decodings],
        "cloud-server": [
            _analyze("--hw", hw, "--placement", "cloud-server", "--net", net,
                     "--cloud-net", cloud)
            for hw in SERVERS[1:] for net in ACCESS_NETWORKS
            for cloud in CLOUD_NETWORKS],
        "async": [
            _analyze("--hw", hw, "--placement", "edge-server", "--net", net,
                     "--async")
            for hw in SERVERS for net in NETWORKS] + [
            _analyze("--hw", hw, "--placement", "cloud-server", "--net", net,
                     "--cloud-net", cloud, "--async")
            for hw in SERVERS[1:] for net in ACCESS_NETWORKS
            for cloud in CLOUD_NETWORKS],
        "s2-cap": [
            _analyze("--hw", hw, "--s2-cap", cap)
            for hw in ACCELERATORS for cap in ("5", "10")] + [
            _analyze("--hw", "b100", "--placement", "edge-server", "--net",
                     net, "--s2-cap", cap)
            for net in NETWORKS for cap in ("5", "10")],
        "collaborative": [
            _analyze("--hw", hw, "--placement", "collaborative", "--net", net,
                     "--device-hw", device)
            for hw in SERVERS[1:] for device in ("thor", "rtx4090")
            for net in NETWORKS],
        "list-presets": [("list-presets",) + JSON],
        "reproduce": [("reproduce", table) + JSON
                      for table in REPRODUCE_TABLES],
    }


# Requests per stratum in one pool.  There is no usage data to weight the
# kinds of request by, so every stratum gets the same count.
COLD_PER_STRATUM = 5


def cold_catalogue() -> list[tuple[str, ...]]:
    return [argv for requests in _cold_strata().values() for argv in requests]


def cold_pool(rng: random.Random) -> list[tuple[str, ...]]:
    """40 cold invocations, 5 from each of the 8 strata, drawn without
    replacement where the stratum holds enough requests."""
    pool = []
    for requests in _cold_strata().values():
        count = COLD_PER_STRATUM
        if count <= len(requests):
            pool += rng.sample(requests, count)
        else:
            pool += requests + rng.choices(requests, k=count - len(requests))
    rng.shuffle(pool)
    return pool


# name -> (runs in-process, catalogue, pool generator)
WORKLOADS = {
    "reproduce": (True, reproduce_catalogue, reproduce_pool),
    "sweep-decoding": (True, sweep_catalogue, sweep_pool),
    "cli-cold": (False, cold_catalogue, cold_pool),
}


def pool(workload: str, seed: int) -> list[tuple[str, ...]]:
    return WORKLOADS[workload][2](random.Random(seed))
