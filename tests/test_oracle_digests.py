"""Every catalogue request of the benchmark keeps the exit code and output
digest that ``bench/oracle.json`` recorded at the seed commit.

Each request runs in-process through ``cli.main``, with stdout and stderr
captured together, by the benchmark worker's own call (``bench/worker.py``),
so a digest here is the one ``bench/run.py --check`` compares.  The
benchmark modules are imported from ``bench/``, which is put on the path.
"""

import json
from pathlib import Path

import pytest

from vla_roofline import cli, commands

BENCH = Path(__file__).resolve().parents[1] / "bench"
ORACLE = json.loads((BENCH / "oracle.json").read_text(encoding="utf-8"))


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import loop
    import worker
    import workloads

    return loop, worker, workloads


@pytest.mark.parametrize("workload", ["reproduce", "sweep-decoding",
                                      "cli-cold"])
def test_catalogue_outputs_match_the_oracle(bench, workload):
    loop, worker, workloads = bench
    requests = workloads.WORKLOADS[workload][1]()
    expected = ORACLE[workload]
    assert len(requests) == len(expected)
    call = worker.make_call(cli, requests)
    differs = []
    for index, argv in enumerate(requests):
        _, _, code, digest, _ = call(index)
        if expected[loop.request_key(argv)] != f"{code}:{digest}":
            differs.append(" ".join(argv))
    assert differs == []


def test_every_catalogue_request_is_read_without_argparse(bench):
    """The benchmark times the command lines ``cli._read_argv`` reads, and
    each reads as argparse reads it."""
    _, _, workloads = bench
    for _, catalogue, _ in workloads.WORKLOADS.values():
        for argv in catalogue():
            read = cli._read_argv(argv)
            assert read is not None, argv
            assert vars(read) == vars(commands.build_parser().parse_args(argv))
