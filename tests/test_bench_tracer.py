"""The benchmark's layer tracer (``bench/tracer.py``) against the package.

The tracer wraps package functions by module and name, and rewrites the
golden table registry in place, so renaming or deleting one of them breaks
``bench/run.py --trace 1`` and ``--check``.  This test installs the tracer
and traces one ``reproduce all``; it runs in a subprocess because the
tracer patches the package modules it finds loaded.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent("""
    import contextlib, io, json
    import tracer
    recorder = tracer.Tracer()
    tracer.install(recorder)
    from vla_roofline import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["reproduce", "all"])
    print(json.dumps({
        "code": code,
        "spans": sorted({span[0] for span in recorder.spans}),
        "tables": list(tracer.GOLDEN_TABLES),
        "metrics": tracer.layer_metrics(recorder.spans),
    }))
""")


def test_tracer_installs_and_traces_reproduce_all():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "bench"), str(ROOT / "src")])
    result = subprocess.run([sys.executable, "-c", SCRIPT],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["code"] == 0
    spans = set(out["spans"])
    assert {f"golden.{table}" for table in out["tables"]} <= spans
    assert {"cli.main", "configio.load_presets", "opgraph.pipeline_graph",
            "netmodel.path_time", "scenarios.dual_system_scenario",
            "scenarios.scaling_sweep"} <= spans
    metrics = out["metrics"]
    assert metrics["golden.cells_graded"] == 158
    assert metrics["golden.cells_failed"] == 0


SWEEP_SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    import tracer
    recorder = tracer.Tracer()
    tracer.install(recorder)
    from vla_roofline import cli
    metrics = []
    for argv in json.loads(sys.argv[1]):
        recorder.reset()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        metrics.append((code, tracer.layer_metrics(recorder.spans)))
    print(json.dumps(metrics))
""")

# (sweep arguments, grid points, infeasible points).  ``sync_scenario``
# prices collaborative points itself (``collaborative_scenario`` forwards
# to it, not the reverse), so each counts once.
SWEEPS = [
    (["--hw", "rtx4090", "--context-steps", "1,2000", "--chunk", "5,50"],
     4, 2),
    (["--placement", "collaborative", "--net", "wifi7", "--hw", "b100",
      "--device-hw", "thor", "--chunk", "5,50,100"], 3, 0),
    (["--placement", "collaborative", "--net", "wifi7", "--hw", "b100",
      "--device-hw", "rtx4090", "--model", "pi0-xxl", "--chunk", "5,50"],
     2, 2),
]


def test_tracer_counts_every_sweep_point_as_a_scenario():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "bench"), str(ROOT / "src")])
    argvs = [["sweep", *args, "--format", "json"] for args, _, _ in SWEEPS]
    result = subprocess.run([sys.executable, "-c", SWEEP_SCRIPT,
                             json.dumps(argvs)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    for (code, metrics), (_, points, infeasible) in zip(
            json.loads(result.stdout), SWEEPS):
        assert code == 0
        assert metrics["scenarios.calls"] == points
        assert metrics["scenarios.infeasible"] == infeasible
        assert metrics["opgraph.pipeline_graph.calls"] == 0
