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
