"""Mutation check: does tier-1 tell the model from a one-line mutant?

Run by hand from anywhere (pytest does not collect this file):

    python tests/mutants.py            # every mutant, about 8 minutes
    python tests/mutants.py NAME ...   # the named ones

Each mutant is ``(name, file under src/vla_roofline, exact old text, new
text, reason)``.  The script first refuses every mutant whose old text it
does not find exactly once.  Then, for each mutant, it copies what tier-1
reads (``src``, ``tests``, ``bench``, ``README.md``, ``pyproject.toml``) to
a temporary directory, applies the mutant there, runs tier-1 with ``-x``
and prints ``killed`` or ``survived``.  An equivalent mutant, which no
input can tell from the model, carries its reason; it is expected to
survive and prints ``equivalent``.  The exit status is 1 if a mutant is
refused or a mutant that is not equivalent survives.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "vla_roofline")
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                 ".pytest_cache", "out")
TIMEOUT_S = 900  # a mutant that hangs tier-1 counts as killed

MUTANTS = (
    # Model terms.
    ("async-download-term", "scenarios.py",
     "        rates.append(hop.rate(upload=False) / down_bits)\n", "", None),
    ("async-upload-term", "scenarios.py",
     "        rates.append(hop.rate(upload=True) / up_bits)\n", "", None),
    ("expert-ctx-groups-floor", "opgraph.py",
     "ctx_groups = -(-cfg.num_q_heads // ctx_kv_heads)",
     "ctx_groups = max(1, cfg.num_q_heads // ctx_kv_heads)", None),
    ("expert-history-read-twice", "opgraph.py",
     "elems += 2 * history * ctx_kv_width",
     "elems += 4 * history * ctx_kv_width", None),
    ("kv-window-broadcast-only", "opgraph.py",
     "return min(broadcast, materialize)", "return broadcast", None),
    # Boundaries that the docstrings state.
    ("label-tie-compute", "roofline.py",
     "if oi > hw.balance_oi():", "if oi >= hw.balance_oi():", None),
    ("op-time-tie-compute", "roofline.py",
     "if t_compute > t_memory:", "if t_compute >= t_memory:", None),
    ("price-phase-tie-compute", "roofline.py",
     "if op.flops / peak > op.bytes / bandwidth:",
     "if op.flops / peak >= op.bytes / bandwidth:",
     "at a tie the run's FLOPs over the peak equal its bytes over the "
     "bandwidth, so either wall charges it the same seconds; only the "
     "rounding of the two wall quotients could differ"),
    ("fits-tie", "roofline.py",
     "<= hw.mem_capacity", "< hw.mem_capacity", None),
    ("sync-capacity-tie", "scenarios.py",
     "if need > capacity_hw.mem_capacity:",
     "if need >= capacity_hw.mem_capacity:", None),
    ("dual-system-cap-tie", "scenarios.py",
     "if s2_cap * t_s2 >= 1.0:", "if s2_cap * t_s2 > 1.0:", None),
    ("dual-system-note-tie", "scenarios.py",
     "if f1 < s2_cap:", "if f1 <= s2_cap:", None),
    ("golden-verdict-tie", "golden.py",
     "<= self._tolerance(value)", "< self._tolerance(value)", None),
    ("golden-error-swapped", "golden.py",
     "else modeled / value - 1.0", "else value / modeled - 1.0", None),
    # Validation at the records.
    ("steps-refusal-off", "cli.py",
     "if steps is not None and spec.decoding_mode != DIFFUSION:",
     "if False:", None),
    ("spec-default-action-dof", "workload.py",
     "action_dof: int = 14,", "action_dof: int = 15,", None),
    ("spec-count-check-skipped", "workload.py",
     "        if not max(num_cameras,",
     "        if False and not max(num_cameras,", None),
    ("spec-count-fast-path-off", "workload.py",
     "        if not max(num_cameras,",
     "        if True or not max(num_cameras,",
     "the loop raises for exactly the counts above MAX_COUNT that the one "
     "max test lets into it, so running it always only costs time"),
    ("operator-negative-bytes", "opgraph.py",
     "if self.flops < 0 or self.bytes < 0:", "if self.flops < 0:", None),
    ("head-multiple-check", "workload.py",
     "if self.num_q_heads % self.num_kv_heads != 0:",
     "if self.num_q_heads < self.num_kv_heads:", None),
    # The fast paths of the records, the projection and the writers.
    ("record-position-off-by-one", "record.py",
     "enumerate(cls._fields)}", "enumerate(cls._fields, 1)}", None),
    ("projection-float-test-inverted", "cli.py",
     "repeat(digits))) if floats", "repeat(digits))) if not floats", None),
    ("reproduce-json-escape-off", "commands.py",
     'text(name).replace("%", "%%")', "text(name)", None),
    # The early returns the builders keep.
    ("diffusion-zero-steps", "opgraph.py",
     "    if steps == 0:\n        return []\n", "", None),
    ("vision-zero-camera", "opgraph.py",
     "    if num_cameras == 0:\n        return []\n", "", None),
    # The process entry: a ``run`` that returns its code exits the same way,
    # through the interpreter's shutdown, so only a test of the skipped
    # shutdown itself can kill the mutant.
    ("entry-returns", "__main__.py",
     "    os._exit(code)\n", "    return code\n", None),
    # The lazy imports of a cold process.  The batch commands are loaded at
    # the start of every call, not at the top of ``cli``, which ``commands``
    # imports from: that would fail as a circular import, not as a load.
    ("cli-eager-commands", "cli.py",
     "    args = _read_argv(",
     "    from . import commands\n    args = _read_argv(", None),
    ("cli-eager-pathlib", "cli.py",
     "import sys\n", "import sys\nfrom pathlib import Path\n", None),
)


def _refused(mutants) -> list[str]:
    """Each mutant whose old text is not in its file exactly once."""
    refused = []
    for name, filename, old, _new, _reason in mutants:
        text = (ROOT / PACKAGE / filename).read_text(encoding="utf-8")
        if text.count(old) != 1:
            refused.append(f"{name}: old text found {text.count(old)} times "
                           f"in {filename}")
    return refused


def _killed(filename: str, old: str, new: str) -> bool:
    """Whether tier-1 fails on a copy of the tree with ``old`` replaced."""
    with tempfile.TemporaryDirectory(prefix="vla-roofline-mutant-") as tmp:
        tree = Path(tmp)
        for part in COPIED:
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, tree / part, ignore=IGNORED)
            else:
                shutil.copy2(source, tree / part)
        target = tree / PACKAGE / filename
        target.write_text(target.read_text(encoding="utf-8").replace(old, new),
                          encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x",
                 "-p", "no:cacheprovider", "--continue-on-collection-errors"],
                cwd=tree, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True
        return run.returncode != 0


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant[0] for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    refused = _refused(chosen)
    if refused:
        print("refused:\n  " + "\n  ".join(refused))
        return 1
    counts = {"killed": 0, "survived": 0, "equivalent": 0}
    width = max(len(mutant[0]) for mutant in chosen)
    for name, filename, old, new, reason in chosen:
        start = time.perf_counter()
        if _killed(filename, old, new):
            verdict = "killed"
        else:
            verdict = "equivalent" if reason else "survived"
        counts[verdict] += 1
        note = f"  ({reason})" if reason else ""
        if reason and verdict == "killed":
            note = "  (named equivalent, but tier-1 kills it)"
        seconds = time.perf_counter() - start
        print(f"{verdict:10}  {name:{width}}  {seconds:5.1f} s{note}",
              flush=True)
    print(", ".join(f"{count} {verdict}" for verdict, count in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
