"""The pricing reference the tests check the model against.

A control step's runs come straight from the phase builders, and a
phase's figures are the roofline's per-kernel definition folded over its
runs: each run sits on the wall that :func:`roofline.op_time` names, the
compute-wall FLOPs and the memory-wall bytes add up as exact integers, and
the phase's bound compares its aggregate operational intensity with the
accelerator's balance point.
"""

from vla_roofline import opgraph
from vla_roofline.roofline import COMPUTE_BOUND, MEMORY_BOUND, op_time


def totals(runs):
    """The FLOPs and bytes of ``runs``, summed as integers."""
    return (sum(op.flops * count for op, count in runs),
            sum(op.bytes * count for op, count in runs))


def phase_runs(spec, t=None):
    """``{phase: runs}`` in ``PHASES`` order: the non-zero runs of each
    :func:`opgraph.phase_builds` key at context step ``t``, as
    :func:`opgraph.build` returns them."""
    return {phase: opgraph.build(key, {})[0]
            for phase, key in opgraph.phase_builds(spec, t).items()}


def step_runs(spec, t=None):
    """The runs of one control step: each phase's runs of
    :func:`phase_runs`, in ``PHASES`` order."""
    return [run for runs in phase_runs(spec, t).values() for run in runs]


def reference_figures(runs, hw):
    """Seconds, operational intensity and bound of one phase's runs on
    ``hw``.  Ties between the walls count as memory, as ``op_time`` has it."""
    compute_flops = memory_bytes = 0
    for op, count in runs:
        if op_time(op, hw)[1] == COMPUTE_BOUND:
            compute_flops += op.flops * count
        else:
            memory_bytes += op.bytes * count
    flops, data = totals(runs)
    oi = flops / data
    label = COMPUTE_BOUND if oi > hw.balance_oi() else MEMORY_BOUND
    return (compute_flops / hw.peak_flops + memory_bytes / hw.mem_bandwidth,
            oi, label)
