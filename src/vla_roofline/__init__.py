"""Analytical roofline model for vision-language-action inference.

The package answers "how fast does this VLA policy run on this accelerator
behind this network link?" without touching a GPU: each pipeline phase of a
policy is built as run-length ``(operator, count)`` runs
(:func:`~vla_roofline.opgraph.phase_builds`), priced with a per-operator
roofline (:func:`~vla_roofline.roofline.figure_phase`), and composed with
network transfer costs (:mod:`~vla_roofline.netmodel`) into deployment
scenarios (:mod:`~vla_roofline.scenarios`).  Only the T4 table reads a whole
step as one operator graph.  Presets for the supported models, accelerators
and links live in :mod:`~vla_roofline.configio`, and
:mod:`~vla_roofline.golden` carries published reference tables the model is
validated against (``vla-roofline reproduce all``).

The names imported here are the common entry points; every other name is
imported from its module.
"""

from .configio import load_presets
from .netmodel import NetworkConfig, transfer_time
from .opgraph import VLM, Operator, prefill_runs
from .roofline import (
    COMPUTE_BOUND,
    GIB,
    MEMORY_BOUND,
    AcceleratorConfig,
    fits,
    op_time,
)
from .scenarios import (
    Placement,
    async_scenario,
    dual_system_scenario,
    sync_scenario,
)
from .workload import kv_bytes_per_token, param_count
