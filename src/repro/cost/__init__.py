"""Unified cost-model layer: one owner for every cost decision.

Before this package, cost knowledge was scattered across five layers
that never talked: the :mod:`repro.machine.model` presets, the §6.1
simulator, the Figure 5 profiler (which derived the combining knee but
fed nothing back), and the greedy/ILP/solver combiners (hard-coded
20 KB).  Everything routes through here now:

* :class:`~repro.cost.model.CostModel` wraps a
  :class:`~repro.machine.model.MachineModel` and derives the combining
  threshold from the Fig 5 knee instead of the paper's hand-read 20 KB;
  every placement pass reads it via ``AnalysisContext.cost_model``.
* :mod:`repro.cost.lower_bound` computes an HBL-style per-program
  communication floor (Christ–Demmel–Knight–Scanlon–Yelick, arXiv
  1308.0068, adapted to the owner-computes partition), so every byte
  count can be read as "bytes moved vs. how few were possible".
"""

from .model import (
    DEFAULT_KNEE_FRACTION,
    CostModel,
    PlacementCostModel,
    discrete_knee,
    resolve_machine,
)

__all__ = [
    "DEFAULT_KNEE_FRACTION",
    "CostModel",
    "PlacementCostModel",
    "discrete_knee",
    "resolve_machine",
]
