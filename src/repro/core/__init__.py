"""The paper's contribution: distributed k-core decomposition.

Layout:

* :mod:`repro.core.compute_index` — Algorithm 2 (``computeIndex``) and
  Algorithm 4 (``improveEstimate``, the host-local cascade).
* :mod:`repro.core.one_to_one` — Algorithm 1, one host per node, with
  the Section 3.1.2 message-filter optimisation, and its row runners
  (object, async and flat engines).
* :mod:`repro.core.one_to_many` — Algorithms 3 and 5, one host for many
  nodes, with broadcast / point-to-point communication policies, and
  its row runners (object, async, sharded flat and mp fleet engines,
  plus whole-fleet resume from a checkpoint).
* :mod:`repro.core.paths` — the one table of execution paths and the
  one validation layer: a row per protocol × engine and per baseline,
  naming its runner and the modes, backends and options it takes.
  ``decompose``, both ``run_*`` entry points, the CLI and the RPL004
  lint rule read it.
* :mod:`repro.core.assignment` — node→host assignment policies
  (Section 3.2.2).
* :mod:`repro.core.termination` — the three termination-detection
  mechanisms sketched in Section 3.3.
* :mod:`repro.core.theory` — the bounds of Theorems 4/5 and
  Corollaries 1/2, plus a checker for the locality theorem (Theorem 1).
* :mod:`repro.core.result` — result object shared by all runners.
* :mod:`repro.core.api` — one-call convenience entry points over the
  table.
"""

from repro.core.compute_index import compute_index
from repro.core.result import DecompositionResult
from repro.core.one_to_one import OneToOneConfig, run_one_to_one
from repro.core.one_to_many import OneToManyConfig, run_one_to_many
from repro.core.api import decompose, coreness
from repro.core import theory

__all__ = [
    "compute_index",
    "DecompositionResult",
    "OneToOneConfig",
    "run_one_to_one",
    "OneToManyConfig",
    "run_one_to_many",
    "decompose",
    "coreness",
    "theory",
]
