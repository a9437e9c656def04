"""Incremental coreness maintenance under edge/node churn.

The paper targets "live" systems (one-to-one scenario) where the graph
is the overlay itself — which churns. This extension keeps a coreness
map up to date under edge insertions and deletions without global
recomputation, using the locality theorem (Theorem 1) to bound the
affected region.

Two engines implement the same maintenance semantics:

- :class:`DynamicKCore` — the readable object-graph oracle (adjacency
  dicts, per-edit Python loops).  Defines correctness.
- :class:`FlatDynamicKCore` — the flat engine over the mutable
  :class:`~repro.graph.dynamic_csr.DynamicCSRGraph` (one neighbour
  array per row; a join reuses a freed row), with order-based
  inserts over the k-order of :mod:`repro.streaming.korder` and a
  support-counted re-convergence after deletes.
  Bit-identical coreness to the oracle after every edit and batch; the
  one to use under sustained churn.

:class:`ChurnService` wraps the flat engine in a long-lived
buffer-batch-query loop for server-style deployments.
"""

from repro.streaming.flat_maintenance import FlatDynamicKCore
from repro.streaming.maintenance import DynamicKCore
from repro.streaming.service import ChurnService

__all__ = ["ChurnService", "DynamicKCore", "FlatDynamicKCore"]
