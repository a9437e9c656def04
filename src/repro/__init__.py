"""repro — Distributed k-Core Decomposition.

A from-scratch Python reproduction of *Distributed k-Core
Decomposition* (Alberto Montresor, Francesco De Pellegrini, Daniele
Miorandi; PODC 2011, arXiv:1103.5320): the one-to-one and one-to-many
protocols, the PeerSim-style simulation substrate they were evaluated
on, sequential baselines, termination detection, a Pregel/BSP port, and
the full benchmark harness regenerating every table and figure of the
paper's evaluation.

Quickstart::

    from repro import decompose, generators

    graph = generators.powerlaw_cluster_graph(1000, m=4, p=0.3, seed=7)
    result = decompose(graph, "one-to-one", seed=1)
    print(result.max_coreness, result.stats.execution_time, "rounds")
"""

from repro.core.api import ALGORITHMS, coreness, decompose
from repro.core.one_to_one import OneToOneConfig, run_one_to_one
from repro.core.one_to_many import (
    OneToManyConfig,
    resume_from_checkpoint,
    run_one_to_many,
)
from repro.core.result import DecompositionResult
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.faults import Fault, FaultPlan
from repro.core.assignment import Assignment, assign
from repro.graph.graph import Graph
from repro.graph.csr import CSRGraph
from repro.graph.sharded import HostShard, ShardedCSR
from repro.graph import generators
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.stats import GraphStats, compute_stats
from repro.baselines import batagelj_zaversnik, peeling_coreness

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "Assignment",
    "CSRGraph",
    "CheckpointPolicy",
    "DecompositionResult",
    "Fault",
    "FaultPlan",
    "Graph",
    "GraphStats",
    "HostShard",
    "OneToManyConfig",
    "OneToOneConfig",
    "ShardedCSR",
    "assign",
    "batagelj_zaversnik",
    "compute_stats",
    "coreness",
    "decompose",
    "generators",
    "peeling_coreness",
    "read_edge_list",
    "resume_from_checkpoint",
    "run_one_to_many",
    "run_one_to_one",
    "write_edge_list",
    "__version__",
]
