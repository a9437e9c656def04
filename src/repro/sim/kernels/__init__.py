"""Shared flat-kernel layer with pluggable stdlib/numpy backends.

Every flat execution path in this repository — the one-to-one lockstep
and peersim engines, the sharded one-to-many engine, and the flat
h-index / Pregel baselines — reduces to the same inner loops:
``computeIndex`` over neighbour estimates (Algorithm 2), estimate
tables with the ``Δ + 1`` / +∞ sentinels, the sup-counter recompute
skip, the changed-flag cascade (Algorithm 4) and the mailbox-slot
delivery scheme. This package owns those primitives once, behind the
small :class:`~repro.sim.kernels.base.KernelBackend` protocol, with two
implementations:

* ``"stdlib"`` — :class:`~repro.sim.kernels.stdlib_backend.
  StdlibBackend`, the canonical pure-``array('q')`` loops (exactly the
  PR 1-3 hot paths, now shared). Always available, always the default.
* ``"numpy"`` — :class:`~repro.sim.kernels.numpy_backend.NumpyBackend`,
  vectorised bucket/histogram kernels. Optional: it is only imported by
  :func:`resolve_backend` after checking that numpy itself imports, so
  stdlib-only environments run the full suite unchanged.

**Backend contract.** The stdlib backend defines the semantics;
``numpy`` must be bit-identical on every observable (final coreness,
round counts, per-round and per-node message counts, Figure-5
``estimates_sent``) for every configuration that accepts it —
``tests/test_backend_equivalence.py`` asserts this across the 12-family
grid. Kernel-level pre/post-conditions live in
:mod:`repro.sim.kernels.base`.

**Engine × backend support matrix.**

===========================================  =========  =========
execution path                               stdlib     numpy
===========================================  =========  =========
``FlatOneToOneEngine`` (lockstep)            yes        yes
``FlatPeerSimEngine`` (one-to-one peersim)   yes        no [1]_
``FlatOneToManyEngine`` (both modes, all
communication policies incl. p2p_filter)     yes        yes
``hindex_iteration`` (flat baseline)         yes        yes
``run_pregel_kcore(engine="flat")``          yes        yes
``ShardedCSR`` table build
(``shard_tables`` kernel)                    yes [3]_   yes [3]_
SNAP text parse, one block of lines
(``parse_edge_block`` kernel)                yes [3]_   yes [3]_
CSR build from an edge list
(``csr_from_edges`` kernel)                  yes [3]_   yes [3]_
CSR companion build (``csr_companions``
kernel: ``mirror()`` / ``edge_owners()``)    yes [3]_   yes [3]_
object engines (``round`` / ``async``)       n/a [2]_   n/a [2]_
===========================================  =========  =========

.. [1] PeerSim cycle semantics deliver messages *immediately* in a
   randomized per-node activation order, so each activation observes
   the previous one's writes — an inherently sequential loop with no
   batch to vectorise. The config layer rejects the combination loudly
   rather than silently falling back.
.. [2] The object engines run ``Process`` subclasses, not kernels; a
   non-default ``backend`` on them is rejected by the config layer.
.. [3] Not configurable: ``read_edge_list`` / ``CSRGraph.from_edges``
   build on numpy when :func:`numpy_available` and the edge list has
   at least ``repro.graph.csr.NUMPY_MIN_PAIRS`` pairs,
   ``read_edge_list`` parses a block on numpy when it is and the lines
   read so far (the block's own included) reach that many, and
   ``CSRGraph.mirror()`` / ``edge_owners()`` (both companions in one
   call) and ``ShardedCSR(csr, assignment)`` do when it is and the CSR
   has at least that many slots; stdlib otherwise. The buffers are
   identical ``array('q')`` tables either way (a block the numpy parse
   turns down goes to the stdlib parse), so the engines' own
   ``backend`` stays independent of the build.

Vectorisation boundary: the numpy backend vectorises *within* a batch
(a lockstep round's frontier, one host activation's fold + cascade +
routing, a Jacobi sweep, one shard's table build, one block of SNAP
text, one edge list's CSR build, one CSR's companion arrays);
activation order, RNG streams and mailbox delivery stay in the
engines, byte-identical across backends.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sim.kernels.base import KernelBackend, export_send_counts
from repro.sim.kernels.stdlib_backend import StdlibBackend

__all__ = [
    "KernelBackend",
    "StdlibBackend",
    "DEFAULT_BACKEND",
    "BACKEND_NAMES",
    "available_backends",
    "numpy_available",
    "resolve_backend",
    "export_send_counts",
]

#: The canonical backend — selected whenever no backend is named.
DEFAULT_BACKEND = "stdlib"

#: Every backend name the registry knows (available or not).
BACKEND_NAMES = ("stdlib", "numpy")

_stdlib = StdlibBackend()
_numpy: KernelBackend | None = None


def numpy_available() -> bool:
    """Whether the optional numpy backend can be constructed here."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def available_backends() -> tuple[str, ...]:
    """Backend names usable in this environment, default first."""
    if numpy_available():
        return BACKEND_NAMES
    return (DEFAULT_BACKEND,)


def resolve_backend(backend: "str | KernelBackend | None") -> KernelBackend:
    """Turn a backend name (or instance, or ``None``) into a backend.

    ``None`` means :data:`DEFAULT_BACKEND`. Raises
    :class:`~repro.errors.ConfigurationError` for unknown names, and
    for ``"numpy"`` when numpy is not importable — configuration
    errors, not import errors, so the CLI and the config layer report
    them uniformly.
    """
    if isinstance(backend, KernelBackend):
        return backend
    if backend is None:
        backend = DEFAULT_BACKEND
    if backend == "stdlib":
        return _stdlib
    if backend == "numpy":
        global _numpy
        if not numpy_available():
            raise ConfigurationError(
                "backend='numpy' requires numpy, which is not installed "
                "in this environment; install numpy or use the default "
                "backend='stdlib' (identical results, pure stdlib)"
            )
        if _numpy is None:
            from repro.sim.kernels.numpy_backend import NumpyBackend

            _numpy = NumpyBackend()
        return _numpy
    raise ConfigurationError(
        f"unknown kernel backend {backend!r}; options: {list(BACKEND_NAMES)}"
    )
