"""HostStep: the one copy of the Algorithms 3-5 host program.

Hand-checked on the path 0-1-2-3-4-5 placed modulo 3, seen from host 0
(owned nodes 0 and 3, local 0 and 1). Node 0 borders host 1 only; node
3 borders hosts 1 and 2. So the initial full send is two estimates
under broadcast but three (estimate, destination) pairs under p2p —
the Figure-5 difference the paper measures.
"""

from __future__ import annotations

from array import array

import pytest

from repro.core.assignment import assign
from repro.core.one_to_many import INFINITY_INT
from repro.graph.generators import path_graph
from repro.graph.sharded import ShardedCSR
from repro.sim.host_step import HostStep
from repro.sim.kernels import numpy_available, resolve_backend

BACKENDS = ["stdlib"] + (["numpy"] if numpy_available() else [])
HOSTS = 3


def _step(communication="p2p", p2p_filter=False, backend="stdlib"):
    g = path_graph(6)
    sharded = ShardedCSR.from_graph(g, assign(g, HOSTS))
    return HostStep(
        resolve_backend(backend), sharded.shards[0], HOSTS, communication,
        p2p_filter, INFINITY_INT,
    )


def _emit(step, updates, queued=None):
    """``step.emit`` into fresh ``array('q')`` buffers; the lists come
    back for comparison. ``queued`` pre-fills the slot buffers."""
    out_slots = [array("q", q) for q in queued or [[]] * HOSTS]
    out_vals = [array("q", [0] * len(slots)) for slots in out_slots]
    dests = step.emit(updates, out_slots, out_vals)
    for buf in out_slots + out_vals:
        assert all(type(v) is int for v in buf)
    return (
        list(dests), [b.tolist() for b in out_slots],
        [b.tolist() for b in out_vals],
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_init_seeds_degrees_and_returns_every_owned_estimate(backend):
    step = _step(backend=backend)
    # the updates are the owned nodes; their estimates are est[u]
    assert step.init() == [0, 1]
    assert [int(v) for v in step.est[:2]] == [1, 2]
    assert [int(v) for v in step.est[2:]] == [INFINITY_INT] * 3
    assert step.changed_list == []
    assert not any(step.changed_flag)


@pytest.mark.parametrize(
    "communication, p2p_filter, sent",
    [("broadcast", False, 2), ("p2p", False, 3), ("p2p", True, 3)],
)
def test_initial_send_routing_and_figure5_accounting(
    communication, p2p_filter, sent
):
    step = _step(communication, p2p_filter)
    dests, out_slots, out_vals = _emit(step, step.init())
    assert dests == [1, 2]
    assert out_slots == [[], [0, 2], [1]]
    assert out_vals == [[], [1, 2], [2]]
    assert step.estimates_sent == sent


def test_emit_appends_after_mail_already_queued():
    # the flat engine passes its live mailboxes: earlier senders' pairs
    # must survive, in order
    step = _step("broadcast")
    _, out_slots, _ = _emit(step, step.init(), [[], [7], []])
    assert out_slots[1] == [7, 0, 2]


@pytest.mark.parametrize("backend", BACKENDS)
def test_fold_returns_only_the_cascade_changes(backend):
    step = _step(backend=backend)
    step.init()
    # node 4 (host 1, ext slot 2) drops to 1: node 3 (local 1) keeps
    # only one neighbour at >= 2 and follows; node 0 is untouched
    assert step.fold([2], [1]) == [1]
    assert int(step.est[1]) == 1
    assert step.fold([2], [1]) == []


@pytest.mark.parametrize(
    "p2p_filter, dests, sent", [(False, [1, 2], 2), (True, [2], 1)]
)
def test_filter_drops_estimates_the_neighbour_host_cannot_use(
    p2p_filter, dests, sent
):
    # node 3's new estimate 1 is no news to host 1, whose node 4 told
    # it 1; host 2's node 2 still sits at infinity here
    step = _step("p2p", p2p_filter)
    step.init()
    updates = step.fold([2], [1])
    before = step.estimates_sent
    got, _, _ = _emit(step, updates)
    assert got == dests
    assert step.estimates_sent - before == sent


def test_nothing_to_send_is_not_a_message():
    step = _step("broadcast")
    step.init()
    assert _emit(step, [])[0] == []
    assert step.estimates_sent == 0
