"""The numpy kernel backend replays the stdlib one.

Every row that takes ``backend="numpy"`` runs :mod:`tests.replay` cells
whose reference is the same row on stdlib: both protocols and modes,
both communication policies, placement policies, shuffled ids,
truncated runs, the flat h-index and Pregel baselines.
Without numpy each cell skips on its own.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.graph import generators as gen

from tests.replay import FAMILIES, POLICIES, cells, check, replay

NUMPY = dict(engine="flat", backend="numpy")


class TestOneToOneGrid:
    """12 families, lockstep (the numpy-supported one-to-one mode)."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families(self, family):
        check("one-to-one", FAMILIES[family](), mode="lockstep", **NUMPY)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families_without_send_filter(self, family):
        check("one-to-one", FAMILIES[family](), mode="lockstep",
              optimize_sends=False, **NUMPY)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families_shuffled_ids(self, family):
        check("one-to-one", FAMILIES[family]().shuffled(seed=99),
              mode="lockstep", **NUMPY)

    def test_truncated_run(self):
        check("one-to-one", gen.worst_case_graph(30), mode="lockstep",
              fixed_rounds=7, strict=False, **NUMPY)


class TestOneToManyGrid:
    """12 families × both modes × both communications × 3 seeds."""

    @pytest.mark.parametrize("mode", ("peersim", "lockstep"))
    @pytest.mark.parametrize("communication", ("broadcast", "p2p"))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families(self, family, communication, mode):
        graph = FAMILIES[family]()
        for seed in (0, 1, 2):
            check("one-to-many", graph, num_hosts=5, mode=mode,
                  communication=communication, seed=seed, **NUMPY)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_placement_policies(self, policy):
        graph = FAMILIES["plc"]()
        for seed in (0, 1, 2):
            check("one-to-many", graph, num_hosts=4, policy=policy,
                  seed=seed, **NUMPY)

    def test_more_hosts_than_nodes(self):
        check("one-to-many", gen.path_graph(5), num_hosts=9, seed=1, **NUMPY)

    def test_truncated_run(self):
        check("one-to-many", gen.worst_case_graph(30), num_hosts=4,
              fixed_rounds=5, strict=False, seed=2, **NUMPY)


class TestFlatBaselines:
    """The kernel-layer baselines agree across backends too."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_hindex(self, family):
        check("hindex", FAMILIES[family](), backend="numpy")

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_pregel(self, family):
        check("pregel", FAMILIES[family](), num_workers=3, **NUMPY)


class TestHypothesis:
    @given(cells())
    @settings(max_examples=20, deadline=None)
    def test_one_to_one_lockstep(self, example):
        replay(example, "one-to-one", mode="lockstep", **NUMPY)

    @given(cells())
    @settings(max_examples=20, deadline=None)
    def test_one_to_many(self, example):
        replay(example, "one-to-many", **NUMPY)
