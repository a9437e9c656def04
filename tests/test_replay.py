"""The replay harness's own contract (see :mod:`tests.replay`): its
tables cover the registry, and every in-process row replays its
reference and reaches BZ's coreness on generated graphs.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.core import paths

from tests.replay import REFERENCE, cells, replay


def test_every_engine_row_has_a_reference():
    for row in paths.PATHS:
        if row.engine is not None or "numpy" in row.backends:
            assert (row.algorithm, row.engine) in REFERENCE, row
    for (algorithm, engine), target in REFERENCE.items():
        paths.select(algorithm, engine)
        if target is not None:
            assert paths.select(algorithm, target).engine == target


@given(cells())
@settings(max_examples=100, deadline=None)
def test_every_in_process_leg_replays(example):
    replay(example)
