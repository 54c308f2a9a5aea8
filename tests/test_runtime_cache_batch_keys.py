"""Batch keys: ``task_keys`` against per-item ``task_key`` and the oracle.

:func:`repro.runtime.cache.task_keys` hashes the tokens shared by a
batch once and each item's own tokens after them.  Every key it
returns must be the byte-identical ``task_key`` of that item, which
the token-stream oracle of ``tests/test_runtime_cache_keys.py`` hashed
for every entry the cache has written.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.variation import VariationModel
from repro.runtime.cache import (
    CACHE_SCHEMA,
    design_fingerprint,
    stable_hash,
    task_key,
    task_keys,
)
from tests.test_runtime_cache_keys import TREES, Level, _oracle_stable_hash

_PARTS = st.lists(TREES, max_size=3).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=8), _PARTS, st.lists(TREES, max_size=5), _PARTS)
def test_batch_keys_equal_per_item_task_keys(kind, head, items, tail):
    keys = task_keys(kind, head, items, tail)
    assert keys == [task_key(kind, *head, item, *tail) for item in items]
    assert keys == [_oracle_stable_hash((CACHE_SCHEMA, kind,
                                         (*head, item, *tail)))
                    for item in items]


def test_die_score_keys_of_a_500_die_lot(design):
    fp = design_fingerprint(design)
    grid = tuple(float(v) for v in np.linspace(0.8, 1.2, 17))
    for seed in (1, 2009):
        lot = VariationModel().sample_lot(500, design.n_bits, seed=seed)
        assert task_keys("die-score", (fp,), lot, (3, grid)) == [
            task_key("die-score", fp, sample, 3, grid) for sample in lot]


_FLAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.booleans(),
    st.integers(),
    st.sampled_from(list(Level)),
)
_MIXED = st.recursive(
    _FLAT,
    lambda children: st.one_of(st.lists(children, max_size=6).map(tuple),
                               st.lists(children, max_size=6)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_MIXED, max_size=8).map(tuple),
                 st.lists(_MIXED, max_size=8)))
def test_flat_float_sequences_hash_as_the_oracle(seq):
    assert stable_hash(seq) == _oracle_stable_hash(seq)


def test_float_look_alikes_keep_their_own_tokens():
    mixed = (1.0, np.float64(1.0), True, 1, Level.LOW, -0.0, 0.0,
             math.nan, math.inf, (2.5, [np.float64(-0.0), False]))
    assert stable_hash(mixed) == _oracle_stable_hash(mixed)
    assert stable_hash(list(mixed)) == _oracle_stable_hash(list(mixed))
    assert len({stable_hash((x,)) for x in (1.0, True, 1, Level.LOW)}) == 4
    assert stable_hash((-0.0,)) != stable_hash((0.0,))
