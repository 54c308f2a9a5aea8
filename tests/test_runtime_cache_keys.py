"""Cache keys: the one-pass hasher against the token-stream oracle.

``_oracle_tokens`` and ``_oracle_stable_hash`` are the generator and
per-token hasher that :func:`repro.runtime.cache.stable_hash` replaced,
kept verbatim.  Every key the cache has ever written was hashed by
them, so the one-pass hasher must return their digest for every input
they accept and raise where they raise.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
from typing import Any, Iterator, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.variation import VariationSample
from repro.errors import ConfigurationError
from repro.runtime.cache import stable_hash, task_key

# -- the oracle ----------------------------------------------------------------


def _oracle_tokens(obj: Any) -> Iterator[str]:
    if obj is None or isinstance(obj, (bool, int, str)):
        yield f"{type(obj).__name__}:{obj!r}"
    elif isinstance(obj, float):
        yield f"float:{obj.hex()}"
    elif isinstance(obj, bytes):
        yield f"bytes:{obj.hex()}"
    elif isinstance(obj, enum.Enum):
        yield f"enum:{type(obj).__name__}.{obj.name}"
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        yield f"dataclass:{type(obj).__name__}("
        for field in dataclasses.fields(obj):
            yield f"{field.name}="
            yield from _oracle_tokens(getattr(obj, field.name))
        yield ")"
    elif isinstance(obj, dict):
        yield "dict("
        for key in sorted(obj, key=repr):
            yield from _oracle_tokens(key)
            yield "->"
            yield from _oracle_tokens(obj[key])
        yield ")"
    elif isinstance(obj, (tuple, list)):
        yield f"{type(obj).__name__}("
        for item in obj:
            yield from _oracle_tokens(item)
        yield ")"
    else:
        raise ConfigurationError(
            f"cannot build a stable cache key from {type(obj).__name__!r}"
        )


def _oracle_stable_hash(obj: Any) -> str:
    digest = hashlib.sha256()
    for token in _oracle_tokens(obj):
        digest.update(token.encode())
        digest.update(b"\x1f")  # unit separator: no token-boundary aliasing
    return digest.hexdigest()


# -- token trees ---------------------------------------------------------------


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Rail(enum.Enum):
    VDD = "vdd"
    GND = "gnd"


class Mode(str, enum.Enum):
    FAST = "fast"
    SLOW = "slow"


class Pair(NamedTuple):
    left: Any
    right: Any


@dataclasses.dataclass(frozen=True)
class Node:
    value: Any
    child: Any = None


@dataclasses.dataclass(frozen=True)
class WideNode(Node):
    extra: Any = 0.0


@dataclasses.dataclass(frozen=True)
class Leaf:
    value: Any


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                     5e-324, -2.2250738585072014e-308]),
)

_LEAVES = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.sampled_from(list(Level) + list(Rail) + list(Mode)),
)

_KEYS = st.one_of(st.integers(-5, 5), st.text(max_size=3), st.booleans(),
                  st.floats(allow_nan=False), st.none())


def _extend(children: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(
        st.tuples(),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4),
        st.builds(Pair, children, children),
        st.dictionaries(_KEYS, children, max_size=4),
        st.builds(Node, children, children),
        st.builds(WideNode, children, children, children),
        st.builds(Leaf, children),
    )


TREES = st.recursive(_LEAVES, _extend, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_one_pass_hash_equals_the_oracle(tree):
    assert stable_hash(tree) == _oracle_stable_hash(tree)


def test_subclass_fields_are_not_the_base_fields():
    # The base is hashed first, so a field-name table keyed by the
    # base type would drop the subclass's extra field.
    base, wide = Node(1.0, 2), WideNode(1.0, 2, extra=3.0)
    assert stable_hash(base) == _oracle_stable_hash(base)
    assert stable_hash(wide) == _oracle_stable_hash(wide)
    assert stable_hash(wide) != stable_hash(WideNode(1.0, 2, extra=4.0))


def test_int_and_str_mixin_enums_hash_as_their_values():
    for member in (Level.LOW, Mode.FAST):
        assert stable_hash(member) == _oracle_stable_hash(member)
        assert stable_hash((member,)) == _oracle_stable_hash((member,))
    assert stable_hash(Rail.VDD) == _oracle_stable_hash(Rail.VDD)


@pytest.mark.parametrize("bad", [
    {1, 2},
    np.zeros(3),
    Node,
    object(),
    (1.0, frozenset({2})),
    {"key": np.arange(2)},
])
def test_unhashable_inputs_still_raise(bad):
    with pytest.raises(ConfigurationError):
        _oracle_stable_hash(bad)
    with pytest.raises(ConfigurationError):
        stable_hash(bad)


# -- digests the cache has written ---------------------------------------------

_SAMPLE = VariationSample(
    die_vth_shift=-0.0125,
    die_drive_scale=1.03125,
    instance_vth_shifts=(0.001, -0.0, 2.5e-3),
    instance_drive_scales=(1.0, 0.5, 1.75),
)


def test_literal_sample_digest():
    assert stable_hash(_SAMPLE) == (
        "8399f9196e7808639ef55080f3af6dea1c9729a9b3205ab16346dac5732c16c6")


def test_literal_die_score_key():
    key = task_key("die-score", "a" * 64, _SAMPLE, 3, (0.9, 1.0, 1.1))
    assert key == (
        "810bbf45333218de16ec49873bae734bc1d6905a77b89d984359d222afcff4e0")
