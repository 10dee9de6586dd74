"""Mutation-operator tests.

The single operators live in ``tests/havoc_reference.py``, the op-by-op form
of havoc that ``repro.fuzzer.mutators.havoc`` inlines (see
``tests/test_havoc_identity.py``).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzer import mutators
from tests import havoc_reference as reference


def rng(seed=0):
    return random.Random(seed)


def test_flip_bit_changes_exactly_one_bit():
    data = bytearray(b"\x00" * 8)
    reference.flip_bit(rng(), data, 64)
    assert sum(bin(b).count("1") for b in data) == 1


def test_delete_block_shrinks():
    data = bytearray(b"abcdefgh")
    assert reference.delete_block(rng(), data, 64)
    assert 0 < len(data) < 8


def test_clone_block_grows_within_limit():
    data = bytearray(b"abcd")
    assert reference.clone_block(rng(), data, 6)
    assert 4 < len(data) <= 6


def test_clone_block_refuses_at_max():
    data = bytearray(b"abcd")
    assert not reference.clone_block(rng(), data, 4)


def test_token_overwrite_places_token():
    data = bytearray(b"\x00" * 8)
    assert reference.overwrite_token(rng(), data, 64, [b"MAGI"])
    assert b"MAGI" in bytes(data)


def test_token_insert_respects_max_len():
    data = bytearray(b"\x00" * 8)
    assert not reference.insert_token(rng(), data, 8, [b"MAGI"])


def test_empty_input_operators_refuse():
    data = bytearray()
    assert not reference.flip_bit(rng(), data, 8)
    assert not reference.set_random_byte(rng(), data, 8)
    assert not reference.delete_block(rng(), data, 8)


def test_havoc_never_returns_empty():
    for seed in range(20):
        result = mutators.havoc(rng(seed), b"", 16)
        assert len(result) >= 1


def test_havoc_deterministic_per_seed():
    a = mutators.havoc(rng(5), b"hello world", 64)
    b = mutators.havoc(rng(5), b"hello world", 64)
    assert a == b


def test_splice_prefix_from_first():
    result = mutators.splice(rng(1), b"AAAA", b"BBBB")
    assert result[0:1] == b"A"
    assert 1 <= len(result) <= 8


def test_splice_with_empty_sides():
    assert mutators.splice(rng(), b"", b"") == b"\x00"
    assert mutators.splice(rng(), b"ab", b"") in (b"a", b"ab")


def test_deterministic_mutations_walk_every_byte():
    variants = list(mutators.deterministic_mutations(b"abc"))
    assert len(variants) == 3
    assert all(len(v) == 3 for v in variants)
    # each variant differs in exactly one position
    for pos, variant in enumerate(variants):
        diffs = [i for i in range(3) if variant[i] != b"abc"[i]]
        assert diffs == [pos]


def test_deterministic_token_stage():
    variants = list(mutators.deterministic_mutations(b"\x00" * 8, [b"AB"]))
    assert any(b"AB" in v for v in variants)


@settings(max_examples=80)
@given(st.binary(min_size=0, max_size=40), st.integers(0, 2 ** 31), st.booleans())
def test_havoc_respects_max_len_property(data, seed, legacy):
    result = mutators.havoc(random.Random(seed), data, 48, legacy=legacy)
    assert 1 <= len(result) <= 48


@settings(max_examples=60)
@given(st.binary(min_size=1, max_size=32), st.integers(0, 2 ** 31))
def test_havoc_with_tokens_property(data, seed):
    tokens = (b"MAGC", b"\xff\xfe")
    result = mutators.havoc(random.Random(seed), data, 40, tokens)
    assert 1 <= len(result) <= 40
