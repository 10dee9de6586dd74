"""Stream identity: the inlined havoc against its op-by-op reference.

``repro.fuzzer.mutators.havoc`` spells every ``randrange``/``choice`` of the
operators in ``tests/havoc_reference.py`` as CPython's rejection sampler over
``getrandbits``.  Campaign trajectories depend on it drawing the very same
generator words, so each check compares the returned bytes *and* the RNG
state after the call, over chains of calls that feed each output to the next.
A change in how CPython's ``random`` draws below ``n`` fails here first.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fuzzer import mutators
from tests import havoc_reference as reference

CHAIN = 5


def assert_chain_identical(seed, data, max_len, tokens, legacy, splice_with=None):
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(CHAIN):
        new_in = old_in = data
        if splice_with is not None:
            new_in = mutators.splice(new, data, splice_with)
            old_in = mutators.splice(old, data, splice_with)
            assert new_in == old_in
        got = mutators.havoc(new, new_in, max_len, tokens, legacy=legacy)
        want = reference.havoc(old, old_in, max_len, tokens, legacy=legacy)
        assert got == want
        assert new.getstate() == old.getstate()
        data = got


@st.composite
def havoc_cases(draw):
    max_len = draw(st.one_of(st.just(1), st.integers(1, 8), st.integers(9, 300)))
    size = draw(st.one_of(st.just(0), st.just(max_len), st.integers(0, max_len)))
    data = draw(st.binary(min_size=size, max_size=size))
    # Tokens: none, short, longer than the data, longer than max_len.
    token = st.binary(min_size=0, max_size=max_len + 8)
    tokens = draw(st.one_of(st.just(()), st.lists(token, min_size=1, max_size=4).map(tuple)))
    return data, max_len, tokens


@settings(max_examples=300, deadline=None)
@given(havoc_cases(), st.integers(0, 2**64 - 1), st.booleans())
@example((b"", 1, ()), 0, False)
@example((b"x", 1, (b"long token",)), 1, False)
@example((b"\x00" * 16, 16, (b"\xff" * 20, b"ab")), 2, True)
def test_havoc_matches_reference(case, seed, legacy):
    data, max_len, tokens = case
    assert_chain_identical(seed, data, max_len, tokens, legacy)


@settings(max_examples=150, deadline=None)
@given(
    havoc_cases(),
    st.binary(max_size=64),
    st.integers(0, 2**64 - 1),
    st.booleans(),
)
def test_splice_then_havoc_matches_reference(case, other, seed, legacy):
    """Splicing may hand havoc more than ``max_len`` bytes."""
    data, max_len, tokens = case
    assert_chain_identical(seed, data, max_len, tokens, legacy, splice_with=other)


def test_havoc_matches_reference_on_a_seeded_sweep():
    """Many cheap cases, including the rare rejection branches."""
    gen = random.Random(20260101)
    token_sets = ((), (b"MAGC", b"\xff\xfe"), (b"Q" * 300,), (b"", b"ab"), [b"JFIF"])
    for _ in range(600):
        max_len = gen.choice((1, 2, 3, 4, 5, 16, 64, 160, 224, 1024))
        longest = 2 * max_len + 1 if gen.random() < 0.1 else max_len
        size = gen.randrange(longest + 1)
        data = bytes(gen.getrandbits(8) for _ in range(size))
        tokens = gen.choice(token_sets)
        assert_chain_identical(gen.getrandbits(64), data, max_len, tokens, gen.random() < 0.3)
