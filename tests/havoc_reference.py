"""The havoc stage as it was written op by op: the oracle for stream identity.

``repro.fuzzer.mutators.havoc`` inlines every draw of the loop below.  This
module keeps the readable form — one function per operator, each drawing
through ``randrange``/``choice``/``random`` — and ``havoc`` here must agree
with the inlined one byte for byte and RNG state for state (see
``tests/test_havoc_identity.py``).  The operator tests in
``tests/test_mutators.py`` run against these functions.

All operators work on a ``bytearray`` and respect ``max_len``.
"""

INTERESTING_8 = (-128, -1, 0, 1, 16, 32, 64, 100, 127)
INTERESTING_16 = (-32768, -129, 128, 255, 256, 512, 1000, 1024, 4096, 32767)
INTERESTING_32 = (-2147483648, -100663046, 32768, 65535, 65536, 100663045, 2147483647)

ARITH_MAX = 35


def _clip_start(rng, data, width):
    if len(data) < width:
        return None
    return rng.randrange(len(data) - width + 1)


def flip_bit(rng, data, max_len):
    if not data:
        return False
    pos = rng.randrange(len(data) * 8)
    data[pos >> 3] ^= 128 >> (pos & 7)
    return True


def set_random_byte(rng, data, max_len):
    if not data:
        return False
    data[rng.randrange(len(data))] = rng.randrange(256)
    return True


def set_interesting_byte(rng, data, max_len):
    if not data:
        return False
    data[rng.randrange(len(data))] = rng.choice(INTERESTING_8) & 0xFF
    return True


def set_interesting_word(rng, data, max_len):
    start = _clip_start(rng, data, 2)
    if start is None:
        return False
    value = rng.choice(INTERESTING_16) & 0xFFFF
    big = rng.random() < 0.5
    data[start : start + 2] = value.to_bytes(2, "big" if big else "little")
    return True


def set_interesting_dword(rng, data, max_len):
    start = _clip_start(rng, data, 4)
    if start is None:
        return False
    value = rng.choice(INTERESTING_32) & 0xFFFFFFFF
    big = rng.random() < 0.5
    data[start : start + 4] = value.to_bytes(4, "big" if big else "little")
    return True


def arith_byte(rng, data, max_len):
    if not data:
        return False
    pos = rng.randrange(len(data))
    delta = rng.randrange(1, ARITH_MAX + 1)
    if rng.random() < 0.5:
        delta = -delta
    data[pos] = (data[pos] + delta) & 0xFF
    return True


def arith_word(rng, data, max_len):
    start = _clip_start(rng, data, 2)
    if start is None:
        return False
    big = rng.random() < 0.5
    order = "big" if big else "little"
    value = int.from_bytes(data[start : start + 2], order)
    delta = rng.randrange(1, ARITH_MAX + 1)
    if rng.random() < 0.5:
        delta = -delta
    data[start : start + 2] = ((value + delta) & 0xFFFF).to_bytes(2, order)
    return True


def clone_block(rng, data, max_len):
    if not data or len(data) >= max_len:
        return False
    size = rng.randrange(1, min(len(data), max_len - len(data)) + 1)
    src = rng.randrange(len(data) - size + 1)
    dst = rng.randrange(len(data) + 1)
    data[dst:dst] = data[src : src + size]
    return True


def insert_random_block(rng, data, max_len):
    if len(data) >= max_len:
        return False
    size = rng.randrange(1, min(16, max_len - len(data)) + 1)
    dst = rng.randrange(len(data) + 1)
    data[dst:dst] = bytes(rng.randrange(256) for _ in range(size))
    return True


def delete_block(rng, data, max_len):
    if len(data) < 2:
        return False
    size = rng.randrange(1, len(data))
    start = rng.randrange(len(data) - size + 1)
    del data[start : start + size]
    return True


def overwrite_block(rng, data, max_len):
    if len(data) < 2:
        return False
    size = rng.randrange(1, len(data))
    src = rng.randrange(len(data) - size + 1)
    dst = rng.randrange(len(data) - size + 1)
    data[dst : dst + size] = data[src : src + size]
    return True


def _dict_op(insert):
    def op(rng, data, max_len, tokens):
        if not tokens:
            return False
        token = rng.choice(tokens)
        if insert:
            if len(data) + len(token) > max_len:
                return False
            dst = rng.randrange(len(data) + 1)
            data[dst:dst] = token
            return True
        if len(token) > len(data):
            return False
        dst = rng.randrange(len(data) - len(token) + 1)
        data[dst : dst + len(token)] = token
        return True

    return op


overwrite_token = _dict_op(insert=False)
insert_token = _dict_op(insert=True)

# The modern (AFL++-like) havoc repertoire.
HAVOC_OPS = (
    flip_bit,
    set_random_byte,
    set_interesting_byte,
    set_interesting_word,
    set_interesting_dword,
    arith_byte,
    arith_word,
    clone_block,
    insert_random_block,
    delete_block,
    overwrite_block,
)

# The reduced AFL 2.52b-era repertoire for the baselines of Appendix C.
LEGACY_OPS = (
    flip_bit,
    set_random_byte,
    set_interesting_byte,
    arith_byte,
    clone_block,
    delete_block,
    overwrite_block,
)


def havoc(rng, data, max_len, tokens=(), legacy=False):
    """Apply a stacked random mutation to ``data`` (returns a new bytes).

    Stacks ``2**(1..6)`` operators as AFL does; dictionary operators join
    the pool when ``tokens`` are available.
    """
    buf = bytearray(data)
    ops = LEGACY_OPS if legacy else HAVOC_OPS
    stacking = 1 << rng.randrange(1, 7)
    for _ in range(stacking):
        if tokens and rng.random() < 0.15:
            if rng.random() < 0.5:
                overwrite_token(rng, buf, max_len, tokens)
            else:
                insert_token(rng, buf, max_len, tokens)
            continue
        op = rng.choice(ops)
        op(rng, buf, max_len)
    if not buf:
        buf.append(rng.randrange(256))
    return bytes(buf)
