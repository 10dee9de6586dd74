"""Mutation operators.

The havoc stage stacks a random number of byte-level operators, as AFL++
does; the reduced ``legacy`` set approximates the older AFL 2.52b stack used
by the PathAFL/AFL baselines (no dictionary-less token intelligence, fewer
width-aware arithmetic variants).

``havoc`` is the fuzzer's hottest Python loop, so its operators and random
draws are written inline.  Its draw order is part of the campaign
trajectory: it consumes exactly the ``random.Random`` words that the
op-by-op form in ``tests/havoc_reference.py`` draws through
``randrange``/``choice``/``random``, and returns the same bytes.  Every
``randrange(n)`` is spelled as CPython's own rejection sampler
(``Random._randbelow_with_getrandbits``), with a constant bit width where
``n`` is constant::

    w = n.bit_length(); x = getrandbits(w)
    while x >= n: x = getrandbits(w)

All operators work on a ``bytearray`` and respect ``max_len``.
"""

import struct

INTERESTING_8 = (-128, -1, 0, 1, 16, 32, 64, 100, 127)
INTERESTING_16 = (-32768, -129, 128, 255, 256, 512, 1000, 1024, 4096, 32767)
INTERESTING_32 = (-2147483648, -100663046, 32768, 65535, 65536, 100663045, 2147483647)

ARITH_MAX = 35

# The interesting values as the bytes havoc writes: ``[v][big]``.
_BYTES_8 = tuple(v & 0xFF for v in INTERESTING_8)
_BYTES_16 = tuple(
    ((v & 0xFFFF).to_bytes(2, "little"), (v & 0xFFFF).to_bytes(2, "big"))
    for v in INTERESTING_16
)
_BYTES_32 = tuple(
    ((v & 0xFFFFFFFF).to_bytes(4, "little"), (v & 0xFFFFFFFF).to_bytes(4, "big"))
    for v in INTERESTING_32
)

# ``_UNPACK_WORDS[m]`` splits ``getrandbits(32 * m)`` into the m generator
# words it was built from, least significant (first drawn) first.
_UNPACK_WORDS = tuple(struct.Struct("<%dI" % m).unpack for m in range(17))

# Havoc's operators by index: 0 flip a bit, 1 set a random byte, 2/3/4 set
# an interesting byte/word/dword, 5/6 add to a byte/word, 7 clone a block,
# 8 insert a random block, 9 delete a block, 10 overwrite a block.  The
# modern (AFL++-like) repertoire draws among all eleven; the reduced AFL
# 2.52b-era one of Appendix C among these seven.
_LEGACY_OPS = (0, 1, 2, 5, 7, 9, 10)


def havoc(rng, data, max_len, tokens=(), legacy=False):
    """Apply a stacked random mutation to ``data`` (returns a new bytes).

    Stacks ``2**(1..6)`` operators as AFL does; dictionary operators join
    the pool when ``tokens`` are available.
    """
    gb = rng.getrandbits
    rand = rng.random
    buf = bytearray(data)
    ntok = len(tokens) if tokens else 0
    tok_bits = ntok.bit_length()
    x = gb(3)  # the stacking exponent, randrange(1, 7)
    while x >= 6:
        x = gb(3)
    for _ in range(2 << x):
        n = len(buf)
        if ntok and rand() < 0.15:  # overwrite with or insert a token
            overwrite = rand() < 0.5
            x = gb(tok_bits)
            while x >= ntok:
                x = gb(tok_bits)
            token = tokens[x]
            t = len(token)
            if overwrite:
                if t > n:
                    continue
                m = n - t + 1
            elif n + t > max_len:
                continue
            else:
                m = n + 1
            w = m.bit_length()
            x = gb(w)
            while x >= m:
                x = gb(w)
            buf[x : x + t if overwrite else x] = token
            continue
        if legacy:
            k = gb(3)
            while k >= 7:
                k = gb(3)
            k = _LEGACY_OPS[k]
        else:
            k = gb(4)
            while k >= 11:
                k = gb(4)
        if k == 0:
            if n:
                m = n << 3
                w = m.bit_length()
                x = gb(w)
                while x >= m:
                    x = gb(w)
                buf[x >> 3] ^= 128 >> (x & 7)
        elif k <= 2:
            if n:
                # ``data[randrange(n)] = value``: the value is drawn first.
                if k == 1:
                    v = gb(9)
                    while v >= 256:
                        v = gb(9)
                else:
                    v = gb(4)
                    while v >= 9:
                        v = gb(4)
                    v = _BYTES_8[v]
                w = n.bit_length()
                x = gb(w)
                while x >= n:
                    x = gb(w)
                buf[x] = v
        elif k == 3:
            if n >= 2:
                m = n - 1
                w = m.bit_length()
                x = gb(w)
                while x >= m:
                    x = gb(w)
                v = gb(4)
                while v >= 10:
                    v = gb(4)
                buf[x : x + 2] = _BYTES_16[v][rand() < 0.5]
        elif k == 4:
            if n >= 4:
                m = n - 3
                w = m.bit_length()
                x = gb(w)
                while x >= m:
                    x = gb(w)
                v = gb(3)
                while v >= 7:
                    v = gb(3)
                buf[x : x + 4] = _BYTES_32[v][rand() < 0.5]
        elif k == 5:
            if n:
                w = n.bit_length()
                x = gb(w)
                while x >= n:
                    x = gb(w)
                d = gb(6)  # randrange(1, ARITH_MAX + 1)
                while d >= 35:
                    d = gb(6)
                d += 1
                if rand() < 0.5:
                    d = -d
                buf[x] = (buf[x] + d) & 0xFF
        elif k == 6:
            if n >= 2:
                m = n - 1
                w = m.bit_length()
                x = gb(w)
                while x >= m:
                    x = gb(w)
                order = "big" if rand() < 0.5 else "little"
                d = gb(6)
                while d >= 35:
                    d = gb(6)
                d += 1
                if rand() < 0.5:
                    d = -d
                value = (int.from_bytes(buf[x : x + 2], order) + d) & 0xFFFF
                buf[x : x + 2] = value.to_bytes(2, order)
        elif k == 7:
            if n and n < max_len:
                m = min(n, max_len - n)
                w = m.bit_length()
                size = gb(w)
                while size >= m:
                    size = gb(w)
                size += 1
                m = n - size + 1
                w = m.bit_length()
                src = gb(w)
                while src >= m:
                    src = gb(w)
                m = n + 1
                w = m.bit_length()
                x = gb(w)
                while x >= m:
                    x = gb(w)
                buf[x:x] = buf[src : src + size]
        elif k == 8:
            if n < max_len:
                m = min(16, max_len - n)
                w = m.bit_length()
                size = gb(w)
                while size >= m:
                    size = gb(w)
                size += 1
                m = n + 1
                w = m.bit_length()
                x = gb(w)
                while x >= m:
                    x = gb(w)
                # Each byte is randrange(256): one word, kept when its top
                # nine bits are below 256.  Draw exactly one word per byte
                # still missing, so no word is drawn past the last byte.
                block = []
                while len(block) < size:
                    m = size - len(block)
                    words = _UNPACK_WORDS[m](gb(32 * m).to_bytes(4 * m, "little"))
                    block += [v >> 23 for v in words if v < 0x80000000]
                buf[x:x] = bytes(block)
        elif n >= 2:  # 9 deletes a block, 10 overwrites one with another
            m = n - 1
            w = m.bit_length()
            size = gb(w)
            while size >= m:
                size = gb(w)
            size += 1
            m = n - size + 1
            w = m.bit_length()
            x = gb(w)
            while x >= m:
                x = gb(w)
            if k == 9:
                del buf[x : x + size]
            else:
                src = x
                x = gb(w)
                while x >= m:
                    x = gb(w)
                buf[x : x + size] = buf[src : src + size]
    if not buf:
        x = gb(9)
        while x >= 256:
            x = gb(9)
        buf.append(x)
    return bytes(buf)


def splice(rng, first, second):
    """AFL's splice: the head of one input glued to the tail of another."""
    if not first or not second:
        return bytes(first or second or b"\x00")
    cut_a = rng.randrange(1, len(first) + 1)
    cut_b = rng.randrange(len(second) + 1)
    return bytes(first[:cut_a] + second[cut_b:])


def deterministic_mutations(data, tokens=()):
    """A light deterministic stage: walking byte flips + token overwrites.

    Yields candidate inputs.  AFL++ skips full deterministic stages by
    default; this trimmed version is only run for favored entries when the
    engine is configured with ``use_det=True``.
    """
    for pos in range(len(data)):
        buf = bytearray(data)
        buf[pos] ^= 0xFF
        yield bytes(buf)
    for token in tokens:
        for pos in range(0, max(len(data) - len(token) + 1, 0), max(len(token), 1)):
            buf = bytearray(data)
            buf[pos : pos + len(token)] = token
            yield bytes(buf)
