"""Input-to-state (cmplog) substitution tests."""

from repro.fuzzer.cmplog import candidates_from_log


def test_byte_pair_substitution():
    data = b"WXYZtail"
    candidates = candidates_from_log(data, [(b"WXYZ", b"MAGI")])
    assert b"MAGItail" in candidates


def test_byte_pair_substitution_both_directions():
    data = b"..MAGI.."
    candidates = candidates_from_log(data, [(b"OBSV", b"MAGI")])
    assert b"..OBSV.." in candidates


def test_integer_pair_width1():
    data = bytes([3, 9, 3])
    candidates = candidates_from_log(data, [(3, 7)])
    assert bytes([7, 9, 3]) in candidates
    assert bytes([3, 9, 7]) in candidates


def test_integer_pair_width2_both_endians():
    data = b"\x01\x02...."
    candidates = candidates_from_log(data, [(0x0102, 0x0A0B)])
    assert b"\x0a\x0b...." in candidates
    data_le = b"\x02\x01...."
    candidates_le = candidates_from_log(data_le, [(0x0102, 0x0A0B)])
    assert b"\x0b\x0a...." in candidates_le


def test_no_occurrence_no_candidates():
    assert candidates_from_log(b"zzzz", [(b"AAAA", b"BBBB")]) == []


def test_equal_integer_pair_skipped():
    assert candidates_from_log(b"\x05\x05", [(5, 5)]) == []


def test_mismatched_length_byte_pairs_skipped():
    assert candidates_from_log(b"abc", [(b"ab", b"xyz")]) == []


def test_candidates_deduplicated():
    data = b"\x07"
    candidates = candidates_from_log(data, [(7, 9), (7, 9)])
    assert len(candidates) == len(set(candidates))


def test_duplicate_pairs_skipped_output_identical():
    """A loop re-logging one comparison derives candidates exactly once."""
    data = bytes(range(16))
    unique = [(3, 77), (b"\x04\x05", b"QQ")]
    noisy = unique * 50
    assert candidates_from_log(data, noisy) == candidates_from_log(data, unique)


def test_swapped_duplicate_pairs_skipped_output_identical():
    """(a, b) and (b, a) normalize to one key; both directions are always
    tried anyway, so skipping the swap changes nothing."""
    data = bytes(range(16))
    assert candidates_from_log(data, [(3, 77), (77, 3)]) == candidates_from_log(
        data, [(3, 77)]
    )
    assert candidates_from_log(
        data, [(b"\x01\x02", b"ab"), (b"ab", b"\x01\x02")]
    ) == candidates_from_log(data, [(b"\x01\x02", b"ab")])


def test_cap_respected():
    data = bytes(range(64))
    log = [(i, i + 100) for i in range(64)]
    candidates = candidates_from_log(data, log, max_candidates=10)
    assert len(candidates) <= 10


def test_end_to_end_solves_magic():
    """The classic cmplog win: a 4-byte magic solved in one stage."""
    from repro.lang import compile_source
    from repro.runtime import execute

    program = compile_source(
        'fn main(input) { if (len(input) < 4) { return 0; }'
        ' if (memcmp(input, 0, "FUZZ", 0, 4) == 0) { return 1; } return 0; }'
    )
    seed = b"AAAA"
    logged = execute(program, seed, cmplog=True)
    candidates = candidates_from_log(seed, logged.cmp_log)
    assert any(execute(program, c).retval == 1 for c in candidates)


# -- the derivation as it was before it skipped wasted work: the oracle ------

_WIDTHS = (1, 2, 4, 8)


def _encodings_reference(value):
    result = []
    for width in _WIDTHS:
        masked = value & ((1 << (8 * width)) - 1)
        for order in ("big", "little"):
            encoded = masked.to_bytes(width, order)
            if encoded not in result:
                result.append(encoded)
    return result


def _substitutions_reference(data, pattern, replacement, cap):
    if not pattern or len(pattern) != len(replacement):
        return []
    out = []
    start = 0
    while len(out) < cap:
        pos = data.find(pattern, start)
        if pos < 0:
            break
        out.append(data[:pos] + replacement + data[pos + len(pattern) :])
        start = pos + 1
    return out


def candidates_from_log_reference(data, cmp_log, max_candidates=64):
    seen = set()
    seen_pairs = set()
    out = []
    for a, b in cmp_log:
        if len(out) >= max_candidates:
            break
        if isinstance(a, (int, bytes)) and type(a) is type(b):
            key = (a, b) if a <= b else (b, a)
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
        if isinstance(a, bytes):
            pairs = [(a, b), (b, a)]
            for pattern, replacement in pairs:
                for cand in _substitutions_reference(data, pattern, replacement, 4):
                    if cand not in seen and cand != data:
                        seen.add(cand)
                        out.append(cand)
        else:
            if a == b:
                continue
            for pattern, replacement_value in ((a, b), (b, a)):
                for encoded in _encodings_reference(pattern):
                    width = len(encoded)
                    masked = replacement_value & ((1 << (8 * width)) - 1)
                    for order in ("big", "little"):
                        repl = masked.to_bytes(width, order)
                        for cand in _substitutions_reference(data, encoded, repl, 2):
                            if cand not in seen and cand != data:
                                seen.add(cand)
                                out.append(cand)
    return out[:max_candidates]


def test_candidates_match_reference_on_every_subject_seed():
    """Same list, same order, at every cap, on every subject's seed logs."""
    from repro.runtime import execute
    from repro.subjects import SUITE_NAMES, get_subject

    checked = 0
    for name in SUITE_NAMES:
        subject = get_subject(name)
        for seed in subject.seeds:
            log = execute(
                subject.program,
                seed,
                cmplog=True,
                instr_budget=subject.exec_instr_budget,
                call_depth_limit=subject.call_depth_limit,
            ).cmp_log
            for cap in (0, 1, 7, 64, 10_000):
                want = candidates_from_log_reference(seed, log, cap)
                assert candidates_from_log(seed, log, cap) == want, (name, seed, cap)
                checked += bool(want)
    assert checked > 0


def test_candidates_match_reference_on_palindromes_and_widths():
    """Byte orders that coincide, and operands of every width."""
    data = bytes([0, 0, 5, 0, 0, 0, 5, 0xFF, 0xFF, 0x01, 0x02, 0x02, 0x01]) * 2
    log = [(0, 7), (5, 0x0500), (0xFFFF, 3), (0x01020201, 0x0A0B0B0A), (-1, 2),
           (1 << 40, 9), (b"\x00\x00", b"\x05\x05"), (b"", b""), (b"ab", b"xyz")]
    for cap in (0, 3, 64):
        assert candidates_from_log(data, log, cap) == candidates_from_log_reference(
            data, log, cap
        )
