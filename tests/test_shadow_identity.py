"""Shadow identity: the shared shadow loop against the hand-written interpreters.

``repro.runtime.shadow.ShadowExec`` runs one mirrored dispatch loop for
both shadow domains; ``tests/shadow_reference.py`` keeps the two
interpreters it replaced, each with its own copy of the loop.  Taint maps
steer masked mutation and path conditions feed the flip solver, so the
refactor is sound only if every run produces the same ExecutionResult,
the same TaintMap (every cmp site, the branch trail, the branch masks and
the control mask) and the same PathCondition (every constraint, in order,
and the truncation flag).  Each check below compares all of them.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.symbolic import extract_path_condition, format_expr
from repro.coverage.feedback import (
    EdgeFeedback,
    NGramFeedback,
    PathAFLFeedback,
    PathFeedback,
    PathPairFeedback,
)
from repro.lang import compile_source
from repro.runtime import traps
from repro.subjects import SUITE_NAMES, get_subject
from repro.taint import taint_execute
from tests import shadow_reference as reference
from tests.genprog import programs

INPUTS_PER_SUBJECT = 8

# Every shadow rule in one program: a divisor, a modulus and shift amounts
# taken from input bytes 12-15 and an out-of-bounds index from byte 16
# (bytes that reach nothing else), a tainted alloc size, symbolically-
# indexed loads and stores (of ints and of arrays), copy/fill over aliased
# windows, memcmp, every read width, unary ops, helper calls with shadowed
# arguments, a tainted trap code and a loop long enough to truncate a
# short path condition.
PROBE = """
fn pick(buf, i) { return buf[i & 7]; }

fn scale(x, s) {
    if (s > 40) { return x; }
    return (x << s) >> 1;
}

fn main(input) {
    var n = len(input);
    if (n < 16) { return 0; }
    var acc = 100 / (input[12] | 1);
    acc = acc + 1000 % (input[13] + 1);
    acc = acc + ((acc << (input[14] & 31)) >> (input[15] & 7));
    acc = acc + scale(input[7], input[8] & 63);
    var buf = alloc(8 + (input[9] & 7));
    copy(buf, 0, input, 0, 8);
    buf[input[0] & 7] = input[1];
    if (buf[3] > 100) { acc = acc + 1; }
    if (pick(buf, input[2]) == 65) { acc = acc + 2; }
    var rows = alloc(2);
    rows[0] = buf;
    rows[1] = input;
    var row = rows[input[3] & 1];
    if (row[1] == 65) { acc = acc + 8; }
    fill(buf, 2, 3, input[4]);
    copy(buf, 1, buf, 0, 6);
    if (read16(buf, 1) == 0x4142) { acc = acc + 3; }
    if (read32le(input, 2) > read32(input, 6)) { acc = acc + 4; }
    if (read16le(input, 4) != 7) { acc = acc + 5; }
    if (memcmp(input, 0, "MM", 0, 2) == 0) { acc = acc + 6; }
    acc = acc + abs(-input[10]) + min(input[10], 9) + max(input[11], 3);
    acc = acc ^ ~input[3];
    if (!input[11]) { acc = acc + 7; }
    var tail = buf[len(buf) - 1];
    if (len(buf) > 12) { tail = tail + 9; }
    for (var i = 0; i < 12; i = i + 1) {
        if (input[i] == 0x5A) { tail = tail + i; }
    }
    if (input[10] == 0xEE) { trap(input[11]); }
    if (input[9] == 0xFF) { return buf[input[10]]; }
    if (input[9] == 0xFE) { return 1 << input[10]; }
    if (input[9] == 0xFD) { return 7 / input[10]; }
    if (n > 16 && input[9] == 0xFC) { buf[input[16]] = 1; }
    if (n > 16 && input[9] == 0xFB) { return buf[input[16]]; }
    return acc + tail;
}
"""

TAIL = b"\x03\x04\x05\x06"

PROBE_INPUTS = (
    b"",
    b"short",
    b"MMAB\x07\x00\x00\x03\x05\x01\x02\x03" + TAIL,
    b"\x03\x41\x0a\x05\x07\x00\xff\x20\x01\x00\x00\x00" + TAIL,
    b"AB\x02\x41\x08\x10\x00\x00\x3f\x06\x07\x00tail",
    b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\xff\x20\x00" + TAIL,
    b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\xfe\x60\x00" + TAIL,
    b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\x00\xee\x2a" + TAIL,
    b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\xfd\x00\x00" + TAIL,
    b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\xfc\x00\x00" + TAIL + b"\xc8",
    b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\xfb\x00\x00" + TAIL + b"\xc8",
    bytes(range(40)),
)

FEEDBACKS = (None, EdgeFeedback, PathFeedback)
RARE_FEEDBACKS = (NGramFeedback, PathAFLFeedback, PathPairFeedback)


def result_key(result):
    trap = result.trap
    trap_key = None
    if trap is not None:
        frames = tuple((fr.function, fr.line) for fr in trap.stack)
        trap_key = (trap.kind, trap.function, trap.line, trap.detail, frames)
    return (
        result.retval,
        trap_key,
        result.timeout,
        result.instr_count,
        result.probe_count,
        result.probe_cost,
        list(result.hits.items()),
        list(result.cmp_log),
    )


def tmap_key(tmap):
    sites = [
        (site, rec.mask_a, rec.mask_b, rec.hits, rec.pairs)
        for site, rec in tmap.cmp_sites.items()
    ]
    return (
        sites,
        tmap.branch_trail,
        tmap.branch_masks,
        tmap.control,
        tmap.input_len,
    )


def condition_key(condition):
    constraints = [
        (c.index, c.site, c.taken_dst, c.taken_true, format_expr(c.expr))
        for c in condition
    ]
    return constraints, condition.truncated, condition.input_len


def instrument(feedback, program):
    return None if feedback is None else feedback().instrument(program)


def check_taint(program, data, instr, **kwargs):
    """Both taint interpreters on one input; returns the (equal) outcome."""
    result, tmap = taint_execute(program, data, instr, **kwargs)
    want_result, want_tmap = reference.TaintExec(program, instr, **kwargs).run(data)
    got = (result_key(result), tmap_key(tmap))
    assert got == (result_key(want_result), tmap_key(want_tmap)), data
    return result, tmap


def check_concolic(program, data, instr, **kwargs):
    """Both concolic interpreters on one input; returns the (equal) outcome."""
    result, condition = extract_path_condition(
        program, data, instrumentation=instr, **kwargs
    )
    want_result, want = reference.ConcolicExec(program, instr, **kwargs).run(data)
    got = (result_key(result), condition_key(condition))
    assert got == (result_key(want_result), condition_key(want)), data
    return result, condition


def suite_inputs(subject, count):
    """Seeds with random byte edits and appended bytes."""
    rng = random.Random("shadow-identity|" + subject.name)
    for _ in range(count):
        data = bytearray(rng.choice(subject.seeds))
        data.extend(rng.randrange(256) for _ in range(rng.randrange(9)))
        del data[subject.max_input_len :]
        for _ in range(rng.randrange(1, 4)):
            if data:
                data[rng.randrange(len(data))] = rng.randrange(256)
        yield bytes(data)


def subject_limits(subject):
    return dict(
        instr_budget=subject.exec_instr_budget,
        call_depth_limit=subject.call_depth_limit,
    )


def trap_kinds(results):
    return {r.trap.kind for r in results if r.trap is not None}


# -- the suite -----------------------------------------------------------------


def test_suite_taint_matches_reference():
    results, controls, pairs = [], 0, 0
    for name in SUITE_NAMES:
        subject = get_subject(name)
        limits = subject_limits(subject)
        instrs = [instrument(f, subject.program) for f in FEEDBACKS]
        for data in suite_inputs(subject, INPUTS_PER_SUBJECT):
            for instr in instrs:
                for cmplog in (False, True):
                    result, tmap = check_taint(
                        subject.program, data, instr, cmplog=cmplog, **limits
                    )
                    results.append(result)
                    controls += bool(tmap.control)
                    pairs += sum(len(rec.pairs) for rec in tmap.cmp_sites.values())
    # The comparison must cover real taint flow and crashing inputs.
    assert controls > len(results) // 2
    assert pairs > 1000
    assert trap_kinds(results)


def test_suite_concolic_matches_reference():
    results, constraints = [], 0
    for name in SUITE_NAMES:
        subject = get_subject(name)
        limits = subject_limits(subject)
        instrs = [instrument(f, subject.program) for f in FEEDBACKS]
        rng = random.Random("shadow-identity-sym|" + name)
        for data in suite_inputs(subject, INPUTS_PER_SUBJECT):
            subset = {i for i in range(len(data)) if rng.random() < 0.5}
            for instr in instrs:
                for sym_bytes in (None, subset):
                    result, condition = check_concolic(
                        subject.program, data, instr, sym_bytes=sym_bytes, **limits
                    )
                    results.append(result)
                    constraints += len(condition)
    assert constraints > 10000
    assert trap_kinds(results)


def test_truncated_conditions_match_reference():
    truncated = 0
    for name in SUITE_NAMES:
        subject = get_subject(name)
        for data in suite_inputs(subject, 2):
            _, condition = check_concolic(
                subject.program, data, None, max_constraints=8, **subject_limits(subject)
            )
            truncated += condition.truncated
    assert truncated >= len(SUITE_NAMES)


def test_timeouts_and_stack_overflows_match_reference():
    results = []
    for name in SUITE_NAMES:
        subject = get_subject(name)
        instr = EdgeFeedback().instrument(subject.program)
        data = next(suite_inputs(subject, 1))
        for budget in (1, 17, 211, 2000):
            for check in (check_taint, check_concolic):
                results.append(check(subject.program, data, instr, instr_budget=budget)[0])
        for depth in (1, 2, 3):
            for check in (check_taint, check_concolic):
                results.append(
                    check(subject.program, data, instr, call_depth_limit=depth)[0]
                )
    assert sum(r.timeout for r in results) > len(SUITE_NAMES)
    assert traps.STACK_OVERFLOW in trap_kinds(results)


def test_rare_probe_kinds_match_reference():
    for name in SUITE_NAMES[::3]:
        subject = get_subject(name)
        limits = subject_limits(subject)
        for feedback in RARE_FEEDBACKS:
            instr = feedback().instrument(subject.program)
            for data in suite_inputs(subject, 2):
                check_taint(subject.program, data, instr, **limits)
                check_concolic(subject.program, data, instr, **limits)


# -- every shadow rule -----------------------------------------------------------


def test_probe_program_matches_reference():
    program = compile_source(PROBE)
    results, conditions, controls = [], [], set()
    for feedback in FEEDBACKS + RARE_FEEDBACKS:
        instr = instrument(feedback, program)
        for data in PROBE_INPUTS:
            for cmplog in (False, True):
                result, tmap = check_taint(program, data, instr, cmplog=cmplog)
                results.append(result)
                controls |= tmap.control
            for sym_bytes in (None, range(0, len(data), 2)):
                for cap in (2048, 8):
                    _, condition = check_concolic(
                        program, data, instr, sym_bytes=sym_bytes, max_constraints=cap
                    )
                    conditions.append(condition)
    assert {
        traps.DIV_BY_ZERO,
        traps.OOB_READ,
        traps.OOB_WRITE,
        traps.SHIFT_RANGE,
        traps.ASSERT_FAIL,
    } <= trap_kinds(results)
    assert any(c.truncated for c in conditions)
    assert {12, 13, 14, 15, 16} <= controls


@settings(max_examples=60, deadline=None)
@given(
    programs(),
    st.binary(min_size=0, max_size=8),
    st.sampled_from(FEEDBACKS),
    st.booleans(),
)
def test_generated_programs_match_reference(source, data, feedback, cmplog):
    program = compile_source(source)
    instr = instrument(feedback, program)
    check_taint(program, data, instr, cmplog=cmplog)
    check_concolic(program, data, instr)
    check_concolic(program, data, instr, sym_bytes=range(1, len(data)), max_constraints=8)
