"""Search identity: the compiled flip solver against its tree-walking reference.

``repro.analysis.solver.solve_flip`` evaluates each constraint's interval
check through closures compiled once per call; ``tests/solver_reference.py``
keeps the solver that re-walked every expression tree at every node.  The
fuzzer's virtual clock charges a flip by its ``nodes`` and ``evals``, so a
concolic campaign stays tick-identical only if both solvers return the same
assignment *and* search the same nodes.  Each check below compares the
whole outcome, flip by flip; the per-op differential pins every inlined
interval rule to ``bin_interval`` / ``un_interval``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.interval import INT_MAX, INT_MIN, Interval
from repro.analysis.solver import solve_flip
from repro.analysis.symbolic import (
    byte_expr,
    compile_interval,
    extract_path_condition,
    interval_expr,
    make_bin,
    make_un,
)
from repro.cfg.instructions import BINOPS, OP_AND, OP_OR, OP_SHL, OP_SUB, UNOPS
from repro.lang import compile_source
from repro.subjects import SUITE_NAMES, get_subject
from tests import solver_reference as reference
from tests.genprog import programs

# (max_bytes, node_budget): the default, a narrower support cap, and a
# budget small enough that some searches give up.
LIMITS = ((4, 4096), (2, 4096), (4, 16))
FLIPS = 4
INPUTS_PER_SUBJECT = 16


def outcome(solved):
    assignment, stats = solved
    return (
        assignment,
        stats.nodes,
        stats.evals,
        stats.solved,
        stats.gave_up,
        stats.support_bytes,
    )


def assert_flips_identical(condition, data, max_bytes, node_budget):
    """Compare every flip of the first FLIPS constraints; the outcomes."""
    seen = []
    for constraint in list(condition)[:FLIPS]:
        prefix = condition.prefix(constraint.index)
        got = outcome(
            solve_flip(constraint, prefix, data, max_bytes, node_budget)
        )
        want = outcome(
            reference.solve_flip(constraint, prefix, data, max_bytes, node_budget)
        )
        assert got == want, constraint.describe()
        seen.append(got)
    return seen


def suite_inputs(subject, count):
    """Seeds with random byte edits and appended bytes."""
    rng = random.Random("solver-identity|" + subject.name)
    for _ in range(count):
        data = bytearray(rng.choice(subject.seeds))
        data.extend(rng.randrange(256) for _ in range(rng.randrange(9)))
        del data[subject.max_input_len :]
        for _ in range(rng.randrange(1, 4)):
            if data:
                data[rng.randrange(len(data))] = rng.randrange(256)
        yield bytes(data)


def test_suite_flips_match_reference():
    outcomes = {limits: [] for limits in LIMITS}
    for name in SUITE_NAMES:
        subject = get_subject(name)
        for data in suite_inputs(subject, INPUTS_PER_SUBJECT):
            _, condition = extract_path_condition(
                subject.program,
                data,
                instr_budget=subject.exec_instr_budget,
                call_depth_limit=subject.call_depth_limit,
            )
            for limits in LIMITS:
                outcomes[limits] += assert_flips_identical(condition, data, *limits)
    # Outcomes are (assignment, nodes, evals, solved, gave_up, support).
    default = outcomes[(4, 4096)]
    # The comparison must cover real searches, not only shortcuts.
    assert sum(o[1] for o in default) > 1000
    assert any(o[3] and o[1] > 1 for o in default)
    # The 16-node budget forces searches to give up, mid-search.
    assert any(o[4] and o[1] == 16 for o in outcomes[(4, 16)])


@settings(max_examples=40, deadline=None)
@given(programs(), st.binary(min_size=1, max_size=8), st.sampled_from(LIMITS))
def test_generated_program_flips_match_reference(source, data, limits):
    _, condition = extract_path_condition(compile_source(source), data)
    assert_flips_identical(condition, data, *limits)


# -- per-op differential --------------------------------------------------------

CONSTANTS = (0, 1, 63, 64, 255, -1, INT_MIN, INT_MAX)
EDGE_DOMAINS = (
    (0, 0),
    (0, 1),
    (1, 1),
    (63, 64),
    (64, 64),
    (127, 128),
    (254, 255),
    (255, 255),
    (0, 255),
)


def domain_pairs():
    rng = random.Random(7)
    pairs = [(a, b) for a in EDGE_DOMAINS for b in EDGE_DOMAINS]
    for _ in range(24):
        pair = []
        for _ in range(2):
            lo = rng.randrange(256)
            pair.append((lo, rng.randrange(lo, 256)))
        pairs.append(tuple(pair))
    return pairs


def shapes():
    """Every binop and unop over bytes 0 and 1, constants and signed ranges."""
    b0, b1 = byte_expr(0), byte_expr(1)
    # Byte 0 shifted into [-128, 127]: both signs reach every rule.
    signed = make_bin(OP_SUB, b0, 128)
    for op in sorted(BINOPS.values()):
        yield make_bin(op, b0, b1)
        yield make_bin(op, signed, b1)
        for k in CONSTANTS:
            yield make_bin(op, b0, k)
            yield make_bin(op, k, b1)
            yield make_bin(op, signed, k)
    for op in sorted(UNOPS.values()):
        yield make_un(op, b0)
        for k in CONSTANTS:
            yield make_un(op, make_bin(OP_SUB, b0, k))
    # The exact special cases: a masked byte and the read16 folds.
    masked = make_bin(OP_AND, b0, 255)
    yield masked
    yield make_bin(OP_OR, make_bin(OP_SHL, b0, 8), b1)
    yield make_bin(OP_OR, make_bin(OP_SHL, masked, 8), make_bin(OP_AND, b1, 255))


def as_interval(pair):
    return Interval(*pair)


def test_interval_rules_match_reference():
    pairs = domain_pairs()
    checked = 0
    for expr in shapes():
        both = compile_interval(expr, {0: 0, 1: 1}, {})
        for d0, d1 in pairs:
            domains = {0: as_interval(d0), 1: as_interval(d1)}
            want = reference.interval_expr(expr, domains)
            want = (want.lo, want.hi)
            got = interval_expr(expr, domains)
            assert (got.lo, got.hi) == want, (expr, d0, d1)
            assert both((d0, d1)) == want, (expr, d0, d1)
            mixed = compile_interval(expr, {1: 0}, {0: d0})
            assert mixed((d1,)) == want, (expr, d0, d1)
            checked += 1
        # Unmapped offsets default to the full byte range.
        for domains in ({}, {0: Interval(3, 9)}, {1: Interval(200, 255)}):
            want = reference.interval_expr(expr, domains)
            got = interval_expr(expr, domains)
            assert (got.lo, got.hi) == (want.lo, want.hi), (expr, domains)
    assert checked > 10000


def test_wide_fold_matches_reference_with_mixed_slots():
    # read32 accumulator: ((((b0 << 8) | b1) << 8) | b2) << 8 | b3, masked.
    acc = make_bin(OP_AND, byte_expr(0), 255)
    for off in (1, 2, 3):
        acc = make_bin(
            OP_OR,
            make_bin(OP_SHL, acc, 8),
            make_bin(OP_AND, byte_expr(off), 255),
        )
    rng = random.Random(11)
    for _ in range(200):
        doms = []
        for _ in range(4):
            lo = rng.randrange(256)
            doms.append((lo, rng.randrange(lo, 256)))
        domains = {off: as_interval(d) for off, d in enumerate(doms)}
        want = reference.interval_expr(acc, domains)
        want = (want.lo, want.hi)
        slotted = rng.sample(range(4), rng.randrange(5))
        slots = {off: position for position, off in enumerate(slotted)}
        fixed = {off: doms[off] for off in range(4) if off not in slots}
        check = compile_interval(acc, slots, fixed)
        assert check(tuple(doms[off] for off in slotted)) == want
