"""The flip solver as it was written before its checks were compiled: the oracle.

``repro.analysis.solver.solve_flip`` compiles each constraint's interval
check into closures over ``(lo, hi)`` tuples, built once per call, and
``repro.analysis.symbolic.interval_expr`` wraps that compiler.  This module
keeps the readable form: ``interval_expr`` walking the expression tree
recursively over :class:`Interval` domains through ``bin_interval`` /
``un_interval``, and ``solve_flip`` re-evaluating it at every search node.
The two must agree flip for flip on the assignment, ``nodes`` and
``evals`` — the counts the fuzzer's virtual clock charges — see
``tests/test_solver_identity.py``.
"""

from repro.analysis.interval import FULL, Interval, bin_interval, un_interval
from repro.analysis.solver import (
    DEFAULT_MAX_BYTES,
    DEFAULT_NODE_BUDGET,
    SolveStats,
    _direct_equality,
)
from repro.analysis.symbolic import (
    _BYTE,
    _UN,
    SymExpr,
    eval_expr,
    expr_support,
    match_byte_fold,
)
from repro.cfg.instructions import OP_AND, OP_OR

_BYTE_RANGE = Interval(0, 255)


def interval_expr(expr, domains):
    """A sound interval for ``expr`` over per-byte domains.

    ``domains`` maps byte offsets to :class:`Interval`s within
    ``[0, 255]``; unmapped offsets default to the full byte range.  The
    result bounds every *non-trapping* evaluation of the expression with
    bytes drawn from the domains — the property the solver's subdomain
    pruning relies on.
    """
    if not isinstance(expr, SymExpr):
        return Interval(expr, expr) if isinstance(expr, int) else FULL
    if expr.kind == _BYTE:
        return domains.get(expr.op, _BYTE_RANGE)
    if expr.kind == _UN:
        return un_interval(expr.op, interval_expr(expr.a, domains))
    # The generic lattice is too coarse on the two shapes this shadow
    # interpreter itself builds: ``byte & 255`` (the AND rule drops the
    # lower bound to 0) and the read16/read32 accumulator (the OR rule
    # bit-smears the upper bound).  Both are *exact* over byte domains —
    # each byte owns a disjoint 8-bit window — and exactness here is what
    # turns the solver's domain splitting into per-byte binary search.
    if expr.op == OP_AND and expr.b == 255:
        inner = expr.a
        if isinstance(inner, SymExpr) and inner.kind == _BYTE:
            return domains.get(inner.op, _BYTE_RANGE)
    if expr.op == OP_OR:
        offsets = match_byte_fold(expr)
        if offsets is not None:
            lo = hi = 0
            for off in offsets:
                dom = domains.get(off, _BYTE_RANGE)
                lo = (lo << 8) + min(255, max(0, dom.lo))
                hi = (hi << 8) + min(255, max(0, dom.hi))
            return Interval(lo, hi)
    return bin_interval(
        expr.op,
        interval_expr(expr.a, domains),
        interval_expr(expr.b, domains),
    )


def solve_flip(
    constraint,
    prefix_constraints,
    data,
    max_bytes=DEFAULT_MAX_BYTES,
    node_budget=DEFAULT_NODE_BUDGET,
):
    """Find input bytes flipping ``constraint``'s branch direction.

    Searches for an assignment to the constraint's supporting bytes that
    makes its expression's truthiness ``not constraint.taken_true``
    while keeping every *prefix* constraint (those recorded earlier on
    the path whose support overlaps the changed bytes) on its recorded
    direction — so the execution plausibly still reaches the guard.

    Returns ``(assignment, stats)`` where ``assignment`` maps byte
    offsets to new values (None when unsolved).  Purely deterministic.
    """
    stats = SolveStats()
    want_true = not constraint.taken_true
    support = sorted(expr_support(constraint.expr))
    stats.support_bytes = len(support)
    if not support or len(support) > max_bytes:
        stats.gave_up = True
        return None, stats
    if any(off < 0 or off >= len(data) for off in support):
        stats.gave_up = True
        return None, stats
    support_set = set(support)
    active = [
        c
        for c in prefix_constraints
        if c.index < constraint.index and c.support() & support_set
    ]
    # Bytes a prefix constraint reads that we are *not* changing stay at
    # their original values: fixed singleton domains for interval pruning.
    fixed = {}
    for c in active:
        for off in c.support() - support_set:
            fixed[off] = Interval(data[off], data[off])

    # Input-to-state shortcut: an equality between a pure byte-fold read
    # (read16/read32/input[i]) and a constant is solved by assigning the
    # constant's bytes directly — no search.  The candidate still passes
    # the same concrete verification as any DFS leaf.
    direct = _direct_equality(constraint, want_true, data, active, stats)
    if direct is not None:
        stats.solved = True
        return direct, stats

    def byte_at_factory(domains):
        def byte_at(off):
            dom = domains.get(off)
            return dom.lo if dom is not None else data[off]

        return byte_at

    def viable(expr, want, lookup):
        iv = interval_expr(expr, lookup)
        if want:
            return not iv.is_zero()
        return not iv.excludes_zero()

    root = {off: Interval(0, 255) for off in support}
    stack = [root]
    while stack:
        if stats.nodes >= node_budget:
            stats.gave_up = True
            return None, stats
        stats.nodes += 1
        domains = stack.pop()
        lookup = dict(fixed)
        lookup.update(domains)
        if not viable(constraint.expr, want_true, lookup):
            continue
        pruned = False
        for c in active:
            if not viable(c.expr, c.taken_true, lookup):
                pruned = True
                break
        if pruned:
            continue
        widest = None
        width = 0
        for off in support:
            dom = domains[off]
            span = dom.hi - dom.lo
            if span > width:
                width = span
                widest = off
        if widest is None:
            # All domains are singletons: concrete VM-exact check.
            stats.evals += 1
            byte_at = byte_at_factory(domains)
            value = eval_expr(constraint.expr, byte_at)
            if value is None or (value != 0) != want_true:
                continue
            if any(c.holds(byte_at) is not True for c in active):
                continue
            stats.solved = True
            return {off: domains[off].lo for off in support}, stats
        dom = domains[widest]
        mid = (dom.lo + dom.hi) // 2
        low = Interval(dom.lo, mid)
        high = Interval(mid + 1, dom.hi)
        original = data[widest]
        # Stack is LIFO: push the preferred half (containing the original
        # byte value) last so it is explored first.
        first, second = (low, high) if low.contains(original) else (high, low)
        alt = dict(domains)
        alt[widest] = second
        stack.append(alt)
        pref = dict(domains)
        pref[widest] = first
        stack.append(pref)
    stats.gave_up = False
    return None, stats
