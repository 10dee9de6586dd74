"""Concolic path-condition extraction: replay one input, collect constraints.

:class:`ConcolicExec` subclasses the VM's ``_Exec`` (the same structural
pattern as :class:`repro.taint.track.TaintExec`) and re-runs the
interpreter loop with a *symbolic shadow register file*: each register
optionally carries a :class:`SymExpr` describing its concrete value as a
function of individual input bytes.  Every conditional branch whose
condition register carries an expression contributes a
:class:`Constraint` — the expression plus the direction the concrete run
took — and the ordered list of constraints is the run's *path
condition*.

The expression language is deliberately small: integer constants, input
bytes (``byte[i]``, always in ``[0, 255]``), the MiniC binary/unary
operators, nothing else.  Whatever the shadow evaluation cannot express
(symbolically-indexed loads, values flowing through ``memcmp``, calls
past the node cap) degrades to ``None`` — concrete-only — which *drops*
constraints rather than fabricating wrong ones.  Nothing downstream
trusts an expression blindly anyway: the solver's witnesses are verified
by replaying the mutated input through the real interpreter, so an
imprecise expression can waste solver effort but never corrupt results.

Mixed concrete/symbolic evaluation reuses the shared folding semantics
(:mod:`repro.analysis.foldops`), so :func:`eval_expr` agrees with the VM
bit for bit on every non-trapping operation, and interval evaluation
(:func:`compile_interval`, wrapped by :func:`interval_expr`) applies the
:mod:`repro.analysis.interval` rules so the solver can prune whole
byte-subdomains soundly.
"""

from operator import itemgetter

from repro.analysis.foldops import fold_binop, fold_unop
from repro.analysis.interval import INT_MAX, INT_MIN, Interval
from repro.cfg.instructions import (
    BIN,
    BINOPS,
    BR,
    BUILTIN,
    CALL,
    COMPARISON_OPS,
    CONST,
    JMP,
    LOAD,
    MOV,
    OP_ADD,
    OP_AND,
    OP_BNOT,
    OP_DIV,
    OP_EQ,
    OP_GE,
    OP_GT,
    OP_LE,
    OP_LNOT,
    OP_LT,
    OP_MOD,
    OP_NEG,
    OP_MUL,
    OP_NE,
    OP_OR,
    OP_SHL,
    OP_SHR,
    OP_SUB,
    OP_XOR,
    STORE,
    UN,
    UNOPS,
)
from repro.lang.builtins_spec import BUILTIN_CODES
from repro.runtime import traps
from repro.runtime.interpreter import (
    CMPLOG_CAP,
    DEFAULT_CALL_DEPTH,
    DEFAULT_INSTR_BUDGET,
    ExecutionResult,
    _c_div,
    _c_mod,
    _Exec,
)
from repro.runtime.traps import Timeout, Trap
from repro.runtime.values import ArrayRef, wrap_int

# Expression nodes beyond this size degrade to concrete (None): huge
# expressions solve poorly and slow every interval evaluation down.
MAX_EXPR_NODES = 96

# Constraints recorded per run beyond this cap are dropped (loop-heavy
# paths would otherwise build unbounded path conditions).
MAX_CONSTRAINTS = 2048

_BYTE = 0
_BIN = 1
_UN = 2

_BYTE_RANGE = (0, 255)

_BINOP_NAMES = {code: name for name, code in BINOPS.items()}
_UNOP_NAMES = {code: name for name, code in UNOPS.items()}


class SymExpr:
    """One node of a symbolic expression over input bytes.

    ``kind`` is ``_BYTE`` (``op`` = byte offset), ``_BIN`` (``op`` =
    binop code, ``a``/``b`` operands) or ``_UN`` (``op`` = unop code,
    ``a`` operand).  Operands are either :class:`SymExpr` or plain ints
    (concrete).  ``size`` counts nodes for the growth cap.
    """

    __slots__ = ("kind", "op", "a", "b", "size")

    def __init__(self, kind, op, a=None, b=None, size=1):
        self.kind = kind
        self.op = op
        self.a = a
        self.b = b
        self.size = size

    def __repr__(self):
        return "SymExpr(%s)" % format_expr(self)


def byte_expr(offset):
    return SymExpr(_BYTE, offset)


def _node_size(operand):
    return operand.size if isinstance(operand, SymExpr) else 0


def make_bin(binop, a, b):
    """Combine two operands (SymExpr or int); None past the node cap."""
    size = 1 + _node_size(a) + _node_size(b)
    if size > MAX_EXPR_NODES:
        return None
    return SymExpr(_BIN, binop, a, b, size)


def make_un(unop, a):
    size = 1 + _node_size(a)
    if size > MAX_EXPR_NODES:
        return None
    return SymExpr(_UN, unop, a, size=size)


def expr_support(expr):
    """The set of input-byte offsets an expression reads."""
    support = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if not isinstance(node, SymExpr):
            continue
        if node.kind == _BYTE:
            support.add(node.op)
        elif node.kind == _BIN:
            stack.append(node.a)
            stack.append(node.b)
        else:
            stack.append(node.a)
    return support


def eval_expr(expr, byte_at):
    """Concretely evaluate ``expr``; ``byte_at(offset)`` supplies bytes.

    Returns the VM-exact integer value, or None when the evaluation hits
    an operation the VM would trap on (zero divisor, out-of-range shift)
    — a trapping path has no value for the guard to take.
    """
    if not isinstance(expr, SymExpr):
        return expr
    if expr.kind == _BYTE:
        return byte_at(expr.op) & 0xFF
    if expr.kind == _UN:
        a = eval_expr(expr.a, byte_at)
        if a is None:
            return None
        return fold_unop(expr.op, a)
    a = eval_expr(expr.a, byte_at)
    b = eval_expr(expr.b, byte_at)
    if a is None or b is None:
        return None
    binop = expr.op
    if binop == OP_DIV or binop == OP_MOD:
        if b == 0:
            return None
        return wrap_int(_c_div(a, b) if binop == OP_DIV else _c_mod(a, b))
    if binop == OP_SHL or binop == OP_SHR:
        if b < 0 or b > 63:
            return None
        return wrap_int(a << b) if binop == OP_SHL else (a >> b)
    return fold_binop(binop, a, b)


def interval_expr(expr, domains):
    """A sound interval for ``expr`` over per-byte domains.

    ``domains`` maps byte offsets to :class:`Interval`s within
    ``[0, 255]``; unmapped offsets default to the full byte range.  The
    result bounds every *non-trapping* evaluation of the expression with
    bytes drawn from the domains — the property the solver's subdomain
    pruning relies on.  Every byte is fixed here, so the compiled check
    folds to a constant.
    """
    fixed = {off: (dom.lo, dom.hi) for off, dom in domains.items()}
    lo, hi = compile_interval(expr, {}, fixed)(())
    return Interval(lo, hi)


# -- compiled interval checks ---------------------------------------------------
#
# The solver evaluates the same expressions at every node of its search, so
# it compiles each one into a tree of closures over plain ``(lo, hi)`` int
# tuples.  Each closure inlines the :mod:`repro.analysis.interval` rule for
# its operator (no Interval allocation, no isinstance, no recursion at
# evaluation time); tests/test_solver_identity.py pins every rule to
# ``bin_interval`` / ``un_interval``.

_FULL = (INT_MIN, INT_MAX)
_TRUE = (1, 1)
_FALSE = (0, 0)
_BOOL = (0, 1)


def compile_interval(expr, slots, fixed):
    """Compile ``expr``'s interval into a closure ``check(doms) -> (lo, hi)``.

    A byte leaf whose offset is in ``slots`` reads ``doms[slots[offset]]``,
    a ``(lo, hi)`` domain within ``[0, 255]``; any other byte is the
    constant ``fixed.get(offset, (0, 255))``.  Subtrees without a slot
    leaf are folded to their interval once, here.
    """
    node = _compile(expr, slots, fixed)
    return _const(node) if type(node) is tuple else node


def _const(value):
    return lambda doms: value


def _compile(expr, slots, fixed):
    """A closure over the domains, or a ``(lo, hi)`` tuple when constant."""
    if not isinstance(expr, SymExpr):
        return (expr, expr) if isinstance(expr, int) else _FULL
    if expr.kind == _BYTE:
        return _compile_byte(expr.op, slots, fixed)
    if expr.kind == _UN:
        rule = _UN_RULES.get(expr.op)
        if rule is None:
            return _FULL
        a = _compile(expr.a, slots, fixed)
        if type(a) is tuple:
            return rule(_const(a))(())
        return rule(a)
    # The generic lattice is too coarse on the two shapes this shadow
    # interpreter itself builds: ``byte & 255`` (the AND rule drops the
    # lower bound to 0) and the read16/read32 accumulator (the OR rule
    # bit-smears the upper bound).  Both are *exact* over byte domains —
    # each byte owns a disjoint 8-bit window — and exactness here is what
    # turns the solver's domain splitting into per-byte binary search.
    if expr.op == OP_AND and expr.b == 255:
        inner = expr.a
        if isinstance(inner, SymExpr) and inner.kind == _BYTE:
            return _compile_byte(inner.op, slots, fixed)
    if expr.op == OP_OR:
        offsets = match_byte_fold(expr)
        if offsets is not None:
            return _compile_fold(offsets, slots, fixed)
    a = _compile(expr.a, slots, fixed)
    b = _compile(expr.b, slots, fixed)
    if type(a) is tuple:
        if type(b) is tuple:
            return _BIN_RULES[expr.op](_const(a), _const(b))(())
        return _BIN_RULES[expr.op](_const(a), b)
    if type(b) is tuple:
        return _BIN_RULES[expr.op](a, _const(b))
    return _BIN_RULES[expr.op](a, b)


def _compile_byte(offset, slots, fixed):
    index = slots.get(offset)
    if index is None:
        return fixed.get(offset, _BYTE_RANGE)
    return itemgetter(index)


def _compile_fold(offsets, slots, fixed):
    """``(acc << 8) | byte`` over byte windows: exact sum of shifted bounds."""
    lo = hi = 0
    parts = []
    for position, off in enumerate(reversed(offsets)):
        shift = 8 * position
        index = slots.get(off)
        if index is None:
            dlo, dhi = fixed.get(off, _BYTE_RANGE)
            lo += min(255, max(0, dlo)) << shift
            hi += min(255, max(0, dhi)) << shift
        else:
            parts.append((index, shift))
    if not parts:
        return (lo, hi)
    base_lo, base_hi = lo, hi

    def fold(doms):
        lo, hi = base_lo, base_hi
        for index, shift in parts:
            dlo, dhi = doms[index]
            lo += dlo << shift
            hi += dhi << shift
        return lo, hi

    return fold


def _rule_add(fa, fb):
    def node(doms):
        alo, ahi = fa(doms)
        blo, bhi = fb(doms)
        lo = alo + blo
        hi = ahi + bhi
        if lo < INT_MIN or hi > INT_MAX:
            return _FULL
        return lo, hi

    return node


def _rule_sub(fa, fb):
    def node(doms):
        alo, ahi = fa(doms)
        blo, bhi = fb(doms)
        lo = alo - bhi
        hi = ahi - blo
        if lo < INT_MIN or hi > INT_MAX:
            return _FULL
        return lo, hi

    return node


def _rule_mul(fa, fb):
    def node(doms):
        alo, ahi = fa(doms)
        blo, bhi = fb(doms)
        corners = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        lo = min(corners)
        hi = max(corners)
        if lo < INT_MIN or hi > INT_MAX:
            return _FULL
        return lo, hi

    return node


def _rule_div(fa, fb):
    def node(doms):
        alo, ahi = fa(doms)
        m = max(abs(alo), abs(ahi))
        if m > INT_MAX:
            return _FULL
        return -m, m

    return node


def _rule_mod(fa, fb):
    def node(doms):
        alo, ahi = fa(doms)
        blo, bhi = fb(doms)
        m = min(max(abs(alo), abs(ahi)), max(abs(blo), abs(bhi)) - 1)
        if m < 0:
            m = 0
        elif m > INT_MAX:
            m = INT_MAX
        if alo >= 0:
            return 0, m
        if ahi <= 0:
            return -m, 0
        return -m, m

    return node


def _rule_and(fa, fb):
    def node(doms):
        alo, ahi = fa(doms)
        blo, bhi = fb(doms)
        if alo >= 0:
            if blo >= 0 and bhi < ahi:
                return 0, bhi
            return 0, ahi
        if blo >= 0:
            return 0, bhi
        return _FULL

    return node


def _rule_or(fa, fb):
    def node(doms):
        alo, ahi = fa(doms)
        blo, bhi = fb(doms)
        if alo < 0 or blo < 0:
            return _FULL
        bound = (1 << (ahi if ahi > bhi else bhi).bit_length()) - 1
        if bound > INT_MAX:
            return _FULL
        return (alo if alo > blo else blo), bound

    return node


def _rule_xor(fa, fb):
    def node(doms):
        alo, ahi = fa(doms)
        blo, bhi = fb(doms)
        if alo < 0 or blo < 0:
            return _FULL
        bound = (1 << (ahi if ahi > bhi else bhi).bit_length()) - 1
        if bound > INT_MAX:
            return _FULL
        return 0, bound

    return node


def _rule_shl(fa, fb):
    def node(doms):
        alo, ahi = fa(doms)
        blo, bhi = fb(doms)
        # Non-trap continuation: shift amount in [0, 63].
        slo = blo if blo > 0 else 0
        shi = bhi if bhi < 63 else 63
        if slo > shi or alo < 0:
            return _FULL
        hi = ahi << shi
        if hi > INT_MAX:
            return _FULL
        return alo << slo, hi

    return node


def _rule_shr(fa, fb):
    def node(doms):
        alo, ahi = fa(doms)
        blo, bhi = fb(doms)
        slo = blo if blo > 0 else 0
        shi = bhi if bhi < 63 else 63
        if slo > shi:
            return _FULL
        # Monotone in each argument: the corner extrema, picked by sign.
        return (
            alo >> shi if alo >= 0 else alo >> slo,
            ahi >> slo if ahi >= 0 else ahi >> shi,
        )

    return node


def _rule_lt(fa, fb):
    def node(doms):
        alo, ahi = fa(doms)
        blo, bhi = fb(doms)
        if ahi < blo:
            return _TRUE
        if alo >= bhi:
            return _FALSE
        return _BOOL

    return node


def _rule_le(fa, fb):
    def node(doms):
        alo, ahi = fa(doms)
        blo, bhi = fb(doms)
        if ahi <= blo:
            return _TRUE
        if alo > bhi:
            return _FALSE
        return _BOOL

    return node


def _rule_eq(fa, fb):
    def node(doms):
        alo, ahi = fa(doms)
        blo, bhi = fb(doms)
        if alo == ahi == blo == bhi:
            return _TRUE
        if alo > bhi or blo > ahi:
            return _FALSE
        return _BOOL

    return node


def _rule_ne(fa, fb):
    def node(doms):
        alo, ahi = fa(doms)
        blo, bhi = fb(doms)
        if alo == ahi == blo == bhi:
            return _FALSE
        if alo > bhi or blo > ahi:
            return _TRUE
        return _BOOL

    return node


def _rule_neg(fa):
    def node(doms):
        alo, ahi = fa(doms)
        if alo == INT_MIN:  # -INT_MIN wraps back to INT_MIN
            return _FULL
        return -ahi, -alo

    return node


def _rule_lnot(fa):
    def node(doms):
        alo, ahi = fa(doms)
        if alo == 0 and ahi == 0:
            return _TRUE
        if alo > 0 or ahi < 0:
            return _FALSE
        return _BOOL

    return node


def _rule_bnot(fa):
    def node(doms):
        alo, ahi = fa(doms)
        return -ahi - 1, -alo - 1

    return node


_BIN_RULES = {
    OP_ADD: _rule_add,
    OP_SUB: _rule_sub,
    OP_MUL: _rule_mul,
    OP_DIV: _rule_div,
    OP_MOD: _rule_mod,
    OP_AND: _rule_and,
    OP_OR: _rule_or,
    OP_XOR: _rule_xor,
    OP_SHL: _rule_shl,
    OP_SHR: _rule_shr,
    OP_LT: _rule_lt,
    OP_LE: _rule_le,
    OP_GT: lambda fa, fb: _rule_lt(fb, fa),
    OP_GE: lambda fa, fb: _rule_le(fb, fa),
    OP_EQ: _rule_eq,
    OP_NE: _rule_ne,
}

_UN_RULES = {OP_NEG: _rule_neg, OP_LNOT: _rule_lnot, OP_BNOT: _rule_bnot}


def match_byte_fold(expr):
    """Recognize a byte-fold read: offsets most-significant-first, or None.

    Matches the exact shapes the shadow interpreter builds — a bare input
    byte, ``byte & 255``, or the ``read16``/``read32`` accumulator
    ``(acc << 8) | (byte & 255)`` — so a comparison against a constant
    can be solved by direct byte assignment (input-to-state
    correspondence) instead of search.  Returns the list of byte offsets
    from the most significant position down, or None when the expression
    is not a pure fold.
    """
    if not isinstance(expr, SymExpr):
        return None
    if expr.kind == _BYTE:
        return [expr.op]
    if expr.kind != _BIN:
        return None
    if (
        expr.op == OP_AND
        and expr.b == 255
        and isinstance(expr.a, SymExpr)
        and expr.a.kind == _BYTE
    ):
        return [expr.a.op]
    if expr.op == OP_OR:
        low = match_byte_fold(expr.b)
        if low is None or len(low) != 1:
            return None
        shifted = expr.a
        if (
            isinstance(shifted, SymExpr)
            and shifted.kind == _BIN
            and shifted.op == OP_SHL
            and shifted.b == 8
        ):
            high = match_byte_fold(shifted.a)
            if high is not None:
                return high + low
    return None


def format_expr(expr):
    """Human-readable rendering for the CLI (``(byte[0] & 15) > 20``)."""
    if not isinstance(expr, SymExpr):
        return str(expr)
    if expr.kind == _BYTE:
        return "byte[%d]" % expr.op
    if expr.kind == _UN:
        return "%s%s" % (_UNOP_NAMES.get(expr.op, "?"), format_expr(expr.a))
    return "(%s %s %s)" % (
        format_expr(expr.a),
        _BINOP_NAMES.get(expr.op, "?"),
        format_expr(expr.b),
    )


class Constraint:
    """One branch decision of the replayed run.

    ``site`` is ``(function name, source block id)`` — the same site key
    :func:`repro.taint.targets.build_branch_index` uses, so scheduler
    targets and constraints line up.  ``taken_true`` is the direction
    the concrete run took; flipping the constraint means finding bytes
    under which ``expr``'s truthiness is ``not taken_true``.
    """

    __slots__ = ("index", "site", "taken_dst", "taken_true", "expr")

    def __init__(self, index, site, taken_dst, taken_true, expr):
        self.index = index
        self.site = site
        self.taken_dst = taken_dst
        self.taken_true = taken_true
        self.expr = expr

    def support(self):
        return expr_support(self.expr)

    def holds(self, byte_at):
        """Does the recorded direction hold under these bytes? None=trap."""
        value = eval_expr(self.expr, byte_at)
        if value is None:
            return None
        return (value != 0) == self.taken_true

    def describe(self):
        want = "" if self.taken_true else " == 0"
        return "%s:%d -> %d: %s%s" % (
            self.site[0],
            self.site[1],
            self.taken_dst,
            format_expr(self.expr),
            want,
        )


class PathCondition:
    """The ordered symbolic constraints of one concrete execution."""

    __slots__ = ("constraints", "input_len", "truncated")

    def __init__(self, constraints, input_len, truncated):
        self.constraints = constraints
        self.input_len = input_len
        self.truncated = truncated

    def __len__(self):
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def at_site(self, site):
        return [c for c in self.constraints if c.site == site]

    def prefix(self, index):
        """Constraints recorded strictly before trace position ``index``."""
        return [c for c in self.constraints if c.index < index]


def extract_path_condition(
    program,
    data,
    sym_bytes=None,
    instrumentation=None,
    instr_budget=DEFAULT_INSTR_BUDGET,
    call_depth_limit=DEFAULT_CALL_DEPTH,
    max_constraints=MAX_CONSTRAINTS,
):
    """Replay ``program.main(data)`` collecting symbolic constraints.

    ``sym_bytes`` bounds the symbolic variable set (an iterable of byte
    offsets, e.g. a taint focus mask); None makes every byte symbolic.
    Returns ``(ExecutionResult, PathCondition)`` — the ExecutionResult
    matches a plain interpretation of the same input.
    """
    vm = ConcolicExec(
        program,
        instrumentation,
        instr_budget,
        call_depth_limit,
        sym_bytes=sym_bytes,
        max_constraints=max_constraints,
    )
    return vm.run(data)


class ConcolicExec(_Exec):
    """Shadow interpreter: concrete semantics + symbolic byte expressions."""

    def __init__(
        self,
        program,
        instrumentation,
        instr_budget=DEFAULT_INSTR_BUDGET,
        call_depth_limit=DEFAULT_CALL_DEPTH,
        cmplog=False,
        sym_bytes=None,
        max_constraints=MAX_CONSTRAINTS,
    ):
        super().__init__(
            program, instrumentation, instr_budget, call_depth_limit, cmplog
        )
        self._sym_bytes = None if sym_bytes is None else set(sym_bytes)
        self._scells = {}  # array_id -> list of shadow cell expressions
        self._constraints = []
        self._max_constraints = max_constraints
        self._truncated = False
        self._sret = None  # expression of the last finished call's result

    def run(self, input_bytes):
        input_ref = self._heap.alloc(len(input_bytes))
        storage = self._heap.storage(input_ref)
        storage[: len(input_bytes)] = input_bytes
        allowed = self._sym_bytes
        self._scells[input_ref.array_id] = [
            byte_expr(i) if allowed is None or i in allowed else None
            for i in range(len(input_bytes))
        ]
        retval, trap, timeout = 0, None, False
        try:
            retval = self._call(self._program.main_index, [input_ref], [None])
        except Trap as caught:
            trap = caught
        except Timeout:
            timeout = True
        result = ExecutionResult(
            retval,
            trap,
            timeout,
            self._count,
            self._probe_acc[0],
            self._probe_acc[1],
            self._hits,
            self._cmp_log,
        )
        condition = PathCondition(
            self._constraints, len(input_bytes), self._truncated
        )
        return result, condition

    def _cells_for_write(self, array_id):
        cells = self._scells.get(array_id)
        if cells is None:
            cells = self._scells[array_id] = [None] * len(
                self._heap._arrays[array_id]
            )
        return cells

    def _record(self, fname, cur, taken_dst, taken_true, expr):
        if len(self._constraints) >= self._max_constraints:
            self._truncated = True
            return
        self._constraints.append(
            Constraint(
                len(self._constraints),
                (fname, cur),
                taken_dst,
                taken_true,
                expr,
            )
        )

    # -- the mirrored interpreter loop ---------------------------------------

    def _call(self, func_index, args, arg_exprs=None):
        program = self._program
        func = program.funcs[func_index]
        fname = func.name
        heap = self._heap
        regs = [0] * func.nregs
        regs[: len(args)] = args
        sregs = [None] * func.nregs
        if arg_exprs:
            sregs[: len(arg_exprs)] = arg_exprs
        if self._instr is not None:
            erows = self._instr.edge_rows[func_index]
            racts = self._instr.ret_actions[func_index]
            enacts = self._instr.entry_actions[func_index]
            mask = self._instr.map_mask
            if enacts:
                self._run_actions(enacts, 0, mask)
        else:
            erows = racts = None
            mask = 0
        pathreg = 0
        blocks = func.blocks
        cur = 0
        budget = self._budget
        while True:
            block = blocks[cur]
            instrs = block.instrs
            self._count += len(instrs) + 1
            if self._count > budget:
                raise Timeout(budget)
            for ins in instrs:
                op = ins[0]
                if op == BIN:
                    binop = ins[1]
                    sa = sregs[ins[3]]
                    sb = sregs[ins[4]]
                    try:
                        a = regs[ins[3]]
                        b = regs[ins[4]]
                        if binop == OP_EQ:
                            value = 1 if a == b else 0
                        elif binop == OP_NE:
                            value = 1 if a != b else 0
                        elif binop == OP_ADD:
                            value = wrap_int(a + b)
                        elif binop == OP_SUB:
                            value = wrap_int(a - b)
                        elif binop == OP_LT:
                            value = 1 if a < b else 0
                        elif binop == OP_LE:
                            value = 1 if a <= b else 0
                        elif binop == OP_GT:
                            value = 1 if a > b else 0
                        elif binop == OP_GE:
                            value = 1 if a >= b else 0
                        elif binop == OP_MUL:
                            value = wrap_int(a * b)
                        elif binop == OP_AND:
                            value = a & b
                        elif binop == OP_OR:
                            value = a | b
                        elif binop == OP_XOR:
                            value = a ^ b
                        elif binop == OP_DIV:
                            if b == 0:
                                self._trap(
                                    traps.DIV_BY_ZERO,
                                    fname,
                                    ins[5],
                                    "division by zero",
                                )
                            value = wrap_int(_c_div(a, b))
                        elif binop == OP_MOD:
                            if b == 0:
                                self._trap(
                                    traps.DIV_BY_ZERO,
                                    fname,
                                    ins[5],
                                    "modulo by zero",
                                )
                            value = wrap_int(_c_mod(a, b))
                        elif binop == OP_SHL:
                            if b < 0 or b > 63:
                                self._trap(
                                    traps.SHIFT_RANGE,
                                    fname,
                                    ins[5],
                                    "shift by %d" % b,
                                )
                            value = wrap_int(a << b)
                        else:  # OP_SHR
                            if b < 0 or b > 63:
                                self._trap(
                                    traps.SHIFT_RANGE,
                                    fname,
                                    ins[5],
                                    "shift by %d" % b,
                                )
                            value = a >> b
                    except TypeError:
                        self._trap(
                            traps.TYPE_CONFUSION,
                            fname,
                            ins[5],
                            "array used as integer",
                        )
                    if self._cmplog and binop in COMPARISON_OPS:
                        if len(self._cmp_log) < CMPLOG_CAP:
                            self._cmp_log.append((a, b))
                    regs[ins[2]] = value
                    if sa is None and sb is None:
                        sregs[ins[2]] = None
                    else:
                        sregs[ins[2]] = make_bin(
                            binop,
                            sa if sa is not None else a,
                            sb if sb is not None else b,
                        )
                elif op == CONST:
                    regs[ins[1]] = ins[2]
                    sregs[ins[1]] = None
                elif op == MOV:
                    regs[ins[1]] = regs[ins[2]]
                    sregs[ins[1]] = sregs[ins[2]]
                elif op == LOAD:
                    arr = regs[ins[2]]
                    idx = regs[ins[3]]
                    sidx = sregs[ins[3]]
                    if not isinstance(arr, ArrayRef):
                        self._trap(
                            traps.TYPE_CONFUSION,
                            fname,
                            ins[4],
                            "indexing a non-array",
                        )
                    storage = heap.storage(arr)
                    if isinstance(idx, ArrayRef) or idx < 0 or idx >= len(storage):
                        self._trap(
                            traps.OOB_READ,
                            fname,
                            ins[4],
                            "index %r of %d" % (idx, len(storage)),
                        )
                    regs[ins[1]] = storage[idx]
                    if sidx is not None:
                        # Symbolically-indexed load: which cell is read
                        # depends on input bytes — outside the language.
                        sregs[ins[1]] = None
                    else:
                        cells = self._scells.get(arr.array_id)
                        sregs[ins[1]] = cells[idx] if cells is not None else None
                elif op == STORE:
                    arr = regs[ins[1]]
                    idx = regs[ins[2]]
                    sidx = sregs[ins[2]]
                    ssrc = sregs[ins[3]]
                    if not isinstance(arr, ArrayRef):
                        self._trap(
                            traps.TYPE_CONFUSION,
                            fname,
                            ins[4],
                            "indexing a non-array",
                        )
                    if heap.is_readonly(arr):
                        self._trap(
                            traps.READONLY_WRITE,
                            fname,
                            ins[4],
                            "write to constant",
                        )
                    storage = heap.storage(arr)
                    if isinstance(idx, ArrayRef) or idx < 0 or idx >= len(storage):
                        self._trap(
                            traps.OOB_WRITE,
                            fname,
                            ins[4],
                            "index %r of %d" % (idx, len(storage)),
                        )
                    storage[idx] = regs[ins[3]]
                    if sidx is not None:
                        # A symbolically-indexed write could land in any
                        # cell under other inputs: every expression for
                        # this array is now stale.
                        self._scells[arr.array_id] = [None] * len(storage)
                    elif ssrc is not None or arr.array_id in self._scells:
                        self._cells_for_write(arr.array_id)[idx] = ssrc
                elif op == UN:
                    unop = ins[1]
                    a = regs[ins[3]]
                    sa = sregs[ins[3]]
                    try:
                        if unop == OP_NEG:
                            regs[ins[2]] = wrap_int(-a)
                        elif unop == OP_LNOT:
                            regs[ins[2]] = 1 if a == 0 else 0
                        else:
                            regs[ins[2]] = wrap_int(~a)
                    except TypeError:
                        self._trap(
                            traps.TYPE_CONFUSION, fname, 0, "array in arithmetic"
                        )
                    sregs[ins[2]] = None if sa is None else make_un(unop, sa)
                elif op == CALL:
                    if len(self._stack) + 1 >= self._depth_limit:
                        self._trap(
                            traps.STACK_OVERFLOW,
                            fname,
                            ins[4],
                            "call depth exceeded",
                        )
                    self._stack.append((fname, ins[4]))
                    regs[ins[1]] = self._call(
                        ins[2],
                        [regs[r] for r in ins[3]],
                        [sregs[r] for r in ins[3]],
                    )
                    self._stack.pop()
                    sregs[ins[1]] = self._sret
                elif op == BUILTIN:
                    regs[ins[1]], sregs[ins[1]] = self._sym_builtin(
                        ins[2],
                        [regs[r] for r in ins[3]],
                        [sregs[r] for r in ins[3]],
                        fname,
                        ins[4],
                    )
                else:  # STR
                    regs[ins[1]] = heap.string_ref(ins[2])
                    sregs[ins[1]] = None
            term = block.term
            top = term[0]
            if top == BR:
                cond_expr = sregs[term[1]]
                taken_true = bool(regs[term[1]])
                nxt = term[2] if regs[term[1]] else term[3]
                if cond_expr is not None:
                    self._record(fname, cur, nxt, taken_true, cond_expr)
            elif top == JMP:
                nxt = term[1]
            else:  # RET
                if racts is not None:
                    acts = racts.get(cur)
                    if acts:
                        self._run_actions(acts, pathreg, mask)
                value = term[1]
                if value == -1:
                    self._sret = None
                    return 0
                self._sret = sregs[value]
                return regs[value]
            if erows is not None:
                row = erows[cur]
                if row is not None:
                    acts = row.get(nxt)
                    if acts:
                        pathreg = self._run_actions(acts, pathreg, mask)
            cur = nxt

    # -- symbolic builtins ---------------------------------------------------

    def _sym_builtin(self, code, vals, exprs, fname, line):
        """Run a builtin with base-VM semantics, returning (value, expr)."""
        handler = _SYM_BUILTINS[code]
        return handler(self, vals, exprs, fname, line)

    def _sb_copy(self, vals, exprs, fname, line):
        value = self._bi_copy(vals, fname, line)
        dst, doff, src, soff, n = vals
        src_cells = self._scells.get(src.array_id)
        if src_cells is not None:
            window = list(src_cells[soff : soff + n])  # dst may alias src
        else:
            window = None
        if window is not None or dst.array_id in self._scells:
            cells = self._cells_for_write(dst.array_id)
            cells[doff : doff + n] = (
                window if window is not None else [None] * n
            )
        return value, None

    def _sb_fill(self, vals, exprs, fname, line):
        value = self._bi_fill(vals, fname, line)
        ref, off, n, _fill_value = vals
        if exprs[3] is not None or ref.array_id in self._scells:
            cells = self._cells_for_write(ref.array_id)
            cells[off : off + n] = [exprs[3]] * n
        return value, None

    def _sb_read(self, vals, exprs, fname, line, width, big_endian, reader):
        value = reader(self, vals, fname, line)
        ref, off = vals[0], vals[1]
        if exprs[1] is not None:
            return value, None  # symbolic offset: window is input-dependent
        cells = self._scells.get(ref.array_id)
        if cells is None:
            return value, None
        storage = self._heap.storage(ref)
        indices = range(off, off + width)
        if not big_endian:
            indices = reversed(indices)
        acc = None
        symbolic = False
        for index in indices:
            cell = cells[index]
            if cell is not None:
                symbolic = True
            byte = (
                cell
                if cell is not None
                else (storage[index] & 0xFF if not isinstance(storage[index], ArrayRef) else 0)
            )
            masked = make_bin(OP_AND, byte, 255) if cell is not None else byte
            if masked is None:
                return value, None  # node cap: degrade to concrete
            if acc is None:
                acc = masked
            else:
                shifted = make_bin(OP_SHL, acc, 8)
                if shifted is None:
                    return value, None
                acc = make_bin(OP_OR, shifted, masked)
                if acc is None:
                    return value, None
        return value, (acc if symbolic else None)

    def _sb_read16(self, vals, exprs, fname, line):
        return self._sb_read(vals, exprs, fname, line, 2, True, _Exec._bi_read16)

    def _sb_read32(self, vals, exprs, fname, line):
        return self._sb_read(vals, exprs, fname, line, 4, True, _Exec._bi_read32)

    def _sb_read16le(self, vals, exprs, fname, line):
        return self._sb_read(
            vals, exprs, fname, line, 2, False, _Exec._bi_read16le
        )

    def _sb_read32le(self, vals, exprs, fname, line):
        return self._sb_read(
            vals, exprs, fname, line, 4, False, _Exec._bi_read32le
        )


def _opaque(base):
    """A builtin wrapper that runs base semantics and drops expressions."""

    def run(self, vals, exprs, fname, line):
        return base(self, vals, fname, line), None

    return run


_SYM_BUILTINS = {
    BUILTIN_CODES["alloc"]: _opaque(_Exec._bi_alloc),
    BUILTIN_CODES["len"]: _opaque(_Exec._bi_len),
    BUILTIN_CODES["abs"]: _opaque(_Exec._bi_abs),
    BUILTIN_CODES["min"]: _opaque(_Exec._bi_min),
    BUILTIN_CODES["max"]: _opaque(_Exec._bi_max),
    BUILTIN_CODES["memcmp"]: _opaque(_Exec._bi_memcmp),
    BUILTIN_CODES["copy"]: ConcolicExec._sb_copy,
    BUILTIN_CODES["fill"]: ConcolicExec._sb_fill,
    BUILTIN_CODES["read16"]: ConcolicExec._sb_read16,
    BUILTIN_CODES["read32"]: ConcolicExec._sb_read32,
    BUILTIN_CODES["read16le"]: ConcolicExec._sb_read16le,
    BUILTIN_CODES["read32le"]: ConcolicExec._sb_read32le,
    BUILTIN_CODES["trap"]: _opaque(_Exec._bi_trap),
}
