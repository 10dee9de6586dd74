"""Concolic path-condition extraction: replay one input, collect constraints.

:class:`ConcolicExec` is the symbolic domain of the shared shadow loop
(:class:`repro.runtime.shadow.ShadowExec`, which also runs
:class:`repro.taint.track.TaintExec`): each shadow register optionally
carries a :class:`SymExpr` describing its concrete value as a function of
individual input bytes.  Every conditional branch whose
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
    BINOPS,
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
    UNOPS,
)
from repro.lang.builtins_spec import BUILTIN_CODES
from repro.runtime.interpreter import (
    DEFAULT_CALL_DEPTH,
    DEFAULT_INSTR_BUDGET,
    _c_div,
    _c_mod,
    _Exec,
)
from repro.runtime.shadow import ShadowExec, opaque
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


class ConcolicExec(ShadowExec):
    """Shadow domain: concrete semantics + symbolic byte expressions."""

    def __init__(
        self,
        program,
        instrumentation,
        instr_budget=DEFAULT_INSTR_BUDGET,
        call_depth_limit=DEFAULT_CALL_DEPTH,
        sym_bytes=None,
        max_constraints=MAX_CONSTRAINTS,
    ):
        super().__init__(program, instrumentation, instr_budget, call_depth_limit, False)
        self._sym_bytes = None if sym_bytes is None else set(sym_bytes)
        self._constraints = []
        self._max_constraints = max_constraints
        self._truncated = False

    # -- domain hooks ----------------------------------------------------------

    def _sh_input_cells(self, n):
        allowed = self._sym_bytes
        return [
            byte_expr(i) if allowed is None or i in allowed else None
            for i in range(n)
        ]

    def _sh_finish(self, n):
        return PathCondition(self._constraints, n, self._truncated)

    def _sh_bin(self, binop, sa, sb, a, b):
        return make_bin(
            binop,
            sa if sa is not None else a,
            sb if sb is not None else b,
        )

    def _sh_un(self, unop, sa):
        return make_un(unop, sa)

    def _sh_steer(self, sb):
        pass  # a symbolic divisor or shift amount constrains nothing here

    def _sh_load(self, cell, sarr, sidx):
        # Symbolically-indexed load: which cell is read depends on input
        # bytes — outside the language.
        return None if sidx is not None else cell

    def _sh_indexed_store(self, arr, idx, sidx, ssrc):
        # A symbolically-indexed write could land in any cell under other
        # inputs: every expression for this array is now stale.
        self._cells[arr.array_id] = [None] * len(self._heap.storage(arr))

    def _sh_branch(self, fname, block, taken_dst, taken_true, expr):
        if len(self._constraints) >= self._max_constraints:
            self._truncated = True
            return
        self._constraints.append(
            Constraint(
                len(self._constraints),
                (fname, block),
                taken_dst,
                taken_true,
                expr,
            )
        )

    # -- symbolic builtins ---------------------------------------------------

    def _sb_read(self, vals, exprs, fname, line, width, big_endian, reader):
        value = reader(self, vals, fname, line)
        ref, off = vals[0], vals[1]
        if exprs[1] is not None:
            return value, None  # symbolic offset: window is input-dependent
        cells = self._cells.get(ref.array_id)
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


ConcolicExec._SH_BUILTINS = {
    BUILTIN_CODES["alloc"]: opaque(_Exec._bi_alloc),
    BUILTIN_CODES["len"]: opaque(_Exec._bi_len),
    BUILTIN_CODES["abs"]: opaque(_Exec._bi_abs),
    BUILTIN_CODES["min"]: opaque(_Exec._bi_min),
    BUILTIN_CODES["max"]: opaque(_Exec._bi_max),
    BUILTIN_CODES["memcmp"]: opaque(_Exec._bi_memcmp),
    BUILTIN_CODES["copy"]: ShadowExec._sh_copy,
    BUILTIN_CODES["fill"]: ShadowExec._sh_fill,
    BUILTIN_CODES["read16"]: ConcolicExec._sb_read16,
    BUILTIN_CODES["read32"]: ConcolicExec._sb_read32,
    BUILTIN_CODES["read16le"]: ConcolicExec._sb_read16le,
    BUILTIN_CODES["read32le"]: ConcolicExec._sb_read32le,
    BUILTIN_CODES["trap"]: opaque(_Exec._bi_trap),
}
