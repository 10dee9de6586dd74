"""The two shadow interpreters as they were before they shared one loop: the oracle.

``repro.runtime.shadow.ShadowExec`` runs one mirrored dispatch loop for
both shadow domains, and ``TaintExec`` (label unions) and ``ConcolicExec``
(symbolic byte expressions) supply only small hooks.  This module keeps the
two hand-written interpreters that loop replaced, each with its own copy of
the VM dispatch loop.  Both forms must agree run for run on the
ExecutionResult, the full TaintMap and the PathCondition — see
``tests/test_shadow_identity.py``.  The unchanged helpers (label pool, taint
map, constraint records, expression builders) are imported from ``src``.
"""

from repro.analysis.symbolic import (
    MAX_CONSTRAINTS,
    Constraint,
    PathCondition,
    byte_expr,
    make_bin,
    make_un,
)
from repro.cfg.instructions import (
    BIN,
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
    OP_DIV,
    OP_EQ,
    OP_GE,
    OP_GT,
    OP_LE,
    OP_LT,
    OP_MOD,
    OP_MUL,
    OP_NE,
    OP_OR,
    OP_SHL,
    OP_SUB,
    OP_XOR,
    OP_LNOT,
    OP_NEG,
    STORE,
    UN,
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
from repro.taint.labels import LabelPool
from repro.taint.map import TaintMap


class TaintExec(_Exec):
    """Shadow interpreter: concrete semantics of ``_Exec`` + taint labels."""

    def __init__(
        self,
        program,
        instrumentation,
        instr_budget=DEFAULT_INSTR_BUDGET,
        call_depth_limit=DEFAULT_CALL_DEPTH,
        cmplog=False,
        pair_cap=8,
    ):
        super().__init__(program, instrumentation, instr_budget, call_depth_limit, cmplog)
        self._pool = LabelPool()
        self._tmap = TaintMap(pair_cap=pair_cap)
        self._tcells = {}  # array_id -> list of shadow cell labels (lazy)
        self._tlen = {}  # array_id -> label of a tainted alloc size
        self._ctl = None  # monotone control-taint accumulator
        self._tret = None  # return-value label of the last finished call

    def run(self, input_bytes):
        input_ref = self._heap.alloc(len(input_bytes))
        storage = self._heap.storage(input_ref)
        storage[: len(input_bytes)] = input_bytes
        single = self._pool.single
        self._tcells[input_ref.array_id] = [single(i) for i in range(len(input_bytes))]
        retval, trap, timeout = 0, None, False
        try:
            retval = self._call(self._program.main_index, [input_ref], [None])
        except Trap as caught:
            trap = caught
        except Timeout:
            timeout = True
        self._tmap.finalize(self._ctl, len(input_bytes))
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
        return result, self._tmap

    # -- shadow-cell helpers -------------------------------------------------

    def _cells_for_write(self, array_id):
        """Materialized shadow cell list for an array (lazily, on first write)."""
        cells = self._tcells.get(array_id)
        if cells is None:
            cells = self._tcells[array_id] = [None] * len(self._heap._arrays[array_id])
        return cells

    def _bounds_taint(self, arr):
        """Label guarding an array's bounds (tainted alloc size, if any)."""
        return self._tlen.get(arr.array_id)

    # -- the mirrored interpreter loop ---------------------------------------

    def _call(self, func_index, args, arg_labels=None):
        program = self._program
        func = program.funcs[func_index]
        fname = func.name
        heap = self._heap
        pool = self._pool
        union = pool.union
        tmap = self._tmap
        regs = [0] * func.nregs
        regs[: len(args)] = args
        tregs = [None] * func.nregs
        if arg_labels:
            tregs[: len(arg_labels)] = arg_labels
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
                    la = tregs[ins[3]]
                    lb = tregs[ins[4]]
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
                            self._ctl = union(self._ctl, lb)
                            if b == 0:
                                self._trap(traps.DIV_BY_ZERO, fname, ins[5], "division by zero")
                            value = wrap_int(_c_div(a, b))
                        elif binop == OP_MOD:
                            self._ctl = union(self._ctl, lb)
                            if b == 0:
                                self._trap(traps.DIV_BY_ZERO, fname, ins[5], "modulo by zero")
                            value = wrap_int(_c_mod(a, b))
                        elif binop == OP_SHL:
                            self._ctl = union(self._ctl, lb)
                            if b < 0 or b > 63:
                                self._trap(
                                    traps.SHIFT_RANGE, fname, ins[5], "shift by %d" % b
                                )
                            value = wrap_int(a << b)
                        else:  # OP_SHR
                            self._ctl = union(self._ctl, lb)
                            if b < 0 or b > 63:
                                self._trap(
                                    traps.SHIFT_RANGE, fname, ins[5], "shift by %d" % b
                                )
                            value = a >> b
                    except TypeError:
                        self._trap(
                            traps.TYPE_CONFUSION, fname, ins[5], "array used as integer"
                        )
                    if binop in COMPARISON_OPS:
                        if self._cmplog and len(self._cmp_log) < CMPLOG_CAP:
                            self._cmp_log.append((a, b))
                        tmap.record_cmp((fname, ins[5], binop), la, lb, a, b)
                    regs[ins[2]] = value
                    tregs[ins[2]] = union(la, lb)
                elif op == CONST:
                    regs[ins[1]] = ins[2]
                    tregs[ins[1]] = None
                elif op == MOV:
                    regs[ins[1]] = regs[ins[2]]
                    tregs[ins[1]] = tregs[ins[2]]
                elif op == LOAD:
                    arr = regs[ins[2]]
                    idx = regs[ins[3]]
                    larr = tregs[ins[2]]
                    lidx = tregs[ins[3]]
                    if not isinstance(arr, ArrayRef):
                        self._trap(
                            traps.TYPE_CONFUSION, fname, ins[4], "indexing a non-array"
                        )
                    # Index, ref identity, and bounds steer whether we trap.
                    self._ctl = union(
                        union(self._ctl, lidx), union(larr, self._bounds_taint(arr))
                    )
                    storage = heap.storage(arr)
                    if isinstance(idx, ArrayRef) or idx < 0 or idx >= len(storage):
                        self._trap(
                            traps.OOB_READ,
                            fname,
                            ins[4],
                            "index %r of %d" % (idx, len(storage)),
                        )
                    cells = self._tcells.get(arr.array_id)
                    cell = cells[idx] if cells is not None else None
                    regs[ins[1]] = storage[idx]
                    tregs[ins[1]] = union(cell, union(lidx, larr))
                elif op == STORE:
                    arr = regs[ins[1]]
                    idx = regs[ins[2]]
                    larr = tregs[ins[1]]
                    lidx = tregs[ins[2]]
                    lsrc = tregs[ins[3]]
                    if not isinstance(arr, ArrayRef):
                        self._trap(
                            traps.TYPE_CONFUSION, fname, ins[4], "indexing a non-array"
                        )
                    if heap.is_readonly(arr):
                        self._trap(
                            traps.READONLY_WRITE, fname, ins[4], "write to constant"
                        )
                    self._ctl = union(
                        union(self._ctl, lidx), union(larr, self._bounds_taint(arr))
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
                    if lsrc is not None or arr.array_id in self._tcells:
                        self._cells_for_write(arr.array_id)[idx] = lsrc
                elif op == UN:
                    unop = ins[1]
                    a = regs[ins[3]]
                    try:
                        if unop == OP_NEG:
                            regs[ins[2]] = wrap_int(-a)
                        elif unop == OP_LNOT:
                            regs[ins[2]] = 1 if a == 0 else 0
                        else:
                            regs[ins[2]] = wrap_int(~a)
                    except TypeError:
                        self._trap(traps.TYPE_CONFUSION, fname, 0, "array in arithmetic")
                    tregs[ins[2]] = tregs[ins[3]]
                elif op == CALL:
                    if len(self._stack) + 1 >= self._depth_limit:
                        self._trap(
                            traps.STACK_OVERFLOW, fname, ins[4], "call depth exceeded"
                        )
                    self._stack.append((fname, ins[4]))
                    regs[ins[1]] = self._call(
                        ins[2],
                        [regs[r] for r in ins[3]],
                        [tregs[r] for r in ins[3]],
                    )
                    self._stack.pop()
                    tregs[ins[1]] = self._tret
                elif op == BUILTIN:
                    regs[ins[1]], tregs[ins[1]] = self._taint_builtin(
                        ins[2],
                        [regs[r] for r in ins[3]],
                        [tregs[r] for r in ins[3]],
                        fname,
                        ins[4],
                    )
                else:  # STR
                    regs[ins[1]] = heap.string_ref(ins[2])
                    tregs[ins[1]] = None
            term = block.term
            top = term[0]
            if top == BR:
                cond_label = tregs[term[1]]
                nxt = term[2] if regs[term[1]] else term[3]
                self._ctl = union(self._ctl, cond_label)
                tmap.record_branch((fname, cur), nxt, cond_label)
            elif top == JMP:
                nxt = term[1]
            else:  # RET
                if racts is not None:
                    acts = racts.get(cur)
                    if acts:
                        self._run_actions(acts, pathreg, mask)
                value = term[1]
                if value == -1:
                    self._tret = None
                    return 0
                self._tret = tregs[value]
                return regs[value]
            if erows is not None:
                row = erows[cur]
                if row is not None:
                    acts = row.get(nxt)
                    if acts:
                        pathreg = self._run_actions(acts, pathreg, mask)
            cur = nxt

    # -- taint-aware builtins --------------------------------------------------

    def _taint_builtin(self, code, vals, labels, fname, line):
        """Run a builtin with base-VM semantics, returning (value, label).

        Each wrapper delegates to the base ``_bi_*`` method for the concrete
        value — identical traps, virtual-time charges, and cmplog — then
        computes the result label and any shadow-memory side effects.
        """
        handler = _TAINT_BUILTINS[code]
        return handler(self, vals, labels, fname, line)

    def _tb_alloc(self, vals, labels, fname, line):
        self._ctl = self._pool.union(self._ctl, labels[0])
        ref = self._bi_alloc(vals, fname, line)
        if labels[0] is not None:
            self._tlen[ref.array_id] = labels[0]
        return ref, None

    def _tb_len(self, vals, labels, fname, line):
        value = self._bi_len(vals, fname, line)
        ref = vals[0]
        return value, self._pool.union(labels[0], self._tlen.get(ref.array_id))

    def _tb_abs(self, vals, labels, fname, line):
        return self._bi_abs(vals, fname, line), labels[0]

    def _tb_min(self, vals, labels, fname, line):
        return self._bi_min(vals, fname, line), self._pool.union(labels[0], labels[1])

    def _tb_max(self, vals, labels, fname, line):
        return self._bi_max(vals, fname, line), self._pool.union(labels[0], labels[1])

    def _window_label(self, ref, off, n, ref_label):
        """Join of the shadow labels of ``ref[off:off+n]`` plus the ref's own."""
        union = self._pool.union
        out = union(ref_label, self._tlen.get(ref.array_id))
        cells = self._tcells.get(ref.array_id)
        if cells is not None:
            for label in cells[off : off + n]:
                out = union(out, label)
        return out

    def _tb_memcmp(self, vals, labels, fname, line):
        union = self._pool.union
        # Offsets and length steer the bounds traps (and the trap-free path).
        self._ctl = union(union(self._ctl, labels[1]), union(labels[3], labels[4]))
        value = self._bi_memcmp(vals, fname, line)
        a, aoff, b, boff, n = vals
        la = self._window_label(a, aoff, n, labels[0])
        lb = self._window_label(b, boff, n, labels[2])
        sa = self._heap.storage(a)
        sb = self._heap.storage(b)
        left = bytes(v & 0xFF for v in sa[aoff : aoff + n])
        right = bytes(v & 0xFF for v in sb[boff : boff + n])
        self._tmap.record_cmp((fname, line, "memcmp"), la, lb, left, right)
        return value, union(la, lb)

    def _tb_copy(self, vals, labels, fname, line):
        union = self._pool.union
        self._ctl = union(union(self._ctl, labels[1]), union(labels[3], labels[4]))
        value = self._bi_copy(vals, fname, line)
        dst, doff, src, soff, n = vals
        src_cells = self._tcells.get(src.array_id)
        if src_cells is not None:
            # Capture the source slice first: dst may alias src (memmove).
            window = list(src_cells[soff : soff + n])
        else:
            window = None
        if window is not None or dst.array_id in self._tcells:
            cells = self._cells_for_write(dst.array_id)
            cells[doff : doff + n] = window if window is not None else [None] * n
        return value, None

    def _tb_fill(self, vals, labels, fname, line):
        union = self._pool.union
        self._ctl = union(union(self._ctl, labels[1]), labels[2])
        value = self._bi_fill(vals, fname, line)
        ref, off, n, _fill_value = vals
        if labels[3] is not None or ref.array_id in self._tcells:
            cells = self._cells_for_write(ref.array_id)
            cells[off : off + n] = [labels[3]] * n
        return value, None

    def _tb_read(self, vals, labels, fname, line, width, reader):
        self._ctl = self._pool.union(self._ctl, labels[1])
        value = reader(self, vals, fname, line)
        return value, self._window_label(vals[0], vals[1], width, labels[0])

    def _tb_read16(self, vals, labels, fname, line):
        return self._tb_read(vals, labels, fname, line, 2, _Exec._bi_read16)

    def _tb_read32(self, vals, labels, fname, line):
        return self._tb_read(vals, labels, fname, line, 4, _Exec._bi_read32)

    def _tb_read16le(self, vals, labels, fname, line):
        return self._tb_read(vals, labels, fname, line, 2, _Exec._bi_read16le)

    def _tb_read32le(self, vals, labels, fname, line):
        return self._tb_read(vals, labels, fname, line, 4, _Exec._bi_read32le)

    def _tb_trap(self, vals, labels, fname, line):
        self._ctl = self._pool.union(self._ctl, labels[0])
        return self._bi_trap(vals, fname, line), None


_TAINT_BUILTINS = {
    BUILTIN_CODES["alloc"]: TaintExec._tb_alloc,
    BUILTIN_CODES["len"]: TaintExec._tb_len,
    BUILTIN_CODES["abs"]: TaintExec._tb_abs,
    BUILTIN_CODES["min"]: TaintExec._tb_min,
    BUILTIN_CODES["max"]: TaintExec._tb_max,
    BUILTIN_CODES["memcmp"]: TaintExec._tb_memcmp,
    BUILTIN_CODES["copy"]: TaintExec._tb_copy,
    BUILTIN_CODES["fill"]: TaintExec._tb_fill,
    BUILTIN_CODES["read16"]: TaintExec._tb_read16,
    BUILTIN_CODES["read32"]: TaintExec._tb_read32,
    BUILTIN_CODES["read16le"]: TaintExec._tb_read16le,
    BUILTIN_CODES["read32le"]: TaintExec._tb_read32le,
    BUILTIN_CODES["trap"]: TaintExec._tb_trap,
}


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
