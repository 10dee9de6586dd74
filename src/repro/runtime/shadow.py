"""ShadowExec: the one mirrored interpreter loop behind the shadow domains.

Taint tracking (:class:`repro.taint.track.TaintExec`, label unions) and
concolic extraction (:class:`repro.analysis.symbolic.ConcolicExec`,
:class:`~repro.analysis.symbolic.SymExpr` trees) both replay an input with
a *shadow register file* beside the concrete one.  This module holds what
they share: ``run``, lazily materialized shadow memory, the dispatch loop,
the ``copy``/``fill`` shadow moves and the :func:`opaque` builtin wrapper.
A domain subclass supplies only the hooks where the two really differ.

The concrete half of the loop mirrors ``_Exec._call`` exactly — same
instruction counting, probe accounting, traps and cmplog — so a shadow
run's :class:`~repro.runtime.interpreter.ExecutionResult` is bit-identical
to the plain interpreter's.  ``_Exec._call`` itself stays separate: it is
the default backend's hot loop and the reference the compiled backend is
diffed against, and threading shadow registers through it would slow both.

Shadow values follow one rule: ``None`` means "depends on no input byte".
The loop propagates clean shadows itself and calls a hook only when an
operand is shadowed (or, for branches, when the domain asks for clean ones
too).  The hooks a domain defines:

- ``_sh_input_cells(n)`` / ``_sh_finish(n)``: the input array's shadow
  cells, and the artifact ``run`` returns beside the ExecutionResult;
- ``_sh_bin(binop, sa, sb, a, b)`` / ``_sh_un(unop, sa)``: operator results;
- ``_sh_steer(sb)``: a shadowed divisor or shift amount, before its trap
  check;
- ``_sh_access(arr, sarr, sidx)`` (optional, ``None`` to skip): every LOAD
  and STORE, before the bounds check;
- ``_sh_load(cell, sarr, sidx)``: a LOAD with any shadowed part;
- ``_sh_indexed_store(arr, idx, sidx, ssrc)``: a STORE at a shadowed index;
- ``_sh_branch(fname, block, taken_dst, taken_true, scond)``: a conditional
  branch whose condition is shadowed, or every branch when
  ``_SH_CLEAN_BRANCHES`` is true;
- ``_sh_cmp(site, sa, sb, a, b)`` (optional, ``None`` to skip): every
  comparison operator;
- ``_SH_BUILTINS``: builtin code -> ``f(self, vals, svals, fname, line)``
  returning ``(value, shadow)``.

Optional hooks must never be bound methods stored on the executor itself:
the reference cycle would leave every run's heap to the cyclic collector.
"""

from types import FunctionType

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
from repro.runtime import traps
from repro.runtime.interpreter import (
    CMPLOG_CAP,
    PROBE_COSTS,
    ExecutionResult,
    _c_div,
    _c_mod,
    _Exec,
)
from repro.runtime.traps import Timeout, Trap
from repro.runtime.values import ArrayRef, wrap_int


def opaque(base):
    """A builtin wrapper that runs base semantics and returns a clean shadow."""

    def run(self, vals, svals, fname, line):
        return base(self, vals, fname, line), None

    return run


class ShadowExec(_Exec):
    """Concrete semantics of ``_Exec`` plus one shadow value per register."""

    _SH_CLEAN_BRANCHES = False
    _SH_BUILTINS = {}
    _sh_access = None
    _sh_cmp = None

    def __init_subclass__(cls, **kwargs):
        # Each domain gets its own copy of the loop's code object, so the
        # interpreter's per-site attribute caches stay monomorphic when
        # taint and concolic runs alternate.
        super().__init_subclass__(**kwargs)
        loop = ShadowExec._call
        cls._call = FunctionType(
            loop.__code__.replace(), loop.__globals__, loop.__name__, loop.__defaults__
        )

    def __init__(self, program, instrumentation, instr_budget, call_depth_limit, cmplog):
        super().__init__(program, instrumentation, instr_budget, call_depth_limit, cmplog)
        self._cells = {}  # array_id -> list of shadow cells (lazy)
        self._sret = None  # shadow of the last finished call's result

    def run(self, input_bytes):
        n = len(input_bytes)
        input_ref = self._heap.alloc(n)
        storage = self._heap.storage(input_ref)
        storage[:n] = input_bytes
        self._cells[input_ref.array_id] = self._sh_input_cells(n)
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
        return result, self._sh_finish(n)

    # -- shadow memory ---------------------------------------------------------

    def _cells_for_write(self, array_id):
        """Materialized shadow cell list for an array (lazily, on first write)."""
        cells = self._cells.get(array_id)
        if cells is None:
            cells = self._cells[array_id] = [None] * len(self._heap._arrays[array_id])
        return cells

    def _sh_copy(self, vals, svals, fname, line):
        """``copy``: shadow cells move with the data they shadow."""
        value = self._bi_copy(vals, fname, line)
        dst, doff, src, soff, n = vals
        src_cells = self._cells.get(src.array_id)
        # The slice is a copy taken before any write: dst may alias src.
        window = src_cells[soff : soff + n] if src_cells is not None else None
        if window is not None or dst.array_id in self._cells:
            cells = self._cells_for_write(dst.array_id)
            cells[doff : doff + n] = window if window is not None else [None] * n
        return value, None

    def _sh_fill(self, vals, svals, fname, line):
        """``fill``: every filled cell takes the fill value's shadow."""
        value = self._bi_fill(vals, fname, line)
        ref, off, n, _fill_value = vals
        if svals[3] is not None or ref.array_id in self._cells:
            cells = self._cells_for_write(ref.array_id)
            cells[off : off + n] = [svals[3]] * n
        return value, None

    # -- the mirrored interpreter loop ---------------------------------------

    def _call(self, func_index, args, sargs):
        program = self._program
        func = program.funcs[func_index]
        fname = func.name
        heap = self._heap
        hits = self._hits
        probe_acc = self._probe_acc
        probe_costs = PROBE_COSTS
        shadow_cells = self._cells
        builtins = self._SH_BUILTINS
        access = self._sh_access
        record_cmp = self._sh_cmp
        clean_branches = self._SH_CLEAN_BRANCHES
        regs = [0] * func.nregs
        regs[: len(args)] = args
        sregs = [None] * func.nregs
        sregs[: len(sargs)] = sargs
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
                            if sb is not None:
                                self._sh_steer(sb)
                            if b == 0:
                                self._trap(traps.DIV_BY_ZERO, fname, ins[5], "division by zero")
                            value = wrap_int(_c_div(a, b))
                        elif binop == OP_MOD:
                            if sb is not None:
                                self._sh_steer(sb)
                            if b == 0:
                                self._trap(traps.DIV_BY_ZERO, fname, ins[5], "modulo by zero")
                            value = wrap_int(_c_mod(a, b))
                        elif binop == OP_SHL:
                            if sb is not None:
                                self._sh_steer(sb)
                            if b < 0 or b > 63:
                                self._trap(
                                    traps.SHIFT_RANGE, fname, ins[5], "shift by %d" % b
                                )
                            value = wrap_int(a << b)
                        else:  # OP_SHR
                            if sb is not None:
                                self._sh_steer(sb)
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
                        if record_cmp is not None:
                            record_cmp((fname, ins[5], binop), sa, sb, a, b)
                    regs[ins[2]] = value
                    if sa is None and sb is None:
                        sregs[ins[2]] = None
                    else:
                        sregs[ins[2]] = self._sh_bin(binop, sa, sb, a, b)
                elif op == CONST:
                    regs[ins[1]] = ins[2]
                    sregs[ins[1]] = None
                elif op == MOV:
                    regs[ins[1]] = regs[ins[2]]
                    sregs[ins[1]] = sregs[ins[2]]
                elif op == LOAD:
                    arr = regs[ins[2]]
                    idx = regs[ins[3]]
                    sarr = sregs[ins[2]]
                    sidx = sregs[ins[3]]
                    if not isinstance(arr, ArrayRef):
                        self._trap(
                            traps.TYPE_CONFUSION, fname, ins[4], "indexing a non-array"
                        )
                    if access is not None:
                        access(arr, sarr, sidx)
                    storage = heap.storage(arr)
                    if isinstance(idx, ArrayRef) or idx < 0 or idx >= len(storage):
                        self._trap(
                            traps.OOB_READ,
                            fname,
                            ins[4],
                            "index %r of %d" % (idx, len(storage)),
                        )
                    regs[ins[1]] = storage[idx]
                    cells = shadow_cells.get(arr.array_id)
                    cell = cells[idx] if cells is not None else None
                    if cell is None and sarr is None and sidx is None:
                        sregs[ins[1]] = None
                    else:
                        sregs[ins[1]] = self._sh_load(cell, sarr, sidx)
                elif op == STORE:
                    arr = regs[ins[1]]
                    idx = regs[ins[2]]
                    sidx = sregs[ins[2]]
                    ssrc = sregs[ins[3]]
                    if not isinstance(arr, ArrayRef):
                        self._trap(
                            traps.TYPE_CONFUSION, fname, ins[4], "indexing a non-array"
                        )
                    if heap.is_readonly(arr):
                        self._trap(
                            traps.READONLY_WRITE, fname, ins[4], "write to constant"
                        )
                    if access is not None:
                        access(arr, sregs[ins[1]], sidx)
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
                        self._sh_indexed_store(arr, idx, sidx, ssrc)
                    elif ssrc is not None or arr.array_id in shadow_cells:
                        self._cells_for_write(arr.array_id)[idx] = ssrc
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
                    sa = sregs[ins[3]]
                    sregs[ins[2]] = None if sa is None else self._sh_un(unop, sa)
                elif op == CALL:
                    if len(self._stack) + 1 >= self._depth_limit:
                        self._trap(
                            traps.STACK_OVERFLOW, fname, ins[4], "call depth exceeded"
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
                    regs[ins[1]], sregs[ins[1]] = builtins[ins[2]](
                        self,
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
                cond = regs[term[1]]
                nxt = term[2] if cond else term[3]
                scond = sregs[term[1]]
                if scond is not None or clean_branches:
                    self._sh_branch(fname, cur, nxt, bool(cond), scond)
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
                        # Inlined fast path for the two hot kinds (edge
                        # hit, Ball-Larus increment), as in ``_Exec._call``.
                        for act in acts:
                            kind = act[0]
                            if kind == 0:  # ACT_HIT
                                probe_acc[0] += 1
                                probe_acc[1] += probe_costs[0]
                                idx = act[1]
                                if idx in hits:
                                    hits[idx] += 1
                                else:
                                    hits[idx] = 1
                            elif kind == 1:  # ACT_ADD
                                probe_acc[0] += 1
                                probe_acc[1] += probe_costs[1]
                                pathreg += act[1]
                            else:
                                pathreg = self._run_one_action(act, pathreg, mask)
            cur = nxt
