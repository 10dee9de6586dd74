"""TaintExec: the shadow domain that tracks byte-level input provenance.

:class:`TaintExec` is the label-union domain of the shared shadow loop
(:class:`repro.runtime.shadow.ShadowExec`): every register carries a taint
label beside its concrete value.  The loop mirrors the plain interpreter —
same instruction counting, probe accounting, traps and cmplog — so a taint
run's :class:`~repro.runtime.interpreter.ExecutionResult` is bit-identical
to the plain interpreter's (the ``test_taint.py`` equivalence tests pin
this).  The domain adds only shadow operations feeding a
:class:`~repro.taint.map.TaintMap`.

Propagation rules (DESIGN §12):

- input bytes are the taint sources: byte ``i`` of the test case gets the
  singleton label ``{i}``;
- binary/unary operators join their operands' labels; LOAD joins the cell's
  label with the index's (the loaded value depends on *which* cell);
- STORE writes the source label into the shadow cell; ``copy``/``fill``
  move labels like the data they shadow; ``read16``/``read32`` join the
  window's cell labels;
- **control taint** is a monotone per-execution accumulator folding in every
  label that could steer control: branch conditions, array indices and
  bounds (including tainted alloc sizes), divisors, shift amounts, builtin
  offsets/lengths, trap codes.  It over-approximates implicit flows: any
  byte *not* in ``ctl`` provably cannot change the execution path, which is
  the induction that makes ``TaintMap.sound_mask`` sound.
"""

from repro.lang.builtins_spec import BUILTIN_CODES
from repro.runtime.interpreter import DEFAULT_CALL_DEPTH, DEFAULT_INSTR_BUDGET, _Exec
from repro.runtime.shadow import ShadowExec
from repro.taint.labels import LabelPool
from repro.taint.map import TaintMap


def taint_execute(
    program,
    input_bytes,
    instrumentation=None,
    instr_budget=DEFAULT_INSTR_BUDGET,
    call_depth_limit=DEFAULT_CALL_DEPTH,
    cmplog=False,
    pair_cap=8,
):
    """Run ``program.main(input_bytes)`` under taint tracking.

    Returns ``(ExecutionResult, TaintMap)``.  The ExecutionResult is
    bit-identical to a plain :func:`~repro.runtime.interpreter.execute` of
    the same input; the TaintMap is finalized even on trap/timeout.
    """
    vm = TaintExec(program, instrumentation, instr_budget, call_depth_limit, cmplog, pair_cap)
    return vm.run(input_bytes)


class TaintExec(ShadowExec):
    """Shadow domain: concrete semantics of ``_Exec`` + taint labels."""

    # The branch trail records every conditional branch, clean ones too.
    _SH_CLEAN_BRANCHES = True

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
        self._sh_cmp = self._tmap.record_cmp
        self._tlen = {}  # array_id -> label of a tainted alloc size
        self._ctl = None  # monotone control-taint accumulator

    # -- domain hooks ----------------------------------------------------------

    def _sh_input_cells(self, n):
        single = self._pool.single
        return [single(i) for i in range(n)]

    def _sh_finish(self, n):
        self._tmap.finalize(self._ctl, n)
        return self._tmap

    def _sh_bin(self, binop, la, lb, a, b):
        return self._pool.union(la, lb)

    def _sh_un(self, unop, la):
        return la

    def _sh_steer(self, lb):
        self._ctl = self._pool.union(self._ctl, lb)

    def _sh_access(self, arr, larr, lidx):
        # Index, ref identity, and bounds steer whether we trap.
        lsize = self._tlen.get(arr.array_id)
        if lidx is not None or larr is not None or lsize is not None:
            union = self._pool.union
            self._ctl = union(union(self._ctl, lidx), union(larr, lsize))

    def _sh_load(self, cell, larr, lidx):
        union = self._pool.union
        return union(cell, union(lidx, larr))

    def _sh_indexed_store(self, arr, idx, lidx, lsrc):
        # The index label went to ``ctl`` in ``_sh_access``.
        if lsrc is not None or arr.array_id in self._cells:
            self._cells_for_write(arr.array_id)[idx] = lsrc

    def _sh_branch(self, fname, block, taken_dst, taken_true, cond_label):
        self._ctl = self._pool.union(self._ctl, cond_label)
        self._tmap.record_branch((fname, block), taken_dst, cond_label)

    # -- taint-aware builtins --------------------------------------------------
    #
    # Each wrapper delegates to the base ``_bi_*`` method for the concrete
    # value — identical traps, virtual-time charges, and cmplog — then
    # computes the result label and any shadow-memory side effects.

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
        cells = self._cells.get(ref.array_id)
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
        return self._sh_copy(vals, labels, fname, line)

    def _tb_fill(self, vals, labels, fname, line):
        union = self._pool.union
        self._ctl = union(union(self._ctl, labels[1]), labels[2])
        return self._sh_fill(vals, labels, fname, line)

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


TaintExec._SH_BUILTINS = {
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
