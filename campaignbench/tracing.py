"""Outside-in span tracing of the ``repro`` layers, and the self-time ledger.

The program under test is never edited: :class:`LayerTracer` replaces the
public entry points of each layer *where the caller looks them up* (the
engine binds ``havoc`` & co. at import, so ``repro.fuzzer.engine.havoc`` is
the name to replace; ``Backend.execute`` is an instance slot, so backends
are wrapped as ``repro.fuzzer.engine.make_backend`` returns them) and
records one span per call: name, start, end and parent span.  Spans stay
in memory, in flat arrays, until the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  Summed over every span of a traced round, self times cover the
round except the benchmark's own glue between campaigns, which the ledger
reports as ``ledger.unattributed_frac``.
"""

import json
import os
from array import array
from time import perf_counter

# A span's layer is the text of its name before the first dot; RATIONALE.md
# lists each layer's entry points and the end-to-end metric it should move.


class LayerTracer:
    """Span recorder plus the install/uninstall of the layer wrappers."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counts = {}
        self._saved = []

    # -- recording -------------------------------------------------------------

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, nid):
        """Start a span; returns its index for :meth:`close`."""
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """``fn`` recording a ``name`` span per call; ``after(result, args)``
        updates counters once the span has closed."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name, fn):
        """A generator function whose every ``next()`` is one span."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = open_(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(idx)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing the wrappers -------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every layer's entry points; :meth:`uninstall` restores them."""
        import repro.coverage.bitmap as bitmap
        import repro.coverage.feedback as feedback
        import repro.experiments.config as config
        import repro.fuzzer.campaign as campaign
        import repro.fuzzer.corpus as corpus
        import repro.fuzzer.engine as engine
        import repro.fuzzer.store as store
        import repro.runtime.backend as backend
        import repro.runtime.compiler as compiler
        import repro.strategies.culling as culling
        import repro.strategies.opportunistic as opportunistic

        tracer = self
        count = self.count
        wrap = self.wrap
        patch = self._patch
        get = lambda owner, attr: owner.__dict__[attr]  # noqa: E731

        # Compiled-code generation anywhere after set-up means the warm-up
        # missed a variant and a campaign paid for codegen.
        patch(compiler, "generate_sources", wrap(
            "setup.late_codegen", compiler.generate_sources,
            after=lambda r, a: count("setup.late_codegens")))

        patch(config, "run_config", wrap("engine.run_config", config.run_config))
        for cls in (feedback.EdgeFeedback, feedback.PathFeedback):
            patch(cls, "instrument", wrap("instrument.feedback", get(cls, "instrument")))

        exec_nid = self.name_id("runtime.execute")
        cmplog_nid = self.name_id("cmplog.execute")

        def wrap_backend(made):
            execute = made.execute

            def traced_execute(data, **kwargs):
                cmplog = kwargs.get("cmplog", False)
                idx = tracer.open(cmplog_nid if cmplog else exec_nid)
                try:
                    return execute(data, **kwargs)
                finally:
                    tracer.close(idx)
                    count("cmplog.execs" if cmplog else "runtime.execs")

            made.execute = traced_execute
            return made

        make_backend = engine.make_backend
        patch(engine, "make_backend", wrap(
            "instrument.make_backend",
            lambda *a, **k: wrap_backend(make_backend(*a, **k))))

        def counted(key):
            return lambda r, a: count(key)

        patch(engine, "havoc", wrap("mutators.havoc", engine.havoc,
                                    after=counted("mutators.calls")))
        patch(engine, "splice", wrap("mutators.splice", engine.splice,
                                     after=counted("mutators.calls")))
        patch(engine, "deterministic_mutations",
              self.wrap_generator("mutators.det", engine.deterministic_mutations))

        patch(engine, "classify_hits", wrap("bitmap.classify_hits", engine.classify_hits,
                                            after=counted("bitmap.calls")))
        for attr in ("probe", "merge"):
            patch(bitmap.VirginMap, attr, wrap("bitmap." + attr, get(bitmap.VirginMap, attr),
                                                after=counted("bitmap.calls")))

        for attr in ("cull", "make_entry"):
            patch(corpus.Queue, attr, wrap("corpus." + attr, get(corpus.Queue, attr)))
        patch(corpus.Queue, "add", wrap("corpus.add", get(corpus.Queue, "add"),
                                        after=counted("corpus.queued")))

        patch(engine, "candidates_from_log", wrap(
            "cmplog.candidates_from_log", engine.candidates_from_log,
            after=lambda r, a: count("cmplog.candidates", len(r))))

        patch(campaign, "replay_edge_coverage", wrap(
            "replay.replay_edge_coverage", campaign.replay_edge_coverage))
        patch(campaign, "execute", wrap("replay.execute", campaign.execute,
                                        after=counted("replay.inputs")))

        def kept(n_in):
            def after(result, args):
                count("strategies.calls")
                count("strategies.inputs", n_in(args))
                count("strategies.kept", len(result))
            return after

        patch(culling, "edge_preserving_subset", wrap(
            "strategies.edge_preserving_subset", culling.edge_preserving_subset,
            after=kept(lambda a: len(a[1]))))
        patch(opportunistic, "preprocess_queue", wrap(
            "strategies.preprocess_queue", opportunistic.preprocess_queue,
            after=kept(lambda a: len(a[0].queue.entries))))

        for attr in ("save_queue_entry", "save_crash", "save_hang"):
            patch(store.CampaignStore, attr, wrap(
                "store." + attr, get(store.CampaignStore, attr), after=counted("store.writes")))
        patch(store.CampaignStore, "finalize", wrap(
            "store.finalize", get(store.CampaignStore, "finalize")))

        def saved(result, args):
            count("checkpoint.saves")
            count("checkpoint.bytes", os.path.getsize(args[1]))

        patch(engine.FuzzEngine, "save_checkpoint", wrap(
            "checkpoint.save", get(engine.FuzzEngine, "save_checkpoint"), after=saved))

        patch(backend.Backend, "taint_execute", wrap(
            "taint.taint_execute", get(backend.Backend, "taint_execute"),
            after=counted("taint.runs")))
        patch(engine, "select_targets", wrap("taint.select_targets", engine.select_targets))
        patch(engine, "build_branch_index", wrap(
            "taint.build_branch_index", engine.build_branch_index))

        patch(engine, "masked_havoc", wrap("masked.masked_havoc", engine.masked_havoc,
                                           after=counted("masked.calls")))
        patch(engine, "masked_candidates", wrap(
            "masked.masked_candidates", engine.masked_candidates,
            after=counted("masked.calls")))
        patch(engine, "sweep_candidates",
              self.wrap_generator("masked.sweep_candidates", engine.sweep_candidates))

        patch(engine, "extract_path_condition", wrap(
            "symbolic.extract_path_condition", engine.extract_path_condition,
            after=self.count_condition))
        patch(engine, "solve_flip", wrap("solver.solve_flip", engine.solve_flip,
                                         after=self.count_solve))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def count_condition(self, result, args):
        self.count("symbolic.calls")
        self.count("symbolic.constraints", len(result[1]))

    def count_solve(self, result, args):
        assignment, stats = result
        self.count("solver.flips")
        self.count("solver.nodes", stats.nodes)
        self.count("solver.solved", assignment is not None)
        self.count("solver.gave_up", stats.gave_up)

    # -- the ledger ------------------------------------------------------------

    def self_times(self):
        """Self seconds per layer, over every recorded span."""
        n = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        child = array("d", [0.0]) * n
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        out = {}
        name_ids = self.name_ids
        for i in range(n):
            layer = layer_of[name_ids[i]]
            out[layer] = out.get(layer, 0.0) + (ends[i] - starts[i]) - child[i]
        return out

    def write(self, path):
        """Write every span: a JSON header then the four raw arrays."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {"names": self.names, "spans": len(self.starts),
                  "arrays": ["name_ids:i", "parents:i", "starts:d", "ends:d"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(handle)
