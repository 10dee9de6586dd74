"""The three workloads: what each runs, its set-up, and one timed round.

A *round* is a fixed list of work items built from the workload seed:
campaigns for ``fuzz-cheap`` / ``fuzz-costly``, flip-solving inputs for
``solve``.  Every round of a run repeats the same items, so the science
they produce is the same in every round and the run can repeat rounds
until its time is up.  Only the calls into ``repro`` are timed.

Every campaign of a workload gets the same virtual-tick budget.  See
``RATIONALE.md`` for why these subjects and configs.
"""

import os
import random
import shutil
from statistics import median
from time import perf_counter

import repro.experiments.config as config_mod
from repro.analysis.solver import solve_flip
from repro.analysis.symbolic import extract_path_condition
from repro.coverage.feedback import EdgeFeedback, PathFeedback
from repro.fuzzer.clock import EXEC_OVERHEAD, TICKS_PER_HOUR, hours_to_ticks
from repro.fuzzer.store import CampaignStore
from repro.runtime import interpreter
from repro.runtime.backend import make_backend
from repro.subjects import SUITE_NAMES, get_subject
from repro.taint import taint_execute

CHEAP_SUBJECTS = ("jhead", "flvmeta", "imginfo", "gdk", "objdump", "jq")
COSTLY_SUBJECTS = ("sqlite3", "mujs", "cflow", "infotocap", "lame", "pdftotext")

# Edge-coverage replay budget of repro.fuzzer.campaign.replay_edge_coverage.
REPLAY_INSTR_BUDGET = 200_000


class FuzzWorkload:
    """Campaigns of every subject under every config, one after another."""

    kind = "fuzz"
    ref_reads = True

    def __init__(self, name, subjects, configs, runs, hours, durable=()):
        self.name = name
        self.subjects = subjects
        self.configs = configs
        self.runs = runs  # campaigns per (subject, config), each its own run seed
        self.hours = hours
        self.durable = durable  # configs run with a CampaignStore + checkpoints
        self.feedbacks = (EdgeFeedback, PathFeedback)

    def plan(self, seed):
        rng = random.Random("%s|%d" % (self.name, seed))
        return [
            (get_subject(name), config, rng.randrange(1 << 20))
            for name in self.subjects
            for config in self.configs
            for _ in range(self.runs)
        ]


class SolveWorkload:
    """Seed-derived inputs through taint, path-condition extraction and flips."""

    kind = "solve"
    ref_reads = False

    def __init__(self, name, subjects, inputs_per_subject, flips, edits,
                 max_bytes=4, node_budget=4096):
        self.name = name
        self.subjects = subjects
        self.inputs_per_subject = inputs_per_subject
        self.flips = flips
        self.edits = edits
        self.max_bytes = max_bytes
        self.node_budget = node_budget
        self.feedbacks = (EdgeFeedback,)

    def plan(self, seed):
        """``(subject, input)`` pairs: seeds with byte edits and growth."""
        rng = random.Random("%s|%d" % (self.name, seed))
        items = []
        for name in self.subjects:
            subject = get_subject(name)
            for _ in range(self.inputs_per_subject):
                data = bytearray(rng.choice(subject.seeds))
                grow = rng.randrange(0, 9)
                data.extend(rng.randrange(256) for _ in range(grow))
                del data[subject.max_input_len:]
                for _ in range(rng.randrange(1, self.edits + 1)):
                    if data:
                        data[rng.randrange(len(data))] = rng.randrange(256)
                items.append((subject, bytes(data)))
        return items


WORKLOADS = {
    w.name: w
    for w in (
        FuzzWorkload("fuzz-cheap", CHEAP_SUBJECTS, ("pcguard", "path", "concolic"),
                     runs=2, hours=2.0),
        FuzzWorkload("fuzz-costly", COSTLY_SUBJECTS, ("path", "cull", "opp"),
                     runs=2, hours=2.0, durable=("path",)),
        SolveWorkload("solve", tuple(SUITE_NAMES), inputs_per_subject=96, flips=4, edits=3),
    )
}


# -- set-up ---------------------------------------------------------------------


def setup(workload):
    """Load, instrument and warm every subject.

    Warming runs each compiled backend on a seed four ways (plain and
    cmplog; within budget and over it, which replays under the exact
    variant), so no campaign pays for code generation.  Returns the
    seconds per phase and each subject's edge instrumentation.
    """
    timings = {"load": 0.0, "instrument": 0.0, "codegen": 0.0}
    edge_instr = {}
    for name in workload.subjects:
        t0 = perf_counter()
        subject = get_subject(name)
        program = subject.program
        t1 = perf_counter()
        timings["load"] += t1 - t0
        seed = subject.seeds[0]
        limits = dict(instr_budget=subject.exec_instr_budget,
                      call_depth_limit=subject.call_depth_limit)
        for feedback in workload.feedbacks:
            t0 = perf_counter()
            instrumentation = feedback().instrument(program)
            t1 = perf_counter()
            if workload.kind == "fuzz":
                backend = make_backend(program, instrumentation)
                for budget in (subject.exec_instr_budget, 1):
                    for cmplog in (False, True):
                        backend.execute(seed, instr_budget=budget,
                                        call_depth_limit=subject.call_depth_limit,
                                        cmplog=cmplog)
            else:
                taint_execute(program, seed, instrumentation, **limits)
                extract_path_condition(program, seed, **limits)
            interpreter.execute(program, seed, instrumentation,
                                instr_budget=REPLAY_INSTR_BUDGET)
            timings["instrument"] += t1 - t0
            timings["codegen"] += perf_counter() - t1
            if feedback is EdgeFeedback:
                edge_instr[name] = instrumentation
    return timings, edge_instr


# -- one round -------------------------------------------------------------------


# A reference pass is a fixed piece of pure-Python work that never touches
# ``repro``.  Other tenants of a shared machine slow this process by 20% or
# more for seconds to minutes at a time, and they slow the reference pass
# too, so an item's wall time over the passes run around it measures the
# program and not its neighbours.  A pass runs after every REF_EVERY
# seconds of items; an item is priced by the median of the passes within
# REF_WINDOW of the one after it, since one pass alone is noisy.
#
# A pass is an interpreter loop that stays in cache, plus, for workloads
# whose ``ref_reads`` is set, random reads over about 1 MB of ints and a
# dict.  Campaigns hold queues, bitmaps and generated code, and slow down
# under cache and memory contention more than the loop does; the solve
# workload's shadow interpreters run small inputs in cache and track the
# loop alone best.  RATIONALE.md gives the measurements.
REF_EVERY = 0.1
REF_WINDOW = 5
_REF_RNG = random.Random(0)
_REF_INTS = [_REF_RNG.randrange(1 << 30) for _ in range(1 << 15)]
_REF_DICT = {_REF_RNG.randrange(1 << 40): i for i in range(1 << 13)}
_REF_KEYS = list(_REF_DICT)


def reference_pass(reads):
    """Run one pass; returns its wall seconds."""
    t0 = perf_counter()
    data = bytes(range(256)) * 4
    counts = {}
    acc = 0
    for i in range(4000):
        acc = (acc * 31 + data[(i * 7) & 1023]) & 0xFFFF
        key = acc & 255
        counts[key] = counts.get(key, 0) + 1
    if reads:
        ints, table, keys = _REF_INTS, _REF_DICT, _REF_KEYS
        for i in range(2500):
            acc = (acc ^ ints[(acc + i * 40503) % len(ints)]) & 0xFFFFF
            acc += table[keys[(acc + i) % len(keys)]]
    return perf_counter() - t0


class Round:
    """Outcomes, per-item wall seconds and reference passes of one round."""

    def __init__(self, ref_reads):
        # Per item: a CampaignResult, or (result, condition, flips) for
        # solve; None where the item raised.
        self.ref_reads = ref_reads
        self.items = []
        self.walls = []
        self.passes = []  # seconds of each reference pass
        self.pass_of = []  # per item: index of the pass that ran after it
        self.errors = []
        self.vhours = 0.0
        self.execs = 0
        self.flips = 0
        self._unpriced = 0.0

    def add(self, item, wall):
        self.items.append(item)
        self.walls.append(wall)
        self._unpriced += wall
        if self._unpriced >= REF_EVERY:
            self.price()

    def price(self):
        """Run one reference pass after the items added since the last."""
        if len(self.pass_of) == len(self.walls):
            return
        self.passes.append(reference_pass(self.ref_reads))
        self.pass_of.extend([len(self.passes) - 1] * (len(self.walls) - len(self.pass_of)))
        self._unpriced = 0.0

    @property
    def wall(self):
        return sum(self.walls)

    def costs(self):
        """Per item: wall seconds over the median pass within REF_WINDOW
        passes of its own."""
        passes = self.passes
        return [wall / median(passes[max(0, k - REF_WINDOW):k + REF_WINDOW + 1])
                for wall, k in zip(self.walls, self.pass_of)]


def run_fuzz_round(workload, plan, workdir, tracer=None):
    budget = hours_to_ticks(workload.hours)
    out = Round(workload.ref_reads)
    store_open = store_close = None
    if tracer is not None:
        store_open = tracer.name_id("store.open")
        store_close = tracer.name_id("store.close")
    for subject, config, run_seed in plan:
        durable = config in workload.durable
        if durable:
            campaign_dir = os.path.join(workdir, "%s-%s-%d" % (subject.name, config, run_seed))
            shutil.rmtree(campaign_dir, ignore_errors=True)
        t0 = perf_counter()
        try:
            if durable:
                span = tracer.open(store_open) if tracer else None
                store = CampaignStore(campaign_dir, meta={
                    "subject": subject.name, "config": config, "run_seed": run_seed})
                if tracer:
                    tracer.close(span)
                try:
                    result = config_mod.run_config(
                        subject, config, run_seed, budget,
                        checkpoint_path=os.path.join(campaign_dir, "checkpoint"),
                        store=store)
                finally:
                    span = tracer.open(store_close) if tracer else None
                    store.close()
                    if tracer:
                        tracer.close(span)
            else:
                result = config_mod.run_config(subject, config, run_seed, budget)
        except Exception as exc:  # a raising campaign is a failed item
            out.add(None, perf_counter() - t0)
            out.errors.append("%s/%s#%d: %r" % (subject.name, config, run_seed, exc))
            continue
        out.add(result, perf_counter() - t0)
        out.vhours += result.ticks / TICKS_PER_HOUR
        out.execs += result.execs
    out.price()
    shutil.rmtree(workdir, ignore_errors=True)
    return out


SOLVE_OPS = {
    "taint": taint_execute,
    "extract": extract_path_condition,
    "solve": solve_flip,
}


def run_solve_round(workload, plan, edge_instr, ops=SOLVE_OPS):
    """Taint, extract and flip every input; ``ops`` may be traced wrappers."""
    taint, extract, solve = ops["taint"], ops["extract"], ops["solve"]
    out = Round(workload.ref_reads)
    ticks = 0
    for subject, data in plan:
        limits = dict(instr_budget=subject.exec_instr_budget,
                      call_depth_limit=subject.call_depth_limit)
        t0 = perf_counter()
        try:
            tainted, _tmap = taint(subject.program, data, edge_instr[subject.name], **limits)
            result, condition = extract(subject.program, data, **limits)
            flips = []
            for constraint in list(condition)[: workload.flips]:
                assignment, stats = solve(
                    constraint, condition.prefix(constraint.index), data,
                    max_bytes=workload.max_bytes, node_budget=workload.node_budget)
                flips.append((constraint, assignment, stats))
        except Exception as exc:  # a raising input is a failed item
            out.add(None, perf_counter() - t0)
            out.errors.append("%s %s: %r" % (subject.name, data.hex(), exc))
            continue
        out.add((result, condition, flips), perf_counter() - t0)
        # What the fuzzer's clock charges the concolic stage for this work.
        ticks += EXEC_OVERHEAD + tainted.virtual_cost + len(tainted.hits) // 4
        ticks += EXEC_OVERHEAD + result.virtual_cost
        ticks += sum(stats.clock_cost() for _, _, stats in flips)
        out.execs += 2
        out.flips += len(flips)
    out.price()
    out.vhours = ticks / TICKS_PER_HOUR
    return out
