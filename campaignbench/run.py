"""Campaign benchmark: virtual hours per kref, with a per-layer ledger.

Run from the root of a checkout::

    python3 campaignbench/run.py --workload fuzz-cheap --seed 1 --seconds 30 --trace 0

One process and one thread run one workload: set-up, then rounds of the
workload's fixed work items, one after another, until ``--seconds`` of
measurement have passed.  Throughput is per 1000 reference passes (kref):
a fixed piece of pure-Python work timed between the items, so that other
tenants of a shared machine do not move it (``workloads.reference_pass``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer ledger.  Both run the
output checks.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before ``import repro``

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".campaignbench")

# Knobs that would change what a campaign does, cleared before import.
CLEARED_ENV = ("REPRO_TAINT", "REPRO_CONCOLIC", "REPRO_TRACE", "REPRO_FAULTS",
               "REPRO_COMPILE_CACHE", "REPRO_SCALE")
SETUP_SAMPLES = 3  # this process plus two set-up-only children

# Layers each workload claims to stress: the ledger must give them at
# least half of the traced wall time.
CLAIMED_LAYERS = {
    "fuzz-cheap": ("mutators", "bitmap"),
    "fuzz-costly": ("runtime", "replay", "strategies", "store", "checkpoint"),
    "solve": ("taint", "symbolic", "solver"),
}


def declared_metrics():
    """``(end_to_end, per_layer)`` name/unit pairs from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return tuple([(m["name"], m["unit"]) for m in spec[key]]
                 for key in ("end_to_end", "per_layer"))


def pin_environment():
    """Pin the backend and clear every knob that changes campaigns."""
    os.environ["REPRO_BACKEND"] = "compile"
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fuzz-cheap", "fuzz-costly", "solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit")
    return parser.parse_args(argv)


def setup_children(workload_name, count):
    """Set-up seconds of ``count`` fresh processes, run one at a time."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
             "--seed", "0", "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except OSError:
            pass
    from repro.experiments.runner import source_fingerprint

    return "src:" + source_fingerprint()


class Run:
    """One workload run: rounds, checks and the tallies they feed."""

    def __init__(self, workload, seed, edge_instr):
        import checks

        self.workload = workload
        self.edge_instr = edge_instr
        self.plan = workload.plan(seed)
        self.capture = checks.EngineCapture()
        self.capture.install()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_digests = None
        self.edges = 0
        self.witnesses = 0
        self.unflipped = 0
        self.outside_census = {}  # (subject, function, line, kind) -> campaigns
        self.extra = {}

    def round(self, tracer=None):
        """Run one round, check it and count its failed items."""
        import checks
        import workloads

        workload = self.workload
        first = self.first_digests is None
        self.capture.enabled = first
        if workload.kind == "fuzz":
            workdir = os.path.join(OUT, "work-%d" % os.getpid())
            out = workloads.run_fuzz_round(workload, self.plan, workdir, tracer)
            digests = [checks.campaign_digest(r) for r in out.items]
        else:
            ops = workloads.SOLVE_OPS
            if tracer is not None:
                ops = {
                    "taint": tracer.wrap("taint.taint_execute", ops["taint"],
                                         after=lambda r, a: tracer.count("taint.runs")),
                    "extract": tracer.wrap("symbolic.extract_path_condition", ops["extract"],
                                           after=tracer.count_condition),
                    "solve": tracer.wrap("solver.solve_flip", ops["solve"],
                                         after=tracer.count_solve),
                }
            out = workloads.run_solve_round(workload, self.plan, self.edge_instr, ops)
            digests = [checks.solve_digest(subject, data, outcome)
                       for (subject, data), outcome in zip(self.plan, out.items)]
        self.problems.extend("raised: " + error for error in out.errors)
        bad = {i for i, digest in enumerate(digests) if digest == "raised"}
        if first:
            self.first_digests = digests
            bad |= self.check(out)
        else:
            for index, (digest, before) in enumerate(zip(digests, self.first_digests)):
                if digest != before and index not in bad:
                    bad.add(index)
                    self.problems.append("item %d: science differs from the first round"
                                         % index)
        self.attempted += len(digests)
        self.failed += len(bad)
        out.items = None  # keep the timings only, so memory does not grow per round
        return out

    def check(self, out):
        """The untimed output checks on the first round; returns failed items."""
        import checks

        bad = set()
        if self.workload.kind == "fuzz":
            bugs = 0
            for index, ((subject, config, run_seed), result) in enumerate(
                    zip(self.plan, out.items)):
                if result is None:
                    continue
                captured = self.capture.captured.get((subject.name, config, run_seed))
                if captured is None:
                    problems, verified = ["no engines captured"], 0
                else:
                    problems, verified, outside = checks.check_campaign(
                        subject, result, captured, self.edge_instr[subject.name])
                    for bug in outside:
                        key = (subject.name,) + bug
                        self.outside_census[key] = self.outside_census.get(key, 0) + 1
                self.witnesses += verified
                self.edges += len(result.edges)
                bugs += len(result.bugs)
                if problems:
                    bad.add(index)
                    self.problems.extend("%s/%s#%d: %s" % (subject.name, config, run_seed, p)
                                         for p in problems)
            self.extra["bugs"] = bugs
            self.capture.captured.clear()
        else:
            edges = {}
            for index, ((subject, data), outcome) in enumerate(zip(self.plan, out.items)):
                if outcome is None:
                    continue
                problems, verified, unflipped, covered = checks.check_solve(
                    subject, data, outcome, self.edge_instr[subject.name])
                self.witnesses += verified
                self.unflipped += unflipped
                edges.setdefault(subject.name, set()).update(covered)
                if problems:
                    bad.add(index)
                    self.problems.extend("%s %s: %s" % (subject.name, data.hex(), p)
                                         for p in problems)
            self.edges = sum(len(e) for e in edges.values())
            self.extra["flips"] = out.flips
            self.extra["unflipped_witnesses"] = self.unflipped
        return bad

    @property
    def digest(self):
        import checks

        return checks.combined_digest(self.first_digests or [])


def measure(run, seconds, traced):
    """Rounds for ``seconds``; traced mode alternates untraced and traced.

    A round that would end past ``seconds`` is not started (the first one
    always runs).  Traced rounds are checked against the first untraced
    round's science, which shows that tracing only observes.
    """
    from tracing import LayerTracer

    tracer = LayerTracer() if traced else None
    plain, with_trace = [], []
    start = time.perf_counter()
    took = []
    while True:
        t0 = time.perf_counter()
        plain.append(run.round())
        if traced:
            tracer.install()
            try:
                with_trace.append(run.round(tracer=tracer))
            finally:
                tracer.uninstall()
        took.append(time.perf_counter() - t0)
        # The first round also ran the checks, so later ones predict better.
        estimate = statistics.median(took[1:] or took)
        if time.perf_counter() - start + estimate > seconds:
            break
    return plain, with_trace, tracer


def median_wall(rounds):
    """Each item's median wall seconds across rounds, summed over items.

    Every round repeats the same items, so a burst of noise from other
    processes costs one item one sample, not the whole figure.
    """
    return sum(statistics.median(walls) for walls in zip(*(r.walls for r in rounds)))


def median_cost(rounds):
    """As :func:`median_wall`, in reference passes (``workloads.reference_pass``)."""
    return sum(statistics.median(costs) for costs in zip(*(r.costs() for r in rounds)))


def ledger_metrics(workload_name, tracer, traced, plain, setup_timings, names):
    """Per-layer metrics, per traced round, from the spans and counters."""
    rounds = len(traced)
    wall = sum(r.wall for r in traced)
    self_s = tracer.self_times()
    counts = tracer.counts

    def per_round(key):
        return counts.get(key, 0) / rounds

    def layer(name):
        return self_s.get(name, 0.0) / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    attributed = sum(self_s.values())
    claimed = sum(self_s.get(name, 0.0) for name in CLAIMED_LAYERS[workload_name])
    values = {
        "setup.load_s": setup_timings["load"],
        "setup.instrument_s": setup_timings["instrument"],
        "setup.codegen_s": setup_timings["codegen"],
        "setup.late_codegens": per_round("setup.late_codegens"),
        "corpus.yield": ratio(counts.get("corpus.queued", 0), counts.get("runtime.execs", 0)),
        "strategies.kept_frac": ratio(counts.get("strategies.kept", 0),
                                      counts.get("strategies.inputs", 0)),
        "solver.solved_frac": ratio(counts.get("solver.solved", 0),
                                    counts.get("solver.flips", 0)),
        "mutators.us_per_call": 1e6 * ratio(self_s.get("mutators", 0.0),
                                            counts.get("mutators.calls", 0)),
        "runtime.us_per_exec": 1e6 * ratio(self_s.get("runtime", 0.0),
                                           counts.get("runtime.execs", 0)),
        "ledger.claimed_frac": ratio(claimed, wall),
        "ledger.unattributed_frac": ratio(wall - attributed, wall),
        "trace.overhead_frac": median_cost(traced) / median_cost(plain) - 1.0,
    }
    for name, _unit in names:
        if name in values:
            continue
        if name.endswith(".self_s"):
            values[name] = layer(name[: -len(".self_s")])
        else:
            values[name] = per_round(name)
    return values


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("campaignbench: no repro sources under %s" % SRC, file=sys.stderr)
        return 2
    pin_environment()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    setup_timings, edge_instr = workloads.setup(workload)
    setup_main = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main}))
        return 0

    run = Run(workload, args.seed, edge_instr)
    traced = bool(args.trace)
    plain, with_trace, tracer = measure(run, args.seconds, traced)
    if traced:
        tracer.write(os.path.join(OUT, "spans-%s-seed%d.bin" % (args.workload, args.seed)))

    print("env: python=%s nproc=%d backend=%s commit=%s" % (
        platform.python_version(), os.cpu_count() or 0, os.environ["REPRO_BACKEND"],
        source_commit()))
    print("workload: %s seed=%d rounds=%d+%d items/round=%d digest=%s" % (
        args.workload, args.seed, len(plain), len(with_trace), len(run.plan), run.digest))
    for problem in run.problems[:20]:
        print("check failed: " + problem, file=sys.stderr)
    for (subject, function, line, kind), count in sorted(run.outside_census.items()):
        print("info: bug outside the census: %s %s:%d %s (%d campaigns)"
              % (subject, function, line, kind, count))

    if traced:
        names = declared_metrics()[1]
        values = ledger_metrics(args.workload, tracer, with_trace, plain, setup_timings, names)
    else:
        samples = [setup_main] + setup_children(args.workload, SETUP_SAMPLES - 1)
        wall = median_wall(plain)
        kref = median_cost(plain) / 1000.0
        first = plain[0]
        values = {
            "setup_s": statistics.median(samples),
            "vhours_per_kref": first.vhours / kref,
            "execs_per_kref": first.execs / kref,
            "edges": run.edges,
            "witnesses": run.witnesses,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = declared_metrics()[0]
        print("setup_s samples: %s" % " ".join("%.4f" % s for s in samples))
        print("round walls (s): %s" % " ".join("%.3f" % r.wall for r in plain))
        print("reference pass (ms): median %.4f, one kref = %.3f s of this run's wall"
              % (1000 * statistics.median(p for r in plain for p in r.passes), wall / kref))
        for key, value in sorted(run.extra.items()):
            print("info: %s = %s" % (key, value))
        print("info: vhours_per_s = %.4f" % (first.vhours / wall))
        print("info: execs_per_s = %.4f" % (first.execs / wall))
        if workload.kind == "solve":
            print("info: flips_per_s = %.4f" % (first.flips / wall))
            print("info: flips_per_kref = %.4f" % (first.flips / kref))
    fail_frac = run.failed / run.attempted if run.attempted else 1.0
    print("info: fail_frac = %.4f (%d of %d)" % (fail_frac, run.failed, run.attempted))
    metrics = {}
    for name, unit in names:
        metrics[name] = {"value": values[name], "unit": unit}
        print("%-26s %16.6f %s" % (name, values[name], unit))
    correct = run.failed == 0 and not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
