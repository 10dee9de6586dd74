"""Untimed output checks against the reference interpreter, and digests.

Every check replays through :func:`repro.runtime.interpreter.execute`,
never through the backend under test:

- each unique crash's witness input replays to the same stack hash;
- the bugs a campaign reports are exactly the ``(function, line, kind)``
  of those replayed crashes;
- replaying the final queue under edge instrumentation gives exactly
  ``CampaignResult.edges``;
- each solver witness keeps every prefix constraint and flips its own;
  re-extracted, it takes the flipped direction at the index-aligned
  constraint (the rule of ``tests/test_symbolic.py``), unless the replay
  recorded a different expression there.

A bug outside the subject's census is not a failed check: the census
lists the planted defects, and a crash that replays is real whether or
not it was planted.  Such bugs are returned so the run can print them.
Likewise the extractor folds what its expression language cannot say
(a symbolically-indexed load, say) into constants, and
:mod:`repro.analysis.symbolic` documents that such a witness may miss
on replay; those witnesses are counted as unflipped, not failed.

A digest hashes the campaign science (``CampaignResult._SCIENCE_SLOTS``)
or the solve outcomes; it must not change between rounds, runs or traced
and untraced execution of the same code and seed.
"""

import hashlib

import repro.experiments.config as config_mod
from repro.analysis.solver import apply_witness
from repro.analysis.symbolic import eval_expr, extract_path_condition
from repro.fuzzer.campaign import CampaignResult
from repro.runtime.interpreter import execute
from repro.triage.stacktrace import stack_hash
from workloads import REPLAY_INSTR_BUDGET


class EngineCapture:
    """Keeps each campaign's final queue and crash witnesses.

    ``CampaignResult`` carries no inputs, so the engines handed to
    ``result_from_engines`` are read as the result is assembled.
    """

    def __init__(self):
        self.enabled = False
        # (subject, config, run seed) -> (queue inputs, {stack hash: witness})
        self.captured = {}

    def install(self):
        original = config_mod.result_from_engines

        def capture(subject, config_name, run_seed, engines, final_engine):
            if self.enabled:
                witnesses = {}
                for engine in engines:
                    for hash5, record in engine.unique_crashes.items():
                        witnesses.setdefault(hash5, record.data)
                key = (subject.name, config_name, run_seed)
                self.captured[key] = (final_engine.corpus_inputs(), witnesses)
            return original(subject, config_name, run_seed, engines, final_engine)

        config_mod.result_from_engines = capture


def _canonical(value):
    """A deterministic, hashable rendering of campaign-science values."""
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((_canonical(v) for v in value), key=repr)))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, dict):
        return ("dict", tuple(sorted((repr(k), _canonical(v)) for k, v in value.items())))
    if hasattr(value, "_state"):
        return (type(value).__name__, _canonical(value._state()))
    if isinstance(value, float):
        return value.hex()
    return value


def campaign_digest(result):
    if result is None:
        return "raised"
    science = tuple(_canonical(getattr(result, slot)) for slot in CampaignResult._SCIENCE_SLOTS)
    return hashlib.sha256(repr(science).encode()).hexdigest()


def solve_digest(subject, data, outcome):
    if outcome is None:
        return "raised"
    result, condition, flips = outcome
    science = (
        subject.name, hashlib.sha1(data).hexdigest(), len(condition), condition.truncated,
        result.trap.kind if result.trap is not None else None,
        tuple((c.index, tuple(sorted(a.items())) if a is not None else None,
               s.nodes, s.evals, s.gave_up) for c, a, s in flips),
    )
    return hashlib.sha256(repr(science).encode()).hexdigest()


def combined_digest(digests):
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:24]


def edge_cover(program, inputs, edge_instr, instr_budget=REPLAY_INSTR_BUDGET):
    covered = set()
    for data in inputs:
        covered.update(execute(program, data, edge_instr, instr_budget=instr_budget).hits)
    return covered


def check_campaign(subject, result, captured, edge_instr):
    """Problems with one campaign (empty when sound), its verified witnesses
    and the bugs it found outside the subject's census."""
    problems = []
    queue_inputs, witnesses = captured
    if set(witnesses) != result.unique_crash_hashes:
        problems.append("captured crash witnesses do not match the crash records")
    verified = 0
    replayed_bugs = set()
    for hash5, data in sorted(witnesses.items()):
        replay = execute(subject.program, data, None, instr_budget=subject.exec_instr_budget,
                         call_depth_limit=subject.call_depth_limit)
        if replay.trap is None or stack_hash(replay.trap.stack) != hash5:
            problems.append("crash witness %s does not replay to its stack hash" % hash5)
        else:
            verified += 1
            replayed_bugs.add(replay.trap.bug_id())
    if replayed_bugs != result.bugs:
        problems.append("reported bugs %r differ from the replayed crashes %r"
                        % (sorted(result.bugs), sorted(replayed_bugs)))
    if edge_cover(subject.program, queue_inputs, edge_instr) != set(result.edges):
        problems.append("final-queue edge replay differs from result.edges")
    outside = result.bugs - {bug.bug_id for bug in subject.bugs}
    return problems, verified, outside


def check_solve(subject, data, outcome, edge_instr):
    """Problems with one solve input, its verified and unflipped witness
    counts, and the edges the verified ones cover."""
    problems = []
    verified = []
    unflipped = 0
    limits = dict(instr_budget=subject.exec_instr_budget,
                  call_depth_limit=subject.call_depth_limit)
    _result, condition, flips = outcome
    for constraint, assignment, _stats in flips:
        if assignment is None:
            continue
        witness = apply_witness(data, assignment)
        byte_at = witness.__getitem__
        want = not constraint.taken_true
        value = eval_expr(constraint.expr, byte_at)
        if value is None or (value != 0) != want:
            problems.append("witness for constraint %d fails its own prediction"
                            % constraint.index)
            continue
        if any(c.holds(byte_at) is not True for c in condition.prefix(constraint.index)):
            problems.append("witness for constraint %d breaks a prefix constraint"
                            % constraint.index)
            continue
        _, replay = extract_path_condition(subject.program, witness, **limits)
        # A replay whose prefix diverged (an upstream branch fell to
        # concrete) has no aligned constraint and proves nothing.
        aligned = next((c for c in replay if c.index == constraint.index), None)
        if aligned is None or aligned.site != constraint.site:
            continue
        if aligned.taken_true == want:
            verified.append(witness)
        elif repr(aligned.expr) != repr(constraint.expr):
            # A constant the extractor folded in took another value on
            # the witness: the documented imprecision, not a wrong answer.
            unflipped += 1
        else:
            problems.append("witness for constraint %d did not flip %r"
                            % (constraint.index, constraint.site))
    edges = edge_cover(subject.program, verified, edge_instr,
                       instr_budget=subject.exec_instr_budget)
    return problems, len(verified), unflipped, edges
