"""Corpus minimization (an ``afl-cmin`` analogue).

The paper notes its culling uses the favored-corpus construction because it
was "more efficient than using the afl-cmin queue minimization tool, for
equivalent results".  This module provides the afl-cmin-style alternative —
a two-pass greedy set cover that prefers the smallest input per coverage
index and processes rarest indices first — so the equivalence claim is
testable here too (see the culling ablation tests).
"""

from repro.coverage.feedback import EdgeFeedback
from repro.runtime.backend import make_backend


def corpus_traces(program, inputs, feedback=None, instr_budget=60_000, backend=None):
    """Each input's coverage-index set under ``feedback``, in input order.

    One backend replays them all: ``backend`` (culling passes its
    campaign's), else ``REPRO_BACKEND``.  Crashing and timed-out inputs
    trace as empty.
    """
    instrumentation = (feedback or EdgeFeedback()).instrument(program)
    run = make_backend(program, instrumentation, backend).execute
    traces = []
    for data in inputs:
        result = run(data, instr_budget=instr_budget)
        if result.crashed or result.timeout:
            traces.append(frozenset())
        else:
            traces.append(frozenset(result.hits))
    return traces


def cover_from_traces(inputs, traces):
    """afl-cmin's selection over already-traced ``inputs``.

    (1) for each coverage index keep the smallest input touching it;
    (2) walk indices from rarest to most common, greedily keeping each
    index's champion until everything is covered.  Returns the selected
    inputs in their original order.
    """
    index_owners = {}
    for position, trace in enumerate(traces):
        for idx in trace:
            index_owners.setdefault(idx, []).append(position)

    # Champion per index: smallest input, ties by earliest position.
    champion = {}
    for idx, owners in index_owners.items():
        champion[idx] = min(owners, key=lambda p: (len(inputs[p]), p))

    # Rarest-first greedy cover (afl-cmin's ordering heuristic).
    order = sorted(index_owners, key=lambda idx: (len(index_owners[idx]), idx))
    chosen = set()
    covered = set()
    for idx in order:
        if idx in covered:
            continue
        position = champion[idx]
        chosen.add(position)
        covered.update(traces[position])
    return [inputs[p] for p in sorted(chosen)]


def minimize_corpus(program, inputs, feedback=None, instr_budget=60_000):
    """Select a subset of ``inputs`` preserving their combined coverage.

    Mirrors afl-cmin: trace every input, then :func:`cover_from_traces`.
    """
    return cover_from_traces(
        inputs, corpus_traces(program, inputs, feedback, instr_budget)
    )


def coverage_of(program, inputs, feedback=None, instr_budget=60_000):
    """Combined coverage-index set of ``inputs`` under ``feedback``."""
    return set().union(*corpus_traces(program, inputs, feedback, instr_budget))
