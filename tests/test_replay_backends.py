"""Coverage replays agree across backends.

The end-of-campaign edge replay, culling's set cover and cmin replay a
corpus on one :func:`repro.runtime.backend.make_backend` backend: the
campaign's, else ``REPRO_BACKEND``.  The compiled backend must give each
of them exactly the interpreter's answer on clean, crashing and timed-out
inputs, and whole cull / opp campaigns must compare equal across backends.
"""

import random

import pytest

import repro.fuzzer.campaign as campaign_mod
import repro.fuzzer.cmin as cmin_mod
from repro.coverage.feedback import EdgeFeedback, PathFeedback
from repro.experiments.config import FUZZER_CONFIGS, run_config
from repro.fuzzer.campaign import replay_edge_coverage
from repro.fuzzer.cmin import coverage_of, minimize_corpus
from repro.fuzzer.mutators import havoc
from repro.runtime.backend import make_backend
from repro.strategies.culling import edge_preserving_subset
from repro.subjects import get_subject, subject_names

# Small enough that the longer inputs of every subject time out.
TINY_BUDGET = 60


def replay_inputs(subject, mutants=12, seed=7):
    """Seeds, seeded havoc mutants of them, and every census witness."""
    rng = random.Random(seed)
    inputs = list(subject.seeds)
    for _ in range(mutants):
        base = bytearray(rng.choice(subject.seeds))
        inputs.append(bytes(havoc(rng, base, subject.max_input_len)))
    return inputs + [bug.witness for bug in subject.bugs]


def replays(program, inputs, budget):
    """Every replay's answer, plus the raw per-input observables."""
    run = make_backend(program, EdgeFeedback().instrument(program)).execute
    raw = []
    for data in inputs:
        r = run(data, instr_budget=budget)
        raw.append((dict(r.hits), r.crashed, r.timeout, r.instr_count))
    return {
        "raw": raw,
        "replay_edge_coverage": replay_edge_coverage(program, inputs, budget),
        "edge_preserving_subset": edge_preserving_subset(program, inputs, budget),
        "minimize_corpus": [
            minimize_corpus(program, inputs, fb, budget)
            for fb in (EdgeFeedback(), PathFeedback())
        ],
        "coverage_of": [
            coverage_of(program, inputs, fb, budget)
            for fb in (EdgeFeedback(), PathFeedback())
        ],
    }


@pytest.mark.parametrize("subject_name", subject_names())
def test_replays_agree_across_backends(subject_name, monkeypatch):
    subject = get_subject(subject_name)
    inputs = replay_inputs(subject)
    ref = {}
    for budget in (subject.exec_instr_budget, TINY_BUDGET):
        monkeypatch.setenv("REPRO_BACKEND", "interp")
        ref[budget] = replays(subject.program, inputs, budget)
        monkeypatch.setenv("REPRO_BACKEND", "compile")
        got = replays(subject.program, inputs, budget)
        for name in got:
            assert got[name] == ref[budget][name], name
    # The inputs reach every filter: the witnesses crash at the subject's
    # budget and longer inputs time out at the tiny one.  Replays run at
    # the default call depth, deeper than some subjects' own limit, so a
    # stack-overflow witness may return instead.
    full, tiny = ref[subject.exec_instr_budget], ref[TINY_BUDGET]
    witnesses = full["raw"][len(inputs) - len(subject.bugs) :]
    for bug, (_, crashed, _, _) in zip(subject.bugs, witnesses):
        assert crashed or bug.bug_id[2] == "stack-overflow", bug
    assert any(timeout for _, _, timeout, _ in tiny["raw"])


@pytest.mark.parametrize("config_name", ("cull", "opp"))
def test_cull_and_opp_campaigns_equal_across_backends(config_name, monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    made = []

    def spy(*args, **kwargs):
        backend = make_backend(*args, **kwargs)
        made.append(backend.name)
        return backend

    # Replace the name only where the replays look it up, so the spy sees
    # replays alone and not the engine's own executors.
    for module in (campaign_mod, cmin_mod):
        monkeypatch.setattr(module, "make_backend", spy)
    subject = get_subject("gdk")
    spec = FUZZER_CONFIGS[config_name]
    results = {}
    for name in ("interp", "compile"):
        monkeypatch.setattr(spec, "engine_overrides", {"backend": name})
        del made[:]
        results[name] = run_config(subject, config_name, 3, 4_000_000)
        # The campaign's EngineConfig picks the replay backend, with
        # REPRO_BACKEND unset: culling replays each round, and every
        # campaign replays its final queue.
        assert made and set(made) == {name}, made
        if config_name == "cull":
            assert len(made) > 1, made
    assert results["compile"] == results["interp"]
