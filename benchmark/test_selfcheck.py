"""Self-tests of the benchmark: seeded inputs, answer checks and the
metric names it prints."""

import json
import os
import re

import run  # puts the tasp sources on sys.path
import calib
import tracing
import workloads

BENCHMARK_JSON = os.path.join(run.HERE, os.pardir, "BENCHMARK.json")


def test_random_programs_are_deterministic_per_seed():
    first = workloads.random_tel_requests(7)
    assert first == workloads.random_tel_requests(7)
    assert len(first) == workloads.RANDOM_PROGRAMS
    assert first != workloads.random_tel_requests(8)


def _perturbations(models):
    """Model sets that differ from `models` by one model or one atom."""
    models = sorted(models, key=repr)
    states, tau = models[0]
    yield frozenset(models[1:])
    yield frozenset(models) | {(states[:-1] + (states[-1] | {"x"},), tau)}
    moved = (states[0] | {"x"},) + states[1:]
    yield frozenset([(moved, tau)] + models[1:])


def test_stored_references_catch_perturbed_answers():
    for name in workloads.STORED:
        req = workloads.STORED[name]
        (check,) = workloads.checkers(name, [req])
        expected = workloads.load_stored(name)
        assert check(set(expected))
        for wrong in _perturbations(expected):
            assert not check(set(wrong)), name


def test_random_references_catch_perturbed_answers():
    reqs = [r for r in workloads.random_tel_requests(3)[:40]
            if workloads.oracle_models(r)][:5]
    assert reqs
    for req, check in zip(reqs, workloads.checkers("random-tel", reqs)):
        expected = workloads.oracle_models(req)
        assert check(set(expected))
        for wrong in _perturbations(expected):
            assert not check(set(wrong))


def test_trace_check_catches_perturbed_trace():
    (check,) = workloads.checkers("mel-first", [workloads.MEL_FIRST])
    base = frozenset({"light(l1)", "red(l1)"})
    green = frozenset({"light(l1)", "green(l1)"})
    states = (base, base | {"push(l1)"}, base, green, base, base)
    # green at state 3 lies 2 time units after state 2, inside [2,4)
    assert check({(states, (0, 1, 2, 4, 5, 6))})
    assert not check({(states, (0, 1, 2, 6, 7, 8))})    # outside the window
    assert not check({(states, (0, 1, 2, 4, 5, 25))})   # beyond max time
    extra = states[:4] + (base | {"green(l1)"},) + states[5:]
    assert not check({(extra, (0, 1, 2, 4, 5, 6))})     # unsupported atom
    assert not check(set())                             # no model found


def _printed_metrics(capsys, trace):
    req = workloads.Request(workloads.TELEX, 2, "tel", 0)
    tally, tracer = run.Tally(), tracing.Tracer()
    with calib.Probe() as probe:
        rnd = run.run_round([req], [lambda answer: len(answer) == 1], 1,
                            tracer, tally, probe)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 0, 0)
    if trace:
        metrics = run.per_layer_metrics([(rnd, tracer)], [(1.0, 1.1)], [0.1])
    else:
        metrics = run.end_to_end_metrics([rnd], [(0.1, 1.0)], 20000)
    run.report("tel-search", 1, trace, tally, metrics, [])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result["metrics"]


def test_printed_metric_names_are_declared(capsys):
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = _printed_metrics(capsys, trace)
        assert set(printed) == set(declared), section
        for name, value in printed.items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            assert value["unit"] == declared[name]
