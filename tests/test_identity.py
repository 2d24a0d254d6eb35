"""One digest over the outputs of the benchmark's instances: a change
that must not move any answer, rule or model order keeps it."""

import hashlib
import importlib.util
import os

from tasp import solver
from tasp.cli import Pipeline

WORKLOADS_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "benchmark", "workloads.py")


def _workloads():
    """benchmark/workloads.py, loaded by path and read only."""
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(w):
    """(text, semantics, n, model limit) of the identity set: TELEX n=6
    and 20 with all models and n=80 with the first, MELEX_SCALED n=3 with
    all and n=5 with the first, DEL_ALTERNATION n=6 and 8 with all, and
    the random-tel rounds of seeds 11 and 29."""
    yield w.TELEX, "tel", 6, 0
    yield w.TELEX, "tel", 20, 0
    yield w.TELEX, "tel", 80, 1
    yield w.MELEX_SCALED, "mel", 3, 0
    yield w.MELEX_SCALED, "mel", 5, 1
    yield w.DEL_ALTERNATION, "del", 6, 0
    yield w.DEL_ALTERNATION, "del", 8, 0
    for seed in (11, 29):
        for r in w.random_tel_requests(seed):
            yield r.text, r.semantics, r.n, r.limit


def test_identity_set_digest():
    # sha256 over the user and meta ground programs and each model's
    # sorted atoms in enumeration order, the same under PYTHONHASHSEED 0
    # and 123
    h = hashlib.sha256()
    for text, semantics, n, limit in _runs(_workloads()):
        p = Pipeline(text, semantics)
        mp = p.meta(n).program
        h.update(("%s\n%s\n" % (p.ground, mp)).encode())
        for m in solver.solve(mp, limit):
            h.update((" ".join(sorted(map(str, m.atoms))) + "\n").encode())
    assert h.hexdigest() == (
        "874d33e326915da67faa764f03f8bb036617d4d1163983975d81097cee0ed2fd")
