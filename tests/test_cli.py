import hashlib
import io

import pytest

from conftest import DEL_ALTERNATION, MELEX_SCALED, TELEX, timed_main
from test_parser import OVER_DEEP

from tasp import ground
from tasp.cli import Pipeline, main, run_pipeline


@pytest.fixture
def telex_file(tmp_path):
    f = tmp_path / "telex.lp"
    f.write_text(TELEX)
    return str(f)


def _run(argv, stdin=None, monkeypatch=None):
    out = io.StringIO()
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv, out=out)
    return code, out.getvalue()


def test_solve_satisfiable(telex_file):
    code, out = _run(["solve", telex_file, "--semantics", "tel",
                      "-c", "n=2", "--printer", "temporal"])
    assert code == 10
    assert "SATISFIABLE" in out and "UNSATISFIABLE" not in out
    block = out[out.index("State 2:"):]
    assert "green(l1)" in block
    assert "Models : 1" in out


def test_solve_unsatisfiable(telex_file):
    code, out = _run(["solve", telex_file, "-c", "n=0"])
    assert code == 20
    assert "UNSATISFIABLE" in out
    assert "Models : 0\n" in out


def test_default_printer_tags_states(telex_file):
    code, out = _run(["solve", telex_file, "-c", "n=2"])
    assert code == 10
    assert "green(l1)@2" in out and "push(l1)@1" in out


def test_models_limit(telex_file):
    code, out = _run(["solve", telex_file, "-c", "n=3", "--models", "1"])
    assert code == 10
    assert out.count("Answer:") == 1
    assert "Models : 1+" in out  # the search stopped at the limit


def test_models_limit_stops_search(monkeypatch):
    # Enumerating all 2^30 models would hit the step limit.
    code, out = _run(["solve", "-c", "n=0", "--models", "1"],
                     stdin="{ a(1..30) }.\n", monkeypatch=monkeypatch)
    assert code == 10
    assert out.count("Answer:") == 1
    assert "Models : 1+" in out


def test_run_pipeline_limit():
    every, _ = run_pipeline(TELEX, 3)
    first, _ = run_pipeline(TELEX, 3, limit=1)
    assert len(every) == 2 and first == every[:1]


def test_transform_prints_externals(telex_file):
    code, out = _run(["transform", telex_file])
    assert code == 0
    assert "#external push(l1)." in out


def test_reify_empty_input(monkeypatch):
    code, out = _run(["reify"], stdin="", monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == ""


def test_reify_emits_facts(telex_file):
    code, out = _run(["reify", telex_file])
    assert code == 0
    assert "rule(disjunction(" in out and "output(" in out


# sha256[:16] and line count of `tasp transform` / `tasp reify` output,
# recorded before the subcommands shared one pipeline; the reify values
# are those outputs less the empty line they used to end with.
PINNED_OUTPUT = [
    (TELEX, "tel", "transform", "e2b5ebbd6b95003d", 7),
    (TELEX, "tel", "reify", "16d1440c2964ab4b", 49),
    (MELEX_SCALED, "mel", "transform", "a178eea60cd609de", 7),
    (MELEX_SCALED, "mel", "reify", "9bb26fedab1ff7ba", 51),
    (DEL_ALTERNATION, "del", "transform", "1522a490696e7b2a", 5),
    (DEL_ALTERNATION, "del", "reify", "19c5af8f09d2db7f", 47),
]


@pytest.mark.parametrize("text,semantics,command,digest,lines", PINNED_OUTPUT,
                         ids=["tel-transform", "tel-reify", "mel-transform",
                              "mel-reify", "del-transform", "del-reify"])
def test_pinned_output(tmp_path, text, semantics, command, digest, lines):
    f = tmp_path / "p.lp"
    f.write_text(text)
    code, out = _run([command, str(f), "--semantics", semantics])
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_oracle_subcommand(telex_file):
    code, out = _run(["oracle", telex_file, "-c", "n=2"])
    assert code == 10
    assert "Models : 1" in out and "green(l1)" in out


def test_oracle_matches_solve(telex_file):
    _, solve_out = _run(["solve", telex_file, "-c", "n=2",
                         "--printer", "temporal"])
    _, oracle_out = _run(["oracle", telex_file, "-c", "n=2"])
    body = lambda s: [l for l in s.splitlines()
                      if l.startswith(("State", "  "))]
    assert body(solve_out) == body(oracle_out)


def test_oracle_rejects_negative_models_limit(monkeypatch):
    code, out = _run(["oracle", "-c", "n=0", "--models", "-1"],
                     stdin="a.\n", monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""


def test_oracle_models_limit_matches_solve(monkeypatch):
    # `{ a }.` has two models; both commands stop at the first.
    for command in ("solve", "oracle"):
        code, out = _run([command, "-c", "n=0", "--models", "1"],
                         stdin="{ a }.\n", monkeypatch=monkeypatch)
        assert code == 10
        assert out.count("Answer:") == 1
        assert "Models : 1+\n" in out


@pytest.mark.parametrize("text,semantics", [
    (TELEX, "tel"), (MELEX_SCALED, "mel"), (DEL_ALTERNATION, "del")],
    ids=["tel", "mel", "del"])
def test_reify_output_is_what_meta_grounds(tmp_path, text, semantics):
    f = tmp_path / "p.lp"
    f.write_text(text)
    code, out = _run(["reify", str(f), "--semantics", semantics])
    assert code == 0
    printed = [line for line in out.splitlines()
               if not line.startswith("show_")]
    assert printed
    facts = {"%s." % a
             for a in Pipeline(text, semantics).meta(2).program.facts}
    assert [line for line in printed if line not in facts] == []


def test_show_with_fact_condition(monkeypatch):
    # the grounder turns the show's marker rule into a fact
    text = "green(l1).\n#show state(L) : green(L).\n"
    code, out = _run(["solve", "-c", "n=0"], stdin=text,
                     monkeypatch=monkeypatch)
    assert code == 10
    assert "Answer: 1\nstate(l1)@0\n" in out
    code, out = _run(["reify"], stdin=text, monkeypatch=monkeypatch)
    assert "show_atom(state(l1),0)." in out.splitlines()
    assert "__show_term" not in out


def test_transform_output_independent_of_earlier_parses():
    text = "q :- p(_).\np(1).\n"
    first, second = (str(Pipeline(text).transformed[0]) for _ in range(2))
    assert first == second == "q :- p(_Anon1).\np(1)."


def test_mel_printer_includes_tau(tmp_path):
    f = tmp_path / "melex.lp"
    f.write_text(MELEX_SCALED)
    code, out = _run(["solve", str(f), "--semantics", "mel", "-c", "n=3",
                      "--max-time", "6", "--printer", "temporal",
                      "--models", "1"])
    assert code == 10
    assert "tau=0" in out


def test_usage_error_exit_1():
    assert main(["bogus"], out=io.StringIO()) == 1
    assert main(["solve", "-c", "broken"], out=io.StringIO()) == 1
    assert main(["solve", "--models", "-1"], out=io.StringIO()) == 1


def test_input_error_exit_65(tmp_path, monkeypatch):
    code, _ = _run(["solve", "-c", "n=0"], stdin="a :- b",
                   monkeypatch=monkeypatch)
    assert code == 65
    assert main(["solve", str(tmp_path / "missing.lp")],
                out=io.StringIO()) == 65


@pytest.mark.parametrize("shape", sorted(OVER_DEEP))
def test_over_deep_input_exit_65(shape, monkeypatch, capsys):
    code, _ = _run(["solve", "-c", "n=0"], stdin=OVER_DEEP[shape],
                   monkeypatch=monkeypatch)
    assert code == 65
    assert "nesting deeper than 100" in capsys.readouterr().err


@pytest.mark.parametrize("argv,text", [
    (["solve"], "{ a(1..30) }.\n"),                  # solver step limit
    (["solve"], "p(f(X)) :- p(X). p(a).\n"),         # grounder term depth
    (["oracle", "-c", "n=4"], "{ a; b; c; d; e }.\n"),  # oracle candidates
], ids=["steps", "depth", "candidates"])
def test_resource_limit_exit_33(argv, text, monkeypatch, capsys):
    code, _ = _run(argv, stdin=text, monkeypatch=monkeypatch)
    assert code == 33
    assert capsys.readouterr().err.startswith("resource limit: ")


def test_atom_bound_exit_33(monkeypatch, capsys):
    monkeypatch.setattr(ground, "MAX_ATOMS", 10)
    code, _ = _run(["solve"], stdin="p(1..20).\n", monkeypatch=monkeypatch)
    assert code == 33
    assert capsys.readouterr().err == (
        "resource limit: derivable-atom bound exceeded\n")


def test_stdin_input(monkeypatch):
    code, out = _run(["solve", "-c", "n=0"], stdin="a.\n",
                     monkeypatch=monkeypatch)
    assert code == 10
    assert "a@0" in out


def test_config_file(tmp_path, telex_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nsemantics = tel\nprinter = temporal\nn = 2\n")
    code, out = _run(["solve", telex_file, "--config", str(cfg)])
    assert code == 10
    assert "State 2:" in out


def test_config_does_not_override_flags(tmp_path, telex_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("printer = temporal\nn = 0\n")
    # explicit -c n=2 wins over the config constant? constants merge:
    # config adds n=0, flag adds n=2; the flag was given explicitly and
    # is applied last
    code, out = _run(["solve", telex_file, "-c", "n=2",
                      "--config", str(cfg)])
    assert code == 10


def test_grammar_file_flag(tmp_path):
    g = tmp_path / "extra.lp"
    g.write_text("#type weight { expressions: &w(unsafe number); }\n")
    f = tmp_path / "p.lp"
    f.write_text("a.\n")
    code, out = _run(["solve", str(f), "--grammar", str(g), "-c", "n=0"])
    assert code == 10


def test_deep_subtype_chain_grammar_file(tmp_path):
    # a 1,200-type subtype chain: the subtype searches do not recurse
    g = tmp_path / "deep.lp"
    g.write_text("".join("#type t%d { subtypes: t%d; }\n" % (i, i + 1)
                         for i in range(1199))
                 + "#type t1199 { subtypes: atom; }\n")
    f = tmp_path / "a.lp"
    f.write_text("a.\n")
    code, out = _run(["solve", str(f), "--grammar", str(g), "-c", "n=0"])
    assert code == 10
    assert "a@0" in out


@pytest.mark.parametrize("text,n,code", [
    # nesting the user wrote is not invented: the bound counts from it
    ("p(%sa%s).\n" % ("f(" * 15, ")" * 15), 0, 10),
    ("{ p }. a :- %sp%s.\n" % ("&next(" * 16, ")" * 16), 20, 10),
    # invented nesting still meets the bound
    ("p(a). p(f(X)) :- p(X).\n", 0, 33),
], ids=["written-term", "written-expression", "invented"])
def test_term_depth_bound_counts_from_the_input(text, n, code, monkeypatch):
    assert _run(["solve", "-c", "n=%d" % n, "--models", "1"], stdin=text,
                monkeypatch=monkeypatch)[0] == code


@pytest.mark.parametrize("text,code", [
    # a bound = against an interval reads its two bounds
    ("q(5). p(X) :- q(X), X = 1..1000000000.\n", 10),
    # a head interval past MAX_ATOMS meets the atom bound before expanding
    ("p(1..1000000000).\n", 33),
    ("#external p(1..1000000000).\n", 33),
], ids=["comparison", "head", "external"])
def test_huge_intervals_are_not_built(text, code):
    status, seconds = timed_main(["solve", "-c", "n=0", "--models", "1"],
                                 text, timeout=20)
    assert status == code and seconds < 1


@pytest.mark.parametrize("op", ["next", "eventually"])
def test_mel_macro_typechecks_in_linear_time(op):
    # each level of &next(F) := &next(&i(0,#sup),F) checked F twice
    text = "a :- %sp%s.\n" % (("&%s(" % op) * 100, ")" * 100)
    status, seconds = timed_main(["transform", "--semantics", "mel"], text,
                                 timeout=20)
    assert status == 0 and seconds < 1
