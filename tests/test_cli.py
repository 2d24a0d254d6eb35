import hashlib
import io
import os
import subprocess
import sys

import pytest

from conftest import DEL_ALTERNATION, MELEX_SCALED, TELEX, timed_main
from test_parser import OVER_DEEP

import tasp
from tasp import ground, solver
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
# are those outputs less the empty line they used to end with.  del's
# reify value was recorded again when the DEL grammar typed the arguments
# of &not, &next and unary &eventually as del (two formula/2 types).  The
# reify values were recorded again when reified expressions kept their &
# (the same outputs with each & taken out).
PINNED_OUTPUT = [
    (TELEX, "tel", "transform", "e2b5ebbd6b95003d", 7),
    (TELEX, "tel", "reify", "d4efe7b1ffe7f8a1", 49),
    (MELEX_SCALED, "mel", "transform", "a178eea60cd609de", 7),
    (MELEX_SCALED, "mel", "reify", "7ec101523dfa649b", 51),
    (DEL_ALTERNATION, "del", "transform", "1522a490696e7b2a", 5),
    (DEL_ALTERNATION, "del", "reify", "9785eac6bf574b95", 47),
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


@pytest.mark.parametrize("text", [
    "p(1..2).\n", "q(X) :- X = 1..2.\n", "a :- &next(p(1..2)).\n"],
    ids=["head", "comparison", "expression"])
def test_oracle_rejects_intervals_by_name(text, monkeypatch, capsys):
    # the oracle does not expand intervals, and names them as it names
    # the conditional literals it does not expand
    code, out = _run(["oracle", "-c", "n=0"], stdin=text,
                     monkeypatch=monkeypatch)
    assert (code, out) == (65, "")
    assert "intervals unsupported by the oracle" in capsys.readouterr().err


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
    facts = {"%s." % (a,)
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
    assert "&show_term" not in out


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


MEL_SMALL = "{ a }.\nb :- &next(&i(1,3),a).\n"


def test_mel_default_printer_includes_tau(monkeypatch):
    code, out = _run(["solve", "--semantics", "mel", "-c", "n=1",
                      "--models", "1"], stdin=MEL_SMALL,
                     monkeypatch=monkeypatch)
    assert code == 10
    assert out.splitlines()[2].startswith("tau: 0 ")


def test_mel_oracle_takes_the_default_max_time(monkeypatch):
    def answers(argv):
        code, out = _run(argv + ["--semantics", "mel", "-c", "n=1"],
                         stdin=MEL_SMALL, monkeypatch=monkeypatch)
        assert code == 10
        return {tuple(l for l in block.splitlines()
                      if l.startswith(("State", "  ")))
                for block in out.split("Answer: ")[1:]}
    oracle = answers(["oracle"])
    assert oracle == answers(["solve", "--printer", "temporal"])
    assert len(oracle) == 32  # tau(1) takes each of 1..8


def test_models_print_as_found_until_a_resource_limit(monkeypatch, capsys):
    # 5,000 steps find some of DEL_ALTERNATION's 256 models at n=6; those
    # stay printed, with no verdict or footer after them
    monkeypatch.setattr(solver, "DEFAULT_STEP_LIMIT", 5_000)
    code, out = _run(["solve", "--semantics", "del", "-c", "n=6",
                      "--models", "0"], stdin=DEL_ALTERNATION,
                     monkeypatch=monkeypatch)
    assert code == 33
    found = out.count("Answer:")
    assert 0 < found < 256 and "Answer: %d\n" % found in out
    assert "SATISFIABLE" not in out and "Models" not in out
    assert capsys.readouterr().err.startswith("resource limit: ")


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


@pytest.mark.parametrize("text", [
    "q(1). a :- &next(p(X)) : &eventually(q(X)).",
    "q(1). { a : &eventually(q(1)) }.",
], ids=["conditional-literal", "head-element"])
def test_expression_in_a_condition_exit_65(text, monkeypatch, capsys):
    # read as a domain atom that nothing derives, the condition would
    # expand to nothing: the literal would hold vacuously, the element
    # would be dropped
    code, out = _run(["solve", "-c", "n=1"], stdin=text,
                     monkeypatch=monkeypatch)
    assert code == 65 and not out
    err = capsys.readouterr().err
    assert err.startswith("error: 1:7: expression &eventually(q("), err
    assert err.endswith(" not allowed in condition position\n"), err


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


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tasp.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "tasp", "solve", "-c", "n=0"], input="a.\n",
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 10
    assert "a@0" in done.stdout


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


@pytest.mark.parametrize("line", [
    "semantics = foo", "printer = foo", "log_level = foo", "log-level = foo",
    "models = x", "max_time = 1.5"])
@pytest.mark.parametrize("command", ["solve", "oracle", "reify"])
def test_bad_config_value_is_a_usage_error(command, line, tmp_path,
                                           telex_file, capsys):
    # checked against the flag's own choices and type, in every
    # subcommand, even where the flag is given or does not apply
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nn = 1\n%s\n" % line)
    code, out = _run([command, telex_file, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err.startswith("usage error: %s:3: argument --" % cfg)
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "oracle", "reify"])
def test_config_line_without_value_is_a_usage_error(command, tmp_path,
                                                    telex_file, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 1\nsemantics\n")
    code, out = _run([command, telex_file, "--config", str(cfg)])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err \
        == "usage error: %s:2: expected key=value\n" % cfg


def test_grammar_file_flag(tmp_path):
    # a file may name a new operator as a macro over the logic's own
    g = tmp_path / "extra.lp"
    g.write_text("#type weight { subtypes: tel; macros: "
                 "&w(F) := &next(F) where F : tel; }\n")
    f = tmp_path / "p.lp"
    f.write_text("a.\n")
    code, out = _run(["solve", str(f), "--grammar", str(g), "-c", "n=0"])
    assert code == 10


@pytest.mark.parametrize("grammar,message", [
    ("#type w { occurrence: head; expressions: &w(unsafe tel); }",
     "operator &w/1 of type 'w'"),
    ("#type weight { expressions: &w(unsafe number); }",
     "operator &w/1 of type 'weight'"),
    # a builtin name at another arity is another operator
    ("#type n2 { subtypes: tel; occurrence: any; "
     "expressions: &next(safe tel, safe tel); }",
     "operator &next/2 of type 'n2'"),
])
def test_grammar_operator_without_meaning_exit_65(grammar, message, tmp_path,
                                                   capsys):
    # neither the meta encoding nor the oracle knows &w/1: solve printed
    # 4 models and the oracle stopped after one with "unknown operator"
    g = tmp_path / "w.lp"
    g.write_text(grammar + "\n")
    f = tmp_path / "p.lp"
    f.write_text("{ b }. &w(&next(b)) :- b.\n")
    for command in ("solve", "oracle"):
        code, out = _run([command, str(f), "--grammar", str(g), "-c", "n=1"])
        assert code == 65 and not out
        assert capsys.readouterr().err == (
            "error: %s is not an operator of the logic; only a macro may "
            "name a new one\n" % message)


@pytest.mark.parametrize("text", [
    "{ g }.\n#show s : g.\n",
    "{ a; b }.\n#show a/0.\n",
    "{ p(1); p(2) }. q(X) :- p(X), not &next(p(X)).\n#show q/1.\n"
    "#show r(X) : p(X), not q(X).\n",
    "{ a }. b :- &eventually(a).\n#show.\n",
    "{ a }. b :- &eventually(a).\n#show.\n#show c : b, not a.\n",
    "{ p(1); p(2); p(3) }.\n#show X+1 : p(X), X > 1.\n",
], ids=["term", "signature", "both", "none", "bare-and-term",
        "arithmetic"])
def test_oracle_shows_what_solve_shows(text, monkeypatch):
    # the oracle printed every atom: g where solve prints s@0
    argv = ["-c", "n=1"]
    solved = _traces(["solve", "--printer", "temporal"] + argv, text,
                     monkeypatch)
    assert solved == _traces(["oracle"] + argv, text, monkeypatch)


def test_oracle_shows_a_term_where_its_condition_holds(monkeypatch):
    code, out = _run(["oracle", "-c", "n=0"], stdin="{ g }.\n#show s : g.\n",
                     monkeypatch=monkeypatch)
    assert code == 10
    assert [l for l in out.splitlines() if l.startswith("  ")] == ["  s"]


def _traces(command, text, monkeypatch):
    """The set of traces a solve or oracle command prints, each as its
    State and atom lines."""
    code, out = _run(command, stdin=text, monkeypatch=monkeypatch)
    assert code == 10
    return {tuple(l for l in block.splitlines()
                  if l.startswith(("State", "  ")))
            for block in out.split("Answer: ")[1:]}


def test_grammar_file_extends_a_builtin_type(tmp_path, monkeypatch):
    # the file's type names the builtin tel, and solve and the oracle
    # read the macro alike
    g = tmp_path / "ltl.lp"
    g.write_text("#type ltl { subtypes: tel; occurrence: any; macros: "
                 "&always(F) := &not(&eventually(&not(F))) where F : tel; }\n")
    text = "{ a }. { b }. :- &initial, not &always(a). c :- &always(b).\n"
    argv = ["--grammar", str(g), "-c", "n=1"]
    solved = _traces(["solve", "--printer", "temporal"] + argv, text,
                     monkeypatch)
    assert len(solved) == 4
    assert solved == _traces(["oracle"] + argv, text, monkeypatch)


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
    # an interval in an order comparison is rejected from its bounds
    ("q(1). p :- q(X), X < 1..1000000000.\n", 65),
    # an assignment past MAX_ATOMS values meets the atom bound before
    # expanding, alone or after a scan
    ("p(X) :- X = 1..1000000000.\n", 33),
    ("q(1). p(X,Y) :- q(X), Y = 1..1000000000.\n", 33),
    # a bound = against a function with an interval argument is tested
    # argument by argument: no match, and a match that the answer needs
    ("q(1). p :- q(X), X = f(1..1000000000).\n", 10),
    ("q(f(2)). p :- q(X), X = f(1..1000000000). :- not p.\n", 10),
], ids=["comparison", "head", "external", "order-comparison", "assignment",
        "assignment-after-scan", "nested-comparison", "nested-member"])
def test_huge_intervals_are_not_built(text, code):
    status, seconds = timed_main(["solve", "-c", "n=0", "--models", "1"],
                                 text, timeout=20)
    assert status == code and seconds < 1


def test_integer_growth_stops_at_the_integer_bound():
    # X*X passes 2^63 in the sixth round: a resource limit, where the
    # integers used to grow until memory ran out
    status, _ = timed_main(["solve", "-c", "n=0"],
                           "p(2). { p(X*X) } :- p(X).\n", timeout=20)
    assert status == 33


def test_oracle_counts_timings_before_building_them():
    # C(52,12), about 2.1e11 timings at the default max-time 52: over the
    # candidate bound from their count, before any is built
    status, seconds = timed_main(
        ["oracle", "--semantics", "mel", "-c", "n=12"],
        "a :- &next(&eventually(&i(1,3),b)).\n", timeout=20)
    assert status == 33 and seconds < 1


@pytest.mark.parametrize("text", [
    "p(&next(a)).", "q(1). a :- q(X), X = &next(b).", "#show &next(a).",
    "#const k = &true. p(k).", "&next(p(&next(a))).",
], ids=["atom", "comparison", "show", "const", "atom-in-expression"])
def test_expression_in_a_term_exit_65(text, monkeypatch, capsys):
    # the parser reads an expression wherever a term may stand, as
    # reified facts hold them; in a user's term it is a type error
    code, out = _run(["solve", "-c", "n=1"], stdin=text,
                     monkeypatch=monkeypatch)
    assert code == 65 and not out
    assert capsys.readouterr().err.endswith(" in term position\n")


@pytest.mark.parametrize("semantics,text,message", [
    ("del", "a :- &step.", "1:1: expression &step of type 'path' not "
     "allowed in body position"),
    ("del", "&step :- b. { b }.", "1:1: expression &step of type 'path' "
     "not allowed in head position"),
    ("mel", "{ b }. a :- &i(1,2).", "1:8: expression &i(1,2) of type "
     "'interval' not allowed in body position"),
], ids=["del-body", "del-head", "mel-body"])
def test_misplaced_expression_exit_65(semantics, text, message,
                                      monkeypatch, capsys):
    # an argument-only type stands at no top-level position, under solve
    # and the oracle alike
    for command in ("solve", "oracle"):
        code, out = _run([command, "--semantics", semantics, "-c", "n=1"],
                         stdin=text + "\n", monkeypatch=monkeypatch)
        assert code == 65 and not out
        assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("text,argv,atoms", [
    ("#const a=b. #const b=c. #const c=1. { p(a); q }. r(k) :- q.\n",
     ["-c", "k=2"], {"p(1)", "q", "r(2)"}),
    ("#const c=1. #const b=c. #const a=b. { p(a); q }. r(k) :- q.\n",
     ["-c", "k=2"], {"p(1)", "q", "r(2)"}),
    ("#const a=1. p(a). q(k).\n", ["-c", "k=2"], {"p(1)", "q(2)"}),
    # -c overrides #const, also within a chain
    ("#const a=b. #const b=c. #const c=1. p(a).\n", ["-c", "c=3"],
     {"p(3)"}),
], ids=["chain", "reversed-chain", "option", "option-in-chain"])
def test_constants_resolve_alike_under_solve_and_oracle(text, argv, atoms,
                                                       monkeypatch):
    def traces(command):
        code, out = _run(command + ["-c", "n=1"] + argv, stdin=text,
                         monkeypatch=monkeypatch)
        assert code == 10
        return {tuple(l for l in block.splitlines()
                      if l.startswith(("State", "  ")))
                for block in out.split("Answer: ")[1:]}
    solved = traces(["solve", "--printer", "temporal"])
    assert solved == traces(["oracle"])
    assert {l.strip() for trace in solved for l in trace} - {
        "State 0:", "State 1:"} == atoms


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_cyclic_constants_are_an_input_error(command, monkeypatch, capsys):
    code, _ = _run([command, "-c", "n=0"],
                   stdin="#const a=b. #const b=a. p(a).\n",
                   monkeypatch=monkeypatch)
    assert code == 65
    assert capsys.readouterr().err.startswith("error: #const a ")


@pytest.mark.parametrize("op", ["next", "eventually"])
def test_mel_macro_typechecks_in_linear_time(op):
    # each level of &next(F) := &next(&i(0,#sup),F) checked F twice
    text = "a :- %sp%s.\n" % (("&%s(" % op) * 100, ")" * 100)
    status, seconds = timed_main(["transform", "--semantics", "mel"], text,
                                 timeout=20)
    assert status == 0 and seconds < 1


@pytest.mark.parametrize("argv,text,code,printed", [
    # the horizon interval of the meta-encoding, and a head interval
    (["-c", "n=99999999999999999999"], "{ a }.\n", 33,
     "resource limit: derivable-atom bound exceeded\n"),
    ([], "p(1..99999999999999999999).\n", 33,
     "resource limit: derivable-atom bound exceeded\n"),
    # an assignment's interval is tested by its bounds
    ([], "q(5). p :- q(X), X = 1..99999999999999999999.\n", 10, "p@0"),
], ids=["horizon", "head", "comparison"])
def test_intervals_longer_than_maxsize(argv, text, code, printed,
                                       monkeypatch, capsys):
    status, out = _run(["solve", *argv], stdin=text, monkeypatch=monkeypatch)
    assert status == code
    if code == 33:
        assert capsys.readouterr().err == printed
    else:
        assert printed in out.split()


def _python_s(*args, stdin=""):
    """Run python -S (no site-packages) with tasp importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tasp.__file__)))
    return subprocess.run(
        [sys.executable, "-S", *args], input=stdin,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)


def test_warnings_print_as_before_without_logging_configured():
    cli = _python_s("-m", "tasp", "solve", "-c", "n=0", stdin="p(1/0).")
    assert cli.returncode == 10
    assert cli.stderr == "WARNING: division by zero, dropping instance\n"
    library = _python_s(
        "-c", "import sys\nfrom tasp.cli import Pipeline\n"
        "assert 'logging' not in sys.modules\n"
        "Pipeline('p(1/0).').ground\n")
    assert library.returncode == 0
    assert library.stderr == "division by zero, dropping instance\n"


def test_debug_lines_print_with_log_level_debug():
    done = _python_s("-m", "tasp", "solve", "-c", "n=1", "--log-level",
                     "debug", stdin="{ a }.")
    assert done.returncode == 10
    kinds = [line.split(":")[1].strip() for line in done.stderr.splitlines()]
    assert kinds == ["ground", "ground", "solve"]
    assert all(line.startswith("DEBUG: ") for line in done.stderr.splitlines())


_START_UP = """\
import runpy, sys
import tasp
for s in ("tel", "mel", "del"):
    tasp.builtin_grammar(s)
UNUSED = ("dataclasses", "logging", "argparse", "tasp.oracle")
print([m for m in UNUSED if m in sys.modules], file=sys.stderr)
sys.argv = ["tasp", "solve", "-c", "n=1"]
try:
    runpy.run_module("tasp", run_name="__main__")
except SystemExit as exc:
    print(exc.code, "tasp.oracle" in sys.modules, file=sys.stderr)
"""


def test_import_loads_only_what_a_solve_uses():
    # the oracle, the command line, dataclasses and logging load on first
    # use; a one-shot solve imports argparse and logging, not the oracle
    done = _python_s("-c", _START_UP, stdin="{ a }.\n")
    assert done.stderr.splitlines() == ["[]", "10 False"]
    assert "Models : 4" in done.stdout
