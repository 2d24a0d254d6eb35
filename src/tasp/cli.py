"""Command-line front end for the temporal ASP pipeline.

Subcommands intercept the pipeline at different stages:

  solve      parse -> typecheck -> transform -> ground -> reify ->
             meta-instantiate -> enumerate stable models -> print
  transform  print the program after the first-order transformations
  reify      print the reified fact database
  oracle     print the brute-force reference models

Exit status: 10 satisfiable, 20 unsatisfiable, 0 for non-solving
subcommands, 1 usage error, 65 input error.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from . import meta as meta_mod
from . import oracle as oracle_mod
from . import solver as solver_mod
from .grammar import (GrammarError, TheoryGrammar, TypeError_,
                      builtin_grammar, check_occurrence, load_grammar,
                      typecheck_program)
from .ground import Grounder, GroundingError
from .meta import MetaError
from .oracle import OracleError
from .parser import ParseError, parse_program
from .reify import ReifyError, emit_reified_text, reify
from .solver import SolverError
from .syntax import Constant, Integer
from .transform import UnsafeRuleError, transform_program

log = logging.getLogger("tasp")

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 65

INPUT_ERRORS = (ParseError, GrammarError, TypeError_, UnsafeRuleError,
                GroundingError, ReifyError, MetaError, OracleError,
                SolverError, OSError, ValueError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Programmatic pipeline (used by the CLI and by tests)


def make_grammar(semantics: str, grammar_files: Tuple[str, ...] = ()) \
        -> TheoryGrammar:
    g = builtin_grammar(semantics)
    for path in grammar_files:
        with open(path) as fh:
            g = g.union(load_grammar(fh.read()))
    return g


def run_pipeline(text: str, n: int, semantics: str = "tel",
                 constants: Optional[Dict[str, object]] = None,
                 max_time: Optional[int] = None,
                 grammar: Optional[TheoryGrammar] = None, limit: int = 0):
    """Full solve pipeline; returns (models, meta_program) where models
    is a deduplicated list of (states, tau) pairs in enumeration order,
    at most `limit` of them unless it is 0."""
    g = grammar if grammar is not None else builtin_grammar(semantics)
    typed = typecheck_program(parse_program(text), g)
    for diag in check_occurrence(typed, g):
        log.warning("%s", diag)
    transformed, show_all = transform_program(typed, g)
    ground_program = Grounder(transformed, constants or {}, g).ground()
    db = reify(ground_program, show_all)
    mp = meta_mod.build(db, n, semantics=semantics, max_time=max_time)
    return list(islice(distinct_traces(mp), limit or None)), mp


def distinct_traces(mp) -> Iterator[Tuple[tuple, Optional[tuple]]]:
    """The distinct (states, tau) traces of a meta program's stable
    models, pulled from the solver only as far as the caller iterates."""
    seen = set()
    for m in solver_mod.models(mp.program):
        trace = meta_mod.extract_model(mp, m.atoms)
        if trace not in seen:
            seen.add(trace)
            yield trace


# ---------------------------------------------------------------------------
# Printers


def format_model_default(index, states, tau) -> str:
    atoms = ["%s@%d" % (a, t) for t, state in enumerate(states)
             for a in sorted(state)]
    lines = ["Answer: %d" % index, " ".join(atoms)]
    if tau is not None:
        lines.append("tau: " + " ".join(str(v) for v in tau))
    return "\n".join(lines)


def format_model_temporal(index, states, tau) -> str:
    lines = ["Answer: %d" % index]
    for t, state in enumerate(states):
        header = "State %d:" % t
        if tau is not None:
            header = "State %d: tau=%d" % (t, tau[t])
        lines.append(header)
        for a in sorted(state):
            lines.append("  %s" % a)
    return "\n".join(lines)


PRINTERS = {"default": format_model_default,
            "temporal": format_model_temporal}


def _footer(count: int, elapsed: float, out, more: bool = False) -> None:
    """`more`: the search stopped at the model limit, so `count` is a
    lower bound (printed as "K+", as clingo does)."""
    print("%s\n" % ("SATISFIABLE" if count else "UNSATISFIABLE"), file=out)
    print("Models : %d%s" % (count, "+" if more else ""), file=out)
    print("Time   : %.3fs" % elapsed, file=out)


# ---------------------------------------------------------------------------
# Argument handling


def _build_parser() -> _Parser:
    parser = _Parser(prog="tasp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, solving: bool):
        p.add_argument("file", nargs="?", default=None,
                       help="input program (stdin when omitted)")
        p.add_argument("-c", "--const", action="append", default=[],
                       metavar="NAME=VALUE", dest="constants",
                       help="define a constant (e.g. -c n=2); repeatable")
        p.add_argument("--semantics", choices=("tel", "mel", "del"),
                       default=None, help="temporal logic (default tel)")
        p.add_argument("--grammar", action="append", default=[],
                       metavar="FILE", help="extra grammar file; repeatable")
        p.add_argument("--config", metavar="FILE", default=None,
                       help="flat key=value configuration file")
        p.add_argument("--log-level", default=None,
                       choices=("error", "warn", "info", "debug"))
        if solving:
            p.add_argument("--models", type=int, default=None, metavar="K",
                           help="print at most K models (0 = all)")
            p.add_argument("--max-time", type=int, default=None, metavar="M",
                           help="bound on the timing function (MEL)")

    p = sub.add_parser("solve", help="solve a temporal program")
    common(p, solving=True)
    p.add_argument("--printer", choices=("default", "temporal"), default=None)
    common(sub.add_parser("transform",
                          help="print the transformed program"), False)
    common(sub.add_parser("reify", help="print the reified facts"), False)
    common(sub.add_parser("oracle",
                          help="brute-force reference models"), True)
    return parser


_CONFIG_KEYS = {"semantics", "printer", "models", "max_time", "log_level"}


def _apply_config(args) -> None:
    if not args.config:
        return
    config_constants = []
    with open(args.config) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key=value"
                                 % (args.config, lineno))
            key, value = (s.strip() for s in line.split("=", 1))
            attr = key.replace("-", "_")
            if attr in _CONFIG_KEYS:
                if getattr(args, attr, None) is None:
                    if attr in ("models", "max_time"):
                        value = int(value)
                    setattr(args, attr, value)
            else:
                # unknown keys define program constants; explicit -c
                # flags are applied later and win
                config_constants.append("%s=%s" % (key, value))
    args.constants = config_constants + args.constants


def _parse_constants(pairs) -> Dict[str, object]:
    constants: Dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise _UsageError("bad constant %r (expected name=value)" % pair)
        name, value = pair.split("=", 1)
        name, value = name.strip(), value.strip()
        try:
            constants[name] = Integer(int(value))
        except ValueError:
            constants[name] = Constant(value)
    return constants


def _read_input(args) -> str:
    if args.file is None:
        return sys.stdin.read()
    with open(args.file) as fh:
        return fh.read()


def _setup_logging(args) -> None:
    level = {"error": logging.ERROR, "warn": logging.WARNING,
             "info": logging.INFO, "debug": logging.DEBUG}[
                 args.log_level or "warn"]
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s: %(message)s")
    log.setLevel(level)


# ---------------------------------------------------------------------------
# Subcommands


def _frontend(args, text: str):
    """Shared front half: grammar, parse, typecheck, transform."""
    semantics = args.semantics or "tel"
    g = make_grammar(semantics, tuple(args.grammar))
    typed = typecheck_program(parse_program(text), g)
    for diag in check_occurrence(typed, g):
        log.warning("%s", diag)
    return g, typed, semantics


def _horizon(constants: Dict[str, object]) -> int:
    n = constants.get("n", Integer(0))
    if not isinstance(n, Integer) or n.value < 0:
        raise ValueError("horizon n must be a non-negative integer")
    return n.value


def _cmd_solve(args, out) -> int:
    start = time.time()
    constants = _parse_constants(args.constants)
    limit = args.models or 0
    if limit < 0:
        raise _UsageError("--models must be 0 (all) or more")
    semantics = args.semantics or "tel"
    models, _ = run_pipeline(
        _read_input(args), _horizon(constants), semantics, constants,
        max_time=args.max_time,
        grammar=make_grammar(semantics, tuple(args.grammar)), limit=limit)
    printer = PRINTERS[args.printer or "default"]
    for i, (states, tau) in enumerate(models, 1):
        print(printer(i, states, tau), file=out)
    _footer(len(models), time.time() - start, out,
            more=0 < limit == len(models))
    return EXIT_SAT if models else EXIT_UNSAT


def _cmd_transform(args, out) -> int:
    text = _read_input(args)
    g, typed, _ = _frontend(args, text)
    transformed, _ = transform_program(typed, g)
    rendered = str(transformed)
    if rendered:
        print(rendered, file=out)
    return EXIT_OK


def _cmd_reify(args, out) -> int:
    constants = _parse_constants(args.constants)
    text = _read_input(args)
    g, typed, _ = _frontend(args, text)
    transformed, show_all = transform_program(typed, g)
    ground_program = Grounder(transformed, constants, g).ground()
    rendered = emit_reified_text(reify(ground_program, show_all))
    if rendered:
        print(rendered, file=out)
    return EXIT_OK


def _cmd_oracle(args, out) -> int:
    start = time.time()
    constants = _parse_constants(args.constants)
    text = _read_input(args)
    _, typed, semantics = _frontend(args, text)
    n = _horizon(constants)
    max_time = args.max_time
    if max_time is None and semantics == "mel":
        max_time = meta_mod.default_max_time(n)
    models = oracle_mod.temporal_models(typed, n, max_time=max_time)
    limit = args.models or 0
    for i, m in enumerate(models, 1):
        if limit and i > limit:
            break
        states = [frozenset(str(a) for a in s) for s in m.states]
        print(format_model_temporal(i, states, m.tau), file=out)
    _footer(len(models), time.time() - start, out)
    return EXIT_SAT if models else EXIT_UNSAT


COMMANDS = {"solve": _cmd_solve, "transform": _cmd_transform,
            "reify": _cmd_reify, "oracle": _cmd_oracle}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        _setup_logging(args)
        return COMMANDS[args.command](args, out)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
