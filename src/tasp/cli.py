"""Command-line front end for the temporal ASP pipeline.

Subcommands intercept the pipeline at different stages:

  solve      parse -> typecheck -> transform -> ground -> reify ->
             meta-instantiate -> enumerate stable models -> print
  transform  print the program after the first-order transformations
  reify      print the reified fact database
  oracle     print the brute-force reference models

Exit status: 10 satisfiable, 20 unsatisfiable, 0 for non-solving
subcommands, 1 usage error, 65 input error, 33 resource limit (solver
steps, grounder atoms or term depth, oracle candidates).
"""

from __future__ import annotations

import sys
import time
from collections.abc import Iterator
from functools import cached_property
from itertools import islice

from . import meta
from . import solver as solver_mod
from .grammar import (GrammarError, TheoryGrammar, TypeError_,
                      builtin_grammar, check_occurrence, check_operators,
                      load_grammar, typecheck_program)
from .ground import Grounder, GroundingError
from .meta import MetaError
from .parser import ParseError, parse_program
from .reify import ReifyError, emit_reified_text, reify
from .solver import SolverError
from .syntax import ConstDef, Constant, Integer, Program, ResourceLimit
from .transform import UnsafeRuleError, transform_program

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 65
EXIT_RESOURCE = 33

INPUT_ERRORS = (ParseError, GrammarError, TypeError_, UnsafeRuleError,
                GroundingError, ReifyError, MetaError, SolverError, OSError,
                ValueError)


def _input_errors() -> tuple:
    """INPUT_ERRORS, and the oracle's once `tasp oracle` has loaded it."""
    oracle = sys.modules.get(__package__ + ".oracle")
    return INPUT_ERRORS + (oracle.OracleError,) if oracle else INPUT_ERRORS


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Programmatic pipeline (used by the CLI and by tests)


class Pipeline:
    """The solve pipeline as stages, each computed on first use from the
    one before it: typed -> transformed -> ground -> db -> meta(n)."""

    def __init__(self, text: str, semantics: str = "tel",
                 constants: dict[str, object] | None = None,
                 grammar: TheoryGrammar | None = None):
        self.text = text
        self.semantics = semantics
        self.constants = constants or {}
        self.grammar = grammar if grammar is not None \
            else builtin_grammar(semantics)

    @cached_property
    def typed(self):
        """Parsed and typechecked, every expression where its type allows
        it to stand (else TypeError_)."""
        typed = typecheck_program(parse_program(self.text), self.grammar)
        check_occurrence(typed, self.grammar)
        return typed

    @cached_property
    def transformed(self):
        """(program, show_all) after the first-order transformations."""
        return transform_program(self.typed, self.grammar)

    @cached_property
    def ground(self):
        return Grounder(self.transformed[0], self.constants,
                        self.grammar).ground()

    @cached_property
    def db(self):
        return reify(self.ground, self.transformed[1])

    def meta(self, n: int, max_time: int | None = None):
        return meta.build(self.db, n, semantics=self.semantics,
                          max_time=max_time)


def run_pipeline(text: str, n: int, semantics: str = "tel",
                 constants: dict[str, object] | None = None,
                 max_time: int | None = None,
                 grammar: TheoryGrammar | None = None, limit: int = 0):
    """Full solve pipeline; returns (models, meta_program) where models
    is a deduplicated list of (states, tau) pairs in enumeration order,
    at most `limit` of them unless it is 0."""
    mp = Pipeline(text, semantics, constants, grammar).meta(n, max_time)
    return list(islice(distinct_traces(mp), limit or None)), mp


def distinct_traces(mp) -> Iterator[tuple[tuple, tuple | None]]:
    """The distinct (states, tau) traces of a meta program's stable
    models, pulled from the solver only as far as the caller iterates."""
    return _distinct(meta.extract_model(mp, m.atoms)
                     for m in solver_mod.models(mp.program))


def _distinct(traces) -> Iterator:
    seen = set()
    for trace in traces:
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


def _print_models(traces, printer, limit: int, start: float, out) -> int:
    """Print each of the first `limit` (states, tau) traces (all when 0)
    as it is found, then the footer.  A search stopped at the limit
    prints its count as "K+", as clingo does.  A resource limit raised
    by the search leaves the traces printed so far and no footer."""
    count = 0
    for count, (states, tau) in enumerate(islice(traces, limit or None), 1):
        print(printer(count, states, tau), file=out, flush=True)
    more = "+" if 0 < limit == count else ""
    print("%s\n" % ("SATISFIABLE" if count else "UNSATISFIABLE"), file=out)
    print("Models : %d%s" % (count, more), file=out)
    print("Time   : %.3fs" % (time.time() - start), file=out)
    return EXIT_SAT if count else EXIT_UNSAT


# ---------------------------------------------------------------------------
# Argument handling


def _build_parser():
    import argparse  # only the command line parses arguments

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    parser = Parser(prog="tasp", description=__doc__,
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


def _apply_config(args, parser) -> None:
    """Read the --config file: each key of _CONFIG_KEYS sets its flag's
    value unless the flag is given, and every other key defines a
    program constant.  A value is checked and converted by the flag
    itself, as solve's parser reads it."""
    if not args.config:
        return
    config_constants = []
    with open(args.config) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError("%s:%d: expected key=value"
                                  % (args.config, lineno))
            key, value = (s.strip() for s in line.split("=", 1))
            attr = key.replace("-", "_")
            if attr in _CONFIG_KEYS:
                try:
                    value = getattr(parser.parse_args(["solve", "--%s=%s" % (
                        attr.replace("_", "-"), value)]), attr)
                except _UsageError as exc:
                    raise _UsageError("%s:%d: %s" % (args.config, lineno, exc))
                if getattr(args, attr, None) is None:
                    setattr(args, attr, value)
            else:
                # unknown keys define program constants; explicit -c
                # flags are applied later and win
                config_constants.append("%s=%s" % (key, value))
    args.constants = config_constants + args.constants


def _parse_constants(pairs) -> dict[str, object]:
    constants: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise _UsageError("bad constant %r (expected name=value)" % pair)
        name, value = (s.strip() for s in pair.split("=", 1))
        try:
            constants[name] = Integer(int(value))
        except ValueError:
            constants[name] = Constant(value)
    return constants


def _pipeline(args) -> Pipeline:
    """The pipeline over the input program, with the builtin grammar of
    the chosen logic extended by every --grammar file, whose types may
    name those declared before them and whose expressions may only use
    the logic's operators (see grammar.check_operators)."""
    constants = _parse_constants(args.constants)
    semantics = args.semantics or "tel"
    if args.file is None:
        text = sys.stdin.read()
    else:
        with open(args.file) as fh:
            text = fh.read()
    g = logic = builtin_grammar(semantics)
    for path in args.grammar:
        with open(path) as fh:
            g = load_grammar(fh.read(), g)
        check_operators(g, logic)
    return Pipeline(text, semantics, constants, g)


def _limit(args) -> int:
    limit = args.models or 0
    if limit < 0:
        raise _UsageError("--models must be 0 (all) or more")
    return limit


def _setup_logging(args) -> None:
    import logging
    level = getattr(logging, (args.log_level or "warn").upper())
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s: %(message)s")
    logging.getLogger("tasp").setLevel(level)


# ---------------------------------------------------------------------------
# Subcommands


def _horizon(constants: dict[str, object]) -> int:
    n = constants.get("n", Integer(0))
    if not isinstance(n, Integer) or n.value < 0:
        raise ValueError("horizon n must be a non-negative integer")
    return n.value


def _cmd_solve(args, out) -> int:
    start = time.time()
    limit = _limit(args)
    p = _pipeline(args)
    traces = distinct_traces(p.meta(_horizon(p.constants), args.max_time))
    return _print_models(traces, PRINTERS[args.printer or "default"],
                         limit, start, out)


def _cmd_print(args, out) -> int:
    """`transform` prints the transformed program, `reify` the facts."""
    p = _pipeline(args)
    rendered = str(p.transformed[0]) if args.command == "transform" \
        else emit_reified_text(p.db)
    if rendered:
        print(rendered, file=out)
    return EXIT_OK


def _cmd_oracle(args, out) -> int:
    from .oracle import show_projection, temporal_models  # only used here
    start = time.time()
    limit = _limit(args)
    p = _pipeline(args)
    n = _horizon(p.constants)
    max_time = args.max_time
    if max_time is None and p.semantics == "mel":
        max_time = meta.default_max_time(n)
    # the -c values come last, so they win as in solve
    program = Program(p.typed.statements + tuple(
        ConstDef(name, value) for name, value in p.constants.items()))
    show = show_projection(program)
    traces = _distinct((show(m), m.tau) for m in temporal_models(
        program, n, max_time=max_time))
    return _print_models(traces, format_model_temporal, limit, start, out)


COMMANDS = {"solve": _cmd_solve, "transform": _cmd_print,
            "reify": _cmd_print, "oracle": _cmd_oracle}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args, parser)
        _setup_logging(args)
        return COMMANDS[args.command](args, out)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimit as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except _input_errors() as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    """The console entry point.  Its process is the command line's own,
    so it may tune the collector, which main leaves alone for callers."""
    import gc
    gc.freeze()
    gc.set_threshold(100_000)
    sys.exit(main())
