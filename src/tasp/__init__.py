"""Temporal Answer Set Programming via meta-programming.

A compiler-and-solver toolkit for linear-time temporal equilibrium
logics: typed theory grammars, safety-driven external injection,
reification to a fact database, timed meta-encodings (plain, metric,
and dynamic variants), a stable-model solver, and an independent
brute-force oracle for cross-validation.
"""

from .grammar import (TheoryGrammar, builtin_grammar, load_grammar,
                      typecheck_program)
from .ground import Grounder, GroundProgram
from .meta import MetaProgram, build, default_max_time, extract_model
from .parser import parse_expression, parse_program
from .reify import ReifiedDB, emit_reified_text, isomorphic
from .solver import Model, solve
from .transform import transform_program

__version__ = "0.1.0"

#: The names of the oracle and the command line, and their modules:
#: imported on first access (PEP 562), as a solve needs neither.
_LAZY = dict.fromkeys(("oracle", "Trace", "eval_formula", "eval_path",
                       "temporal_models"), "oracle")
_LAZY.update(dict.fromkeys(("cli", "main", "run_pipeline"), "cli"))

__all__ = [
    "TheoryGrammar", "builtin_grammar", "load_grammar", "typecheck_program",
    "Grounder", "GroundProgram",
    "MetaProgram", "build", "default_max_time", "extract_model",
    "Trace", "eval_formula", "eval_path", "temporal_models",
    "parse_expression", "parse_program",
    "ReifiedDB", "emit_reified_text", "isomorphic",
    "Model", "solve",
    "transform_program", "main", "run_pipeline",
    "__version__",
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module 'tasp' has no attribute %r" % name)
    from importlib import import_module
    module = import_module("." + _LAZY[name], __name__)
    return module if name == _LAZY[name] else getattr(module, name)
