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
from .oracle import Trace, eval_formula, eval_path, temporal_models
from .parser import parse_expression, parse_program
from .reify import ReifiedDB, emit_reified_text, isomorphic
from .solver import Model, solve
from .transform import transform_program
from .cli import main, run_pipeline

__version__ = "0.1.0"

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
