"""Verification and simulation toolkit for belief programs.

Each name below loads its module on first use (PEP 562), so
``import beliefprog`` loads no submodule: parsing a model never loads the
checker, and verify never loads numpy, which only the simulator needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "abstraction": ("Abstraction", "ProgramContext", "compute_types",
                    "ground_action_universe", "reps_auto", "reps_from_init",
                    "reps_from_ranges"),
    "checker": ("Verdict", "check", "horizon_of", "probability"),
    "errors": ("BeliefProgError", "Diagnostic", "EvalError",
               "IncompatibleActionError", "IncompatibleSensingError",
               "InadmissiblePropertyError", "LikelihoodContextError",
               "LikelihoodSumError", "ObservationUniformityError",
               "ParseError", "PolicyBudgetError", "SequenceBudgetError",
               "StateBudgetError", "TableBudgetError"),
    "kb": ("EPSILON", "FAILURE", "GroundAction", "KnowledgeBase", "World",
           "action_likelihood", "believed_bat", "eval_fluent_formula",
           "eval_subjective", "initial_kb", "make_world", "oi_alternatives",
           "progress_kb", "progress_world", "real_bat"),
    "pa": ("ProbAutomaton", "encode", "encode_text"),
    "parser": ("model_digest", "parse_ground_action", "parse_model",
               "parse_trace_formula"),
    "pomdp": ("ConfigTable", "FinitePomdp", "build_pomdp", "pomdp_fingerprint"),
    "program_graph": ("CharGraph", "build_graph", "enabled"),
    "simulate": ("TraceRecord", "estimate", "eval_trace_formula", "run_trace"),
    "syntax": ("ModelFile", "print_model", "print_program",
               "print_state_formula"),
    "validate": ("validate_restrictions",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
