"""Verification and simulation toolkit for belief programs."""

__version__ = "0.1.0"

from .abstraction import (Abstraction, ProgramContext, TypeAssignment,
                          compute_types, ground_action_universe, horizon_of,
                          reps_auto, reps_from_init, reps_from_ranges)
from .checker import Verdict, check, enumerate_policies, probability
from .errors import (BeliefProgError, Diagnostic, EvalError,
                     IncompatibleActionError, IncompatibleSensingError,
                     InadmissiblePropertyError, LikelihoodContextError,
                     LikelihoodSumError, ObservationUniformityError,
                     ParseError, PolicyBudgetError, SequenceBudgetError,
                     StateBudgetError)
from .kb import (EPSILON, FAILURE, GroundAction, KnowledgeBase, World,
                 action_likelihood, believed_bat, eval_fluent_formula,
                 eval_subjective, initial_kb, make_world, oi_alternatives,
                 progress_kb, progress_world, real_bat, trace_likelihood)
from .pa import ProbAutomaton, encode, encode_text, oracle_accept_prob, soundness_check
from .parser import (model_digest, parse_ground_action, parse_model,
                     parse_trace_formula)
from .pomdp import ConfigTable, FinitePomdp, build_pomdp, pomdp_fingerprint
from .program_graph import CharGraph, build_graph, enabled
from .syntax import ModelFile, print_model, print_program, print_state_formula
from .validate import validate_restrictions

# the simulator needs numpy and verify never samples, so these load on
# first use (PEP 562)
_SIMULATE_NAMES = ("TraceRecord", "estimate", "eval_trace_formula", "run_trace")


def __getattr__(name):
    if name in _SIMULATE_NAMES:
        from . import simulate
        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
