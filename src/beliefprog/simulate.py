"""Monte Carlo execution of belief programs against sampled real worlds.

The simulator runs the online program: guards are evaluated on the agent's
progressed knowledge base while nature's outcomes are sampled from the
real-world likelihoods at the (hidden) current world.  It never asserts
verdicts; it reports estimates with a distribution-free (Hoeffding)
confidence half-width so checker results can be cross-validated.

Randomness is a counter-based Philox generator keyed by (seed, trial), so
individual trials are reproducible and order-independent.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .checker import obs_satisfies
from .errors import BeliefProgError
from .kb import (BREAKDOWN, action_likelihood, eval_fluent_formula,
                 initial_kb, next_observation, oi_alternatives, progress_kb,
                 progress_world, real_bat)
from .program_graph import build_graph, enabled
from .syntax import And, GloballyOp, Not, POp, UntilOp, XOp, print_program

_TWO64 = 2 ** 64


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed % _TWO64, trial % _TWO64]))


def sample_index(rng, weights) -> int:
    """Draw an index from exact rational weights summing to 1.

    The uniform draw is a 64-bit integer compared against exact cumulative
    fractions, so the choice itself involves no floating point.
    """
    return _sample_cum(rng, _cum_thresholds(weights))


def _cum_thresholds(weights):
    # outcome i is chosen iff r/2^64 < cum_i, tested as r*den < num<<64
    out = []
    cum = Fraction(0)
    for w in weights:
        cum += w
        out.append((cum.numerator << 64, cum.denominator))
    return out


def _sample_cum(rng, thresholds) -> int:
    r = int(rng.integers(0, _TWO64, dtype=np.uint64))
    for i, (num_shifted, den) in enumerate(thresholds):
        if r * den < num_shifted:
            return i
    return len(thresholds) - 1


@dataclass
class TraceRecord:
    world0: object
    actions: list
    kbs: list  # knowledge-base snapshots; len(kbs) == len(actions) + 1
    outcome: str  # final | fail | belief-breakdown | horizon-cut
    trace_likelihood: Fraction


class Strategy:
    FIRST_ENABLED = "first-enabled"
    UNIFORM_RANDOM = "uniform-random"


class TraceEngine:
    """Shared caches for repeated trials over one model.

    The reachable configuration space of a run is tiny compared to the
    trial count, so guard evaluation, knowledge-base progression, world
    progression, and real likelihood rows are all memoized.
    """

    def __init__(self, model, graph=None):
        self.model = model
        self.graph = graph or build_graph(model.program)
        self.rbat = real_bat(model)
        self.kb0 = initial_kb(model)
        self._enabled = {}
        self._kb_step = {}
        self._world_step = {}
        self._outcomes = {}
        self._beta = {}

    def enabled_at(self, node, kb):
        key = (node, kb)
        hit = self._enabled.get(key)
        if hit is None:
            hit = enabled(self.graph, node, kb)
            self._enabled[key] = hit
        return hit

    def progress(self, kb, action):
        key = (kb, action)
        hit = self._kb_step.get(key)
        if hit is None:
            hit = self._kb_step[key] = next_observation(kb, action, progress_kb)
        return hit

    def world_after(self, world, action):
        key = (world, action)
        hit = self._world_step.get(key)
        if hit is None:
            hit = progress_world(world, action, self.rbat)
            self._world_step[key] = hit
        return hit

    def real_outcomes(self, world, edge):
        """Really-possible ground outcomes of an edge's primitive program,
        with precomputed cumulative sampling thresholds."""
        key = (world, id(edge))
        hit = self._outcomes.get(key)
        if hit is None:
            prim = edge.prim
            alts = oi_alternatives(prim.symbol, prim.args, self.model)
            weighted = [(t, p) for t in alts
                        if (p := action_likelihood(t, world, self.rbat)) > 0]
            hit = (weighted, _cum_thresholds([p for _, p in weighted]))
            self._outcomes[key] = hit
        return hit

    def satisfies(self, obs, beta):
        key = (obs, id(beta))
        hit = self._beta.get(key)
        if hit is None:
            hit = obs_satisfies(obs, beta)
            self._beta[key] = hit
        return hit


def run_trace(model, world0, policy, horizon, seed=0, trial=0,
              graph=None, rng=None, engine=None) -> TraceRecord:
    """Execute one trace.  policy is "first-enabled", "uniform-random", or
    a map from canonical observation strings to action labels ("eps" stops).
    """
    if not all(eval_fluent_formula(c, world0) for c in model.init.constraints):
        raise BeliefProgError(f"initial world {world0!r} violates the "
                              "initial constraints")
    if isinstance(policy, str) and policy not in (Strategy.FIRST_ENABLED,
                                                  Strategy.UNIFORM_RANDOM):
        raise BeliefProgError(f"unknown strategy {policy!r}")
    engine = engine or TraceEngine(model, graph)
    rng = rng or trial_rng(seed, trial)
    kb = engine.kb0
    w = world0
    node = 0
    actions = []
    kbs = [kb]
    likelihood = Fraction(1)

    while len(actions) < horizon:
        live, is_final, is_failing = engine.enabled_at(node, kb)
        if is_failing:
            return TraceRecord(world0, actions, kbs, "fail", likelihood)
        edge = None
        if policy == Strategy.FIRST_ENABLED:
            if live:
                edge = live[0]
            else:
                return TraceRecord(world0, actions, kbs, "final", likelihood)
        elif policy == Strategy.UNIFORM_RANDOM:
            options = list(live) + (["stop"] if is_final else [])
            pick = options[int(rng.integers(0, len(options)))]
            if pick == "stop":
                return TraceRecord(world0, actions, kbs, "final", likelihood)
            edge = pick
        else:
            label = policy.get(kb.render())
            if label in (None, "eps"):
                if is_final:
                    return TraceRecord(world0, actions, kbs, "final", likelihood)
                if label is None and live:
                    edge = live[0]
                else:
                    raise BeliefProgError(
                        f"policy stops at a non-final observation {kb.render()}")
            else:
                edge = next((e for e in live
                             if print_program(e.prim) == label), None)
                if edge is None:
                    raise BeliefProgError(
                        f"policy action {label!r} is not enabled at {kb.render()}")
        if edge is None and is_final:
            return TraceRecord(world0, actions, kbs, "final", likelihood)

        weighted, thresholds = engine.real_outcomes(w, edge)
        if not weighted:
            raise BeliefProgError(
                f"{print_program(edge.prim)} has no really-possible outcome "
                f"at {w!r}")
        t, p = weighted[_sample_cum(rng, thresholds)]
        next_kb = engine.progress(kb, t)
        if next_kb is BREAKDOWN:
            return TraceRecord(world0, actions, kbs, "belief-breakdown",
                               likelihood)
        likelihood *= p
        w = engine.world_after(w, t)
        kb = next_kb
        actions.append(t)
        kbs.append(kb)
        node = edge.target

    return TraceRecord(world0, actions, kbs, "horizon-cut", likelihood)


# ---------------------------------------------------------------------------
# trace-formula evaluation on a finite record

def _state_at(record, i):
    """Observation at path position i, extending by the terminal convention:
    final/fail self-loop repeats the last knowledge base; anything beyond a
    breakdown or horizon cut satisfies no atom."""
    if i < len(record.kbs):
        return record.kbs[i]
    if record.outcome in ("final", "fail"):
        return record.kbs[-1]
    return BREAKDOWN


def eval_trace_formula(psi, record, engine=None) -> bool:
    n = len(record.kbs) - 1

    def truth(i, beta):
        return _satisfies_state(_state_at(record, i), beta, engine)

    if isinstance(psi, XOp):
        return truth(1, psi.arg)
    if isinstance(psi, UntilOp):
        # states repeat after final/fail, so positions past n add nothing
        limit = min(psi.bound, n) if psi.bound is not None else n
        for i in range(limit + 1):
            if truth(i, psi.right):
                return True
            if not truth(i, psi.left):
                return False
        return False
    if isinstance(psi, GloballyOp):
        # on a cut trace this is the prefix check only (an upper bound)
        return all(truth(i, psi.arg) for i in range(n + 1))
    raise TypeError(psi)


def _satisfies_state(obs, phi, engine):
    if isinstance(phi, POp):
        raise BeliefProgError("nested probability operators cannot be "
                              "estimated on a single trace")
    if isinstance(phi, Not):
        return not _satisfies_state(obs, phi.operand, engine)
    if isinstance(phi, And):
        return _satisfies_state(obs, phi.left, engine) and \
            _satisfies_state(obs, phi.right, engine)
    if engine is not None:
        return engine.satisfies(obs, phi)
    return obs_satisfies(obs, phi)


# ---------------------------------------------------------------------------
# estimation

@dataclass
class EstimateResult:
    estimate: float
    half_width: float  # 95% distribution-free (Hoeffding)
    successes: int
    trials: int
    horizon: int
    outcomes: dict = field(default_factory=dict)
    bounded: bool = True  # False when a horizon cutoff truncated the formula

    @property
    def interval(self):
        return (max(0.0, self.estimate - self.half_width),
                min(1.0, self.estimate + self.half_width))


def hoeffding_half_width(n, confidence=0.95) -> float:
    return math.sqrt(math.log(2 / (1 - confidence)) / (2 * n))


def estimate(model, psi, world0, policy, trials, seed, horizon,
             graph=None, engine=None) -> EstimateResult:
    """Fraction of sampled traces satisfying the trace formula."""
    engine = engine or TraceEngine(model, graph)
    successes = 0
    outcomes = {}
    for trial in range(trials):
        record = run_trace(model, world0, policy, horizon, seed=seed,
                           trial=trial, engine=engine)
        outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
        if eval_trace_formula(psi, record, engine):
            successes += 1
    bounded = not (isinstance(psi, GloballyOp)
                   or (isinstance(psi, UntilOp) and psi.bound is None))
    return EstimateResult(successes / trials, hoeffding_half_width(trials),
                          successes, trials, horizon, outcomes, bounded)
