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
from itertools import chain

import numpy as np

from .checker import decision_depth, obs_satisfies, trace_verdict
from .errors import BeliefProgError
from .kb import (BREAKDOWN, eval_fluent_formula, initial_kb,
                 next_observation, progress_kb, real_bat)
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


class _Config:
    """One entry of the configuration table: a trace at a program node with
    an observation, in a real world.  The enabled edges are filled when a
    trace first stands here with steps left; each edge's move when it is
    first chosen here."""

    __slots__ = ("node", "obs", "world", "live", "is_final", "is_failing",
                 "moves", "rendered", "labels")

    def __init__(self, node, obs, world):
        self.node = node
        self.obs = obs
        self.world = world
        self.live = None  # enabled edges, once filled
        self.is_final = self.is_failing = False
        self.moves = None  # per live edge: _Move or None
        # for policy maps: obs.render() and the live edges' labels
        self.rendered = self.labels = None


class _Move:
    """An enabled edge taken from one configuration: its really-possible
    ground outcomes, their cumulative cut-offs and their successor entries
    (a _Config, BREAKDOWN, or None until first drawn)."""

    __slots__ = ("edge", "outcomes", "cuts", "succ")

    def __init__(self, edge, outcomes, cuts):
        self.edge = edge
        self.outcomes = outcomes  # ((ground action, real likelihood), ...)
        self.cuts = cuts  # _cum_thresholds of the likelihoods
        self.succ = [None] * len(outcomes)


class TraceEngine:
    """The configuration table of repeated trials over one model.

    A configuration is (node, observation, world).  run_trace walks the
    table, keyed by configuration, and fills a missing entry through the
    five methods below; world steps and knowledge-base progressions are
    memoised in the real and believed Bat, so each is taken once per
    engine.
    """

    def __init__(self, model):
        self.model = model
        self.graph = build_graph(model.program)
        self.rbat = real_bat(model)
        self.kb0 = initial_kb(model)
        self._enabled = {}
        self._beta = {}
        self._configs = {}  # (node, observation, world) -> _Config
        self._admitted = None  # the last trace formula admit accepted

    def enabled_at(self, node, kb):
        key = (node, kb)
        hit = self._enabled.get(key)
        if hit is None:
            hit = enabled(self.graph, node, kb)
            self._enabled[key] = hit
        return hit

    def progress(self, kb, action):
        return next_observation(kb, action, progress_kb)

    def world_after(self, world, action):
        return self.rbat.step(world, action)[1]

    def real_outcomes(self, world, edge):
        """Really-possible ground outcomes of an edge's primitive program,
        with cumulative sampling thresholds."""
        prim = edge.prim
        weighted = self.rbat.branches(world, prim.symbol, prim.args)
        return weighted, _cum_thresholds([p for _, p in weighted])

    def satisfies(self, obs, beta):
        key = (obs, id(beta))
        hit = self._beta.get(key)
        if hit is None:
            hit = obs_satisfies(obs, beta)
            self._beta[key] = hit
        return hit

    def admit(self, psi):
        """Reject a trace formula with a nested P, once per formula."""
        if psi is not self._admitted:
            _reject_nested_p(psi)
            self._admitted = psi

    # -- filling the table --------------------------------------------------

    def config(self, node, obs, world):
        key = (node, obs, world)
        hit = self._configs.get(key)
        if hit is None:
            hit = self._configs[key] = _Config(node, obs, world)
        return hit

    def _fill(self, config):
        live, config.is_final, config.is_failing = \
            self.enabled_at(config.node, config.obs)
        config.moves = [None] * len(live)
        config.live = live

    def _fill_labels(self, config):
        config.rendered = config.obs.render()
        config.labels = [print_program(e.prim) for e in config.live]

    def _move(self, config, i):
        edge = config.live[i]
        weighted, cuts = self.real_outcomes(config.world, edge)
        if not weighted:
            raise BeliefProgError(
                f"{print_program(edge.prim)} has no really-possible outcome "
                f"at {config.world!r}")
        move = config.moves[i] = _Move(edge, weighted, cuts)
        return move

    def _successor(self, config, move, j):
        t = move.outcomes[j][0]
        obs = self.progress(config.obs, t)
        succ = move.succ[j] = BREAKDOWN if obs is BREAKDOWN else \
            self.config(move.edge.target, obs, self.world_after(config.world, t))
        return succ


def run_trace(model, world0, policy, horizon, seed=0, trial=0,
              engine=None) -> TraceRecord:
    """Execute one trace.  policy is "first-enabled", "uniform-random", or
    a map from canonical observation strings to action labels ("eps" stops).
    """
    if not all(eval_fluent_formula(c, world0) for c in model.init.constraints):
        raise BeliefProgError(f"initial world {world0!r} violates the "
                              "initial constraints")
    if isinstance(policy, str) and policy not in (Strategy.FIRST_ENABLED,
                                                  Strategy.UNIFORM_RANDOM):
        raise BeliefProgError(f"unknown strategy {policy!r}")
    engine = engine or TraceEngine(model)
    rng = trial_rng(seed, trial)
    config = engine.config(0, engine.kb0, engine.rbat.intern(world0))
    actions = []
    kbs = [config.obs]
    num = den = 1  # the trace likelihood num/den, normalised once at the end
    outcome = "horizon-cut"

    while len(actions) < horizon:
        if config.live is None:
            engine._fill(config)
        if config.is_failing:
            outcome = "fail"
            break
        if policy == Strategy.FIRST_ENABLED:
            if not config.live:
                outcome = "final"
                break
            i = 0
        elif policy == Strategy.UNIFORM_RANDOM:
            n = len(config.live)
            i = int(rng.integers(0, n + 1 if config.is_final else n))
            if i == n:
                outcome = "final"
                break
        else:
            if config.labels is None:
                engine._fill_labels(config)
            label = policy.get(config.rendered)
            if label in (None, "eps"):
                if config.is_final:
                    outcome = "final"
                    break
                if label is None and config.live:
                    i = 0
                else:
                    raise BeliefProgError(
                        "policy stops at a non-final observation "
                        f"{config.rendered}")
            elif label in config.labels:
                i = config.labels.index(label)
            else:
                raise BeliefProgError(f"policy action {label!r} is not "
                                      f"enabled at {config.rendered}")

        move = config.moves[i] or engine._move(config, i)
        j = _sample_cum(rng, move.cuts)
        succ = move.succ[j] or engine._successor(config, move, j)
        if succ is BREAKDOWN:
            outcome = "belief-breakdown"
            break
        t, p = move.outcomes[j]
        num *= p.numerator
        den *= p.denominator
        actions.append(t)
        kbs.append(succ.obs)
        config = succ

    return TraceRecord(world0, actions, kbs, outcome, Fraction(num, den))


# ---------------------------------------------------------------------------
# trace-formula evaluation on a finite record

def _reject_nested_p(formula):
    if isinstance(formula, POp):
        raise BeliefProgError("nested probability operators cannot be "
                              "estimated on a single trace")
    if isinstance(formula, (Not, And, XOp, UntilOp, GloballyOp)):
        for part in vars(formula).values():
            _reject_nested_p(part)


def eval_trace_formula(psi, record, engine=None) -> bool:
    """Truth of psi on the record's path, by trace_verdict at each position.
    The path goes on as a POMDP path does: a final or failing trace repeats
    its last knowledge base, a broken-down one stays in BREAKDOWN, and a
    horizon-cut one stops.  An open formula is satisfied only if it is G."""
    if engine is None:
        _reject_nested_p(psi)
        truth = obs_satisfies
    else:
        engine.admit(psi)
        truth = engine.satisfies
    # the tail repeats one observation forever; what its first position
    # leaves open stays open, or a bounded U ends false at its bound
    tail = (record.kbs[-1],) if record.outcome in ("final", "fail") else \
        (BREAKDOWN,) if record.outcome == "belief-breakdown" else ()
    for depth, obs in enumerate(chain(record.kbs, tail)):
        verdict = trace_verdict(psi, depth, lambda beta: truth(obs, beta))
        if verdict is not None:
            return verdict
    return isinstance(psi, GloballyOp)


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
             engine=None) -> EstimateResult:
    """Fraction of sampled traces satisfying the trace formula."""
    if trials < 1:
        raise BeliefProgError(f"trials must be at least 1, got {trials}")
    if horizon < 0:
        raise BeliefProgError(f"horizon must be at least 0, got {horizon}")
    engine = engine or TraceEngine(model)
    engine.admit(psi)
    successes = 0
    outcomes = {}
    for trial in range(trials):
        record = run_trace(model, world0, policy, horizon, seed=seed,
                           trial=trial, engine=engine)
        outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
        if eval_trace_formula(psi, record, engine):
            successes += 1
    return EstimateResult(successes / trials, hoeffding_half_width(trials),
                          successes, trials, horizon, outcomes,
                          decision_depth(psi) is not None)
