"""Monte Carlo execution of belief programs against sampled real worlds.

The simulator runs the online program: guards are evaluated on the agent's
progressed knowledge base while nature's outcomes are sampled from the
real-world likelihoods at the (hidden) current world.  It never asserts
verdicts; it reports estimates with a distribution-free (Hoeffding)
confidence half-width so checker results can be cross-validated.

Streams.  Trial t of seed s draws from its own counter-based stream: the
Philox4x64-10 words of np.random.Philox with the 128-bit key
[s mod 2^64, t] and the counter starting at 1, so trials are reproducible
and order-independent.  trial_rng makes one 4-word block of many trials'
streams at once.  An outcome draw takes one 64-bit word r and picks the
first outcome i with r < cum_i * 2^64, compared as integers against the
uint64 cut-offs ceil(cum_i * 2^64); no float enters.  A uniform-random
choice among m takes 32-bit half-words exactly as
Generator.integers(0, m) does: the low half of a fresh word first, its
high half kept for the next choice, Lemire's multiply-and-reject, and no
draw at all when m is 1.

The lockstep walk.  The trials of an estimate step together over the
configuration table, depth by depth.  TraceEngine is pomdp.ConfigTable,
the table build_pomdp unrolls, with what sampling adds: each real row's
cut-offs, the memo of state-formula truths and the admitted trace formula.
Trials that stand at one configuration with one stream position and one
verdict so far form a group: each step is taken once per group, and the
group splits by its members' draws.  Groups are not keyed by path, so
members' paths may differ; a group carries one representative path, on
which eval_trace_formula decides every member once the group finishes.
run_trace is the walk with one trial.  Trials run in chunks of _CHUNK in
trial order, and a chunk makes a stream block only when the walk first
reads it and drops it once every group has passed it: memory does not grow
with the trial count, and the streams' share of it does not grow with the
horizon.  When a step, a policy map or a verdict raises, the error of the
lowest-numbered trial that met one is raised, as trial-by-trial runs
would.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from .checker import decision_depth, obs_satisfies, trace_verdict
from .errors import BeliefProgError
from .kb import BREAKDOWN, eval_fluent_formula, initial_kb, real_bat
from .pomdp import ConfigTable
# enabled stays bound here for perfbench/spans.py, which wraps it by name
from .program_graph import build_graph, enabled  # noqa: F401
from .syntax import And, GloballyOp, Not, POp, UntilOp, XOp, print_program

_TWO64 = 2 ** 64
_CHUNK = 1 << 14  # trials walked together
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Philox4x64 round multipliers and key increments (Salmon et al., SC 2011)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _mulhilo(m, x):
    """High and low words of the 128-bit products m * x, from 32-bit halves
    (numpy has no 64x64->128-bit multiply)."""
    m0, m1 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x0, x1 = x & _LOW32, x >> _SHIFT32
    u = m1 * x0 + ((m0 * x0) >> _SHIFT32)
    v = m0 * x1 + (u & _LOW32)
    return m1 * x1 + (u >> _SHIFT32) + (v >> _SHIFT32), np.uint64(m) * x


def trial_rng(seed, trials, block) -> np.ndarray:
    """Words 4*block .. 4*block+3 of each trial's stream, one row per trial:
    np.random.Philox(key=[seed mod 2^64, trial]).random_raw() as uint64."""
    k1 = np.asarray(trials, dtype=np.uint64)
    n = len(k1)
    c0 = np.full(n, block + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(n, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) % _TWO64)
        if r:
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3), axis=1)


class _Streams:
    """The words of one chunk of trials' streams, made a block at a time
    when the walk first reads it."""

    __slots__ = ("seed", "trials", "blocks")

    def __init__(self, seed, trials):
        self.seed = seed
        self.trials = trials  # uint64 trial numbers; members index them
        self.blocks = {}

    def words(self, members, index):
        """Word `index` of each member's stream."""
        b = index >> 2
        block = self.blocks.get(b)
        if block is None:
            block = self.blocks[b] = trial_rng(self.seed, self.trials, b)
        return block[members, index & 3]

    def release(self, index):
        """Forget the blocks wholly before word `index`."""
        for b in [b for b in self.blocks if 4 * b + 4 <= index]:
            del self.blocks[b]


def cut_offs(weights) -> np.ndarray:
    """uint64 cut-offs ceil(cum_i * 2^64) of the outcomes before the last,
    up to the first that no 64-bit word reaches."""
    cuts = []
    cum = Fraction(0)
    for w in weights[:-1]:
        cum += w
        cut = -(-(cum.numerator << 64) // cum.denominator)
        if cut >= _TWO64:
            break
        cuts.append(cut)
    return np.array(cuts, dtype=np.uint64)


def sample_outcomes(cuts, words) -> np.ndarray:
    """The outcome each 64-bit word picks: the number of cut-offs at or
    below it, that is the first i with word < cum_i * 2^64, or the last."""
    return np.searchsorted(cuts, words, side="right")


def _split(members, picks):
    """(value, members) for each distinct value members picked."""
    if len(members) == 1:
        return [(int(picks[0]), members)]
    values = np.unique(picks).tolist()
    if len(values) == 1:
        return [(values[0], members)]
    return [(v, members[picks == v]) for v in values]


def _uniform(streams, members, pos, half, m):
    """Generator.integers(0, m) for each member at stream position
    (pos, half): pos is the next fresh word, half the word whose high half
    is pending, or -1.  Returns (members, choices, pos, half) parts, split
    where Lemire's rejection made some members draw again."""
    if m == 1:
        return [(members, np.zeros(len(members), dtype=np.uint64), pos, half)]
    threshold = (2 ** 32 - m) % m
    parts = []
    while True:
        if half >= 0:
            x = streams.words(members, half) >> _SHIFT32
            half = -1
        else:
            x = streams.words(members, pos) & _LOW32
            half = pos
            pos += 1
        product = x * np.uint64(m)
        redraw = (product & _LOW32) < np.uint64(threshold)
        if not redraw.any():
            parts.append((members, product >> _SHIFT32, pos, half))
            return parts
        keep = ~redraw
        if keep.any():
            parts.append((members[keep], product[keep] >> _SHIFT32, pos, half))
        members = members[redraw]


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


class TraceEngine(ConfigTable):
    """The configuration table of repeated trials over one model.  World
    steps and knowledge-base progressions are memoised in the real and
    believed Bat, so each is taken once per engine."""

    def __init__(self, model):
        super().__init__(build_graph(model.program), real_bat(model),
                         initial_kb(model))
        self.model = model
        self._beta = {}
        # id(rbat.branches row) -> its cut_offs; rbat keeps each row alive
        self._cuts = {}
        self._admitted = None  # the last trace formula admit accepted

    # the table's steps, bound on this class too, so that a wrapper set on
    # TraceEngine (perfbench/spans.py) sees every call the table makes
    enabled_at = ConfigTable.enabled_at
    progress = ConfigTable.progress
    world_after = ConfigTable.world_after

    def real_outcomes(self, world, edge):
        """Really-possible ground outcomes of an edge's primitive program,
        with their sampling cut-offs, made once per row."""
        weighted, _ = super().real_outcomes(world, edge)
        if not weighted:
            raise BeliefProgError(
                f"{print_program(edge.prim)} has no really-possible outcome "
                f"at {world!r}")
        cuts = self._cuts.get(id(weighted))
        if cuts is None:
            cuts = self._cuts[id(weighted)] = cut_offs([p for _, p in weighted])
        return weighted, cuts

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


# ---------------------------------------------------------------------------
# the lockstep walk

class _Prefix:
    """A group's representative path: its last step, linked to the path
    before it, with the likelihood num/den so far."""

    __slots__ = ("parent", "action", "obs", "num", "den")

    def __init__(self, parent, action, obs, num, den):
        self.parent = parent
        self.action = action
        self.obs = obs
        self.num = num
        self.den = den

    def record(self, world0, outcome):
        actions, kbs = [], []
        at = self
        while at is not None:
            kbs.append(at.obs)
            actions.append(at.action)
            at = at.parent
        actions.pop()  # the start has no action
        return TraceRecord(world0, actions[::-1], kbs[::-1], outcome,
                           Fraction(self.num, self.den))


def _start(engine, world0, policy):
    """The configuration every trial starts from, once the initial world
    and the policy are checked."""
    if not all(eval_fluent_formula(c, world0)
               for c in engine.model.init.constraints):
        raise BeliefProgError(f"initial world {world0!r} violates the "
                              "initial constraints")
    if isinstance(policy, str) and policy not in (Strategy.FIRST_ENABLED,
                                                  Strategy.UNIFORM_RANDOM):
        raise BeliefProgError(f"unknown strategy {policy!r}")
    return engine.entry(0, engine.kb0, engine.rbat.intern(world0))


def _verdict(engine, psi, depth, obs):
    """What the position at depth decides about psi (None: still open, or
    no formula); a verdict that raises is kept as its error's class and
    message, which eval_trace_formula raises again when the trace ends."""
    if psi is None:
        return None
    try:
        return trace_verdict(psi, depth, lambda beta: engine.satisfies(obs, beta))
    except BeliefProgError as exc:
        return (type(exc), str(exc))


def _choices(engine, streams, entry, policy, members, pos, half):
    """The edge each member takes at entry: (members, edge index or None
    to stop, pos, half) parts."""
    if policy == Strategy.FIRST_ENABLED:
        return [(members, 0 if entry.live else None, pos, half)]
    if policy == Strategy.UNIFORM_RANDOM:
        n = len(entry.live)
        parts = []
        for part, picks, p, h in _uniform(streams, members, pos, half,
                                          n + 1 if entry.is_final else n):
            parts.extend((chosen, i if i < n else None, p, h)
                         for i, chosen in _split(part, picks))
        return parts
    rendered = entry.obs.render()
    label = policy.get(rendered)
    if label in (None, "eps"):
        if entry.is_final:
            return [(members, None, pos, half)]
        if label is None and entry.live:
            return [(members, 0, pos, half)]
        raise BeliefProgError("policy stops at a non-final observation "
                              f"{rendered}")
    labels = engine.labels(entry)
    if label in labels:
        return [(members, labels.index(label), pos, half)]
    raise BeliefProgError(f"policy action {label!r} is not enabled at "
                          f"{rendered}")


def _lockstep(engine, start, policy, psi, horizon, streams):
    """Walk every trial of `streams` from `start` for up to horizon steps.

    Returns the finished groups as (prefix, outcome, members) and the
    errors as (first member, exception); a member that meets an error
    leaves its group."""
    finished, errors = [], []
    root = _Prefix(None, None, start.obs, 1, 1)
    level = {(start, 0, -1, _verdict(engine, psi, 0, start.obs)):
             ([np.arange(len(streams.trials))], root)}
    for depth in range(horizon):
        nxt = {}
        for (entry, pos, half, verdict), (parts, prefix) in level.items():
            members = parts[0] if len(parts) == 1 else np.concatenate(parts)
            try:
                if entry.live is None:
                    engine.fill(entry)
                if entry.is_failing:
                    finished.append((prefix, "fail", members))
                    continue
                choices = _choices(engine, streams, entry, policy, members,
                                   pos, half)
            except BeliefProgError as exc:  # raised in trial order
                errors.append((members.min(), exc))
                continue
            for chosen, i, p, h in choices:
                if i is None:
                    finished.append((prefix, "final", chosen))
                    continue
                try:
                    move = entry.moves[i] or engine.move(entry, i)
                except BeliefProgError as exc:
                    errors.append((chosen.min(), exc))
                    continue
                if len(move.cuts) == 0:
                    outcomes = [(0, chosen)]
                else:
                    draws = streams.words(chosen, p)
                    outcomes = _split(chosen, sample_outcomes(move.cuts, draws))
                for j, drawn in outcomes:
                    try:
                        succ = move.succ[j] or engine.successor(entry, move, j)
                    except BeliefProgError as exc:
                        errors.append((drawn.min(), exc))
                        continue
                    if succ is BREAKDOWN:
                        finished.append((prefix, "belief-breakdown", drawn))
                        continue
                    key = (succ, p + 1, h, verdict if verdict is not None
                           else _verdict(engine, psi, depth + 1, succ.obs))
                    group = nxt.get(key)
                    if group is None:
                        t, like = move.outcomes[j]
                        nxt[key] = ([drawn], _Prefix(
                            prefix, t, succ.obs, prefix.num * like.numerator,
                            prefix.den * like.denominator))
                    else:
                        group[0].append(drawn)
        level = nxt
        if not level:
            break
        streams.release(min(h if h >= 0 else p for _, p, h, _ in level))
    for parts, prefix in level.values():
        finished.append((prefix, "horizon-cut",
                         parts[0] if len(parts) == 1 else np.concatenate(parts)))
    return finished, errors


def run_trace(model, world0, policy, horizon, seed=0, trial=0,
              engine=None) -> TraceRecord:
    """Execute one trace.  policy is "first-enabled", "uniform-random", or
    a map from canonical observation strings to action labels ("eps" stops).
    """
    engine = engine or TraceEngine(model)
    start = _start(engine, world0, policy)
    streams = _Streams(seed, np.array([trial % _TWO64], dtype=np.uint64))
    finished, errors = _lockstep(engine, start, policy, None, horizon, streams)
    if errors:
        raise errors[0][1]
    (prefix, outcome, _members), = finished
    return prefix.record(world0, outcome)


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
    start = _start(engine, world0, policy)
    successes = 0
    first = {}  # outcome -> (first trial, count)
    for chunk in range(0, trials, _CHUNK):
        streams = _Streams(seed, np.arange(chunk, min(chunk + _CHUNK, trials),
                                           dtype=np.uint64))
        finished, errors = _lockstep(engine, start, policy, psi, horizon,
                                     streams)
        for prefix, outcome, members in finished:
            try:
                holds = eval_trace_formula(psi, prefix.record(world0, outcome),
                                           engine)
            except BeliefProgError as exc:  # raised in trial order
                errors.append((members.min(), exc))
                continue
            if holds:
                successes += len(members)
            low, count = first.get(outcome, (trials, 0))
            first[outcome] = (min(low, chunk + int(members.min())),
                              count + len(members))
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
    # outcomes in the order of the first trial that ends each way
    outcomes = {outcome: count for outcome, (_low, count)
                in sorted(first.items(), key=lambda item: item[1][0])}
    return EstimateResult(successes / trials, hoeffding_half_width(trials),
                          successes, trials, horizon, outcomes,
                          decision_depth(psi) is not None)
