"""Monte Carlo execution of belief programs against sampled real worlds.

The simulator runs the online program: guards are evaluated on the agent's
progressed knowledge base while nature's outcomes are sampled from the
real-world likelihoods at the (hidden) current world.  It never asserts
verdicts; it reports estimates with a distribution-free (Hoeffding)
confidence half-width so checker results can be cross-validated.

Streams.  Trial t of seed s reads a counter-based stream: its words
4b .. 4b + 3 are the Philox4x64-10 block of the 128-bit key [s mod 2^64, 0]
at the 256-bit counter [t + 1, b, 0, 0].  A seed is one key, and a trial
and a block are a place in its counter (Salmon et al., SC 2011), so
trial_rng makes block b of a run of consecutive trials in one call of
numpy's C Philox, and a trial's words do not depend on the order of the
trials or on the chunk size.  A draw among weighted options takes one
64-bit word r and picks the first option i with r < cum_i * 2^64,
compared as integers against the uint64 cut-offs ceil(cum_i * 2^64); no
float enters.  An outcome is drawn by its real likelihoods, and a
uniform-random choice among m by weights 1/m, so it is
floor(r * m / 2^64).  Each draw reads a word fixed by its depth d: under
uniform-random, d's choice reads word 2d and its outcome word 2d + 1;
under first-enabled and a policy map, which draw no choice, d's outcome
reads word d.

The lockstep walk.  The trials of an estimate step together over the
configuration table, depth by depth.  TraceEngine is pomdp.ConfigTable,
the table build_pomdp unrolls, with what sampling adds: the cut-offs of
each real row and of each choice count, and the admitted trace formula.
The believed Bat keeps the truth of every state formula at every knowledge
base (kb.eval_subjective).  Trials that stand at one configuration with
one verdict so far form a group.  The live trials are two flat int arrays,
their chunk-local numbers and their groups, and each depth is stepped once
for all of them: a pass over the groups fills each entry and counts its
choices; one comparison against the choices' cut-offs makes every trial's
choice; a pass over the distinct (group, choice) pairs takes their moves;
one comparison against the pairs' cut-offs, stacked in a matrix, makes
every trial's outcome; and a pass over the distinct (pair, outcome) codes
makes the next depth's groups.  Groups are not keyed by path, so members'
paths may differ; a group carries one representative path, on which
eval_trace_formula decides every member once the group finishes, and a
finished group keeps only its trial count and its least trial.  run_trace
is the walk with one trial.  Trials run in chunks of _CHUNK in trial
order, and a chunk makes a stream block only when the walk first reads it
and drops it once the walk has passed it: memory does not grow with the
trial count, and the streams' share of it does not grow with the horizon.
When a step, a policy map or a verdict raises, the error of the
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
from .syntax import GloballyOp, POp, walk

_TWO64 = 2 ** 64
_CHUNK = 1 << 14  # trials walked together
_ONE = np.uint64(1)


def trial_rng(seed, trials, block) -> np.ndarray:
    """Words 4*block .. 4*block+3 of each trial's stream, one row per trial,
    for consecutive trials t0, t0 + 1, ...: np.random.Philox with the key
    [seed mod 2^64, 0] and the counter [t0, block, 0, 0], which it steps
    before each block it makes."""
    trials = np.asarray(trials, dtype=np.uint64)
    n = len(trials)
    first = trials[0]
    if not np.array_equal(trials, first + np.arange(n, dtype=np.uint64)):
        raise ValueError("trial_rng reads consecutive trials only")
    key = np.array([seed % _TWO64, 0], dtype=np.uint64)
    counter = np.array([first, block, 0, 0], dtype=np.uint64)
    return np.random.Philox(key=key, counter=counter).random_raw(
        4 * n).reshape(n, 4)


class _Streams:
    """The words of one chunk of trials' streams, made a block at a time
    when the walk first reads it."""

    __slots__ = ("seed", "trials", "blocks")

    def __init__(self, seed, trials):
        self.seed = seed
        self.trials = trials  # consecutive uint64 trial numbers
        self.blocks = {}

    def _block(self, b):
        block = self.blocks.get(b)
        if block is None:
            block = self.blocks[b] = trial_rng(self.seed, self.trials, b)
        return block

    def words(self, trials, index):
        """Word `index` of each trial's stream."""
        return self._block(index >> 2)[trials, index & 3]

    def release(self, index):
        """Forget the blocks wholly before word `index`."""
        for b in [b for b in self.blocks if 4 * b + 4 <= index]:
            del self.blocks[b]


def cut_offs(weights) -> np.ndarray:
    """uint64 cut-offs ceil(cum_i * 2^64) of the outcomes before the last,
    up to the first that no 64-bit word reaches.  No cut-off is 0, as
    every cum_i is above 0."""
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
    """The outcome each 64-bit word picks: the number of its cut-offs at or
    below it, that is the first i with word < cum_i * 2^64, or the last.
    cuts is one row of cut-offs for every word, or a matrix with one row
    per word padded with zeros; 0 - 1 wraps to the largest word, so no
    padding counts."""
    return np.count_nonzero(cuts - _ONE < words[:, None], axis=-1)


@dataclass
class TraceRecord:
    world0: object
    actions: list
    kbs: list  # knowledge-base snapshots; len(kbs) == len(actions) + 1
    outcome: str  # final | fail | belief-breakdown | horizon-cut
    # l*(world0, actions), the product of the steps' real likelihoods
    likelihood: Fraction


class Strategy:
    FIRST_ENABLED = "first-enabled"
    UNIFORM_RANDOM = "uniform-random"


class TraceEngine(ConfigTable):
    """The configuration table of repeated trials over one model.  World
    steps, knowledge-base progressions and state-formula truths are
    memoised in the real and believed Bat, so each is taken once per
    engine."""

    def __init__(self, model):
        super().__init__(build_graph(model.program), real_bat(model),
                         initial_kb(model))
        self.model = model
        # id(rbat.branches row) -> its cut_offs; rbat keeps each row alive
        self._cuts = {}
        self._choices = {}  # n -> choice_cuts(n)
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
                f"{edge.label} has no really-possible outcome at {world!r}")
        cuts = self._cuts.get(id(weighted))
        if cuts is None:
            cuts = self._cuts[id(weighted)] = cut_offs([p for _, p in weighted])
        return weighted, cuts

    def choice_cuts(self, n):
        """Row m, for m up to n, is the cut-offs of a uniform choice among
        m options, padded with zeros as sample_outcomes reads a matrix."""
        rows = self._choices.get(n)
        if rows is None:
            rows = self._choices[n] = np.zeros((n + 1, n - 1), np.uint64)
            for m in range(2, n + 1):
                rows[m, :m - 1] = cut_offs([Fraction(1, m)] * m)
        return rows

    def satisfies(self, obs, beta):  # a method for perfbench/spans.py
        return obs_satisfies(obs, beta)

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


def _options(entry, policy):
    """The edge index of each choice the policy leaves at entry, None for
    stopping there."""
    if policy == Strategy.FIRST_ENABLED:
        return [0] if entry.live else [None]
    if policy == Strategy.UNIFORM_RANDOM:
        choices = list(range(len(entry.live)))
        return choices + [None] if entry.is_final else choices
    rendered = entry.obs.render()
    label = policy.get(rendered)
    if label in (None, "eps"):
        if entry.is_final:
            return [None]
        if label is None and entry.live:
            return [0]
        raise BeliefProgError("policy stops at a non-final observation "
                              f"{rendered}")
    for i, edge in enumerate(entry.live):
        if edge.label == label:
            return [i]
    raise BeliefProgError(f"policy action {label!r} is not enabled at "
                          f"{rendered}")


def _leave(gone, trial, to, *aligned):
    """Record the trials that `to` sends to an exit e (to = -1 - e), and
    drop them from trial, to and the arrays aligned with them."""
    out = to < 0
    gone.append((trial[out], -1 - to[out]))
    keep = ~out
    return [a[keep] for a in (trial, to, *aligned)]


def _lockstep(engine, start, policy, psi, horizon, streams):
    """Walk every trial of `streams` from `start` for up to horizon steps.

    Returns the finished groups as (prefix, outcome, count, least trial)
    and the errors as (least trial, exception); a trial that meets an
    error leaves its group."""
    # the words each depth reads: a choice's and an outcome's under
    # uniform-random, an outcome's alone under the other policies
    stride = 2 if policy == Strategy.UNIFORM_RANDOM else 1
    trial = np.arange(len(streams.trials))  # the live trials, in order
    gi = np.zeros(len(trial), dtype=np.intp)  # and their groups
    groups = [(start, _verdict(engine, psi, 0, start.obs),
               _Prefix(None, None, start.obs, 1, 1))]
    exits = []  # (outcome, prefix) of a finish, or (None, exception)
    gone = []  # (trials, their exit numbers) of the trials that left

    def exit_to(outcome, what):
        exits.append((outcome, what))
        return -len(exits)

    for depth in range(horizon):
        # each group's choices, option o being edges[o] (an edge index, or
        # None to stop) of group owners[o]
        left = len(exits)
        first, counts, owners, edges = [], [], [], []
        for g, (entry, _, prefix) in enumerate(groups):
            try:
                if entry.live is None:
                    engine.fill(entry)
                choices = [] if entry.is_failing else _options(entry, policy)
            except BeliefProgError as exc:  # raised in trial order
                choices, failed = [], exit_to(None, exc)
            else:
                failed = exit_to("fail", prefix) if entry.is_failing else 0
            first.append(failed or len(edges))
            counts.append(len(choices) or 1)
            owners += [g] * len(choices)
            edges += choices
        to = np.array(first)[gi]
        if len(exits) > left:
            trial, to, gi = _leave(gone, trial, to, gi)
        if stride == 2 and len(trial):
            cuts = engine.choice_cuts(max(counts))[np.array(counts)[gi]]
            to += sample_outcomes(cuts, streams.words(trial, 2 * depth))

        # the distinct (group, choice) pairs, a stop or an error leaving;
        # each pair's cut-offs are a row of a matrix of the distinct rows
        left = len(exits)
        seen = np.zeros(len(edges), dtype=bool)
        seen[to] = True
        present = np.flatnonzero(seen).tolist()
        target, pairs, row_of, rows = [], [], [], {}
        for o in present:
            g, i = owners[o], edges[o]
            entry, _, prefix = groups[g]
            if i is None:
                target.append(exit_to("final", prefix))
                continue
            try:
                move = entry.moves[i] or engine.move(entry, i)
            except BeliefProgError as exc:
                target.append(exit_to(None, exc))
                continue
            target.append(len(pairs))
            pairs.append((g, move))
            r = rows.get(id(move.cuts))
            if r is None:
                r = rows[id(move.cuts)] = len(rows), move.cuts
            row_of.append(r[0])
        index = np.empty(len(edges), dtype=np.intp)
        index[present] = target
        to = index[to]
        if len(exits) > left:
            trial, to, gi = _leave(gone, trial, to, gi)

        # one outcome draw for every trial, against its pair's row
        width = max((len(row) for _, row in rows.values()), default=0)
        j = 0
        if width:
            cuts = np.zeros((len(rows), width), dtype=np.uint64)
            for r, row in rows.values():
                cuts[r, :len(row)] = row
            word = stride * depth + stride - 1  # after the choice's, if any
            j = sample_outcomes(cuts[np.array(row_of)[to]],
                                streams.words(trial, word))

        # the next groups, one per key (entry, verdict); the trials of one
        # (pair, outcome) code share it
        left = len(exits)
        kinds = width + 1
        code = to * kinds + j
        seen = np.zeros(len(pairs) * kinds, dtype=bool)
        seen[code] = True
        present = np.flatnonzero(seen).tolist()
        target, level, nxt = [], {}, []
        for c in present:
            r, j = divmod(c, kinds)
            g, move = pairs[r]
            entry, verdict, prefix = groups[g]
            try:
                succ = move.succ[j] or engine.successor(entry, move, j)
            except BeliefProgError as exc:
                target.append(exit_to(None, exc))
                continue
            if succ is BREAKDOWN:
                target.append(exit_to("belief-breakdown", prefix))
                continue
            key = (succ, verdict if verdict is not None
                   else _verdict(engine, psi, depth + 1, succ.obs))
            n = level.get(key)
            if n is None:
                n = level[key] = len(nxt)
                t, like = move.outcomes[j]
                nxt.append(key + (_Prefix(
                    prefix, t, succ.obs, prefix.num * like.numerator,
                    prefix.den * like.denominator),))
            target.append(n)
        index = np.empty(len(seen), dtype=np.intp)
        index[present] = target
        gi = index[code]
        if len(exits) > left:
            trial, gi = _leave(gone, trial, gi)
        groups = nxt
        if not groups:
            break
        streams.release(stride * (depth + 1))
    gone.append((trial, gi + len(exits)))
    exits.extend(("horizon-cut", prefix) for *_, prefix in groups)

    trials, ends = (np.concatenate(parts) for parts in zip(*gone))
    counts = np.bincount(ends, minlength=len(exits)).tolist()
    least = np.full(len(exits), len(streams.trials))
    np.minimum.at(least, ends, trials)
    finished, errors = [], []
    for (outcome, what), count, low in zip(exits, counts, least.tolist()):
        if outcome is None:
            errors.append((low, what))
        else:
            finished.append((what, outcome, count, low))
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
    (prefix, outcome, _count, _least), = finished
    return prefix.record(world0, outcome)


# ---------------------------------------------------------------------------
# trace-formula evaluation on a finite record

def _reject_nested_p(formula):
    if any(isinstance(node, POp) for node in walk(formula)):
        raise BeliefProgError("nested probability operators cannot be "
                              "estimated on a single trace")


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
        for prefix, outcome, count, least in finished:
            try:
                holds = eval_trace_formula(psi, prefix.record(world0, outcome),
                                           engine)
            except BeliefProgError as exc:  # raised in trial order
                errors.append((least, exc))
                continue
            if holds:
                successes += count
            low, total = first.get(outcome, (trials, 0))
            first[outcome] = (min(low, chunk + least), total + count)
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
    # outcomes in the order of the first trial that ends each way
    outcomes = {outcome: count for outcome, (_low, count)
                in sorted(first.items(), key=lambda item: item[1][0])}
    return EstimateResult(successes / trials, hoeffding_half_width(trials),
                          successes, trials, horizon, outcomes,
                          decision_depth(psi) is not None)
