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
each real row and of each choice count, the admitted trace formula, and
numpy copies of what the walk gathers from the table's int lists (per
configuration its choice count and first move slot, per move slot its
cut-offs row and first successor slot, per successor slot its
configuration id).  The believed Bat keeps the truth of every state
formula at every knowledge base (kb.eval_subjective).  Each live trial
carries two integers, its configuration id and its verdict code (open,
false, true, or an error's class and message), and each depth is a few
numpy gathers over the arrays: its choice, one comparison against the
choices' cut-offs; its move slot; its outcome, one comparison against the
slots' cut-offs rows; its successor.  Python runs only for a
configuration, move, successor or open verdict met for the first time,
and fills each once per engine through the table's own methods, which
write the table's lists, and copies the batch's ids into the arrays; a
move or successor reads the real row of its class and world, made once,
and a configuration that a depth reaches is filled, and under
first-enabled its first move made, in the batch that reached it.  A
trial keeps no history.  A finished trial belongs to the class of its
outcome and its verdict, an open one included, as the tail that
completes an open trace gives one answer whatever the trace's depth.
estimate walks the classes' least trials again, together, rebuilds their
records from the table's lists, and judges each once with
eval_trace_formula, which must give a decided class's carried verdict.
run_trace is that walk with one trial.  Trials run in chunks of _CHUNK in
trial order, and a chunk makes a stream block only when the walk first
reads it and drops it once the walk has passed it: memory does not grow
with the trial count, and the streams' share of it does not grow with
the horizon.  A step or a policy map's pick that raises leaves its
error's code where its result would go, so a trial that meets it ends as
a stop, a failing configuration or a breakdown ends; the engine keeps a
step's error for each later walk to read there.  The error of the
lowest-numbered trial that met one is raised, a step error before a
verdict error, as trial-by-trial runs would.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from .checker import decision_depth, obs_satisfies, trace_verdict
from .errors import BeliefProgError
from .kb import BREAKDOWN, eval_fluent_formula, initial_kb, real_bat
from .pomdp import UNREACHED, ConfigTable
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
    """The words of some trials' streams, made a block at a time when the
    walk first reads it: one trial_rng call per run of consecutive trials,
    so one for a chunk."""

    __slots__ = ("seed", "trials", "runs", "blocks")

    def __init__(self, seed, trials):
        self.seed = seed
        self.trials = trials  # increasing uint64 trial numbers
        self.runs = np.split(trials, np.flatnonzero(np.diff(trials) != 1) + 1)
        self.blocks = {}

    def _block(self, b):
        block = self.blocks.get(b)
        if block is None:
            block = [trial_rng(self.seed, run, b) for run in self.runs]
            block = self.blocks[b] = \
                block[0] if len(block) == 1 else np.concatenate(block)
        return block

    def words(self, trials, index):
        """Word `index` of each trial's stream."""
        return self._block(index >> 2)[:, index & 3].take(trials)

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


def sample_outcomes(cuts, words, picked) -> np.ndarray:
    """Add to the int array picked the outcome each 64-bit word picks: the
    number of its cut-offs at or below it, that is the first i with word <
    cum_i * 2^64, or the last; returns picked.  cuts is one row of cut-offs
    for every word, or a matrix with one row per word padded with zeros;
    0 - 1 wraps to the largest word, so no padding counts."""
    for cut in cuts.T:  # one cut-off, or a column of one per word
        picked += cut - _ONE < words
    return picked


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


# numpy-array codes: a configuration not yet filled; a move not yet made,
# or the stop; a policy map's pick not yet read.  A successor slot keeps
# the table's codes, UNREACHED and BROKE.  A fill, move, successor or pick
# that raised holds ERROR - e, for the engine's error e.
UNFILLED = UNMADE = UNPICKED = -1
STOP = -2
ERROR = -3


def _grown(a, n, fill):
    """a, or a copy of it padded with fill to at least n items, twice as
    long as a at the least."""
    if len(a) >= n:
        return a
    b = np.full(max(n, 2 * len(a)), fill, a.dtype)
    b[:len(a)] = a
    return b


class TraceEngine(ConfigTable):
    """The configuration table of repeated trials over one model.  World
    steps, knowledge-base progressions and state-formula truths are
    memoised in the real and believed Bat, so each is taken once per
    engine.

    The walk reads the table's ids through numpy arrays that fill_ids,
    move_ids and reach_ids fill, a batch at a time, from the table's
    lists; they grow by doubling.  A configuration's choices are its move
    slots.  Per configuration id: its choice count (UNFILLED before it is
    filled; 0 when it fails) and its first move slot.  Per move slot: its
    row of cut_rows (UNMADE before the move is made, STOP for the stop)
    and its first successor slot.  Per successor slot: the table's
    successor code.  A step that raised holds its error's code in place of
    its result."""

    def __init__(self, model):
        super().__init__(build_graph(model.program), real_bat(model),
                         initial_kb(model))
        self.model = model
        self._choices = np.zeros((2, 0), np.uint64)  # see choice_cuts
        self._admitted = None  # the last trace formula admit accepted
        self.choices = np.full(16, UNFILLED, np.intp)
        self.first_move = np.zeros(16, np.intp)
        self.row = np.full(16, UNMADE, np.intp)
        self.first_succ = np.zeros(16, np.intp)
        self.succ = np.full(16, UNREACHED, np.intp)
        # the real rows' cut-offs, padded with zeros as sample_outcomes
        # reads a matrix, and the number of them
        self.cut_rows = np.zeros((4, 0), np.uint64)
        self.cuts_made = 0
        self.errors = []  # the steps' errors, each as (class, message)

    # the table's steps, bound on this class too, so that a wrapper set on
    # TraceEngine (perfbench/spans.py) sees every call the table makes
    enabled_at = ConfigTable.enabled_at
    progress = ConfigTable.progress
    world_after = ConfigTable.world_after

    def cover(self):
        """Grow the arrays over configuration ids to every one made."""
        n = len(self.nodes)
        self.choices = _grown(self.choices, n, UNFILLED)
        self.first_move = _grown(self.first_move, n, 0)

    def real_outcomes(self, world, edge):
        """Really-possible ground outcomes of an edge's primitive program,
        with the row of cut_rows that holds their sampling cut-offs; called
        once per real row."""
        weighted, _ = super().real_outcomes(world, edge)
        if not weighted:
            raise BeliefProgError(
                f"{edge.label} has no really-possible outcome at {world!r}")
        return weighted, self._add_row(cut_offs([p for _, p in weighted]))

    def error_code(self, exc):
        """The code of a step error, kept as its class and message."""
        self.errors.append((type(exc), str(exc)))
        return ERROR + 1 - len(self.errors)

    def error(self, code):
        """The step error of a code at or below ERROR, made anew."""
        cls, message = self.errors[ERROR - code]
        return cls(message)

    def fill_ids(self, ids, take_first=False):
        """Fill the configurations ids, and with take_first make the move
        of each one's first live edge."""
        filled, counts, first, firsts, stops = [], [], [], [], []
        enabled, first_moves = self.enabled, self.first_moves
        for c in ids:
            if enabled[c] is None:
                try:
                    self.fill(c)
                except BeliefProgError as exc:
                    self.choices[c] = self.error_code(exc)
                    continue
            live, is_final, _failing = enabled[c]
            slot, n = first_moves[c], len(live)
            filled.append(c)
            counts.append(n + is_final)
            first.append(slot)
            if n:
                firsts.append(slot)
            if is_final:
                stops.append(slot + n)
        if filled:
            made = len(self.real_rows)
            self.row = _grown(self.row, made, UNMADE)
            self.first_succ = _grown(self.first_succ, made, 0)
            self.first_move[filled] = first
            self.choices[filled] = counts
            self.row[stops] = STOP
        if take_first and firsts:
            self.move_ids(firsts)

    def move_ids(self, slots):
        """Make the moves of the move slots, a list."""
        made, rows = [], []
        real_rows = self.real_rows
        for m in slots:
            try:
                row = real_rows[m] or self.move(m)
            except BeliefProgError as exc:
                self.row[m] = self.error_code(exc)
                continue
            made.append(m)
            rows.append(row.cuts)
        if made:
            self.succ = _grown(self.succ, len(self.succs), UNREACHED)
            first_succs = self.first_succs
            self.first_succ[made] = [first_succs[m] for m in made]
            self.row[made] = rows

    def _add_row(self, cuts):
        """The row of cut_rows that a new cut-offs row takes."""
        r, rows = self.cuts_made, self.cut_rows
        (n, width) = rows.shape
        if r == n or len(cuts) > width:
            self.cut_rows = np.zeros((2 * n if r == n else n,
                                      max(len(cuts), width)), np.uint64)
            self.cut_rows[:r, :width] = rows[:r]
        self.cut_rows[r, :len(cuts)] = cuts
        self.cuts_made += 1
        return r

    def reach_ids(self, slots):
        """Reach the successors of the successor slots, a list."""
        ids = []
        for s in slots:
            try:
                ids.append(self.successor(s))
            except BeliefProgError as exc:
                ids.append(self.error_code(exc))
        self.cover()
        self.succ[slots] = ids

    def choice_cuts(self, n):
        """A matrix whose row m, for m up to n or more, is the cut-offs of
        a uniform choice among m options, padded with zeros as
        sample_outcomes reads a matrix; each row is made once."""
        rows = self._choices
        if len(rows) <= n:
            made = len(rows)
            self._choices = np.zeros((n + 1, n - 1), np.uint64)
            self._choices[:made, :rows.shape[1]] = rows
            rows = self._choices
            for m in range(max(made, 2), n + 1):
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

OUTCOMES = ("final", "fail", "belief-breakdown", "horizon-cut")
FINAL, FAIL, BROKEN, CUT = range(4)


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
    """What the position at depth decides about psi (None: still open); a
    verdict that raises is kept as its error's class and message, which
    eval_trace_formula raises again on the trace."""
    try:
        return trace_verdict(psi, depth,
                             lambda beta: engine.satisfies(obs, beta))
    except BeliefProgError as exc:
        return (type(exc), str(exc))


def _pick(engine, c, policy):
    """The index of the choice a policy map makes at configuration c: a
    live edge's, or the stop's after them."""
    live, is_final, _failing = engine.enabled[c]
    rendered = engine.kbs[c].render()
    label = policy.get(rendered)
    if label in (None, "eps"):
        if is_final:
            return len(live)
        if label is None and live:
            return 0
        raise BeliefProgError("policy stops at a non-final observation "
                              f"{rendered}")
    for i, edge in enumerate(live):
        if edge.label == label:
            return i
    raise BeliefProgError(f"policy action {label!r} is not enabled at "
                          f"{rendered}")


class _Ends:
    """How each trial of a walk ended: how (an index into OUTCOMES, or the
    engine's code of its step error, below 0), its verdict code (an index
    into verdicts: 0 open, 1 false, 2 true, then the errors' (class,
    message))."""

    def __init__(self, n):
        self.how = np.empty(n, np.intp)
        self.verdict = np.empty(n, np.intp)
        self.verdicts = [None, False, True]

    def code(self, verdict):
        if verdict is None:
            return 0
        if isinstance(verdict, tuple):
            if verdict not in self.verdicts[3:]:
                self.verdicts.append(verdict)
            return self.verdicts.index(verdict, 3)
        return 2 if verdict else 1

    def leave(self, out, codes, end, trial, cid, verdict, *aligned):
        """End the trials in the mask out, each by its code in codes when
        that is a step error's and by end otherwise, and drop them from the
        arrays."""
        t = trial[out]
        codes = codes[out]
        self.how[t] = np.where(codes <= ERROR, codes, end)
        self.verdict[t] = verdict[out]
        keep = np.flatnonzero(~out)
        return [a.take(keep) for a in (trial, cid, verdict, *aligned)]


def _unmet(keys, table):
    """The distinct keys whose entry in a flat table is -1: not yet
    filled, made, reached or picked."""
    seen = np.zeros(len(table), bool)
    seen[keys] = True
    present = np.flatnonzero(seen)
    return present[table.take(present) == -1]


def _lockstep(engine, start, policy, psi, horizon, streams, path=None):
    """Walk every trial of `streams` from `start` for up to horizon steps,
    judging psi on the way (None: no formula); returns their _Ends.  A
    list `path` receives, for each depth, the live trials and the
    successor slot each steps through."""
    engine.cover()
    uniform = policy == Strategy.UNIFORM_RANDOM
    mapped = not isinstance(policy, str)
    # the words each depth reads: a choice's and an outcome's under
    # uniform-random, an outcome's alone under the other policies
    stride = 2 if uniform else 1
    n = len(streams.trials)
    ends = _Ends(n)
    trial = np.arange(n)  # the live trials, in order
    cid = np.full(n, start)  # their configuration ids
    v = np.zeros(n, np.intp)  # and their verdict codes
    judging = psi is not None
    if judging:
        v[:] = ends.code(_verdict(engine, psi, 0, engine.kbs[start]))
    pick = np.full(len(engine.nodes), UNPICKED)  # a policy map's choices

    for depth in range(horizon):
        # fill the configurations met for the first time; failing ones,
        # which have no choice, and fills that raised end
        choices = engine.choices.take(cid)
        if choices.min() <= 0:
            new = _unmet(cid, engine.choices)
            if len(new):
                engine.fill_ids(new.tolist())
                choices = engine.choices.take(cid)
            out = choices <= 0
            if out.any():
                trial, cid, v, choices = ends.leave(out, choices, FAIL, trial,
                                                    cid, v, choices)
            if not len(trial):
                break

        # each trial's choice, the move slot of a live edge or the stop;
        # first-enabled takes a configuration's first
        slot = engine.first_move.take(cid)
        if uniform:
            sample_outcomes(
                engine.choice_cuts(int(choices.max())).take(choices, axis=0),
                streams.words(trial, 2 * depth), slot)
        elif mapped:
            pick = _grown(pick, len(engine.nodes), UNPICKED)
            e = pick.take(cid)
            if e.min() < 0:
                for c in _unmet(cid, pick).tolist():
                    try:
                        pick[c] = _pick(engine, c, policy)
                    except BeliefProgError as exc:
                        pick[c] = engine.error_code(exc)
                e = pick.take(cid)
                out = e < 0  # each an error's code
                if out.any():
                    trial, cid, v, e, slot = ends.leave(
                        out, e, FAIL, trial, cid, v, e, slot)
                    if not len(trial):
                        break
            slot += e

        # take the moves made for the first time; a stop, or a move that
        # raised, ends
        row = engine.row.take(slot)
        if row.min() < 0:
            new = _unmet(slot, engine.row)
            if len(new):
                engine.move_ids(new.tolist())
                row = engine.row.take(slot)
            out = row < 0
            if out.any():
                trial, cid, v, slot, row = ends.leave(out, row, FINAL, trial,
                                                      cid, v, slot, row)
            if not len(trial):
                break

        # one outcome draw for every trial, against its move's row
        at = engine.first_succ.take(slot)
        if engine.cut_rows.shape[1]:
            word = stride * depth + stride - 1  # after the choice's, if any
            sample_outcomes(engine.cut_rows.take(row, axis=0),
                            streams.words(trial, word), at)

        # reach the successors met for the first time; BREAKDOWN, or a
        # successor that raised, ends
        nxt = engine.succ.take(at)
        if nxt.min() < 0:
            new = _unmet(at, engine.succ)
            if len(new):
                made = len(engine.nodes)
                engine.reach_ids(new.tolist())
                if depth + 1 < horizon:
                    # every configuration made here is stood on next, and
                    # under first-enabled its first edge is taken there:
                    # fill it, and take that move, in this batch, where an
                    # error's code waits for that depth to read.  Against
                    # the lazy fill alone (perfbench, 10 alternating pairs
                    # of 10 s runs, 2-vCPU host) this batch cut sim-coffee
                    # call_s from 15.11 to 14.56 ms (8 of 10 pairs), and
                    # left sim-choice as it was (74.2 and 74.0 ms, 5 of 10)
                    engine.fill_ids(range(made, len(engine.nodes)),
                                    policy == Strategy.FIRST_ENABLED)
                nxt = engine.succ.take(at)
            out = nxt < 0
            if out.any():
                trial, cid, v, at, nxt = ends.leave(out, nxt, BROKEN, trial,
                                                    cid, v, at, nxt)

        # the verdicts still open, judged once per configuration; once
        # none is open, none opens again
        if judging:
            open_ = np.flatnonzero(v == 0)
            judging = len(open_) > 0
            if judging:
                seen = np.zeros(len(engine.nodes), bool)
                seen[nxt[open_]] = True
                present = np.flatnonzero(seen)
                code = np.zeros(len(seen), np.intp)
                code[present] = [
                    ends.code(_verdict(engine, psi, depth + 1,
                                       engine.kbs[c]))
                    for c in present.tolist()]
                v[open_] = code.take(nxt[open_])
        if path is not None:
            path.append((trial, at))
        cid = nxt
        if not len(trial):
            break
        streams.release(stride * (depth + 1))
    if len(trial):
        ends.leave(np.ones(len(trial), bool), cid, CUT, trial, cid, v)
    return ends


def _records(engine, start, world0, policy, horizon, seed, trials):
    """The records of some trials, in increasing order, walked again
    together from start; the first to meet an error raises it."""
    if not trials:
        return []
    path = []
    ends = _lockstep(engine, start, policy, None, horizon,
                     _Streams(seed, np.array(trials, np.uint64)), path)
    steps = [[] for _ in trials]  # each trial's successor slots
    for live, at in path:
        for k, a in zip(live.tolist(), at.tolist()):
            steps[k].append(a)
    records = []
    for how, slots in zip(ends.how.tolist(), steps):
        if how < 0:
            raise engine.error(how)
        actions, kbs, num, den = [], [engine.kbs[start]], 1, 1
        for s in slots:
            m = engine.succ_slot[s]
            t, like = engine.real_rows[m].outcomes[s - engine.first_succs[m]]
            actions.append(t)
            kbs.append(engine.kbs[engine.succs[s]])
            num *= like.numerator
            den *= like.denominator
        records.append(TraceRecord(world0, actions, kbs, OUTCOMES[how],
                                   Fraction(num, den)))
    return records


def run_trace(model, world0, policy, horizon, seed=0, trial=0,
              engine=None) -> TraceRecord:
    """Execute one trace.  policy is "first-enabled", "uniform-random", or
    a map from canonical observation strings to action labels ("eps" stops).
    """
    engine = engine or TraceEngine(model)
    start = _start(engine, world0, policy)
    (record,) = _records(engine, start, world0, policy, horizon, seed,
                         [trial % _TWO64])
    return record


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
    classes = {}  # finishing class -> [least trial, trials]
    errors = []  # (least trial, error) of the step errors
    for chunk in range(0, trials, _CHUNK):
        streams = _Streams(seed, np.arange(chunk, min(chunk + _CHUNK, trials),
                                           dtype=np.uint64))
        ends = _lockstep(engine, start, policy, psi, horizon, streams)
        for key, low, count in _classes(ends):
            classes.setdefault(key, [chunk + low, 0])[1] += count
        erred = np.flatnonzero(ends.how < 0)
        if len(erred):
            errors.append((chunk + int(erred[0]),
                           engine.error(int(ends.how[erred[0]]))))
        if errors or len(ends.verdicts) > 3:
            break  # no later trial can raise first
    # each class's least trial walked again, and its trace judged once
    classes = sorted(classes.items(), key=lambda item: item[1][0])
    records = _records(engine, start, world0, policy, horizon, seed,
                       [least for _, (least, _count) in classes])
    successes = 0
    outcomes = {}  # in the order of the first trial that ends each way
    for ((how, carried), (least, count)), record in zip(classes, records):
        try:
            judged = bool(eval_trace_formula(psi, record, engine))
        except BeliefProgError as exc:  # raised in trial order
            errors.append((least, exc))
            judged = (type(exc), str(exc))
        else:
            successes += count if judged else 0
            outcomes[OUTCOMES[how]] = outcomes.get(OUTCOMES[how], 0) + count
        # eval_trace_formula stays the rule that decides
        if carried is not None and judged != carried:
            raise RuntimeError(f"trial {least} carried the verdict "
                               f"{carried!r} but its trace gives {judged!r}")
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return EstimateResult(successes / trials, hoeffding_half_width(trials),
                          successes, trials, horizon, outcomes,
                          decision_depth(psi) is not None)


def _classes(ends):
    """The finishing classes of a walk's trials that met no step error,
    (outcome, verdict), an open verdict (None) included: a trace formula
    is X, U or G of state formulas, and the tail eval_trace_formula adds
    after an open last position repeats that position's knowledge base,
    or is BREAKDOWN, or is empty, so it gives one answer whatever the
    trace's depth and last configuration (an X is open only at the
    start).  Yields each class with its least trial and trial count."""
    kinds = len(OUTCOMES)
    ok = np.flatnonzero(ends.how >= 0)
    # the key, verdict code * kinds + outcome, is small: count the keys,
    # and scan for each one's least trial
    key = ends.verdict.take(ok) * kinds + ends.how.take(ok)
    counts = np.bincount(key)
    for k in np.flatnonzero(counts).tolist():
        yield ((k % kinds, ends.verdicts[k // kinds]),
               int(ok[np.argmax(key == k)]), int(counts[k]))
