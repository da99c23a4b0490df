import json
import math
from collections import Counter
from fractions import Fraction
from itertools import count, islice

import numpy as np
import pytest
from scipy import stats

from beliefprog import (BeliefProgError, EvalError, IncompatibleActionError,
                        IncompatibleSensingError, KnowledgeBase,
                        LikelihoodSumError, action_likelihood, believed_bat,
                        build_graph, enabled, estimate, eval_fluent_formula,
                        eval_trace_formula, make_world, oi_alternatives,
                        parse_model, parse_trace_formula, progress_kb,
                        progress_world, real_bat, reps_from_init, run_trace)
import beliefprog.kb as kb_mod
import beliefprog.simulate as simulate
from beliefprog.abstraction import ground_action_universe
from beliefprog.cli import main
from beliefprog.kb import GroundAction, initial_kb
from beliefprog.pomdp import ConfigTable
from beliefprog.program_graph import program_prims
from beliefprog.simulate import (TraceEngine, TraceRecord, cut_offs,
                                 hoeffding_half_width, sample_outcomes,
                                 trial_rng)
from beliefprog.syntax import (EPSILON_NAME, FAILURE_NAME, Bel, Cmp, Conf,
                               Expect, FluentRef, Num, frac_str, print_program)
from conftest import (COFFEE, ROOT, random_model_text, step_counts,
                      trace_likelihood)

F = Fraction


def test_reproducible_traces(coffee):
    w0 = make_world(coffee, [0])
    engine = TraceEngine(coffee)
    first = [run_trace(coffee, w0, "first-enabled", 6, seed=11, trial=t,
                       engine=engine) for t in range(50)]
    second = [run_trace(coffee, w0, "first-enabled", 6, seed=11, trial=t,
                        engine=engine) for t in range(50)]
    for a, b in zip(first, second):
        assert a.actions == b.actions
        assert a.outcome == b.outcome
        assert a.likelihood == b.likelihood


def test_different_seeds_differ(coffee):
    w0 = make_world(coffee, [0])
    runs = {tuple(str(a) for a in run_trace(coffee, w0, "first-enabled", 8,
                                            seed=s, trial=0).actions)
            for s in range(20)}
    assert len(runs) > 1


def test_kb_snapshots_match_functional_progression(coffee):
    w0 = make_world(coffee, [0])
    record = run_trace(coffee, w0, "first-enabled", 8, seed=3, trial=5)
    kb = initial_kb(coffee)
    assert record.kbs[0] == kb
    for action, snapshot in zip(record.actions, record.kbs[1:]):
        kb = progress_kb(kb, action)
        assert snapshot == kb


def test_trace_likelihood_recorded(coffee):
    from beliefprog import real_bat
    w0 = make_world(coffee, [0])
    for t in range(10):
        record = run_trace(coffee, w0, "first-enabled", 6, seed=9, trial=t)
        assert record.likelihood == \
            trace_likelihood(w0, record.actions, real_bat(coffee))
        assert len(record.kbs) == len(record.actions) + 1


def test_initial_world_must_satisfy_constraints(coffee):
    with pytest.raises(BeliefProgError):
        run_trace(coffee, make_world(coffee, [1]), "first-enabled", 5)


def test_negative_horizon_rejected(coffee):
    psi = parse_trace_formula("F<=2 B(h=2) = 1", coffee)
    with pytest.raises(BeliefProgError, match="horizon must be at least 0, got -1"):
        estimate(coffee, psi, make_world(coffee, [0]), "first-enabled", 10, 0, -1)


def test_unknown_strategy_rejected(coffee):
    with pytest.raises(BeliefProgError):
        run_trace(coffee, make_world(coffee, [0]), "fastest", 5)


def test_empty_program_final_immediately():
    m = parse_model("fluents h;\nbelief { (0): 1 }\nprogram { }\n"
                    "init { worlds: (0); }")
    record = run_trace(m, make_world(m, [0]), "first-enabled", 5)
    assert record.outcome == "final"
    assert record.actions == [] and record.likelihood == 1


def test_estimate_of_true_is_one(coffee):
    psi = parse_trace_formula("X B(true) = 1", coffee)
    res = estimate(coffee, psi, make_world(coffee, [0]), "first-enabled",
                   200, 0, 4)
    assert res.estimate == 1.0


def test_estimate_matches_checker_value(coffee):
    psi = parse_trace_formula("F<=2 B(h = 2) = 1", coffee)
    res = estimate(coffee, psi, make_world(coffee, [0]), "first-enabled",
                   20000, 42, 10)
    assert abs(res.estimate - 0.05) < 0.01
    assert res.interval[0] <= 0.05 <= res.interval[1]


def test_estimate_zero_from_hopeless_worlds(coffee):
    psi = parse_trace_formula("F<=2 B(h = 2) = 1", coffee)
    for h0 in (-1, -2):
        res = estimate(coffee, psi, make_world(coffee, [h0]), "first-enabled",
                       3000, 7, 10)
        assert res.estimate == 0.0


def test_two_step_certainty_never_reached_from_minus_two(coffee):
    # sencfe(1) has zero real likelihood at h in {-2,-1,0}; within two steps
    # the believed update keeps all mass off 2
    w0 = make_world(coffee, [-2])
    goal = parse_trace_formula("F<=2 B(h = 2) = 1", coffee)
    engine = TraceEngine(coffee)
    for t in range(500):
        record = run_trace(coffee, w0, "first-enabled", 10, seed=13, trial=t,
                           engine=engine)
        assert not eval_trace_formula(goal, record, engine)


def test_uniform_random_policy_runs(coffee):
    w0 = make_world(coffee, [0])
    record = run_trace(coffee, w0, "uniform-random", 6, seed=5, trial=1)
    assert record.outcome in ("final", "fail", "horizon-cut", "belief-breakdown")


def test_outcome_frequencies_chi_square(coffee):
    # sampled sensor outcomes at h=2 against the likelihood table (4/5, 1/5)
    from beliefprog import action_likelihood, oi_alternatives, real_bat
    rb = real_bat(coffee)
    w = make_world(coffee, [2])
    alts = oi_alternatives("sencfe", (), coffee)
    weights = [action_likelihood(a, w, rb) for a in alts]
    n = 10_000
    # the first word of each trial's stream, as one outcome draw takes it
    words = trial_rng(1234, np.arange(n), 0)[:, 0]
    picked = sample_outcomes(cut_offs(weights), words, np.zeros(n, np.intp))
    counts = np.bincount(picked, minlength=len(alts))
    expected = [float(wgt) * n for wgt in weights]
    result = stats.chisquare(counts, expected)
    assert result.pvalue > 0.001


def test_east_outcome_frequencies_chi_square(coffee):
    from beliefprog import action_likelihood, oi_alternatives, real_bat
    rb = real_bat(coffee)
    w = make_world(coffee, [0])
    alts = oi_alternatives("east", (F(1),), coffee)
    weights = [action_likelihood(a, w, rb) for a in alts]
    n = 10_000
    words = trial_rng(99, np.arange(n), 0)[:, 0]
    picked = sample_outcomes(cut_offs(weights), words, np.zeros(n, np.intp))
    counts = np.bincount(picked, minlength=len(alts))
    assert stats.chisquare(counts, [n / 2, n / 2]).pvalue > 0.001


def test_hoeffding_width_shrinks():
    assert hoeffding_half_width(100) > hoeffding_half_width(10_000)
    assert hoeffding_half_width(100_000) < 0.01


def test_breakdown_counts_against_formula():
    # the sensor really answers 1 half the time; the agent believes it never
    # does, so the first reading of 1 breaks the belief state
    text = """
        fluents h;
        action sen sensing(1, 0) {
          likelihood: case true: 1/2, 1/2;
        }
        believed {
          action sen { likelihood: case true: 0, 1; }
        }
        belief { (0): 1 }
        program { (sen)* }
    """
    m = parse_model(text)
    psi = parse_trace_formula("F<=3 B(h = 5) = 1", m)
    res = estimate(m, psi, make_world(m, [0]), "first-enabled", 400, 21, 3)
    assert res.outcomes.get("belief-breakdown", 0) > 0
    assert res.estimate == 0.0


def test_globally_on_prefix(coffee):
    psi = parse_trace_formula("G B(h = 2) < 1", coffee)
    record = run_trace(coffee, make_world(coffee, [-2]), "first-enabled", 4,
                       seed=2, trial=0)
    assert eval_trace_formula(psi, record)


# ---------------------------------------------------------------------------
# the configuration table against a reference stepper
#
# reference_trace is the simulator's step loop as it was before the
# configuration table, the Bat's step memo and the lockstep walk: one trial
# at a time, every step evaluates the guards, the real likelihoods, the
# knowledge-base update rules and the world progression afresh through the
# unmemoised kb functions, and compares each 64-bit word it draws with
# exact Fraction cut-offs: under uniform-random it reads depth d's choice
# from word 2d of the trial's stream and its outcome from word 2d + 1, and
# under the other policies depth d's outcome from word d.  It reads the
# stream from reference_rng, one numpy Philox per trial and block.

CHOICE = ROOT / "perfbench" / "models" / "coffee_choice.bp"


def reference_progress(kb, action):
    """The stochastic and sensing update rules over action_likelihood and
    progress_world, with no memo and no interning."""
    bat = kb.bat
    new = {}
    if action.symbol in (EPSILON_NAME, FAILURE_NAME):
        for w, p in kb.dist.items():
            succ = progress_world(w, action, bat)
            new[succ] = new.get(succ, F(0)) + p
        return KnowledgeBase(new, bat)
    if bat.action_decl(action.symbol).kind == "sensing":
        eta = F(0)
        for w, p in kb.dist.items():
            like = action_likelihood(action, w, bat)
            if like == 0:
                continue
            succ = progress_world(w, action, bat)
            new[succ] = new.get(succ, F(0)) + p * like
            eta += p * like
        if eta == 0:
            raise IncompatibleSensingError(f"sensing result {action} is "
                                           "believed impossible (normalizer 0)")
        return KnowledgeBase({w: p / eta for w, p in new.items()}, bat)
    alts = oi_alternatives(action.symbol, action.ctrl, bat.model)
    total = F(0)
    per_point_ok = True
    for w, p in kb.dist.items():
        point_mass = F(0)
        for alt in alts:
            like = action_likelihood(alt, w, bat)
            if like == 0:
                continue
            point_mass += like
            succ = progress_world(w, alt, bat)
            new[succ] = new.get(succ, F(0)) + p * like
        total += p * point_mass
        per_point_ok = per_point_ok and point_mass == 1
    if total == 0:
        raise IncompatibleActionError(
            f"action {action} has zero believed likelihood on the whole support")
    if not per_point_ok or total != 1:
        raise LikelihoodSumError(
            f"believed likelihoods of {action} are incomplete: "
            f"total progressed mass {frac_str(total)}")
    return KnowledgeBase(new, bat)


def reference_rng(seed, trial):
    """Trial's stream of seed, word by word: its words 4b .. 4b + 3 are the
    block of numpy's Philox with the key [seed mod 2^64, 0] at the counter
    [trial + 1, b, 0, 0] (numpy steps the counter it is given before each
    block)."""
    key = np.array([seed % 2 ** 64, 0], dtype=np.uint64)
    for block in count():
        counter = np.array([trial, block, 0, 0], dtype=np.uint64)
        yield from np.random.Philox(key=key, counter=counter).random_raw(
            4).tolist()


def reference_index(r, weights):
    """The first outcome i with r < cum_i * 2^64 for a 64-bit word r, or
    the last, decided in Fractions."""
    cum = F(0)
    for i, w in enumerate(weights):
        cum += w
        if r < cum * 2 ** 64:
            return i
    return len(weights) - 1


def reference_trace(model, world0, policy, horizon, seed, trial, words=None):
    """One trace stepped by the rules themselves.  Under uniform-random,
    depth d reads words 2d and 2d + 1 of `words`, or of trial's stream of
    seed; under the other policies, its outcome reads word d."""
    if not all(eval_fluent_formula(c, world0) for c in model.init.constraints):
        raise BeliefProgError(f"initial world {world0!r} violates the "
                              "initial constraints")
    graph = build_graph(model.program)
    rbat = real_bat(model)
    stride = 2 if policy == "uniform-random" else 1
    if words is None:
        words = list(islice(reference_rng(seed, trial), stride * horizon))
    kb = initial_kb(model)
    w = world0
    node = 0
    actions = []
    kbs = [kb]
    likelihood = F(1)

    while len(actions) < horizon:
        live, is_final, is_failing = enabled(graph, node, kb)
        if is_failing:
            return TraceRecord(world0, actions, kbs, "fail", likelihood)
        edge = None
        if policy == "first-enabled":
            if live:
                edge = live[0]
            else:
                return TraceRecord(world0, actions, kbs, "final", likelihood)
        elif policy == "uniform-random":
            options = list(live) + (["stop"] if is_final else [])
            m = len(options)
            pick = options[reference_index(words[2 * len(actions)],
                                           [F(1, m)] * m)]
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

        prim = edge.prim
        weighted = [(t, p) for t in oi_alternatives(prim.symbol, prim.args, model)
                    if (p := action_likelihood(t, w, rbat)) > 0]
        if not weighted:
            raise BeliefProgError(
                f"{print_program(edge.prim)} has no really-possible outcome "
                f"at {w!r}")
        r = words[stride * len(actions) + stride - 1]
        t, p = weighted[reference_index(r, [p for _, p in weighted])]
        try:
            next_kb = reference_progress(kb, t)
        except IncompatibleSensingError:
            return TraceRecord(world0, actions, kbs, "belief-breakdown",
                               likelihood)
        likelihood *= p
        w = progress_world(w, t, rbat)
        kb = next_kb
        actions.append(t)
        kbs.append(kb)
        node = edge.target

    return TraceRecord(world0, actions, kbs, "horizon-cut", likelihood)


def _result(stepper):
    """A record's fields, or the class and message of what it raised."""
    try:
        r = stepper()
    except Exception as exc:  # compared, not hidden
        return type(exc), str(exc)
    return r.actions, r.kbs, r.outcome, r.likelihood


def _rotating_policy_map(model, records):
    """Maps each observation the records reach to the program's action
    labels and "eps" in turn, so a run meets chosen, disabled, stopping
    and missing entries."""
    labels = [print_program(p) for p in program_prims(model.program)] + ["eps"]
    seen = dict.fromkeys(kb for r in records for kb in r.kbs)
    return {kb.render(): labels[i % len(labels)] for i, kb in enumerate(seen)}


def assert_steppers_agree(model, world0, policies, trials, horizon, seed):
    """The table walk equals the reference on every trial and policy, and
    every recorded progression through the warm believed Bat is the
    interned result of a fresh Bat's and of the reference rules."""
    walked = 0
    for policy in policies:
        engine = TraceEngine(model)
        for trial in range(trials):
            got = _result(lambda: run_trace(model, world0, policy, horizon,
                                            seed=seed, trial=trial,
                                            engine=engine))
            assert got == _result(lambda: reference_trace(
                model, world0, policy, horizon, seed, trial)), (policy, trial)
            if isinstance(got[0], type):
                continue
            actions, kbs = got[0], got[1]
            for kb, action, after in zip(kbs, actions, kbs[1:]):
                assert progress_kb(kb, action) is after
                fresh = KnowledgeBase(kb.dist, believed_bat(model))
                assert progress_kb(fresh, action) == after
                assert reference_progress(kb, action) == after
            walked += len(actions)
    return walked


@pytest.mark.parametrize("path", [COFFEE, CHOICE], ids=["coffee", "coffee-choice"])
def test_configuration_table_matches_reference(path, capsys):
    model = parse_model(path.read_text())
    world0 = make_world(model, [0])
    # one policy map: the argmax witness of type 0 (witness h = 0)
    assert main(["verify", str(path), "--property", "P1",
                 "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    witness = report["verdict"]["per_type"][0]["subformulas"][0]["argmax_policy"]
    walked = assert_steppers_agree(
        model, world0, ["first-enabled", "uniform-random", witness],
        trials=150, horizon=10, seed=5)
    assert walked > 1000


@pytest.mark.parametrize("seed", range(200))
def test_configuration_table_matches_reference_random(seed):
    model = parse_model(random_model_text(seed))
    world0 = reps_from_init(model)[0]
    records = []
    for trial in range(6):
        try:
            records.append(reference_trace(model, world0, "uniform-random",
                                           4, seed, trial))
        except BeliefProgError:
            pass
    policies = ["first-enabled", "uniform-random",
                _rotating_policy_map(model, records)]
    assert_steppers_agree(model, world0, policies, trials=6, horizon=4,
                          seed=seed)


# ---------------------------------------------------------------------------
# the integer knowledge base against the Fraction rules

def reference_belief_values(kb, fluent):
    """B(fluent = v) for each value v in the support, E(fluent) and
    Conf(fluent, 1), summed in Fractions over kb.dist."""
    dist = kb.dist
    mean = sum((w[fluent] * p for w, p in dist.items()), F(0))
    bel = {v: sum((p for w, p in dist.items() if w[fluent] == v), F(0))
           for v in {w[fluent] for w in dist}}
    conf = sum((p for w, p in dist.items() if abs(w[fluent] - mean) <= 1), F(0))
    return bel, mean, conf


def assert_lowest_terms(kb):
    assert kb.den > 0 and all(n > 0 for n in kb.num.values())
    assert math.gcd(kb.den, *kb.num.values()) == 1
    assert sum(kb.num.values()) == kb.den
    fresh = KnowledgeBase(kb.dist, kb.bat)
    assert fresh == kb and hash(fresh) == hash(kb)
    assert fresh.num == kb.num and fresh.den == kb.den
    fluent = kb.bat.model.fluents[0].name
    bel, mean, conf = reference_belief_values(kb, fluent)
    for v, mass in bel.items():
        phi = Cmp("=", FluentRef(fluent), Num(v))
        assert kb_mod._value(Bel(phi), kb, {}) == mass
    assert kb_mod._value(Expect(fluent), kb, {}) == mean
    assert kb_mod._value(Conf(fluent, F(1)), kb, {}) == conf


def _progressed(progress, kb, action):
    """progress(kb, action), or the class and message of what it raised."""
    try:
        return progress(kb, action)
    except Exception as exc:  # compared, not hidden
        return type(exc), str(exc)


def assert_progressions_match_reference(model, depth):
    """Every knowledge base reachable within depth steps of the universe's
    ground actions is in lowest terms, and progress_kb equals
    reference_progress on every action there, result or error."""
    universe = ground_action_universe(model)
    frontier = [initial_kb(model)]
    seen = set(frontier)
    for _ in range(depth):
        nxt = []
        for kb in frontier:
            assert_lowest_terms(kb)
            for action in universe:
                got = _progressed(progress_kb, kb, action)
                assert got == _progressed(reference_progress, kb, action), \
                    (kb, action)
                if isinstance(got, KnowledgeBase) and got not in seen:
                    seen.add(got)
                    nxt.append(got)
        frontier = nxt
    for kb in frontier:
        assert_lowest_terms(kb)
    return len(seen)


@pytest.mark.parametrize("path, depth, reached", [
    (COFFEE, 6, 114), (CHOICE, 5, 170)], ids=["coffee", "coffee-choice"])
def test_integer_progression_matches_reference(path, depth, reached):
    model = parse_model(path.read_text())
    assert assert_progressions_match_reference(model, depth) == reached


@pytest.mark.parametrize("seed", range(200))
def test_integer_progression_matches_reference_random(seed):
    assert_progressions_match_reference(parse_model(random_model_text(seed)), 4)


def test_rational_masses_and_values_in_lowest_terms(coffee):
    bat = believed_bat(coffee)
    worlds = [make_world(coffee, [v]) for v in (F(1, 2), F(-3, 4), 2)]
    kb = KnowledgeBase({worlds[0]: F(1, 6), worlds[1]: F(1, 3),
                        worlds[2]: F(1, 2)}, bat)
    # num is keyed by the Bat's world ids; read it by world
    assert ({kb.bat.worlds[i]: n for i, n in kb.num.items()}, kb.den) == \
        ({worlds[0]: 1, worlds[1]: 2, worlds[2]: 3}, 6)
    assert_lowest_terms(kb)
    assert KnowledgeBase({worlds[0]: F(2, 4), worlds[1]: F(0),
                          worlds[2]: F(1, 2)}, bat).den == 2
    with pytest.raises(TypeError):
        kb.dist[worlds[0]] = F(1)


def test_holds_never_shares_an_entry_between_formulas(coffee):
    bat = believed_bat(coffee)
    world = bat.intern(make_world(coffee, [2]))
    # each formula is dropped after one use, so without the table keeping
    # it alive a later one could reuse its id
    for v in [2, 3, 2, 1, 2] * 20:
        phi = Cmp("=", FluentRef("h"), Num(F(v)))
        assert bat.holds(world, phi) is (v == 2)


# ---------------------------------------------------------------------------
# streams and the lockstep walk

# Philox4x64 round multipliers and key increments (Salmon et al., SC 2011)
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
LOW32 = np.uint64(0xFFFFFFFF)
SHIFT32 = np.uint64(32)


def mulhilo(m, x):
    """High and low words of the 128-bit products m * x, from 32-bit halves
    (numpy has no 64x64->128-bit multiply)."""
    m0, m1 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x0, x1 = x & LOW32, x >> SHIFT32
    u = m1 * x0 + ((m0 * x0) >> SHIFT32)
    v = m0 * x1 + (u & LOW32)
    return m1 * x1 + (u >> SHIFT32) + (v >> SHIFT32), np.uint64(m) * x


def philox4x64(key, counter):
    """The Philox4x64-10 blocks of the key (k0, k1) at the counters, written
    from the spec: counter is the four counter words, each an array with
    one entry per block, and the blocks are the rows of the result."""
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    for r in range(10):
        k0, k1 = (np.uint64((k + r * w) % 2 ** 64)
                  for k, w in zip(key, PHILOX_W))
        hi0, lo0 = mulhilo(PHILOX_M[0], c0)
        hi1, lo1 = mulhilo(PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3), axis=1)


@pytest.mark.parametrize("seed", [0, 7, -1, 2 ** 63 + 5])
def test_streams_equal_numpy_philox(seed):
    # trial t's block b is the Philox block of the key [seed mod 2^64, 0]
    # at the counter [t + 1, b, 0, 0], in the first chunk and the second
    n = 200
    key = np.array([seed % 2 ** 64, 0], dtype=np.uint64)
    zeros = np.zeros(n, dtype=np.uint64)
    for start in (0, simulate._CHUNK):
        trials = np.arange(start, start + n, dtype=np.uint64)
        blocks = []
        for block in range(10):
            words = trial_rng(seed, trials, block)
            assert words.dtype == np.uint64 and words.shape == (n, 4)
            counters = (trials + 1, zeros + block, zeros, zeros)
            assert words.tolist() == \
                philox4x64(key.tolist(), counters).tolist()
            for t in trials.tolist():
                counter = np.array([t, block, 0, 0], dtype=np.uint64)
                assert words[t - start].tolist() == np.random.Philox(
                    key=key, counter=counter).random_raw(4).tolist(), \
                    (t, block)
            blocks.append(words)
        words = np.concatenate(blocks, axis=1)
        assert words[3].tolist() == \
            list(islice(reference_rng(seed, start + 3), 40))
        # a run of trials reads the same words as the runs it splits into
        split = [trial_rng(seed, part, 1) for part in (trials[:7], trials[7:])]
        assert words[:, 4:8].tolist() == np.concatenate(split).tolist()


def test_streams_read_consecutive_trials_only():
    for trials in ([0, 2], [3, 2], [5, 5]):
        with pytest.raises(ValueError, match="consecutive"):
            trial_rng(0, np.array(trials, dtype=np.uint64), 0)
    # the last trial's counter word carries into the block's: numpy's
    # counter is one 256-bit number
    last = np.array([2 ** 64 - 1], dtype=np.uint64)
    assert trial_rng(9, last, 2).tolist() == \
        philox4x64((9, 0), ([0], [3], [0], [0])).tolist()


def test_scattered_trials_read_their_own_words():
    # a records walk's trials are scattered: each run of consecutive ones
    # takes one trial_rng call, and each trial reads its own stream
    trials = np.array([3, 4, 9, 2000], dtype=np.uint64)
    streams = simulate._Streams(7, trials)
    assert [len(run) for run in streams.runs] == [2, 1, 1]
    for index in (1, 6, 13):
        own = [trial_rng(7, [t], index >> 2)[0, index & 3]
               for t in trials.tolist()]
        assert streams.words(np.arange(4), index).tolist() == own
        assert streams.words(np.array([3, 1]), index).tolist() == \
            [own[3], own[1]]


def test_seeds_key_their_streams_exactly():
    # the key is [seed mod 2^64, 0] word for word: -1 is not seed 0, and
    # 2^63 + 5 is not 2^63.  The key and the counter go to numpy as uint64
    # arrays: a list of Python ints past 2^63 would pass through float64
    trials = np.arange(4, dtype=np.uint64)
    for a, b in ((-1, 0), (2 ** 63 + 5, 2 ** 63)):
        words = trial_rng(a, trials, 0)
        assert (words != trial_rng(b, trials, 0)).all()
        key = np.array([a % 2 ** 64, 0], dtype=np.uint64)
        for t in trials.tolist():
            counter = np.array([t, 0, 0, 0], dtype=np.uint64)
            assert words[t].tolist() == np.random.Philox(
                key=key, counter=counter).random_raw(4).tolist()


def arms_model(m):
    """A program that chooses among m actions and stops: east(i) sets h
    to i with certainty."""
    arms = " | ".join(f"east({i})" for i in range(m))
    return parse_model(f"""
        fluents h;
        action east stochastic(x; y) {{
          outcomes: (x);
          likelihood: case true: 1;
        }}
        ssa h {{ case east(x, y): y; default: h; }}
        belief {{ (0): 1 }}
        init {{ worlds: (0); }}
        program {{ {arms} }}
    """)


def crafted_streams(monkeypatch, words):
    """Make trial t's stream the row words[t]."""
    monkeypatch.setattr(simulate, "trial_rng", lambda seed, trials, block:
                        words[np.asarray(trials, dtype=np.intp),
                              4 * block:4 * block + 4])


def test_uniform_choice_on_crafted_words(monkeypatch):
    # a choice among m reads word 0 at depth 0: the word ceil(i * 2^64 / m)
    # is the least that picks option i, so one below it picks i - 1
    for m in range(2, 8):
        model = arms_model(m)
        cuts = [-(-(i << 64) // m) for i in range(1, m)]
        draws = [(0, 0), (2 ** 64 - 1, m - 1)]
        draws += [(cut, i) for i, cut in enumerate(cuts, 1)]
        draws += [(cut - 1, i - 1) for i, cut in enumerate(cuts, 1)]
        words = np.zeros((len(draws), 4), dtype=np.uint64)
        words[:, 0] = [word for word, _ in draws]
        crafted_streams(monkeypatch, words)
        engine = TraceEngine(model)
        for t, (word, pick) in enumerate(draws):
            assert pick == word * m >> 64
            record = run_trace(model, make_world(model, [0]), "uniform-random",
                               1, trial=t, engine=engine)
            assert record.actions[0].ctrl == (F(pick),), (m, word)


def test_crafted_streams_through_the_walk_equal_one_trial_walks(monkeypatch):
    # the choice model picks one of sencfe, east(1) and east(0) at each step
    # from word 2d, and an outcome from word 2d + 1.  Trials 0-11 meet the
    # choice's cut-offs at depth 0 or 1, and their east outcomes the cut-off
    # 2^63: each word at a cut-off picks the later option, the word below
    # it the earlier
    model = parse_model(CHOICE.read_text())
    world0 = make_world(model, [0])
    psi = parse_trace_formula("F<=3 B(h = 2) = 1", model)
    words = np.random.default_rng(11).integers(0, 2 ** 64, size=(300, 20),
                                               dtype=np.uint64)
    third, two_thirds = -(-2 ** 64 // 3), -(-2 ** 65 // 3)
    edges = [third - 1, third, two_thirds - 1, two_thirds, 0, 2 ** 64 - 1]
    for t in range(12):
        depth = t // 6
        words[t, 2 * depth:2 * depth + 2] = [edges[t % 6],
                                             2 ** 63 - 1 + t // 2 % 2]
    crafted_streams(monkeypatch, words)
    engine = TraceEngine(model)
    records = []
    for t in range(len(words)):
        record = run_trace(model, world0, "uniform-random", 10, trial=t,
                           engine=engine)
        expected = reference_trace(model, world0, "uniform-random", 10, 0, t,
                                   words=words[t].tolist())
        assert _result(lambda: record) == _result(lambda: expected), t
        records.append(record)
    assert [str(records[t].actions[0]) for t in range(6)] == [
        "sencfe(0)", "east(1, 1)", "east(1, 0)", "east(0, -1)", "sencfe(0)",
        "east(0, 0)"]
    # outcomes in the order of the first trial that ends each way
    expected = (sum(eval_trace_formula(psi, r) for r in records),
                list(Counter(r.outcome for r in records).items()))
    assert expected == (6, [("horizon-cut", 251), ("final", 44),
                            ("belief-breakdown", 5)])
    for chunk in (simulate._CHUNK, 7):
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        res = estimate(model, psi, world0, "uniform-random", len(words), 0, 10)
        assert (res.successes, list(res.outcomes.items())) == expected


def test_uniform_choice_frequencies_chi_square():
    # one walk of 10,000 trials, each choosing among three actions
    model = arms_model(3)
    engine = TraceEngine(model)
    start = simulate._start(engine, make_world(model, [0]), "uniform-random")
    n = 10_000
    streams = simulate._Streams(2024, np.arange(n, dtype=np.uint64))
    path = []
    ends = simulate._lockstep(engine, start, "uniform-random", None, 1,
                              streams, path)
    assert not ends.errors
    assert (ends.how == simulate.OUTCOMES.index("horizon-cut")).all()
    # east(i) sets h to i, so the configuration a trial reaches names its
    # arm
    ((live, at),) = path
    assert len(live) == n
    counts = Counter(engine.configs[c].world["h"]
                     for c in engine.succ.take(at).tolist())
    assert sum(counts.values()) == n
    observed = [counts.get(F(i), 0) for i in range(3)]
    assert stats.chisquare(observed, [n / 3] * 3).pvalue > 0.001


def test_cut_offs_stay_in_uint64():
    cuts = cut_offs([F(1, 3), F(1, 3), F(1, 3)])
    assert cuts.dtype == np.uint64
    first, second = cuts.tolist()
    assert (first, second) == (-(-2 ** 64 // 3), -(-2 ** 65 // 3))
    words = np.array([0, first - 1, first, second, 2 ** 64 - 1],
                     dtype=np.uint64)
    zeros = np.zeros(5, np.intp)
    assert sample_outcomes(cuts, words, zeros.copy()).tolist() == \
        [0, 0, 1, 2, 2]
    # the picks add to the first option's index, as a move's first slot
    assert sample_outcomes(cuts, words, np.arange(5)).tolist() == \
        [0, 1, 3, 5, 6]
    # one row per word, padded with zeros that no word passes
    rows = np.array([[first, 0], [first, second], [first, second],
                     [2 ** 63, 0], [0, 0]], dtype=np.uint64)
    assert sample_outcomes(rows, words, zeros).tolist() == [0, 0, 1, 1, 0]
    # ceil(cum * 2^64) = 2^64 for a cum just short of 1: no word passes
    # that outcome, so its cut-off and the later ones are left out
    tiny = F(1, 2 ** 70)
    assert cut_offs([F(1, 2), F(1, 2) - tiny, tiny]).tolist() == [2 ** 63]


def _reference_estimate(model, psi, world0, policy, trials, seed, horizon):
    successes, outcomes = 0, {}
    for trial in range(trials):
        record = reference_trace(model, world0, policy, horizon, seed, trial)
        outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
        successes += eval_trace_formula(psi, record)
    return successes, outcomes


def test_estimate_over_chunks_equals_per_trial_reference(monkeypatch):
    model = parse_model(CHOICE.read_text())
    world0 = make_world(model, [0])
    psi = parse_trace_formula("F<=3 B(h = 2) = 1", model)
    expected = _reference_estimate(model, psi, world0, "uniform-random",
                                   150, 3, 6)
    for chunk in (simulate._CHUNK, 64, 7):
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        res = estimate(model, psi, world0, "uniform-random", 150, 3, 6)
        assert (res.successes, res.outcomes) == expected, chunk


def test_estimate_beyond_one_chunk_is_chunk_independent(coffee, monkeypatch):
    psi = parse_trace_formula("F<=2 B(h = 2) = 1", coffee)
    w0 = make_world(coffee, [0])
    trials = simulate._CHUNK + 3000
    whole = estimate(coffee, psi, w0, "first-enabled", trials, 8, 10)
    monkeypatch.setattr(simulate, "_CHUNK", 5000)
    parts = estimate(coffee, psi, w0, "first-enabled", trials, 8, 10)
    assert (whole.successes, whole.outcomes) == \
        (parts.successes, parts.outcomes)
    assert list(whole.outcomes) == list(parts.outcomes)


def _estimated(run):
    """(successes, outcomes in first-trial order), or the class and message
    of what run raised."""
    try:
        successes, outcomes = run()
    except Exception as exc:  # compared, not hidden
        return type(exc), str(exc)
    return successes, list(outcomes.items())


# decided early, open at the horizon, open under G, raising where the
# expectation is 0, open under an unbounded F, and X, which is open only
# at the start
RANDOM_PSIS = ["F<=2 B(f0 = 0) >= 1/2", "F<=6 Expect(f0) > 0",
               "G B(f0 = 1) < 1", "F<=3 1 / Expect(f0) > 1",
               "F !(B(f0 = 0) >= 1/2)", "X !(B(f0 = 0) = 1)"]


@pytest.mark.parametrize("seed", range(36))
def test_estimate_equals_per_trial_reference_random(seed, monkeypatch):
    # finishing class by class gives each trial's verdict, outcome and
    # error as running the trials one by one does
    model = parse_model(random_model_text(seed))
    world0 = reps_from_init(model)[0]
    psi = parse_trace_formula(RANDOM_PSIS[seed % len(RANDOM_PSIS)], model)
    records = []
    for trial in range(6):
        try:
            records.append(reference_trace(model, world0, "uniform-random",
                                           4, seed, trial))
        except BeliefProgError:
            pass
    for policy in ["first-enabled", "uniform-random",
                   _rotating_policy_map(model, records)]:
        expected = _estimated(lambda: _reference_estimate(
            model, psi, world0, policy, 12, seed, 4))
        for chunk in (simulate._CHUNK, 7):
            monkeypatch.setattr(simulate, "_CHUNK", chunk)

            def run():
                res = estimate(model, psi, world0, policy, 12, seed, 4)
                return res.successes, res.outcomes
            assert _estimated(run) == expected, (policy, chunk)


def test_sim_choice_judges_each_finishing_class_once(monkeypatch, capsys):
    # 1333 finished groups of the lockstep walk fall into five classes
    calls = []
    judge = simulate.eval_trace_formula

    def counting(*args, **kwargs):
        calls.append(args[1])
        return judge(*args, **kwargs)
    monkeypatch.setattr(simulate, "eval_trace_formula", counting)
    assert main(SIM_CHOICE) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["successes"], len(calls)) == (33, 5)


def test_a_carried_verdict_that_its_trace_denies_raises(coffee, monkeypatch):
    # eval_trace_formula stays the rule that decides: a walk that carries
    # the wrong verdict is a fault, not a count
    verdict = simulate._verdict

    def flipped(*args):
        v = verdict(*args)
        return not v if isinstance(v, bool) else v
    monkeypatch.setattr(simulate, "_verdict", flipped)
    psi = parse_trace_formula("F<=2 B(h = 2) = 1", coffee)
    with pytest.raises(RuntimeError, match="carried the verdict"):
        estimate(coffee, psi, make_world(coffee, [0]), "first-enabled",
                 200, 0, 10)


# a sensor that really answers 1 or 0 half the time each, believed
# 3/4-accurate about h = 1: the belief walks with the readings
WALK = """
    fluents h;
    action sen sensing(1, 0) {
      likelihood: case true: 1/2, 1/2;
    }
    believed {
      action sen { likelihood: case h = 1: 3/4, 1/4; default: 1/4, 3/4; }
    }
    belief { (0): 1/2, (1): 1/2 }
    program { (sen)* }
"""


def test_first_error_is_the_lowest_trials(monkeypatch):
    m = parse_model(WALK)
    w0 = make_world(m, [0])
    psi = parse_trace_formula("F<=8 B(h = 1) = 1", m)
    # a word below 2^63 reads 1 and walks the belief up, one at or above
    # it reads 0 and walks it down.  Trials alternate their readings and
    # never go far, except trial 9, which reads 1 six times from depth 0,
    # and trial 12, which reads 0 five times: the map names an action the
    # program lacks six readings up and five down
    up, down = 2 ** 63 - 1, 2 ** 63
    words = np.array([[up, down] * 6] * 16, dtype=np.uint64)
    words[9, :6] = up
    words[12, :5] = down
    crafted_streams(monkeypatch, words)
    records = [reference_trace(m, w0, "first-enabled", 10, 0, t,
                               words=words[t].tolist()) for t in range(16)]
    high, low = "{(0): 1/730, (1): 729/730}", "{(0): 243/244, (1): 1/244}"
    policy = {kb.render(): "sen" for r in records for kb in r.kbs}
    policy.update({high: "east", low: "east"})
    errors = [(t, next(d for d, kb in enumerate(r.kbs)
                       if kb.render() in (high, low)))
              for t, r in enumerate(records)
              if {high, low} & {kb.render() for kb in r.kbs[:10]}]
    # the lowest erring trial is in the second chunk of 8, and the walk
    # meets another error of that chunk first, at a smaller depth
    (first, depth), (later, later_depth) = errors
    assert 8 <= first < later < 16 and later_depth < depth
    expected, met_first = (
        _result(lambda: reference_trace(m, w0, policy, 10, 0, t,
                                        words=words[t].tolist()))
        for t in (first, later))
    assert expected[0] is met_first[0] is BeliefProgError
    assert expected[1] != met_first[1]
    monkeypatch.setattr(simulate, "_CHUNK", 8)
    with pytest.raises(BeliefProgError) as info:
        estimate(m, psi, w0, policy, 16, 0, 10)
    assert str(info.value) == expected[1]


def test_a_policy_maps_error_leaves_later_picks_to_be_read(monkeypatch):
    # the map names an action the program lacks one reading up.  Trial 1
    # meets that at depth 1; trial 2 meets it again at depth 3, where
    # trial 0, after three readings down, stands where no pick was read
    # yet and the map names nothing, so it stops
    m = parse_model(WALK)
    w0 = make_world(m, [0])
    up, down = 2 ** 63 - 1, 2 ** 63
    words = np.array([[down] * 12, [up] * 12, [down, up] + [up] * 10],
                     dtype=np.uint64)
    crafted_streams(monkeypatch, words)
    policy = {"{(0): 1/2, (1): 1/2}": "sen", "{(0): 3/4, (1): 1/4}": "sen",
              "{(0): 9/10, (1): 1/10}": "sen", "{(0): 1/4, (1): 3/4}": "east"}
    engine = TraceEngine(m)
    start = simulate._start(engine, w0, policy)
    streams = simulate._Streams(0, np.arange(3, dtype=np.uint64))
    ends = simulate._lockstep(engine, start, policy, None, 10, streams)
    got = [simulate.OUTCOMES[h] if h >= 0 else str(ends.errors[-1 - h])
           for h in ends.how.tolist()]
    stopped, *erred = [
        _result(lambda: reference_trace(m, w0, policy, 10, 0, t,
                                        words=words[t].tolist()))
        for t in range(3)]
    assert (stopped[2], len(stopped[0])) == ("final", 3)
    assert got == ["final"] + [message for _, message in erred]


def test_a_trials_step_error_outranks_its_verdict_error():
    # trial by trial, a trace ran to its end before its formula was read:
    # trial 0's verdict divides by zero at its first reading of 1 (depth
    # 1), and its second reading of 1 (depth 2) meets a policy error
    m = parse_model(WALK)
    w0 = make_world(m, [0])
    psi = parse_trace_formula("F<=10 1 / (B(h = 1) - 3/4) > 100", m)
    records = [reference_trace(m, w0, "first-enabled", 10, 0, t)
               for t in range(8)]
    up2 = "{(0): 1/10, (1): 9/10}"
    assert [kb.render() for kb in records[0].kbs[1:3]] == \
        ["{(0): 1/4, (1): 3/4}", up2]
    with pytest.raises(EvalError, match="division by zero"):
        eval_trace_formula(psi, records[0])
    with pytest.raises(EvalError, match="division by zero"):
        estimate(m, psi, w0, "first-enabled", 50, 0, 10)
    policy = {kb.render(): "sen" for r in records for kb in r.kbs}
    policy[up2] = "east"
    expected = _result(lambda: reference_trace(m, w0, policy, 10, 0, 0))
    assert expected[0] is BeliefProgError
    with pytest.raises(BeliefProgError) as info:
        estimate(m, psi, w0, policy, 50, 0, 10)
    assert (type(info.value), str(info.value)) == expected


def test_estimate_checks_the_initial_world_once(coffee, monkeypatch):
    calls = []
    check = simulate.eval_fluent_formula

    def counting(formula, world, *args):
        calls.append(formula)
        return check(formula, world, *args)

    monkeypatch.setattr(simulate, "eval_fluent_formula", counting)
    psi = parse_trace_formula("F<=2 B(h=2) = 1", coffee)
    res = estimate(coffee, psi, make_world(coffee, [0]), "first-enabled",
                   5000, 0, 10)
    assert res.trials == 5000
    assert len(calls) == len(coffee.init.constraints) == 1


# ---------------------------------------------------------------------------
# seeded results and the lifetime of the step tables

SIM_COFFEE = ["simulate", str(COFFEE), "--world", "h=0",
              "--policy", "first-enabled", "--psi", "F<=2 B(h=2) = 1",
              "--trials", "5000", "--horizon", "10", "--seed", "0",
              "--format", "json"]
SIM_CHOICE = ["simulate", str(CHOICE), "--world", "h=0",
              "--policy", "uniform-random", "--psi", "F<=3 B(h = 2) = 1",
              "--trials", "2000", "--horizon", "10", "--seed", "0",
              "--format", "json"]


@pytest.mark.parametrize("argv, successes, outcomes", [
    (SIM_COFFEE, 237, {"belief-breakdown": 186, "horizon-cut": 4814}),
    (SIM_CHOICE, 33, {"belief-breakdown": 50, "final": 273,
                      "horizon-cut": 1677}),
], ids=["sim-coffee", "sim-choice"])
def test_seed_zero_results_are_pinned(argv, successes, outcomes, capsys):
    # the benchmark's simulate workloads at seed 0, as _reference_estimate
    # counts them trial by trial
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["successes"], report["outcomes"]) == (successes, outcomes)


def test_sim_choice_keeps_one_step_entry_per_observed_class(monkeypatch,
                                                           capsys):
    # the 2000 reference traces take 1521 distinct (knowledge base,
    # observed class) steps, their knowledge bases' worlds 64 distinct
    # (world, observed class) moves, and their real worlds 37 distinct
    # (world, action) likelihood rows.  Each cut-offs row is made once; two
    # more rows are the cut-offs of choices among 2 and among 3
    bats, rows = [], []
    init = kb_mod.Bat.__init__

    def recording_init(self, *args):
        init(self, *args)
        bats.append(self)

    def recording_cut_offs(weights):
        rows.append(weights)
        return cut_offs(weights)
    monkeypatch.setattr(kb_mod.Bat, "__init__", recording_init)
    monkeypatch.setattr(simulate, "cut_offs", recording_cut_offs)
    assert main(SIM_CHOICE) == 0
    capsys.readouterr()
    (believed,) = [b for b in bats if b.which == "believed"]
    (real,) = [b for b in bats if b.which == "real"]
    assert step_counts(believed) == (1521, 64)
    assert len(rows) - 2 == len(real._branches) == 37


def test_branches_are_keyed_by_world_id_and_observed_class():
    # a key of Fractions would hash them on every lookup
    model = parse_model(CHOICE.read_text())
    engine = TraceEngine(model)
    psi = parse_trace_formula("F<=3 B(h = 2) = 1", model)
    estimate(model, psi, make_world(model, [0]), "uniform-random", 2000, 0,
             10, engine=engine)
    for bat in (engine.rbat, engine.kb0.bat):
        assert bat._branches
        for key in bat._branches:
            assert [type(part) for part in key] == [int, GroundAction], key
            assert key[1].oi_class is key[1]


def test_cli_calls_share_no_step_table(monkeypatch, capsys):
    """Each cli.main call reads and fills only tables it made: no Bat or
    configuration table (a simulate engine is one) outlives the call that
    made it."""
    made, used = [], []
    for cls, methods in ((kb_mod.Bat, ("step", "branches", "moves",
                                       "intern", "intern_kb")),
                         (ConfigTable, ("entry",))):
        init = cls.__init__

        def recording_init(self, *args, _init=init, **kwargs):
            _init(self, *args, **kwargs)
            made.append(self)
        monkeypatch.setattr(cls, "__init__", recording_init)
        for name in methods:
            method = getattr(cls, name)

            def recording(self, *args, _method=method):
                used.append(self)
                return _method(self, *args)
            monkeypatch.setattr(cls, name, recording)

    small_sim = SIM_COFFEE[:SIM_COFFEE.index("--trials")] + ["--trials", "50"]
    for argv in [small_sim] * 2 + [["verify", str(COFFEE), "--property", "P1"]] * 2:
        made.clear()
        used.clear()
        main(argv)
        assert used
        assert set(map(id, used)) <= set(map(id, made)), argv
    capsys.readouterr()
