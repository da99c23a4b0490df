import json
import math
import random
from fractions import Fraction

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
from beliefprog.abstraction import ground_action_universe, program_prims
from beliefprog.cli import main
from beliefprog.kb import initial_kb
from beliefprog.pomdp import ConfigTable
from beliefprog.simulate import (TraceEngine, TraceRecord, cut_offs,
                                 hoeffding_half_width, sample_outcomes,
                                 trial_rng)
from beliefprog.syntax import (EPSILON_NAME, FAILURE_NAME, Bel, Cmp, Conf,
                               Expect, FluentRef, Num, frac_str, print_program)
from conftest import COFFEE, ROOT, random_model_text

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
        assert a.trace_likelihood == b.trace_likelihood


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
    from beliefprog import real_bat, trace_likelihood
    w0 = make_world(coffee, [0])
    for t in range(10):
        record = run_trace(coffee, w0, "first-enabled", 6, seed=9, trial=t)
        assert record.trace_likelihood == \
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
    assert record.actions == [] and record.trace_likelihood == 1


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
    counts = np.bincount(sample_outcomes(cut_offs(weights), words),
                         minlength=len(alts))
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
    counts = np.bincount(sample_outcomes(cut_offs(weights), words),
                         minlength=len(alts))
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
# unmemoised kb functions, and draws from its own numpy Generator over
# Philox, comparing each 64-bit word with exact Fraction cut-offs.

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
    key = np.array([seed % 2 ** 64, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def reference_index(rng, weights):
    """The first outcome i with r < cum_i * 2^64 for a 64-bit word r, or
    the last, decided in Fractions."""
    r = int(rng.integers(0, 2 ** 64, dtype=np.uint64))
    cum = F(0)
    for i, w in enumerate(weights):
        cum += w
        if r < cum * 2 ** 64:
            return i
    return len(weights) - 1


def reference_trace(model, world0, policy, horizon, seed, trial):
    if not all(eval_fluent_formula(c, world0) for c in model.init.constraints):
        raise BeliefProgError(f"initial world {world0!r} violates the "
                              "initial constraints")
    graph = build_graph(model.program)
    rbat = real_bat(model)
    rng = reference_rng(seed, trial)
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

        prim = edge.prim
        weighted = [(t, p) for t in oi_alternatives(prim.symbol, prim.args, model)
                    if (p := action_likelihood(t, w, rbat)) > 0]
        if not weighted:
            raise BeliefProgError(
                f"{print_program(edge.prim)} has no really-possible outcome "
                f"at {w!r}")
        t, p = weighted[reference_index(rng, [p for _, p in weighted])]
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
    return r.actions, r.kbs, r.outcome, r.trace_likelihood


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
        assert kb_mod._belief_value(Bel(phi), kb) == mass
    assert kb_mod._belief_value(Expect(fluent), kb) == mean
    assert kb_mod._belief_value(Conf(fluent, F(1)), kb) == conf


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
    assert (kb.num, kb.den) == ({worlds[0]: 1, worlds[1]: 2, worlds[2]: 3}, 6)
    assert_lowest_terms(kb)
    assert KnowledgeBase({worlds[0]: F(2, 4), worlds[1]: F(0),
                          worlds[2]: F(1, 2)}, bat).den == 2
    with pytest.raises(TypeError):
        kb.dist[worlds[0]] = F(1)


def test_holds_never_shares_an_entry_between_formulas(coffee):
    bat = believed_bat(coffee)
    world = make_world(coffee, [2])
    # each formula is dropped after one use, so without the table keeping
    # it alive a later one could reuse its id
    for v in [2, 3, 2, 1, 2] * 20:
        phi = Cmp("=", FluentRef("h"), Num(F(v)))
        assert bat.holds(world, phi) is (v == 2)


# ---------------------------------------------------------------------------
# streams and the lockstep walk

@pytest.mark.parametrize("seed", [0, 7, -1, 2 ** 63 + 5])
def test_streams_equal_numpy_philox(seed):
    trials = np.arange(200)
    words = np.concatenate([trial_rng(seed, trials, block)
                            for block in range(10)], axis=1)
    assert words.dtype == np.uint64
    for t in trials.tolist():
        key = np.array([seed % 2 ** 64, t], dtype=np.uint64)
        assert words[t].tolist() == \
            np.random.Philox(key=key).random_raw(40).tolist(), t
    # an outcome draw reads a word as a full-range integers() draw does
    rng = reference_rng(seed, 3)
    assert [int(rng.integers(0, 2 ** 64, dtype=np.uint64))
            for _ in range(12)] == words[3, :12].tolist()


def test_seeds_key_their_streams_exactly():
    # the key is [seed mod 2^64, trial] word for word: -1 is not seed 0,
    # and 2^63 + 5 is not 2^63
    trials = np.arange(4)
    for a, b in ((-1, 0), (2 ** 63 + 5, 2 ** 63)):
        assert (trial_rng(a, trials, 0) != trial_rng(b, trials, 0)).all()


def _walk_draws(seed, trial, ops):
    """The walk's draws on one trial's stream: a 64-bit outcome draw for
    None, a uniform choice among m for m."""
    streams = simulate._Streams(seed, np.array([trial], dtype=np.uint64))
    member = np.array([0])
    pos, half, out = 0, -1, []
    for m in ops:
        if m is None:
            out.append(int(streams.words(member, pos)[0]))
            pos += 1
        else:
            (_part, picks, pos, half), = simulate._uniform(
                streams, member, pos, half, m)
            out.append(int(picks[0]))
    return out


def test_uniform_draws_equal_generator_integers():
    rnd = random.Random(5)
    for case in range(300):
        ops = [rnd.choice([None, 1, 2, 3, 4, 5, 6])
               for _ in range(rnd.randint(1, 30))]
        seed, trial = rnd.randrange(2 ** 64), rnd.randrange(1000)
        rng = reference_rng(seed, trial)
        expected = [int(rng.integers(0, 2 ** 64, dtype=np.uint64))
                    if m is None else int(rng.integers(0, m)) for m in ops]
        assert _walk_draws(seed, trial, ops) == expected, case


def lemire_model(halves, m):
    """numpy's bounded draw of integers(0, m) for m < 2^32 over a stream of
    32-bit draws (buffered_bounded_lemire_uint32)."""
    rng = m - 1
    product = next(halves) * m
    leftover = product & 0xFFFFFFFF
    if leftover < m:
        threshold = (0xFFFFFFFF - rng) % m
        while leftover < threshold:
            product = next(halves) * m
            leftover = product & 0xFFFFFFFF
    return product >> 32


def test_uniform_rejection_on_crafted_words(monkeypatch):
    # m = 3 redraws exactly when a half-word is 0: trial 0 redraws once,
    # trial 1 never, trial 2 three times in its first draw
    crafted = np.array([
        [9 << 32, 5, 0, 7 << 32, 11, 12, 13, 14],
        [0x80000000 | 1 << 32, 0, 3, 4, 5, 6, 7, 8],
        [0, 0xFFFFFFFF << 32, 0, 1, 2, 3, 4, 5],
    ], dtype=np.uint64)
    monkeypatch.setattr(simulate, "trial_rng", lambda seed, trials, block:
                        crafted[:, 4 * block:4 * block + 4])
    streams = simulate._Streams(0, np.arange(3, dtype=np.uint64))
    got = [[] for _ in crafted]
    groups = [(np.arange(3), 0, -1)]
    for _ in range(4):
        groups_after = []
        for members, pos, half in groups:
            for part, picks, p, h in simulate._uniform(streams, members,
                                                       pos, half, 3):
                for t, pick in zip(part.tolist(), picks.tolist()):
                    got[t].append(pick)
                groups_after.append((part, p, h))
        groups = groups_after
    assert len(groups) > 1  # the redraws split the trials
    for t, words in enumerate(crafted.tolist()):
        halves = iter([half for w in words for half in (w & 0xFFFFFFFF, w >> 32)])
        assert got[t] == [lemire_model(halves, 3) for _ in range(4)], t


def test_cut_offs_stay_in_uint64():
    cuts = cut_offs([F(1, 3), F(1, 3), F(1, 3)])
    assert cuts.dtype == np.uint64
    first, second = cuts.tolist()
    assert (first, second) == (-(-2 ** 64 // 3), -(-2 ** 65 // 3))
    words = np.array([0, first - 1, first, second, 2 ** 64 - 1],
                     dtype=np.uint64)
    assert sample_outcomes(cuts, words).tolist() == [0, 0, 1, 2, 2]
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
    # keep sensing everywhere the first 16 trials go, except six readings
    # up or five down, where the map names an action the program lacks
    records = [reference_trace(m, w0, "first-enabled", 10, 5, t)
               for t in range(16)]
    up, down = "{(0): 1/730, (1): 729/730}", "{(0): 243/244, (1): 1/244}"
    policy = {kb.render(): "sen" for r in records for kb in r.kbs}
    policy.update({up: "east", down: "east"})
    errors = [(t, next(d for d, kb in enumerate(r.kbs)
                       if kb.render() in (up, down)))
              for t, r in enumerate(records)
              if {up, down} & {kb.render() for kb in r.kbs[:10]}]
    # the lowest erring trial is in the second chunk of 8, and the walk
    # meets another error of that chunk first, at a smaller depth
    (first, depth), (later, later_depth) = errors[:2]
    assert 8 <= first < later < 16 and later_depth < depth
    expected, met_first = (
        _result(lambda: reference_trace(m, w0, policy, 10, 5, t))
        for t in (first, later))
    assert expected[0] is met_first[0] is BeliefProgError
    assert expected[1] != met_first[1]
    monkeypatch.setattr(simulate, "_CHUNK", 8)
    with pytest.raises(BeliefProgError) as info:
        estimate(m, psi, w0, policy, 40, 5, 10)
    assert str(info.value) == expected[1]


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
    (SIM_COFFEE, 297, {"belief-breakdown": 190, "horizon-cut": 4810}),
    (SIM_CHOICE, 47, {"belief-breakdown": 51, "final": 293,
                      "horizon-cut": 1656}),
], ids=["sim-coffee", "sim-choice"])
def test_seed_zero_results_are_pinned(argv, successes, outcomes, capsys):
    # the benchmark's simulate workloads at seed 0
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["successes"], report["outcomes"]) == (successes, outcomes)


def test_sim_choice_keeps_one_step_entry_per_observed_class(monkeypatch,
                                                           capsys):
    # keyed per ground action, the believed Bat made 1898 progressions and
    # 93 moves entries; each cut-offs row was made 3078 times over 36 rows
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
    assert (len(believed._progressed), len(believed._moves)) == (1440, 63)
    assert len(rows) == len(real._branches) == 36


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
