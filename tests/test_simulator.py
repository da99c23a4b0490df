from fractions import Fraction

import pytest
from scipy import stats

from beliefprog import (BeliefProgError, estimate, eval_trace_formula,
                        make_world, parse_model, parse_trace_formula,
                        progress_kb, run_trace)
from beliefprog.kb import initial_kb
from beliefprog.simulate import (TraceEngine, hoeffding_half_width,
                                 sample_index, trial_rng)

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
    counts = [0] * len(alts)
    for t in range(n):
        rng = trial_rng(1234, t)
        counts[sample_index(rng, weights)] += 1
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
    counts = [0] * len(alts)
    for t in range(n):
        counts[sample_index(trial_rng(99, t), weights)] += 1
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
