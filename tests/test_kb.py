from fractions import Fraction

import pytest

from beliefprog import (EPSILON, FAILURE, IncompatibleSensingError,
                        LikelihoodSumError, action_likelihood, believed_bat,
                        eval_fluent_formula, eval_subjective, initial_kb,
                        make_world, oi_alternatives, parse_ground_action,
                        parse_model, progress_kb, progress_kb_sensing,
                        progress_kb_stochastic, progress_world, real_bat,
                        trace_likelihood)
from beliefprog.kb import BREAKDOWN, KnowledgeBase, next_observation
from beliefprog.parser import parse_subjective

F = Fraction


def ga(coffee, term):
    return parse_ground_action(term, coffee)


def dist_of(kb, coffee):
    return {w["h"]: p for w, p in kb.dist.items()}


# ---------------------------------------------------------------------------
# formula and world evaluation

def test_eval_constraint_at_origin(coffee):
    w = make_world(coffee, [0])
    # initial theory: h <= 0
    assert eval_fluent_formula(coffee.init.constraints[0], w)
    assert not eval_fluent_formula(coffee.init.constraints[0], make_world(coffee, [1]))


def test_eval_reflexive_equality(coffee):
    w = make_world(coffee, [F(7, 3)])
    ctx = coffee.real_bat.likelihood_for("sencfe").rows[1].context  # h = 1 | h = 3
    assert eval_fluent_formula(ctx, make_world(coffee, [1]))
    assert eval_fluent_formula(ctx, make_world(coffee, [3]))
    assert not eval_fluent_formula(ctx, w)


def test_progress_world_east(coffee):
    w = make_world(coffee, [0])
    rb = real_bat(coffee)
    assert progress_world(w, ga(coffee, "east(1, 1)"), rb)["h"] == 1
    assert progress_world(w, ga(coffee, "east(1, 0)"), rb)["h"] == 0


def test_progress_world_sensing_changes_nothing(coffee):
    w = make_world(coffee, [0])
    assert progress_world(w, ga(coffee, "sencfe(1)"), real_bat(coffee)) == w


def test_progress_world_reserved_actions(coffee):
    w = make_world(coffee, [0])
    rb = real_bat(coffee)
    w_eps = progress_world(w, EPSILON, rb)
    assert w_eps["Final"] == 1 and w_eps["h"] == 0 and w_eps["Fail"] == 0
    w_fail = progress_world(w, FAILURE, rb)
    assert w_fail["Fail"] == 1 and w_fail["Final"] == 0


# ---------------------------------------------------------------------------
# likelihoods

def test_sensor_likelihood_table(coffee):
    rb = real_bat(coffee)
    s1 = ga(coffee, "sencfe(1)")
    assert action_likelihood(s1, make_world(coffee, [2]), rb) == F(4, 5)
    assert action_likelihood(s1, make_world(coffee, [1]), rb) == F(1, 10)
    assert action_likelihood(s1, make_world(coffee, [5]), rb) == 0
    assert action_likelihood(s1, make_world(coffee, [0]), rb) == 0


def test_east_likelihood_uniform(coffee):
    rb = real_bat(coffee)
    w = make_world(coffee, [0])
    assert action_likelihood(ga(coffee, "east(1, 0)"), w, rb) == F(1, 2)
    assert action_likelihood(ga(coffee, "east(1, 1)"), w, rb) == F(1, 2)
    # unctrl value outside the declared outcomes
    assert action_likelihood(ga(coffee, "east(1, 7)"), w, rb) == 0


def test_reserved_actions_have_likelihood_one(coffee):
    w = make_world(coffee, [0])
    assert action_likelihood(EPSILON, w, real_bat(coffee)) == 1
    assert action_likelihood(FAILURE, w, believed_bat(coffee)) == 1


def test_oi_alternatives(coffee):
    east = oi_alternatives("east", (F(1),), coffee)
    assert [str(a) for a in east] == ["east(1, 1)", "east(1, 0)"]
    sen = oi_alternatives("sencfe", (), coffee)
    assert [str(a) for a in sen] == ["sencfe(1)", "sencfe(0)"]
    assert oi_alternatives("eps", (), coffee) == [EPSILON]


# ---------------------------------------------------------------------------
# knowledge-base progression goldens

def test_stochastic_progression_spreads_uniform(coffee):
    kb = initial_kb(coffee)
    kb1 = progress_kb_stochastic(kb, ga(coffee, "east(1, 1)"))
    assert dist_of(kb1, coffee) == {0: F(1, 4), 1: F(1, 2), 2: F(1, 4)}


def test_sensing_positive_collapses_to_two(coffee):
    kb1 = progress_kb(initial_kb(coffee), ga(coffee, "east(1, 1)"))
    kb2 = progress_kb_sensing(kb1, ga(coffee, "sencfe(1)"))
    assert dist_of(kb2, coffee) == {2: F(1)}


def test_sensing_negative_renormalizes(coffee):
    kb1 = progress_kb(initial_kb(coffee), ga(coffee, "east(1, 1)"))
    kb3 = progress_kb_sensing(kb1, ga(coffee, "sencfe(0)"))
    assert dist_of(kb3, coffee) == {0: F(1, 3), 1: F(2, 3)}


def test_point_mass_spreads_to_half_half(coffee):
    # hand sum over the two OI alternatives of east(1, _) from h = 0
    kb = KnowledgeBase({make_world(coffee, [0]): F(1)}, believed_bat(coffee))
    kb1 = progress_kb_stochastic(kb, ga(coffee, "east(1, 1)"))
    assert dist_of(kb1, coffee) == {0: F(1, 2), 1: F(1, 2)}


def test_sensing_from_initial_kb_is_incompatible(coffee):
    # believed-accurate sensor assigns zero likelihood to a positive reading
    # while no mass sits at 2
    with pytest.raises(IncompatibleSensingError):
        progress_kb_sensing(initial_kb(coffee), ga(coffee, "sencfe(1)"))


def test_flat_sensing_likelihood_is_identity(coffee):
    kb = initial_kb(coffee)
    kb0 = progress_kb_sensing(kb, ga(coffee, "sencfe(0)"))
    assert kb0 == kb


def test_progression_by_epsilon_only_touches_final(coffee):
    kb = initial_kb(coffee)
    kb_eps = progress_kb(kb, EPSILON)
    assert dist_of(kb_eps, coffee) == {0: F(1, 2), 1: F(1, 2)}
    assert all(w["Final"] == 1 for w in kb_eps.dist)


def test_incomplete_believed_likelihoods_raise():
    text = """
        fluents h;
        action a stochastic(; y) {
          outcomes: (0), (1);
          likelihood: case h = 0: 1/2, 1/2; default: 1/3, 1/3;
        }
        ssa h { case a(y): y; default: h; }
        belief { (1): 1 }
        program { a }
    """
    m = parse_model(text)
    with pytest.raises(LikelihoodSumError):
        progress_kb(initial_kb(m), parse_ground_action("a(0)", m))
    # not a belief breakdown
    with pytest.raises(LikelihoodSumError):
        next_observation(initial_kb(m), parse_ground_action("a(0)", m))


def test_next_observation_folds_only_believed_impossible_sensing(coffee):
    kb = initial_kb(coffee)
    assert next_observation(kb, ga(coffee, "sencfe(0)")) == \
        progress_kb(kb, ga(coffee, "sencfe(0)"))
    assert next_observation(kb, ga(coffee, "sencfe(1)")) is BREAKDOWN
    assert next_observation(BREAKDOWN, ga(coffee, "east(1, 1)")) is BREAKDOWN


def test_breakdown_is_one_observation(coffee):
    assert BREAKDOWN.render() == BREAKDOWN.render(coffee.fluent_order) == \
        "belief-breakdown"
    assert BREAKDOWN != initial_kb(coffee) and initial_kb(coffee) != BREAKDOWN
    assert BREAKDOWN.key != initial_kb(coffee).key
    assert {BREAKDOWN: 1}[BREAKDOWN] == 1


# ---------------------------------------------------------------------------
# subjective evaluation

def test_belief_of_coffee_position(coffee):
    kb = initial_kb(coffee)
    assert eval_subjective(kb, parse_subjective("B(h = 2) < 1", coffee))
    assert eval_subjective(kb, parse_subjective("B(true) = 1", coffee))
    assert eval_subjective(kb, parse_subjective("B(h = 0) = 1/2", coffee))


def test_expectation_is_mass_weighted_sum(coffee):
    kb = initial_kb(coffee)
    assert eval_subjective(kb, parse_subjective("Expect(h) = 1/2", coffee))
    kb1 = progress_kb(kb, ga(coffee, "east(1, 1)"))
    assert eval_subjective(kb1, parse_subjective("Expect(h) = 1", coffee))


def test_confidence_uses_closed_interval(coffee):
    # uniform on {0,1}: E = 1/2, both points sit exactly at distance 1/2,
    # so the whole mass lies inside [E - 1/2, E + 1/2]
    kb = initial_kb(coffee)
    assert eval_subjective(kb, parse_subjective("Conf(h, 1/2) = 1", coffee))
    assert not eval_subjective(kb, parse_subjective("Conf(h, 1/2) <= 1/2", coffee))
    # after east: E = 1, only h=1 is within 1/2
    kb1 = progress_kb(kb, ga(coffee, "east(1, 1)"))
    assert eval_subjective(kb1, parse_subjective("Conf(h, 1/2) = 1/2", coffee))
    assert eval_subjective(kb1, parse_subjective("Conf(h, 1/2) <= 1/2", coffee))


def test_belief_arithmetic(coffee):
    kb = initial_kb(coffee)
    assert eval_subjective(kb, parse_subjective("B(h = 0) + B(h = 1) = 1", coffee))
    assert eval_subjective(kb, parse_subjective("2 * B(h = 0) = 1", coffee))


# ---------------------------------------------------------------------------
# trace likelihood

def test_trace_likelihood_empty_is_one(coffee):
    assert trace_likelihood(make_world(coffee, [0]), [], real_bat(coffee)) == 1


def test_trace_likelihood_of_paper_path(coffee):
    w = make_world(coffee, [0])
    z = [ga(coffee, "east(1, 1)"), ga(coffee, "sencfe(1)")]
    assert trace_likelihood(w, z, real_bat(coffee)) == F(1, 20)


def test_trace_likelihood_zero_step_annihilates(coffee):
    w = make_world(coffee, [0])
    z = [ga(coffee, "sencfe(1)"), ga(coffee, "east(1, 1)")]
    assert trace_likelihood(w, z, real_bat(coffee)) == 0


# ---------------------------------------------------------------------------
# progression invariants on the coffee model

def test_progressed_distributions_normalized(coffee):
    kb = initial_kb(coffee)
    for term in ("east(1, 1)", "sencfe(0)", "east(1, 0)", "sencfe(0)"):
        kb = progress_kb(kb, ga(coffee, term))
        assert kb.total() == 1
        assert all(p > 0 for p in kb.dist.values())


def test_progression_order_independent(coffee):
    # same map regardless of support iteration order
    kb_a = KnowledgeBase({make_world(coffee, [0]): F(1, 2),
                          make_world(coffee, [1]): F(1, 2)}, believed_bat(coffee))
    kb_b = KnowledgeBase({make_world(coffee, [1]): F(1, 2),
                          make_world(coffee, [0]): F(1, 2)}, believed_bat(coffee))
    t = ga(coffee, "east(1, 1)")
    assert progress_kb_stochastic(kb_a, t) == progress_kb_stochastic(kb_b, t)


def test_deterministic_action_is_pushforward():
    text = """
        fluents h;
        action bump stochastic(; y) {
          outcomes: (1);
          likelihood: case true: 1;
        }
        ssa h { case bump(y): h + y; default: h; }
        belief { (0): 1/3, (5): 2/3 }
        program { bump }
    """
    m = parse_model(text)
    kb = progress_kb(initial_kb(m), parse_ground_action("bump(1)", m))
    assert {w["h"]: p for w, p in kb.dist.items()} == {1: F(1, 3), 6: F(2, 3)}


def test_render_sorted(coffee):
    kb1 = progress_kb(initial_kb(coffee), ga(coffee, "east(1, 1)"))
    assert kb1.render() == "{(0): 1/4, (1): 1/2, (2): 1/4}"
