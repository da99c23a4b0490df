from fractions import Fraction

import pytest

from beliefprog import (EPSILON, FAILURE, IncompatibleActionError,
                        IncompatibleSensingError, LikelihoodSumError,
                        action_likelihood, believed_bat, eval_fluent_formula,
                        eval_subjective, initial_kb, make_world,
                        oi_alternatives, parse_ground_action, parse_model,
                        progress_kb, progress_world, real_bat,
                        validate_restrictions)
from beliefprog import kb as kb_mod
from beliefprog.cli import main
from beliefprog.kb import BREAKDOWN, KnowledgeBase, next_observation
from beliefprog.parser import parse_subjective
from beliefprog.syntax import Bel, Cmp, Conf, Expect, FluentRef, Num
from conftest import ROOT, step_counts, trace_likelihood

F = Fraction


def ga(coffee, term):
    return parse_ground_action(term, coffee)


def dist_of(kb, coffee):
    return {w["h"]: p for w, p in kb.dist.items()}


# ---------------------------------------------------------------------------
# formula and world evaluation

def test_world_hash_tells_minus_one_from_minus_two(coffee):
    # CPython hashes the numbers -1 and -2 alike; two of coffee's three
    # representatives are h=-1 and h=-2
    minus_one, minus_two = make_world(coffee, [-1]), make_world(coffee, [-2])
    assert minus_one != minus_two
    assert hash(minus_one) != hash(minus_two)
    assert hash(minus_one) == hash(make_world(coffee, [-1]))


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
    # unctrl value outside the declared outcomes, which the parser rejects
    undeclared = kb_mod.GroundAction("east", (F(1),), (F(7),))
    assert action_likelihood(undeclared, w, rb) == 0


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
    kb1 = progress_kb(kb, ga(coffee, "east(1, 1)"))
    assert dist_of(kb1, coffee) == {0: F(1, 4), 1: F(1, 2), 2: F(1, 4)}


def test_sensing_positive_collapses_to_two(coffee):
    kb1 = progress_kb(initial_kb(coffee), ga(coffee, "east(1, 1)"))
    kb2 = progress_kb(kb1, ga(coffee, "sencfe(1)"))
    assert dist_of(kb2, coffee) == {2: F(1)}


def test_sensing_negative_renormalizes(coffee):
    kb1 = progress_kb(initial_kb(coffee), ga(coffee, "east(1, 1)"))
    kb3 = progress_kb(kb1, ga(coffee, "sencfe(0)"))
    assert dist_of(kb3, coffee) == {0: F(1, 3), 1: F(2, 3)}


def test_point_mass_spreads_to_half_half(coffee):
    # hand sum over the two OI alternatives of east(1, _) from h = 0
    kb = KnowledgeBase({make_world(coffee, [0]): F(1)}, believed_bat(coffee))
    kb1 = progress_kb(kb, ga(coffee, "east(1, 1)"))
    assert dist_of(kb1, coffee) == {0: F(1, 2), 1: F(1, 2)}


def test_sensing_from_initial_kb_is_incompatible(coffee):
    # believed-accurate sensor assigns zero likelihood to a positive reading
    # while no mass sits at 2
    with pytest.raises(IncompatibleSensingError):
        progress_kb(initial_kb(coffee), ga(coffee, "sencfe(1)"))


def test_flat_sensing_likelihood_is_identity(coffee):
    kb = initial_kb(coffee)
    kb0 = progress_kb(kb, ga(coffee, "sencfe(0)"))
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


def test_zero_believed_likelihood_on_the_whole_support_is_incompatible():
    # at x = 0 both outcomes are (0), so a(0, 0) reads the first weight, 0,
    # at every world; the program runs only a(1), so validation passes
    text = """
        fluents h;
        action a stochastic(x; y) {
          outcomes: (x), (2 * x);
          likelihood: case true: 0, 1;
        }
        ssa h { case a(x, y): h + y; default: h; }
        belief { (0): 1 }
        program { a(1) }
    """
    m = parse_model(text)
    assert validate_restrictions(m) == []
    t = parse_ground_action("a(0, 0)", m)
    with pytest.raises(IncompatibleActionError, match="whole support"):
        progress_kb(initial_kb(m), t)
    # not a belief breakdown
    with pytest.raises(IncompatibleActionError):
        next_observation(initial_kb(m), t)


def test_believed_mass_short_of_one_is_incomplete():
    # at x = 0 both outcomes are (0), so a(0, 0) keeps only the first
    # weight, 1/2, of each world's mass
    text = """
        fluents h;
        action a stochastic(x; y) {
          outcomes: (x), (2 * x);
          likelihood: case true: 1/2, 1/2;
        }
        ssa h { case a(x, y): h + y; default: h; }
        belief { (0): 1/3, (1): 2/3 }
        program { a(1) }
    """
    m = parse_model(text)
    assert validate_restrictions(m) == []
    with pytest.raises(LikelihoodSumError,
                       match=r"believed likelihoods of a\(0, 0\) are "
                             r"incomplete: total progressed mass 1/2"):
        progress_kb(initial_kb(m), parse_ground_action("a(0, 0)", m))


def test_next_observation_folds_only_believed_impossible_sensing(coffee):
    kb = initial_kb(coffee)
    assert next_observation(kb, ga(coffee, "sencfe(0)")) == \
        progress_kb(kb, ga(coffee, "sencfe(0)"))
    assert next_observation(kb, ga(coffee, "sencfe(1)")) is BREAKDOWN
    assert next_observation(BREAKDOWN, ga(coffee, "east(1, 1)")) is BREAKDOWN


def test_breakdown_is_one_observation(coffee):
    assert BREAKDOWN.render() == BREAKDOWN.key == "belief-breakdown"
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
        assert sum(kb.num.values()) == kb.den
        assert all(p > 0 for p in kb.dist.values())


def test_progression_order_independent(coffee):
    # same map regardless of support iteration order
    kb_a = KnowledgeBase({make_world(coffee, [0]): F(1, 2),
                          make_world(coffee, [1]): F(1, 2)}, believed_bat(coffee))
    kb_b = KnowledgeBase({make_world(coffee, [1]): F(1, 2),
                          make_world(coffee, [0]): F(1, 2)}, believed_bat(coffee))
    t = ga(coffee, "east(1, 1)")
    assert progress_kb(kb_a, t) == progress_kb(kb_b, t)


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


# ---------------------------------------------------------------------------
# one step entry per observed class

CHOICE = ROOT / "perfbench" / "models" / "coffee_choice.bp"


@pytest.fixture
def choice():
    return parse_model(CHOICE.read_text())


def test_progression_is_kept_once_per_oi_class(choice):
    kb = initial_kb(choice)
    east, slip = oi_alternatives("east", (F(1),), choice)
    first = progress_kb(kb, east)
    assert progress_kb(kb, slip) is first
    table = kb.bat.class_table(east)
    assert kb.bat.class_table(slip) is table
    assert table.cls == east.oi_class and table.progressed == {kb.id: first}
    assert step_counts(kb.bat)[0] == 1


def test_each_sensing_result_is_its_own_class(choice):
    east = oi_alternatives("east", (F(1),), choice)[0]
    kb = progress_kb(initial_kb(choice), east)
    before = step_counts(kb.bat)[0]
    results = oi_alternatives("sencfe", (), choice)
    sensed = {progress_kb(kb, t) for t in results}
    assert len(sensed) == 2
    assert step_counts(kb.bat)[0] == before + 2
    assert [kb.bat.class_table(t).cls for t in results] == results


def test_moves_are_kept_once_per_observed_class(choice):
    bat = initial_kb(choice).bat
    w = bat.intern(make_world(choice, [2])).id
    east, slip = oi_alternatives("east", (F(1),), choice)
    assert bat.moves(w, slip.oi_class) is bat.moves(w, east.oi_class)
    assert bat.moves(w, slip) is bat.moves(w, east.oi_class)
    assert step_counts(bat)[1] == 1
    sense_one, sense_zero = oi_alternatives("sencfe", (), choice)
    assert bat.moves(w, sense_one) != bat.moves(w, sense_zero)
    assert step_counts(bat)[1] == 3


def test_a_world_interned_after_its_rows_were_sized_gets_its_row(choice):
    kb = initial_kb(choice)
    bat = kb.bat
    east = oi_alternatives("east", (F(1),), choice)[0]
    table = bat.class_table(east)
    progress_kb(kb, east)
    sized = len(table.rows)
    # the progression interned its successors after sizing the rows, and
    # h = 7 is further on
    late = bat.intern(make_world(choice, [7]))
    assert sized < late.id
    after = progress_kb(KnowledgeBase({late: F(1)}, bat), east)
    row = table.rows[late.id]
    assert row is not None and bat.moves(late.id, east) is row
    fresh = believed_bat(choice)
    assert after == progress_kb(
        KnowledgeBase({make_world(choice, [7]): F(1)}, fresh), east)
    # Bat.moves lengthens the rows too; successor ids belong to each Bat
    later = bat.intern(make_world(choice, [9]))
    assert len(table.rows) <= later.id

    def moved(b, world):
        d, outs = b.moves(b.intern(world).id, east)
        return d, [(b.worlds[i], k) for i, k in outs]
    assert moved(bat, later) == moved(fresh, make_world(choice, [9]))
    assert table.rows[later.id] is not None


def test_an_equal_action_object_reaches_the_same_progression(choice):
    kb = initial_kb(choice)
    bat = kb.bat
    world = bat.worlds[next(iter(kb.num))]
    east = oi_alternatives("east", (F(1),), choice)[0]
    own = {str(t): t for t, _ in bat.branches(world, east.oi_class)}
    own = own["east(1, 0)"]
    parsed = parse_ground_action("east(1,0)", choice)
    assert parsed == own and parsed is not own
    first = progress_kb(kb, own)
    assert progress_kb(kb, parsed) is first
    assert bat.class_table(parsed) is bat.class_table(own)
    assert step_counts(bat)[0] == 1


def test_failed_progression_is_not_kept_and_names_its_action(choice):
    kb = initial_kb(choice)
    sense_one = oi_alternatives("sencfe", (), choice)[0]
    for _ in range(2):
        with pytest.raises(IncompatibleSensingError, match=r"sencfe\(1\)"):
            progress_kb(kb, sense_one)
    assert kb.bat.class_table(sense_one).progressed == {}
    assert step_counts(kb.bat)[0] == 0


# ---------------------------------------------------------------------------
# world and knowledge-base ids belong to one Bat

def test_knowledge_base_rebuilt_on_a_fresh_bat_is_equal(choice):
    kb = initial_kb(choice)
    for term in ("east(1, 1)", "sencfe(0)", "east(1, 0)"):
        kb = progress_kb(kb, ga(choice, term))
    fresh = KnowledgeBase(kb.dist, believed_bat(choice))
    assert fresh.bat is not kb.bat
    assert fresh == kb and hash(fresh) == hash(kb)
    assert fresh.render() == kb.render() == \
        "{(0): 1/6, (1): 1/2, (2): 1/3}"
    terms = [Bel(Cmp("=", FluentRef("h"), Num(F(v))))
             for v in range(-2, 3)] + [Expect("h"), Conf("h", F(1, 2))]
    assert [kb_mod._value(e, fresh, {}) for e in terms] == \
        [kb_mod._value(e, kb, {}) for e in terms]
    # an unequal knowledge base stays unequal across Bats
    other = KnowledgeBase({w: F(1, 3) for w in kb.dist}, believed_bat(choice))
    assert other != kb and kb != other


def test_world_interned_by_both_bats_keeps_steps_and_truths_apart(choice):
    real, believed = real_bat(choice), believed_bat(choice)
    at_two, at_zero = make_world(choice, [2]), make_world(choice, [0])
    # each Bat's first world gets its id 0: at_two in real, at_zero in
    # believed, which then interns a copy of at_two under its own id
    assert real.intern(at_two) is at_two
    assert believed.intern(at_zero) is at_zero
    assert at_two.id == at_zero.id == 0
    copy = believed.intern(at_two)
    assert copy is not at_two and copy == at_two and copy.bat is believed
    assert (at_two.bat, at_two.id) == (real, 0)
    sense_one = ga(choice, "sencfe(1)")
    assert believed.step(at_zero, sense_one)[0] == 0
    assert believed.step(at_two, sense_one)[0] == 1
    assert real.step(at_two, sense_one)[0] == F(4, 5)
    two = Cmp("=", FluentRef("h"), Num(F(2)))
    assert believed.holds(at_zero, two) is False
    assert believed.holds(copy, two) is True
    assert real.holds(at_two, two) is True
    # a knowledge base over real's world progresses on believed's steps
    kb = KnowledgeBase({at_two: F(1)}, believed)
    assert kb.bat is believed and progress_kb(kb, sense_one) is kb
    with pytest.raises(IncompatibleSensingError):
        progress_kb(kb, ga(choice, "sencfe(0)"))


# ---------------------------------------------------------------------------
# one memo for formula truths

def _belief_sums(monkeypatch, *argv):
    """The exit code of main(argv), the number of B sums it makes at a
    knowledge base, and the number of knowledge bases they are made at."""
    at = []
    belief = kb_mod._belief

    def counted(kb, phi):
        at.append(kb.id)
        return belief(kb, phi)

    monkeypatch.setattr(kb_mod, "_belief", counted)
    return main(list(argv)), len(at), len(set(at))


def test_belief_sums_are_shared_by_types_nodes_and_trials(
        tmp_path, monkeypatch, capsys):
    # the choice model's guards, fin conditions and POMDP labels all hold
    # B(h = 2) in two term objects; it is summed once per knowledge base,
    # for every type, node and term object (9055 sums at F<=8 when labels
    # were evaluated per type and guards per node, 1794 with one sum per
    # term object), and the simulator reads the same memo (2728 sums with
    # a memo of its own, 1372 with one sum per term object, 678 per
    # knowledge base when a choice read 32-bit half-words).  The 2000
    # reference traces at seed 1 reach 700 distinct knowledge bases before
    # depth 10, where the loop guard is read
    choice8 = tmp_path / "choice8.bp"
    choice8.write_text(CHOICE.read_text().replace("F<=3 B", "F<=8 B"))
    assert _belief_sums(monkeypatch, "verify", str(choice8),
                        "--property", "P1") == (1, 598, 598)
    assert _belief_sums(monkeypatch, "simulate", str(CHOICE), "--world", "h=0",
                        "--policy", "uniform-random", "--trials", "2000",
                        "--seed", "1", "--horizon", "10",
                        "--psi", "F<=3 B(h = 2) = 1") == (0, 700, 700)
