import itertools
import random
import re
from fractions import Fraction

import pytest

from beliefprog import (EPSILON, FAILURE, BeliefProgError, ConfigTable,
                        IncompatibleActionError,
                        IncompatibleSensingError, LikelihoodSumError,
                        action_likelihood, believed_bat, build_graph,
                        build_pomdp, compute_types, estimate,
                        eval_fluent_formula, eval_subjective, initial_kb,
                        make_world, oi_alternatives, parse_ground_action,
                        parse_model, progress_kb, progress_world, real_bat,
                        validate_restrictions)
from beliefprog import kb as kb_mod
from beliefprog.abstraction import reps_from_init
from beliefprog.cli import main
from beliefprog.kb import BREAKDOWN, KnowledgeBase, next_observation
from beliefprog.parser import parse_subjective, parse_trace_formula
from beliefprog.program_graph import enabled
from beliefprog.syntax import (And, Bel, BinOp, Cmp, Conf, Expect,
                               FluentRef, LikelihoodRow, LikelihoodTable,
                               Not, Num)
from conftest import (COFFEE, ROOT, random_model_text, step_counts,
                      trace_likelihood)

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


def test_worlds_of_an_int_and_of_an_equal_fraction_are_one_value(coffee):
    as_int = kb_mod.World({"h": 2, "Final": 0, "Fail": 0})
    as_fraction = kb_mod.World({"h": F(2), "Final": F(0), "Fail": F(0)})
    assert as_int == as_fraction and hash(as_int) == hash(as_fraction)
    assert repr(as_int) == repr(as_fraction) == "World(Fail=0, Final=0, h=2)"
    # make_world keeps whole values as ints, whatever they were given as
    for given in (2, F(2), "2", "4/2"):
        w = make_world(coffee, [given])
        assert w == as_int and type(w["h"]) is int
    assert type(make_world(coffee, ["1/2"])["h"]) is Fraction


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


_OPS = {"=": lambda a, b: a == b, "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}


@pytest.mark.parametrize("text, value", [
    ("B(h = 0)", F(1, 2)), ("B(h = 2)", 0), ("B(true)", 1),
    ("Expect(h)", F(1, 2)), ("Conf(h, 1/2)", 1), ("Conf(h, 1/4)", 0)])
def test_comparisons_with_a_constant_on_either_side(coffee, text, value):
    # kb0 is uniform on h = 0, 1; each term against constants around its
    # value, under every operator, as term op c and as c op term
    kb = initial_kb(coffee)
    for c in (value - 1, value - F(1, 3), value, value + F(1, 2), value + 2):
        for op, holds in _OPS.items():
            shown = kb_mod.frac_str(c)
            assert eval_subjective(kb, parse_subjective(
                f"{text} {op} {shown}", coffee)) == holds(value, c), (op, c)
            assert eval_subjective(kb, parse_subjective(
                f"{shown} {op} {text}", coffee)) == holds(c, value), (op, c)


def test_belief_reads_its_formula_at_support_worlds_only(coffee):
    # after east(1) and sensing the coffee the support is h = 2, and the
    # Bat also holds h = 0, where 1 / h raises: B reads no world outside
    # the support
    kb0 = initial_kb(coffee)
    kb1 = progress_kb(kb0, ga(coffee, "east(1, 1)"))
    kb2 = progress_kb(kb1, ga(coffee, "sencfe(1)"))
    bat = kb0.bat
    alpha = parse_subjective("B(1 / h = 1/2) = 1", coffee)
    ids = {w["h"]: w.id for w in bat.worlds}
    assert sorted(ids) == [0, 1, 2] and list(kb2.num) == [ids[2]]
    for _ in range(2):
        assert eval_subjective(kb2, alpha)
        with pytest.raises(kb_mod.EvalError, match="^division by zero$"):
            eval_subjective(kb1, alpha)
    # kb1 lists h = 1 before h = 0, so h = 1 is read before the error
    assert list(kb1.num) == [ids[1], ids[0], ids[2]]
    _term, masses, truths = bat._belief[id(alpha.left)]
    assert masses == {kb2.id: 1}
    assert [truths[ids[h]] for h in (0, 1, 2)] == [None, False, True]


@pytest.mark.parametrize("path, node", [
    # the choice loop's node: its edges carry the guard and its fin is
    # Not(guard); coffee's inner loop: one edge carries the guard and the
    # other Not(guard)
    ("perfbench/models/coffee_choice.bp", 0), ("models/coffee.bp", 1)])
def test_a_loop_guard_is_decided_once_per_knowledge_base(
        monkeypatch, path, node):
    model = parse_model((ROOT / path).read_text())
    graph = build_graph(model.program)
    formulas = [e.guard for e in graph.edges[node]] + [graph.fin[node]]
    guards = {id(f): f for f in formulas if isinstance(f, Cmp)}
    assert len(guards) == 1
    guard, = guards.values()
    assert any(isinstance(f, Not) and f.operand is guard for f in formulas)
    decided = []
    truth = kb_mod._truth

    def counting(phi, at, b):
        if phi is guard and at.__class__ is KnowledgeBase:
            decided.append(at.id)
        return truth(phi, at, b)

    monkeypatch.setattr(kb_mod, "_truth", counting)
    kb = initial_kb(model)  # a fresh Bat, so no truth is memoised yet
    first = enabled(graph, node, kb)
    assert decided == [kb.id]
    assert enabled(graph, node, kb) == first
    assert decided == [kb.id]


def test_an_outer_guard_in_and_edges_is_decided_once_per_knowledge_base(
        monkeypatch):
    # coffee's node 0: both edges carry And(B(h = 2) < 1, the inner
    # loop's test or its negation) and the fin is Not(B(h = 2) < 1); each
    # operand is decided once at a fresh knowledge base
    model = parse_model(COFFEE.read_text())
    graph = build_graph(model.program)
    guard = graph.fin[0].operand
    inner = graph.edges[0][0].guard.right
    assert all(isinstance(e.guard, And) and e.guard.left is guard
               for e in graph.edges[0])
    decided = []
    truth = kb_mod._truth

    def counting(phi, at, b):
        if (phi is guard or phi is inner) and \
                at.__class__ is KnowledgeBase:
            decided.append((phi is guard, at.id))
        return truth(phi, at, b)

    monkeypatch.setattr(kb_mod, "_truth", counting)
    kb = initial_kb(model)  # a fresh Bat, so no truth is memoised yet
    first = enabled(graph, 0, kb)
    assert sorted(decided) == [(False, kb.id), (True, kb.id)]
    assert enabled(graph, 0, kb) == first
    assert len(decided) == 2


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
        outs = b.moves(b.intern(world).id, east)
        scale = b.class_table(east).scale
        return [(b.worlds[i], F(k, scale)) for i, k in outs]
    assert moved(bat, later) == moved(fresh, make_world(choice, [9]))
    assert table.rows[later.id] is not None


# a's class reads likelihoods over 2 at h <= 0, over 3 at h = 1 and over 4
# elsewhere; c(0, _)'s two outcomes coincide, so it keeps none of the mass
# at h <= 0 and half of it elsewhere; s(1) is impossible away from h = 2
SCALED = """
    fluents h;
    action a stochastic(; y) {
      outcomes: (0), (1), (2);
      likelihood:
        case h <= 0: 1/2, 1/2, 0;
        case h = 1:  1/3, 2/3, 0;
        default:     1/4, 1/4, 1/2;
    }
    action c stochastic(x; y) {
      outcomes: (x), (2 * x);
      likelihood: case h <= 0: 0, 1; default: 1/2, 1/2;
    }
    action s sensing(1, 0) {
      likelihood:
        case h = 2: 1/3, 2/3;
        default:    0, 1;
    }
    ssa h { case a(y): h + y; case c(x, y): h - y; default: h; }
    belief { (0): 1 }
    program { a; c(1); s }
"""


def progress_oracle(kb, t):
    """progress_kb by the update rule over kb.dist in Fractions: the
    progressed distribution, or the (error class, message) it raises."""
    bat = kb.bat
    sensing = bat.action_decl(t.symbol).kind == "sensing"
    members = [t] if sensing else oi_alternatives(t.symbol, t.ctrl, bat.model)
    new = {}
    for w, p in kb.dist.items():
        for member in members:
            like = action_likelihood(member, w, bat)
            if like:
                u = progress_world(w, member, bat)
                new[u] = new.get(u, 0) + p * like
    eta = sum(new.values())
    if eta == 0:
        return ((IncompatibleSensingError, f"sensing result {t} is believed "
                 "impossible (normalizer 0)") if sensing else
                (IncompatibleActionError, f"action {t} has zero believed "
                 "likelihood on the whole support"))
    if eta != 1 and not sensing:
        return (LikelihoodSumError, f"believed likelihoods of {t} are "
                f"incomplete: total progressed mass {eta}")
    return {u: p / eta for u, p in new.items()}


def test_class_rows_over_one_denominator_equal_the_fraction_oracle():
    m = parse_model(SCALED)
    universe = [ga(m, term) for term in
                ("a(0)", "a(1)", "a(2)", "c(0, 0)", "c(1, 1)", "c(1, 2)",
                 "s(1)", "s(0)")]
    for order in (universe, universe[::-1]):
        kb0 = initial_kb(m)
        bat = kb0.bat
        a_table = bat.class_table(universe[0])
        scales = [a_table.scale]
        seen, frontier, checked = {kb0}, [kb0], 0
        for _ in range(4):  # breadth first, every action at every kb
            found = []
            for kb in frontier:
                for t in order:
                    expected = progress_oracle(kb, t)
                    try:
                        got = progress_kb(kb, t)
                    except BeliefProgError as exc:
                        assert (type(exc), str(exc)) == expected, (kb, t)
                        continue
                    # the oracle's distribution is the same knowledge base,
                    # with the same id in the Bat
                    assert isinstance(expected, dict), (kb, t, expected)
                    assert got is KnowledgeBase(expected, bat), (kb, t)
                    assert got.dist == expected
                    checked += 1
                    if got not in seen:
                        seen.add(got)
                        found.append(got)
                    if scales[-1] != a_table.scale:
                        scales.append(a_table.scale)
            frontier = found
        assert checked > 40 and len(seen) > 10
        # a's rows over 2 were filled and progressed before a row over 3
        # or 4 grew the class's denominator
        assert scales[:2] == [1, 2] and scales[-1] == 12
        # every filled row, rescaled or not, is the believed likelihoods
        for i, row in enumerate(a_table.rows):
            if row is not None:
                w = bat.worlds[i]
                assert [(bat.worlds[j], F(k, a_table.scale)) for j, k in row] \
                    == [(progress_world(w, t, bat), like)
                        for t, like in bat.branches(w, a_table.cls)]


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
    """The exit code of main(argv), the number of B masses it sums at a
    knowledge base, and the number of knowledge bases they are summed at."""
    at = []
    mass = kb_mod._mass

    def counted(kb, phi, truths):
        at.append(kb.id)
        return mass(kb, phi, truths)

    monkeypatch.setattr(kb_mod, "_mass", counted)
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


def _exact(v):
    """An int, or a Fraction that is not whole."""
    return type(v) is int or type(v) is Fraction and v.denominator != 1


@pytest.mark.parametrize("path, world, psi", [
    (COFFEE, "h=0", "F<=2 B(h=2) = 1"),
    (ROOT / "perfbench" / "models" / "coffee_deep.bp", "h=0", "F<=5 B(h = 2) = 1"),
    (CHOICE, "h=0", "F<=3 B(h = 2) = 1"),
], ids=["coffee", "coffee-deep", "coffee-choice"])
def test_no_value_verify_and_simulate_reach_is_a_float_or_a_bool(
        path, world, psi, monkeypatch, capsys):
    # every Bat that verify and simulate make, with every world, step,
    # likelihood, knowledge base and belief it keeps
    bats = []
    init = kb_mod.Bat.__init__

    def recording_init(self, model, which):
        init(self, model, which)
        bats.append(self)

    monkeypatch.setattr(kb_mod.Bat, "__init__", recording_init)
    assert main(["verify", str(path), "--property", "P1"]) in (0, 1)
    assert main(["simulate", str(path), "--world", world, "--policy",
                 "uniform-random", "--trials", "500", "--seed", "3",
                 "--psi", psi]) == 0
    capsys.readouterr()
    assert {bat.which for bat in bats} == {"real", "believed"}
    worlds = [w for bat in bats for w in bat.worlds]
    assert len(worlds) > 10
    for w in worlds:
        assert all(_exact(v) for _name, v in w._key), w
    likes = [like for bat in bats for row in bat._branches.values()
             for _t, like in row]
    likes += [like for bat in bats for like, _w in bat._steps.values()]
    assert likes
    for like in likes:
        assert type(like) in (int, Fraction), like
    actions = [t for bat in bats for row in bat._branches.values()
               for t, _like in row]
    for t in actions:
        assert all(_exact(v) for v in t.ctrl + t.unctrl), t
    kbs = [kb for bat in bats for kb in bat._kbs]
    assert len(kbs) > 3
    for kb in kbs:
        assert type(kb.den) is int and all(type(n) is int
                                           for n in kb.num.values()), kb
        assert all(type(p) is Fraction for p in kb.dist.values()), kb
    shared = {id(masses): (masses, truths) for bat in bats
              for _term, masses, truths in bat._belief.values()}.values()
    masses = [m for masses, _truths in shared for m in masses.values()]
    assert masses
    for m in masses:
        assert type(m) is int, m
    assert all(type(t) is bool or t is None for _masses, truths in shared
               for t in truths)
    for bat in bats:
        for table in {id(t): t for t in bat._tables.values()}.values():
            assert all(type(k) is int for row in table.rows if row
                       for _succ, k in row)


# ---------------------------------------------------------------------------
# the per-row and per-symbol memos against the tree walker

def reference_likelihood_row(symbol, ctrl, world, bat):
    """The row as the tree walker reads it: every context, outcome and
    weight evaluated at the world, and the weights checked and summed anew."""
    table = bat.likelihood.get(symbol)
    if table is None:
        raise kb_mod.EvalError(f"no likelihood table for {symbol!r}")
    bindings = dict(zip(bat.action_decl(symbol).ctrl, ctrl))
    rows = [row for row in table.rows if row.context is not None
            and eval_fluent_formula(row.context, world, bindings)]
    if len(rows) > 1:
        raise kb_mod.LikelihoodContextError(
            f"likelihood contexts of {symbol!r} overlap at {world!r}")
    rows += [row for row in table.rows if row.context is None]
    if not rows:
        raise kb_mod.LikelihoodContextError(
            f"no likelihood context of {symbol!r} is true at {world!r}")
    out, total = [], F(0)
    for vec, weight_expr in zip(table.outcomes, rows[0].weights):
        value = tuple(kb_mod.eval_expr(v, world, bindings) for v in vec)
        weight = kb_mod.eval_expr(weight_expr, world, bindings)
        if weight < 0:
            raise LikelihoodSumError(f"negative outcome weight for {symbol!r}")
        total += weight
        out.append((value, weight))
    if total != 1:
        raise LikelihoodSumError(f"outcome weights of {symbol!r} sum to "
                                 f"{kb_mod.frac_str(total)}, not 1")
    return tuple(out)


def reference_progress_world(world, action, bat):
    """The successor as the tree walker makes it: each fluent's SSA rule
    scanned for the action's case, else its default evaluated."""
    if action in (EPSILON, FAILURE):
        return world.updated({"Final" if action == EPSILON else "Fail": 1})
    if bat.action_decl(action.symbol) is None:
        raise kb_mod.EvalError(f"undeclared action {action.symbol!r}")
    changes, args = {}, action.ctrl + action.unctrl
    for fluent, rule in bat.ssa.items():
        case = next((c for c in rule.cases if c.action == action.symbol), None)
        if case is not None:
            changes[fluent] = kb_mod.eval_expr(case.effect, world,
                                               dict(zip(case.params, args)))
        elif kb_mod.eval_expr(rule.default, world) != world[fluent]:
            changes[fluent] = kb_mod.eval_expr(rule.default, world)
    return world.updated(changes)


def _result(call, *args):
    try:
        return call(*args)
    except BeliefProgError as exc:
        return type(exc), str(exc)


def _recorded_bats(monkeypatch, *runs):
    """Every Bat that the calls make; a call may raise BeliefProgError."""
    bats = []
    init = kb_mod.Bat.__init__

    def recording_init(self, model, which):
        init(self, model, which)
        bats.append(self)

    with monkeypatch.context() as m:
        m.setattr(kb_mod.Bat, "__init__", recording_init)
        for run in runs:
            _result(run)
    return bats


def assert_memos_match_fresh_bats(bats):
    """At every world a Bat interned and every class and action it stepped,
    its likelihood_row, branches and step equal a fresh Bat's and the tree
    walker's, or raise the same error class and message.  Returns the
    number of (world, action) pairs compared."""
    compared = 0
    for bat in bats:
        classes = {cls for _i, cls in bat._branches}
        actions = {t for _i, t in bat._steps}
        for world in list(bat.worlds):
            for cls in classes:
                fresh = kb_mod.Bat(bat.model, bat.which)
                if cls not in (EPSILON, FAILURE):  # which have no table
                    args = cls.symbol, cls.ctrl, world
                    row = _result(kb_mod.likelihood_row, *args, bat)
                    assert row == _result(kb_mod.likelihood_row, *args, fresh) \
                        == _result(reference_likelihood_row, *args, bat), \
                        (world, cls)
                assert _result(bat.branches, world, cls) == \
                    _result(fresh.branches, world, cls), (world, cls)
            for t in actions:
                fresh = kb_mod.Bat(bat.model, bat.which)
                step = _result(bat.step, world, t)
                assert step == _result(fresh.step, world, t), (world, t)
                assert _result(progress_world, world, t, bat) == \
                    _result(reference_progress_world, world, t, bat), (world, t)
                compared += 1
    return compared


BUNDLED = [(COFFEE, "F<=2 B(h=2) = 1"),
           (ROOT / "perfbench" / "models" / "coffee_deep.bp", "F<=5 B(h = 2) = 1"),
           (ROOT / "perfbench" / "models" / "coffee_choice.bp",
            "F<=3 B(h = 2) = 1")]


@pytest.mark.parametrize("path, psi", BUNDLED,
                         ids=["coffee", "coffee-deep", "coffee-choice"])
def test_row_and_effect_memos_equal_fresh_bats(path, psi, monkeypatch, capsys):
    bats = _recorded_bats(
        monkeypatch, lambda: main(["verify", str(path), "--property", "P1"]),
        lambda: main(["simulate", str(path), "--world", "h=0", "--policy",
                      "uniform-random", "--trials", "300", "--seed", "3",
                      "--psi", psi]))
    capsys.readouterr()
    assert {bat.which for bat in bats} == {"real", "believed"}
    assert assert_memos_match_fresh_bats(bats) > 20


def _verify_path(model):
    """verify's types and one POMDP per type, on a model validate may refuse."""
    graph = build_graph(model.program)
    abstraction = compute_types(model, 2, reps_from_init(model), None)
    table = ConfigTable(graph, abstraction.rbat, abstraction.kb0)
    for witness in abstraction.types:
        _result(build_pomdp, table, abstraction, witness)


@pytest.mark.parametrize("seed", range(200))
def test_row_and_effect_memos_equal_fresh_bats_random(seed, monkeypatch):
    model = parse_model(random_model_text(seed))
    psi = parse_trace_formula("F<=2 B(f0 = 0) = 1", model)
    bats = _recorded_bats(
        monkeypatch, lambda: _verify_path(model),
        lambda: estimate(model, psi, reps_from_init(model)[0],
                         "uniform-random", 40, seed, 4))
    assert assert_memos_match_fresh_bats(bats) > 0


ROWS = """
fluents h;
action a stochastic(x; y) {
  outcomes: (0), (1);
  likelihood:
    case h < 5: 1 / x, 1 - 1 / x;
    case h = 9: x, 0;
    default: x / x, 1 - x / x;
}
ssa h { case a(x, y): h + y; default: h; }
init { worlds: (0); }
belief { (0): 1 }
program { a(2) }
"""


def test_a_row_is_kept_per_controllable_argument():
    model = parse_model(ROWS)
    bat, w = real_bat(model), make_world(model, [0])
    half = ((0,), F(1, 2)), ((1,), F(1, 2))
    quarter = ((0,), F(1, 4)), ((1,), F(3, 4))
    assert kb_mod.likelihood_row("a", (2,), w, bat) == half
    assert kb_mod.likelihood_row("a", (4,), w, bat) == quarter
    assert kb_mod.likelihood_row("a", (2,), make_world(model, [3]), bat) == half
    assert [like for _t, like in bat.branches(w, oi_alternatives(
        "a", (4,), model)[0].oi_class)] == [F(1, 4), F(3, 4)]
    assert kb_mod.likelihood_row("a", (4,), w, bat) == quarter
    assert kb_mod.likelihood_row("a", (3,), make_world(model, [7]), bat) == \
        (((0,), 1), ((1,), 0))
    assert len(bat._rows) == 3


def test_a_row_that_raises_raises_again_and_is_not_kept():
    model = parse_model(ROWS)
    bat, w = real_bat(model), make_world(model, [7])
    for _ in range(2):
        with pytest.raises(kb_mod.EvalError, match="^division by zero$"):
            kb_mod.likelihood_row("a", (0,), w, bat)
    with pytest.raises(kb_mod.EvalError, match="^division by zero$"):
        bat.step(w, oi_alternatives("a", (0,), model)[0])
    assert bat._rows == {}
    # the same weights at h < 5 are 1 / 0 too, in another row
    with pytest.raises(kb_mod.EvalError, match="^division by zero$"):
        kb_mod.likelihood_row("a", (0,), make_world(model, [0]), bat)
    for _ in range(2):
        with pytest.raises(LikelihoodSumError,
                           match="^negative outcome weight for 'a'$"):
            kb_mod.likelihood_row("a", (-1,), make_world(model, [0]), bat)
        with pytest.raises(LikelihoodSumError,
                           match="^outcome weights of 'a' sum to 2, not 1$"):
            kb_mod.likelihood_row("a", (2,), make_world(model, [9]), bat)
    assert bat._rows == {}


# outcome 1 divides by the controllable argument, which is 0 in the program;
# the model is not validated, so only the step meets it
OUTCOME_DIVIDES_BY_ZERO = """
fluents h;
action a stochastic(x; y) { outcomes: (1 / x), (2); likelihood: case true: 1/2, 1/2; }
ssa h { case a(x, y): h + y; default: h; }
belief { (0): 1 }
init { worlds: (0); }
program { a(0) }
"""


def test_an_unevaluable_outcome_is_named_by_every_step():
    model = parse_model(OUTCOME_DIVIDES_BY_ZERO)
    w = make_world(model, [0])
    a = kb_mod.GroundAction("a", (0,), ())

    def named(which):
        return pytest.raises(kb_mod.EvalError, match=re.escape(
            "outcome 1 of 'a' cannot be evaluated at a(0): division by "
            f"zero ({which})") + "$")
    with named("real"):
        oi_alternatives("a", (0,), model)
    for bat in (real_bat(model), believed_bat(model)):
        with named(bat.which):
            bat.branches(w, a.oi_class)
    psi = parse_trace_formula("F<=1 B(h = 2) = 1", model)
    with named("real"):
        estimate(model, psi, w, "first-enabled", 10, 0, 3)
    # at a(1) the outcome evaluates
    assert [str(t) for t, _ in real_bat(model).branches(
        w, kb_mod.GroundAction("a", (1,), ()).oi_class)] == \
        ["a(1, 1)", "a(1, 2)"]


def test_a_fluent_in_a_hand_built_weight_raises_and_is_not_kept(coffee):
    bat, w = real_bat(coffee), make_world(coffee, [2])
    table = bat.likelihood["east"]
    h = FluentRef("h")
    bat.likelihood["east"] = LikelihoodTable(table.outcomes, (LikelihoodRow(
        None, (BinOp("/", h, h), BinOp("-", Num(1), BinOp("/", h, h)))),))
    for _ in range(2):
        with pytest.raises(kb_mod.EvalError,
                           match="^fluent 'h' has no value in this context$"):
            kb_mod.likelihood_row("east", (1,), w, bat)
    assert bat._rows == {}


CLOCK = """
fluents h, t, g;
action a stochastic(x; y) {
  outcomes: (x), (x + 1);
  likelihood:
    case true: 1/2, 1/2;
}
action b stochastic(; y) {
  outcomes: (1), (2);
  likelihood:
    case true: 1/2, 1/2;
}
ssa h { case a(x, y): h + y; default: h; }
ssa t { case b(y): t - y; default: t + 1; }
ssa g { default: 3; }
init { worlds: (0, 0, 0); }
belief { (0, 0, 0): 1 }
program { a(1); b }
"""


def test_only_frame_defaults_are_skipped():
    model = parse_model(CLOCK)
    bat = real_bat(model)
    assert [(f, params) for f, params, _e in bat.effects["a"]] == \
        [("h", ("x", "y")), ("t", None), ("g", None)]
    assert [(f, params) for f, params, _e in bat.effects["b"]] == \
        [("t", ("y",)), ("g", None)]
    w = make_world(model, [0, 0, 0])
    for term, after in [("a(1, 2)", [2, 1, 3]), ("b(2)", [0, -2, 3])]:
        t = parse_ground_action(term, model)
        u = progress_world(w, t, bat)
        assert [u[f] for f in "htg"] == after
        assert u == reference_progress_world(w, t, bat)
        assert progress_world(u, t, bat) == reference_progress_world(u, t, bat)


# ---------------------------------------------------------------------------
# row errors on random models

_ROW = re.compile(r"^    (case (.*)|default): (.*);$")


def broken_model_text(seed):
    """random_model_text(seed) with one likelihood table broken in a way
    that validate defers or lets pass, picked by a fixed rng: a weight that
    depends on the controllable argument (negative at x = 0, summing to 2
    at x = 2), a row whose context overlaps an earlier one without
    repeating it, or a table without its default row.  Returns the kind
    and the text."""
    rng = random.Random(7919 * seed + 1)
    lines = random_model_text(seed).split("\n")
    rows, ctrl = [], False  # (line index, has ctrl, context or None)
    for i, line in enumerate(lines):
        if line.startswith("action "):
            ctrl = "(x; y)" in line
        match = _ROW.match(line)
        if match:
            rows.append((i, ctrl, match.group(2)))
    kinds = [("weight", i) for i, has_ctrl, _c in rows if has_ctrl]
    kinds += [("overlap", i) for i, _x, context in rows if context]
    kinds += [("default", i) for i, _x, context in rows if context is None]
    kind, i = rng.choice(kinds)
    head, weights = lines[i].rsplit(": ", 1)
    if kind == "weight":
        lines[i] = f"{head}: {weights.replace(',', ' + x - 1,', 1)}" \
            if "," in weights else f"{head}: {weights[:-1]} + x - 1;"
    elif kind == "overlap":
        context = _ROW.match(lines[i]).group(2)
        lines.insert(i + 1, f"    case ({context}) | f0 > 9: {weights}")
    else:
        del lines[i]
    return kind, "\n".join(lines)


def _reference_step(world, t, bat):
    """(likelihood, successor) from the tree walker's row and step."""
    row = reference_likelihood_row(t.symbol, t.ctrl, world, bat)
    like = next((w for value, w in row if value == t.unctrl), 0)
    return like, reference_progress_world(world, t, bat)


@pytest.mark.parametrize("seed", range(100))
def test_broken_rows_raise_as_the_walker_does_and_are_not_kept(seed):
    # at every world of a small grid and every controllable argument 0..2,
    # likelihood_row, branches and step give the walker's result or raise
    # its error class and message, on both calls, and a row that raises is
    # not kept
    kind, text = broken_model_text(seed)
    model = parse_model(text)
    grid = [make_world(model, vals) for vals in
            itertools.product(range(-2, 3), repeat=len(model.fluents))]
    errors = set()
    for bat in (real_bat(model), believed_bat(model)):
        for decl in model.actions:
            for ctrl in itertools.product(range(3), repeat=len(decl.ctrl)):
                cls = kb_mod.GroundAction(decl.name, ctrl, ())
                members = oi_alternatives(decl.name, ctrl, model)
                for w in grid:
                    row = _result(reference_likelihood_row, decl.name, ctrl,
                                  w, bat)
                    for _ in range(2):
                        assert _result(kb_mod.likelihood_row, decl.name,
                                       ctrl, w, bat) == row, (w, cls)
                        branches = _result(bat.branches, w, cls)
                        for t in members:
                            assert _result(bat.step, w, t) == \
                                _result(_reference_step, w, t, bat), (w, t)
                    if isinstance(row[0], type):
                        errors.add(row)
                        assert branches == row, (w, cls)
                    else:  # the first weight of a repeated value counts
                        first = {}
                        for v, like in row:
                            first.setdefault(v, like)
                        assert branches == tuple(
                            (kb_mod.GroundAction(decl.name, ctrl, v), like)
                            for v, like in first.items() if like != 0)
        for (symbol, ctrl, idx), kept in bat._rows.items():
            assert all(weight >= 0 for _v, weight in kept), symbol
            assert sum(weight for _v, weight in kept) == 1, symbol
    # each break raises its own error somewhere on the grid
    assert any(cls is _RAISES[kind][0] and _RAISES[kind][1] in message
               for cls, message in errors), (kind, errors)


_RAISES = {"weight": (LikelihoodSumError, "outcome weight"),
           "overlap": (kb_mod.LikelihoodContextError, "overlap at"),
           "default": (kb_mod.LikelihoodContextError, "no likelihood context")}
