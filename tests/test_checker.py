import functools
import random
from fractions import Fraction

import pytest

from beliefprog import (ConfigTable, InadmissiblePropertyError,
                        PolicyBudgetError, build_graph, build_pomdp, check,
                        compute_types, horizon_of, make_world, parse_model,
                        probability)
from beliefprog.abstraction import BREAKDOWN
from beliefprog.checker import obs_satisfies, policy_count
from beliefprog.kb import KnowledgeBase, World, believed_bat
from beliefprog.parser import parse_subjective
from beliefprog.pomdp import FinitePomdp
from beliefprog.syntax import POp, PropInterval, TRUE, UntilOp, XOp
from conftest import (COFFEE, add_hand_state, enumerate_policies,
                      pomdp_with_witness)

F = Fraction


# ---------------------------------------------------------------------------
# truth at the belief-breakdown observation

@pytest.mark.parametrize("text, expected", [
    ("true", True),
    ("false", False),
    # an empty distribution would make these comparisons true
    ("B(h = 0) = 0", False),
    ("B(h = 0) = 0 & B(h = 1) = 0", False),
    ("B(h = 0) = 0 | B(h = 1) = 0", False),
    ("!B(h = 0) = 0", True),
    ("!B(h = 0) = 0 & !B(h = 1) = 0", True),
    ("!B(h = 0) = 0 | B(h = 1) = 0", True),
    ("!(B(h = 0) = 0 | true)", False),
    ("B(h = 0) = 0 & true", False),
    ("B(h = 0) = 0 | true", True),
])
def test_breakdown_satisfies_no_comparison(coffee, text, expected):
    assert obs_satisfies(BREAKDOWN, parse_subjective(text, coffee)) is expected


# ---------------------------------------------------------------------------
# independent oracle 1: explicit path enumeration under a fixed policy

def _paths_oracle(pomdp, policy, psi, abstraction):
    """Sum of path probabilities satisfying a bounded until, by enumerating
    every policy path up to the bound (no dynamic programming)."""
    assert isinstance(psi, UntilOp) and psi.bound is not None

    def sat(state, beta):
        return obs_satisfies(pomdp.observations[pomdp.obs_of[state]], beta)

    def action_at(state):
        choices = pomdp.agent_actions.get(pomdp.obs_of[state]) or ()
        if choices:
            return policy[pomdp.obs_of[state]]
        return next(iter(pomdp.transitions[state]))

    total = F(0)
    stack = [(pomdp.initial, F(1), 0, False)]
    while stack:
        state, prob, depth, dead = stack.pop()
        if not dead and sat(state, psi.right):
            total += prob
            continue
        if not dead and not sat(state, psi.left):
            dead = True
        if depth == psi.bound or dead:
            continue
        for target, p in pomdp.transitions[state][action_at(state)]:
            stack.append((target, prob * p, depth + 1, dead))
    return total


def test_dp_matches_path_enumeration_on_coffee(coffee, coffee_pomdps):
    abstraction, pomdps = coffee_pomdps
    phi = coffee.property_named("P1")
    psi = phi.trace
    for p in pomdps:
        for policy in enumerate_policies(p):
            assert probability(p, policy, psi) == \
                _paths_oracle(p, policy, psi, abstraction)


def test_tau1_probability_is_exactly_one_twentieth(coffee, coffee_pomdps):
    abstraction, pomdps = coffee_pomdps
    p = pomdp_with_witness(abstraction, pomdps, 0)
    phi = coffee.property_named("P1")
    policy = next(enumerate_policies(p))
    assert probability(p, policy, phi.trace) == F(1, 20)


def test_verdict_p1_violated(coffee, coffee_pomdps):
    abstraction, pomdps = coffee_pomdps
    verdict = check(pomdps, coffee.property_named("P1"))
    assert not verdict.holds
    by_witness = {abstraction.types[tr.type_id]["h"]:
                  tr.subformulas[0] for tr in verdict.per_type}
    assert by_witness[0].minimum == by_witness[0].maximum == F(1, 20)
    assert by_witness[-1].maximum == 0
    assert by_witness[-2].maximum == 0


def test_trivial_property_holds(coffee, coffee_pomdps):
    _, pomdps = coffee_pomdps
    phi = POp(PropInterval(F(0), F(1)), XOp(TRUE))
    verdict = check(pomdps, phi)
    assert verdict.holds


def test_strict_threshold_fails_at_exact_value(coffee, coffee_pomdps):
    abstraction, pomdps = coffee_pomdps
    p = pomdp_with_witness(abstraction, pomdps, 0)
    phi = coffee.property_named("P1")
    strict = POp(PropInterval(F(1, 20), F(1), lo_open=True), phi.trace)
    verdict = check([p], strict)
    assert not verdict.holds
    assert verdict.per_type[0].subformulas[0].maximum == F(1, 20)


def test_single_policy_for_each_coffee_type(coffee_pomdps):
    _, pomdps = coffee_pomdps
    for p in pomdps:
        assert policy_count(p) == 1


def test_choice_gives_two_policies():
    text = """
        fluents h;
        action a stochastic(; y) { outcomes: (1); likelihood: case true: 1; }
        action b stochastic(; y) { outcomes: (2); likelihood: case true: 1; }
        ssa h { case a(y): y; case b(y): y; default: h; }
        belief { (0): 1 }
        program { a | b }
        property T { P[>= 0](X B(h = 1) = 1) }
    """
    m = parse_model(text)
    graph = build_graph(m.program)
    abstraction = compute_types(m, 1, [make_world(m, [0])], m.property_named("T"))
    p = build_pomdp(ConfigTable(graph, abstraction.rbat, abstraction.kb0),
                    abstraction, abstraction.types[0])
    assert policy_count(p) == 2
    probs = sorted(probability(p, pol, m.property_named("T").trace)
                   for pol in enumerate_policies(p))
    assert probs == [0, 1]


def test_star_offers_stop_or_continue():
    # a final-and-continuable observation: eps and the action are both choices
    text = """
        fluents h;
        action s sensing(0) { likelihood: case true: 1; }
        belief { (0): 1 }
        program { (s)* }
        property T { P[>= 0](X B(h = 0) = 1) }
    """
    m = parse_model(text)
    graph = build_graph(m.program)
    abstraction = compute_types(m, 1, [make_world(m, [0])], m.property_named("T"))
    p = build_pomdp(ConfigTable(graph, abstraction.rbat, abstraction.kb0),
                    abstraction, abstraction.types[0])
    assert policy_count(p) == 2
    labels = {frozenset(pol.values()) for pol in enumerate_policies(p)}
    assert labels == {frozenset({"s"}), frozenset({"eps"})}


def test_policy_budget_enforced(coffee, coffee_pomdps):
    text = """
        fluents h;
        action a stochastic(; y) { outcomes: (1); likelihood: case true: 1; }
        action b stochastic(; y) { outcomes: (2); likelihood: case true: 1; }
        ssa h { case a(y): y; case b(y): y; default: h; }
        belief { (0): 1 }
        program { (a | b); (a | b) }
        property T { P[>= 0](F<=2 B(h = 1) = 1) }
    """
    m = parse_model(text)
    graph = build_graph(m.program)
    abstraction = compute_types(m, 2, [make_world(m, [0])], m.property_named("T"))
    p = build_pomdp(ConfigTable(graph, abstraction.rbat, abstraction.kb0),
                    abstraction, abstraction.types[0])
    assert policy_count(p) > 1
    with pytest.raises(PolicyBudgetError):
        check([p], m.property_named("T"), policy_cap=1)


def test_forward_mass_conservation(coffee, coffee_pomdps):
    _, pomdps = coffee_pomdps
    phi = coffee.property_named("P1")
    for p in pomdps:
        for policy in enumerate_policies(p):
            masses = []
            probability(p, policy, phi.trace, conservation=masses)
            assert masses and all(m == 1 for m in masses)


def test_until_monotone_in_bound(coffee, coffee_pomdps):
    abstraction, pomdps = coffee_pomdps
    p = pomdp_with_witness(abstraction, pomdps, 0)
    beta = parse_subjective("B(h = 2) = 1", coffee)
    policy = next(enumerate_policies(p))
    values = [probability(p, policy, UntilOp(TRUE, beta, k))
              for k in range(3)]
    assert values == sorted(values)
    assert values[2] == F(1, 20)


GLOBALLY = "unbounded globally is not checker-admissible"
UNBOUNDED_UNTIL = "unbounded until is not checker-admissible"
NESTED_P = "nested probability operators are not checker-admissible"


@pytest.mark.parametrize("text, message", [
    ("P[>= 0](G B(h = 0) = 1)", GLOBALLY),
    ("P[>= 0](B(h = 0) = 1 U B(h = 1) = 1)", UNBOUNDED_UNTIL),
    ("P[>= 0](X P[>= 0](X B(h = 0) = 1))", NESTED_P),
    ("P[>= 0](B(h = 0) = 1 U<=2 !P[>= 0](X B(h = 0) = 1))", NESTED_P),
    # two faults: a P's own unbounded trace before the P inside it, and
    # the first faulty P of the formula before a later one
    ("P[>= 0](G P[>= 0](X B(h = 0) = 1))", GLOBALLY),
    ("P[>= 0](F P[>= 0](X B(h = 0) = 1))", UNBOUNDED_UNTIL),
    ("P[>= 0](X P[>= 0](G B(h = 0) = 1))", NESTED_P),
    ("P[>= 0](G B(h = 0) = 1) & P[>= 0](F B(h = 0) = 1)", GLOBALLY),
    ("P[>= 0](F B(h = 0) = 1) & P[>= 0](G B(h = 0) = 1)", UNBOUNDED_UNTIL),
    ("P[>= 0](X B(h = 0) = 1) & !P[>= 0](F<=1 P[>= 0](G B(h = 0) = 1))",
     NESTED_P),
], ids=["globally", "until", "nested-under-X", "nested-under-U",
        "globally-over-nested", "until-over-nested", "nested-over-inner-G",
        "globally-first", "until-first", "nested-in-second-P"])
def test_horizon_of_rejects_with_one_message(text, message):
    m = parse_model(f"fluents h; belief {{ (0): 1 }} program {{ }} "
                    f"property N {{ {text} }}")
    with pytest.raises(InadmissiblePropertyError) as err:
        horizon_of(m.property_named("N"))
    assert str(err.value) == message


def test_horizon_is_the_largest_step_bound():
    m = parse_model("fluents h; belief { (0): 1 } program { } property N { "
                    "P[>= 0](X B(h = 0) = 1) & !P[>= 0](F<=3 B(h = 0) = 1) }")
    assert horizon_of(m.property_named("N")) == 3


def test_probability_rejects_an_unbounded_trace(coffee, coffee_pomdps):
    _, pomdps = coffee_pomdps
    policy = next(enumerate_policies(pomdps[0]))
    with pytest.raises(InadmissiblePropertyError, match="is not bounded"):
        probability(pomdps[0], policy, coffee.property_named("P2").trace)


def test_boolean_structure_of_state_formulas(coffee, coffee_pomdps):
    from beliefprog.syntax import And, Not
    abstraction, pomdps = coffee_pomdps
    phi = coffee.property_named("P1")
    p_tau1 = pomdp_with_witness(abstraction, pomdps, 0)
    leaf = parse_subjective("B(true) = 1", coffee)
    # per type: phi holds exactly for tau1, so its negation holds exactly
    # for the other two; neither is valid over all types
    per_type = [tr.holds for tr in check(pomdps, phi).per_type]
    neg_per_type = [tr.holds for tr in check(pomdps, Not(phi)).per_type]
    assert neg_per_type == [not h for h in per_type]
    assert not check(pomdps, Not(phi)).holds
    # conjunction with an always-true leaf is neutral
    assert check([p_tau1], And(leaf, phi)).holds
    assert not check([p_tau1], And(leaf, Not(phi))).holds


# ---------------------------------------------------------------------------
# independent oracle 2: value iteration on layered fully-observable models

@functools.cache
def _one_fluent_model():
    return parse_model(COFFEE.read_text())


def _dummy_obs(i):
    """Distinct point-mass knowledge bases to give every state its own
    observation, each over a new believed Bat of a model whose one fluent
    is h."""
    w = World({"h": F(i), "Final": F(0), "Fail": F(0)})
    return KnowledgeBase({w: F(1)}, believed_bat(_one_fluent_model()))


def _random_layered_pomdp(rng, k=3):
    p = FinitePomdp(k)
    layers = [[None] * rng.randint(1, 3) for _ in range(k + 1)]
    counter = 0
    for d, layer in enumerate(layers):
        for j in range(len(layer)):
            idx = len(p.states)
            p.observations.append(_dummy_obs(counter))
            add_hand_state(p, d)
            p.transitions.append({})
            p.obs_of.append(counter)
            p.labels.append(frozenset())
            layer[j] = idx
            counter += 1
    for d in range(k):
        for s in layers[d]:
            n_actions = rng.randint(1, 2)
            choices = []
            for a in range(n_actions):
                label = f"u{a}"
                weights = [rng.randint(0, 3) for _ in layers[d + 1]]
                if sum(weights) == 0:
                    weights[0] = 1
                total = sum(weights)
                p.transitions[s][label] = [
                    (t, F(wgt, total)) for t, wgt in zip(layers[d + 1], weights)
                    if wgt]
                choices.append(label)
            p.agent_actions[p.obs_of[s]] = tuple(choices)
    for s in layers[k]:
        p.transitions[s]["fail"] = [(s, F(1))]
        p.agent_actions[p.obs_of[s]] = ()
    return p, layers


def _value_iteration(p, left, right, k, best):
    v = {s: (F(1) if s in right else F(0)) for s in range(len(p.states))}
    for _ in range(k):
        nv = {}
        for s in range(len(p.states)):
            if s in right:
                nv[s] = F(1)
            elif s not in left:
                nv[s] = F(0)
            else:
                opts = []
                for label, targets in p.transitions[s].items():
                    opts.append(sum((pr * v[t] for t, pr in targets), F(0)))
                nv[s] = best(opts) if opts else F(0)
        v = nv
    s0 = p.initial
    if s0 in right:
        return F(1)
    if s0 not in left:
        return F(0)
    return v[s0]


@pytest.mark.parametrize("seed", range(40))
def test_extremes_match_value_iteration(seed):
    rng = random.Random(seed)
    p, layers = _random_layered_pomdp(rng)
    states = range(len(p.states))
    right = {s for s in states if rng.random() < 0.25}
    left = right | {s for s in states if rng.random() < 0.7}

    class _FakeBeta:
        pass

    beta_r, beta_l = _FakeBeta(), _FakeBeta()
    psi = UntilOp(beta_l, beta_r, p.k)

    import beliefprog.checker as checker_mod
    orig = checker_mod.obs_satisfies

    def fake_obs_satisfies(kb, beta):
        state = next(i for i, o in enumerate(p.observations) if o is kb)
        if beta is beta_r:
            return state in right
        if beta is beta_l:
            return state in left
        return orig(kb, beta)

    checker_mod.obs_satisfies = fake_obs_satisfies
    try:
        probs = [checker_mod.probability(p, pol, psi)
                 for pol in enumerate_policies(p)]
    finally:
        checker_mod.obs_satisfies = orig
    assert min(probs) == _value_iteration(p, left, right, p.k, min)
    assert max(probs) == _value_iteration(p, left, right, p.k, max)
