"""The checker's policy search against exhaustive enumeration.

check decides min and max over every proper policy by one depth-first
search that fixes a choice only where mass arrives.  Here its extremes,
its witnesses (the first optimal policies in enumerate_policies order) and
its policy count must equal a brute-force pass of probability over
enumerate_policies, which stays as the oracle.
"""

import json
import random
from fractions import Fraction

import pytest

import beliefprog.checker as checker_mod
from beliefprog import (ConfigTable, LikelihoodContextError,
                        ObservationUniformityError, PolicyBudgetError,
                        build_graph, build_pomdp, check, compute_types,
                        enumerate_policies, estimate, make_world, parse_model,
                        probability)
from beliefprog.checker import policy_count
from beliefprog.cli import main
from beliefprog.parser import parse_subjective
from beliefprog.pomdp import FinitePomdp
from beliefprog.syntax import TRUE, POp, PropInterval, UntilOp, XOp
from conftest import COFFEE, ROOT, random_model_text
from test_checker import _dummy_obs, _random_layered_pomdp
from test_trace_semantics import _consistent

F = Fraction
CHOICE = ROOT / "perfbench" / "models" / "coffee_choice.bp"
ANY = PropInterval(F(0), F(1))


def _oracle(pomdp, psi):
    """(min, first argmin, max, first argmax) by enumerating every policy."""
    low = high = None
    for policy in enumerate_policies(pomdp, cap=None):
        value = probability(pomdp, policy, psi)
        if low is None or value < low[0]:
            low = (value, policy)
        if high is None or value > high[0]:
            high = (value, policy)
    return low[0], low[1], high[0], high[1]


def _assert_matches_oracle(pomdp, psi, policy_cap=None):
    result = check([pomdp], POp(ANY, psi), policy_cap=policy_cap).per_type[0]
    sub = result.subformulas[0]
    assert result.policies == policy_count(pomdp)
    assert (sub.minimum, sub.argmin, sub.maximum, sub.argmax) == \
        _oracle(pomdp, psi)
    return sub


def _pomdps(text, k, phi=None):
    model = parse_model(text)
    graph = build_graph(model.program)
    reps = [make_world(model, vals) for vals in model.init.worlds]
    abstraction = compute_types(model, k, reps, phi)
    table = ConfigTable(graph, abstraction.rbat, abstraction.kb0)
    pomdps = []
    for i, tau in enumerate(abstraction.types):
        try:
            pomdps.append(build_pomdp(table, abstraction, tau, type_id=i))
        except (ObservationUniformityError, LikelihoodContextError):
            continue
    return model, pomdps


# ---------------------------------------------------------------------------
# random models

_decided = {"choices": 0, "cases": 0}


@pytest.mark.parametrize("seed", range(200))
def test_search_matches_enumeration_on_random_models(seed):
    text = random_model_text(seed)
    for k in (2, 3):
        model, pomdps = _pomdps(text, k)
        f0 = model.fluents[0].name
        right = parse_subjective(f"B({f0} = 1) > 0", model)
        left = parse_subjective(f"B({f0} = 0) < 1", model)
        formulas = [UntilOp(TRUE, right, k), UntilOp(left, right, k),
                    XOp(parse_subjective(f"B({f0} = 0) >= 1/2", model))]
        for pomdp in pomdps:
            for psi in formulas:
                _assert_matches_oracle(pomdp, psi)
                _decided["cases"] += 1
                _decided["choices"] += policy_count(pomdp) > 1


def test_zz_random_models_exercised_choices():
    # runs after the parametrized suite above: enough cases must have had
    # more than one policy for the comparison to mean something
    if _decided["cases"]:
        assert _decided["choices"] >= 200, _decided


# ---------------------------------------------------------------------------
# layered models with one observation per state, against value iteration's
# instances of tests/test_checker.py

class _FakeBeta:
    pass


def _until_on_observations(monkeypatch, p, left, right):
    """U<=k whose sides hold exactly at the given observation indices,
    through the same obs_satisfies patch as
    test_extremes_match_value_iteration."""
    beta_l, beta_r = _FakeBeta(), _FakeBeta()
    orig = checker_mod.obs_satisfies

    def fake_obs_satisfies(kb, beta):
        obs = next(i for i, o in enumerate(p.observations) if o is kb)
        if beta is beta_r:
            return obs in right
        if beta is beta_l:
            return obs in left
        return orig(kb, beta)

    monkeypatch.setattr(checker_mod, "obs_satisfies", fake_obs_satisfies)
    return UntilOp(beta_l, beta_r, p.k)


@pytest.mark.parametrize("seed", range(40))
def test_search_matches_enumeration_on_layered_pomdps(seed, monkeypatch):
    rng = random.Random(seed)
    p, _layers = _random_layered_pomdp(rng)
    states = range(len(p.states))
    right = {s for s in states if rng.random() < 0.25}
    left = right | {s for s in states if rng.random() < 0.7}
    _assert_matches_oracle(p, _until_on_observations(monkeypatch, p, left, right))


def test_witness_is_the_first_optimal_policy_not_the_first_leaf(monkeypatch):
    # state s has observation s, except that s0 and s1 swap them; obs 0
    # sorts before obs 1, but mass reaches obs 1 first:
    #   s0 (obs 1) --u0--> s1 (obs 0) --u0--> s3 (miss) / --u1--> s4 (hit)
    #   s0 (obs 1) --u1--> s2 (hit)
    # The search meets the optimal leaf {obs 1: u0, obs 0: u1} before
    # {obs 1: u1}, whose completion {obs 0: u0, obs 1: u1} comes first in
    # enumeration order and so is the witness.
    p = FinitePomdp(2)
    edges = {0: {"u0": 1, "u1": 2}, 1: {"u0": 3, "u1": 4}}
    p.observations = [_dummy_obs(i) for i in range(5)]
    for s, obs in enumerate([1, 0, 2, 3, 4]):
        p.states.append(((s, p.observations[obs], None), (0, 1, 1, 2, 2)[s]))
        p.obs_of.append(obs)
        p.transitions.append({label: [(t, F(1))] for label, t in
                              edges.get(s, {"fail": s}).items()})
    p.labels = [frozenset()] * 5
    p.agent_actions = {1: ("u0", "u1"), 0: ("u0", "u1"), 2: (), 3: (), 4: ()}
    psi = _until_on_observations(monkeypatch, p, left=set(range(5)), right={2, 4})
    sub = _assert_matches_oracle(p, psi)
    assert sub.maximum == 1 and sub.argmax == {0: "u0", 1: "u1"}


# ---------------------------------------------------------------------------
# the bundled models

@pytest.fixture(scope="module")
def choice_pomdps():
    model, pomdps = _pomdps(CHOICE.read_text(), 3)
    return model, pomdps


@pytest.mark.parametrize("path", [COFFEE, CHOICE], ids=["coffee", "coffee-choice"])
def test_search_matches_enumeration_on_bundled_models(path):
    model = parse_model(path.read_text())
    phi = model.property_named("P1")
    _, pomdps = _pomdps(path.read_text(), phi.trace.bound, phi)
    assert pomdps
    for pomdp in pomdps:
        _assert_matches_oracle(pomdp, phi.trace)


def test_policy_cap_bounds_search_nodes_exactly(choice_pomdps):
    # 28 nodes decide each type's 2187 policies; a cap of exactly the node
    # count passes and one less fails
    model, pomdps = choice_pomdps
    phi = POp(ANY, model.property_named("P1").trace)
    for pomdp in pomdps:
        assert check([pomdp], phi, policy_cap=28).per_type[0].policies == 2187
        with pytest.raises(PolicyBudgetError, match="reached 28 nodes"):
            check([pomdp], phi, policy_cap=27)


def test_choice_model_verifies_beyond_the_enumeration_cap(tmp_path, capsys):
    # 3^15 = 14,348,907 proper policies per type at F<=4: more than the
    # default cap of 10^6, which enumeration needed and the search does not
    text = CHOICE.read_text().replace("F<=3", "F<=4")
    path = tmp_path / "choice4.bp"
    path.write_text(text)
    code = main(["verify", str(path), "--property", "P1", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    model = parse_model(text)
    psi = model.property_named("P1").trace
    maxima = []
    for t, tr in zip(report["types"], report["verdict"]["per_type"]):
        sub = tr["subformulas"][0]
        assert tr["policies"] == 3 ** 15
        assert sub["min"] == "0"
        maxima.append(sub["max"])
        # the argmax policy, run by the simulator at the witness world,
        # reaches the exact maximum
        world = make_world(model, [F(t["witness"][f.name])
                                   for f in model.fluents])
        result = estimate(model, psi, world, sub["argmax_policy"], 2000, 17, 4)
        assert _consistent(result.successes, result.trials, F(sub["max"])), \
            (t["id"], result.successes)
    assert maxima == ["7/20", "11/80", "1/80"]


# ---------------------------------------------------------------------------
# the always-on re-check of the witnesses

def test_mass_lost_in_a_step_is_an_error(choice_pomdps, monkeypatch):
    model, pomdps = choice_pomdps
    phi = model.property_named("P1")
    orig = checker_mod._step

    def leaky_step(pomdp, policy, alive):
        new = orig(pomdp, policy, alive)
        state = min(new)
        new[state] /= 2
        return new

    monkeypatch.setattr(checker_mod, "_step", leaky_step)
    with pytest.raises(RuntimeError, match="witness policy re-check"):
        check(pomdps, phi)
