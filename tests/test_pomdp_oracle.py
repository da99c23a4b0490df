"""The configuration-keyed POMDP builder against the sequence-keyed one.

``sequence_pomdp`` names a state by (action sequence, graph node), carries
the witness's world along each sequence and progresses each sequence's
observation on its own.  ``build_pomdp`` merges the sequences that reach
one configuration (node, observation, world) at one depth.  The merge is
exact: both builders must reject a type with the same error class, or
give the same policy space, the same min and max of a bounded formula and
the same rendered argmin and argmax policies; on coffee every policy must
have the same probability.
"""

import re
from collections import deque
from fractions import Fraction

import pytest

from beliefprog import (BeliefProgError, ConfigTable, LikelihoodContextError,
                        ObservationUniformityError, build_graph, build_pomdp,
                        compute_types, horizon_of, parse_model, probability)
from beliefprog.abstraction import reps_from_init
from beliefprog.checker import _search, integer_weights, policy_space
from beliefprog.kb import (BREAKDOWN, action_likelihood, eval_subjective,
                           initial_kb, next_observation, oi_alternatives,
                           progress_world, real_bat)
from beliefprog.parser import parse_subjective
from beliefprog.pomdp import FinitePomdp
from beliefprog.program_graph import enabled
from beliefprog.syntax import (EPSILON_NAME, FAILURE_NAME, TRUE, UntilOp,
                               print_program)
from conftest import COFFEE, ROOT, enumerate_policies, random_model_text

CHOICE = ROOT / "perfbench" / "models" / "coffee_choice.bp"


def _add_state(p, key):
    if key in p.state_index:
        return p.state_index[key]
    idx = len(p.states)
    p.state_index[key] = idx
    p.states.append(key)
    p.transitions.append({})
    p.obs_of.append(None)
    return idx


def sequence_pomdp(model, graph, abstraction, witness):
    """The breadth-first builder over (sequence, node) states."""
    k = abstraction.horizon
    ctx = abstraction.context
    rbat = real_bat(model)
    p = FinitePomdp(k)
    obs_index = {}

    def observation_of(kb):
        if kb not in obs_index:
            obs_index[kb] = len(p.observations)
            p.observations.append(kb)
            p.labels.append(frozenset() if kb is BREAKDOWN else frozenset(
                i for i in ctx.subjective_indices()
                if eval_subjective(kb, ctx.formulas[i].formula)))
        return obs_index[kb]

    world_at = {(): witness}
    obs_at = {(): initial_kb(model)}
    start = _add_state(p, ((), 0))
    p.obs_of[start] = observation_of(obs_at[()])
    queue = deque([start])
    while queue:
        si = queue.popleft()
        z, node = p.states[si]
        trans = p.transitions[si]
        if z is None or len(z) == k:
            trans[FAILURE_NAME] = [(si, Fraction(1))]
            if z is not None:
                p.agent_actions.setdefault(p.obs_of[si], None)
            continue
        live, is_final, _failing = enabled(graph, node, obs_at[z])
        choices = [EPSILON_NAME] if is_final else []
        if is_final:
            trans[EPSILON_NAME] = [(si, Fraction(1))]
        for edge in live:
            label = print_program(edge.prim)
            if label in trans:
                raise LikelihoodContextError(f"{label} twice at {z}")
            branches = {}
            for t in oi_alternatives(edge.prim.symbol, edge.prim.args, model):
                like = action_likelihood(t, world_at[z], rbat)
                if like == 0:
                    continue
                z2 = z + (t,)
                world_at[z2] = progress_world(world_at[z], t, rbat)
                obs_at[z2] = next_observation(obs_at[z], t)
                target = _add_state(p, (None, None) if obs_at[z2] is BREAKDOWN
                                    else (z2, edge.target))
                if p.obs_of[target] is None:
                    p.obs_of[target] = observation_of(obs_at[z2])
                    queue.append(target)
                branches[target] = branches.get(target, Fraction(0)) + like
            trans[label] = sorted(branches.items())
            choices.append(label)
        if not choices:
            trans[FAILURE_NAME] = [(si, Fraction(1))]
        obs = p.obs_of[si]
        agent = tuple(c for c in choices if c != EPSILON_NAME) + \
            ((EPSILON_NAME,) if EPSILON_NAME in choices else ())
        if p.agent_actions.get(obs) is None:
            p.agent_actions[obs] = agent
        elif p.agent_actions[obs] != agent:
            raise ObservationUniformityError(f"observation {obs} at {z}")
    for obs, acts in list(p.agent_actions.items()):
        if acts is None:
            p.agent_actions[obs] = ()
    return p


def _rendered(p, policy):
    return {p.observations[obs].render(): label for obs, label in policy.items()}


def _outcome(build, psi):
    """The error class the builder raises, or the policy space, min, max
    and rendered witnesses of psi."""
    try:
        p = build()
    except BeliefProgError as exc:
        return type(exc), None
    low, argmin, high, argmax, _nodes = _search(p, psi, None, integer_weights(p))
    space = [(p.observations[obs].render(), choices)
             for obs, choices in policy_space(p)]
    return (space, low, _rendered(p, argmin), high, _rendered(p, argmax)), p


def assert_builders_agree(model, k, reps, phi, psi):
    """Every type of the model, both builders; returns the pairs of built
    POMDPs (configuration-keyed, sequence-keyed)."""
    graph = build_graph(model.program)
    a = compute_types(model, k, reps, phi)
    table = ConfigTable(graph, a.rbat, a.kb0)
    built = []
    for witness in a.types:
        got, p = _outcome(lambda: build_pomdp(table, a, witness), psi)
        want, q = _outcome(lambda: sequence_pomdp(model, graph, a, witness), psi)
        assert got == want
        if p is not None:
            assert len(p.states) <= len(q.states)
            built.append((p, q))
    return built


def _p_trace(phi):
    while not hasattr(phi, "trace"):
        phi = phi.operand if hasattr(phi, "operand") else phi.left
    return phi.trace


def _model_at(path, k):
    return parse_model(re.sub(r"F<=\d+", f"F<={k}", path.read_text()))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_coffee_every_policy(k):
    model = _model_at(COFFEE, k)
    phi = model.property_named("P1")
    psi = _p_trace(phi)
    pairs = assert_builders_agree(model, k, reps_from_init(model), phi, psi)
    assert len(pairs) == 3
    for p, q in pairs:
        index = {kb.render(): i for i, kb in enumerate(p.observations)}
        policies = list(enumerate_policies(q, cap=None))
        assert policies
        for policy in policies:
            translated = {index[q.observations[obs].render()]: label
                          for obs, label in policy.items()}
            assert probability(p, translated, psi) == \
                probability(q, policy, psi)


@pytest.mark.parametrize("k", [3, 4])
def test_choice_model(k):
    model = _model_at(CHOICE, k)
    phi = model.property_named("P1")
    assert horizon_of(phi) == k
    pairs = assert_builders_agree(model, k, reps_from_init(model), phi,
                                  _p_trace(phi))
    assert len(pairs) == 3
    # type 0 merges about half of its sequence-keyed states at F<=3
    assert (len(pairs[0][0].states), len(pairs[0][1].states)) == \
        {3: (70, 164), 4: (185, 821)}[k]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(200))
def test_random_models(seed, k):
    model = parse_model(random_model_text(seed))
    beta = parse_subjective(f"B({model.fluents[0].name} = 0) >= 1/2", model)
    assert_builders_agree(model, k, reps_from_init(model), None,
                          UntilOp(TRUE, beta, k))
