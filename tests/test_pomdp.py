import hashlib
import json
from fractions import Fraction

import pytest

from beliefprog import (ConfigTable, LikelihoodContextError,
                        ObservationUniformityError, StateBudgetError,
                        build_graph, build_pomdp,
                        compute_types, enabled, eval_subjective, horizon_of,
                        make_world, parse_model, pomdp_fingerprint,
                        print_program)
from beliefprog.abstraction import BREAKDOWN, reps_from_init
from beliefprog.kb import (GroundAction, KnowledgeBase, initial_kb,
                           likelihood_row, next_observation, progress_kb,
                           progress_world, real_bat)
import beliefprog.cli as cli
import beliefprog.pomdp as pomdp_mod
from beliefprog.parser import parse_subjective
from conftest import COFFEE, ROOT, pomdp_with_witness, random_model_text

F = Fraction


def test_one_table_serves_every_type(monkeypatch, capsys):
    """One verify call makes one configuration table for all its types:
    the guards are evaluated once per distinct (node, observation), and
    the filled table builds type 0's POMDP again, fingerprint for
    fingerprint, without evaluating a guard."""
    path = ROOT / "perfbench" / "models" / "coffee_choice.bp"
    calls, builds = [], []

    def counting_enabled(graph, node, kb):
        calls.append((node, kb))
        return enabled(graph, node, kb)

    def recording_build(*args, **kwargs):
        builds.append(args)
        return build_pomdp(*args, **kwargs)
    monkeypatch.setattr(pomdp_mod, "enabled", counting_enabled)
    monkeypatch.setattr(cli, "build_pomdp", recording_build)
    assert cli.main(["verify", str(path), "--property", "P1",
                     "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    # a search per type made 67 calls
    assert len(calls) == len(set(calls)) == 8
    table, abstraction, witness = builds[0]
    assert len(builds) == 3 and all(b[0] is table for b in builds)
    rebuilt = build_pomdp(table, abstraction, witness, type_id=0)
    assert len(calls) == 8
    assert hashlib.sha256(pomdp_fingerprint(rebuilt, abstraction)
                          ).hexdigest() == report["types"][0]["fingerprint"]


def test_one_render_per_knowledge_base(monkeypatch, capsys):
    """A knowledge base's name is made on first use and kept: a verify
    call on the choice model, whose fingerprints, policy order and policy
    maps all read the names, makes one for each of its 16 knowledge
    bases."""
    path = ROOT / "perfbench" / "models" / "coffee_choice.bp"
    render = KnowledgeBase.render
    made = []

    def recording_render(kb):
        if kb._name is None:
            made.append(kb)
        return render(kb)
    monkeypatch.setattr(KnowledgeBase, "render", recording_render)
    assert cli.main(["verify", str(path), "--property", "P1",
                     "--format", "json"]) == 1
    capsys.readouterr()
    assert len(made) == len({kb.key for kb in made}) == 16


def test_states_are_table_entries(coffee_table, coffee_pomdps):
    """A state is the table's one id for its configuration, at a depth;
    the sink is (None, None).  Types built over one table share ids."""
    _, table = coffee_table
    _, pomdps = coffee_pomdps
    owners = {}  # configuration id -> the types whose POMDP has it
    for t, p in enumerate(pomdps):
        for i, (c, depth) in enumerate(p.states):
            assert p.state_index[(c, depth)] == i
            if c is None:
                assert depth is None
                assert p.observations[p.obs_of[i]] is BREAKDOWN
                continue
            assert c == table.entry(table.nodes[c], table.kbs[c],
                                    table.worlds[c])
            assert p.observations[p.obs_of[i]] is table.kbs[c]
            owners.setdefault(c, set()).add(t)
    # 4 of the 12 configurations are states of more than one type
    assert len(owners) == 12
    assert sum(len(types) > 1 for types in owners.values()) == 4


def test_structure_of_the_h0_pomdp(coffee, coffee_table, coffee_pomdps):
    _, table = coffee_table
    abstraction, pomdps = coffee_pomdps
    p = pomdp_with_witness(abstraction, pomdps, 0)
    assert len(p.states) == 6
    assert len(p.observations) == 4
    # initial state moves east with the half/half split
    east = p.transitions[p.initial]["east(1)"]
    assert sorted(prob for _, prob in east) == [F(1, 2), F(1, 2)]
    # the distinguished branch: after east(1,1), sencfe reads 1 with 1/10
    rbat = abstraction.rbat
    east11 = GroundAction("east", (F(1),), (F(1),))
    entry = table.entry(0, progress_kb(abstraction.kb0, east11),
                        rbat.step(make_world(coffee, [0]), east11)[1])
    s_e11 = p.state_index[(entry, 1)]
    sen = dict()
    for target, prob in p.transitions[s_e11]["sencfe"]:
        kb = p.observations[p.obs_of[target]]
        sen[kb.render()] = prob
    assert sen == {"{(2): 1}": F(1, 10), "{(0): 1/3, (1): 2/3}": F(9, 10)}


def test_per_state_action_mass_is_one(coffee_pomdps):
    _, pomdps = coffee_pomdps
    for p in pomdps:
        for trans in p.transitions:
            for action, targets in trans.items():
                assert sum((prob for _, prob in targets), F(0)) == 1


def test_fingerprints_tau2_tau3_equal(coffee, coffee_pomdps):
    abstraction, pomdps = coffee_pomdps
    fps = {abstraction.types[i]["h"]:
           pomdp_fingerprint(p, abstraction)
           for i, p in enumerate(pomdps)}
    assert fps[-1] == fps[-2]
    assert fps[0] != fps[-1]


def test_fingerprint_deterministic(coffee, coffee_pomdps):
    abstraction, pomdps = coffee_pomdps
    graph = build_graph(coffee.program)
    rebuilt = build_pomdp(ConfigTable(graph, abstraction.rbat,
                                      abstraction.kb0),
                          abstraction, abstraction.types[0], type_id=0)
    assert pomdp_fingerprint(rebuilt, abstraction) == \
        pomdp_fingerprint(pomdps[0], abstraction)


def test_state_budget_is_exact_at_its_bound(coffee, coffee_pomdps,
                                            monkeypatch):
    abstraction, pomdps = coffee_pomdps
    table = ConfigTable(build_graph(coffee.program), abstraction.rbat,
                        abstraction.kb0)
    witness = abstraction.types[0]
    assert len(pomdps[0].states) == 6
    monkeypatch.setattr(pomdp_mod, "STATE_BUDGET", 6)
    assert len(build_pomdp(table, abstraction, witness).states) == 6
    monkeypatch.setattr(pomdp_mod, "STATE_BUDGET", 5)
    with pytest.raises(StateBudgetError, match="more than 5 states"):
        build_pomdp(table, abstraction, witness)


def test_labels_recomputable_from_observations(coffee, coffee_pomdps):
    abstraction, pomdps = coffee_pomdps
    for p in pomdps:
        for obs_idx, kb in enumerate(p.observations):
            if kb == BREAKDOWN:
                assert p.labels[obs_idx] == frozenset()
                continue
            for i in abstraction.context.subjective_indices():
                expected = eval_subjective(kb, abstraction.context.formulas[i].formula)
                assert (i in p.labels[obs_idx]) == expected


def test_certainty_observation_carries_goal_label(coffee, coffee_pomdps):
    abstraction, pomdps = coffee_pomdps
    p = pomdp_with_witness(abstraction, pomdps, 0)
    goal = parse_subjective("B(h = 2) = 1", coffee)
    idx = next(i for i, f in enumerate(abstraction.context.formulas)
               if f.formula == goal)
    labeled = [i for i, kb in enumerate(p.observations)
               if kb != BREAKDOWN and idx in p.labels[i]]
    assert len(labeled) == 1
    assert p.observations[labeled[0]].render() == "{(2): 1}"
    # tau2/tau3 never reach it
    for h in (-1, -2):
        q = pomdp_with_witness(abstraction, pomdps, h)
        assert all(kb == BREAKDOWN or idx not in q.labels[i]
                   for i, kb in enumerate(q.observations))


def test_state_count_bounded(coffee, coffee_pomdps):
    abstraction, pomdps = coffee_pomdps
    graph = build_graph(coffee.program)
    bound = len(graph.nodes) * (len(abstraction.sequences) + 1)
    for p in pomdps:
        assert len(p.states) <= bound


def test_frontier_states_self_loop_fail(coffee_pomdps):
    _, pomdps = coffee_pomdps
    for p in pomdps:
        frontier = [i for i, (config, depth) in enumerate(p.states)
                    if config is not None and depth == p.k]
        assert frontier
        for i in frontier:
            assert p.transitions[i] == {"fail": [(i, F(1))]}


def test_horizon_zero_single_state(coffee):
    graph = build_graph(coffee.program)
    reps = [make_world(coffee, [0])]
    beta = parse_subjective("B(h = 2) < 1", coffee)
    abstraction = compute_types(coffee, 0, reps, beta)
    p = build_pomdp(ConfigTable(graph, abstraction.rbat, abstraction.kb0),
                    abstraction, abstraction.types[0])
    assert len(p.states) == 1
    assert p.observations[p.obs_of[0]].render() == "{(0): 1/2, (1): 1/2}"


def test_breakdown_branch_routed_to_sink():
    text = """
        fluents h;
        action sen sensing(1, 0) {
          likelihood: case true: 1/2, 1/2;
        }
        believed {
          action sen { likelihood: case true: 0, 1; }
        }
        belief { (0): 1 }
        program { sen }
        property T { P[>= 0](X B(h = 0) = 1) }
    """
    m = parse_model(text)
    graph = build_graph(m.program)
    abstraction = compute_types(m, 1, [make_world(m, [0])], m.property_named("T"))
    p = build_pomdp(ConfigTable(graph, abstraction.rbat, abstraction.kb0),
                    abstraction, abstraction.types[0])
    assert p.breakdown_states == 1
    targets = dict(p.transitions[p.initial]["sen"])
    sink = p.state_index[(None, None)]
    assert targets[sink] == F(1, 2)
    assert p.labels[p.obs_of[sink]] == frozenset()
    # the sink absorbs
    assert p.transitions[sink] == {"fail": [(sink, F(1))]}


def test_observation_uniformity_violation_detected():
    # two flat sensing steps leave the KB unchanged, so both program
    # positions share an observation but enable different actions
    text = """
        fluents h;
        action s1 sensing(0) { likelihood: case true: 1; }
        action s2 sensing(0) { likelihood: case true: 1; }
        belief { (0): 1 }
        program { s1; s2 }
        property T { P[>= 0](F<=2 B(h = 0) = 1) }
    """
    m = parse_model(text)
    graph = build_graph(m.program)
    abstraction = compute_types(m, 2, [make_world(m, [0])], m.property_named("T"))
    with pytest.raises(ObservationUniformityError):
        build_pomdp(ConfigTable(graph, abstraction.rbat, abstraction.kb0),
                    abstraction, abstraction.types[0])


def test_ambiguous_same_action_transition_detected():
    text = """
        fluents h;
        action a stochastic(; y) { outcomes: (1); likelihood: case true: 1; }
        action b stochastic(; y) { outcomes: (2); likelihood: case true: 1; }
        ssa h { case a(y): y; case b(y): y; default: h; }
        belief { (0): 1 }
        program { (a; a) | (a; b) }
        property T { P[>= 0](F<=2 B(h = 1) = 1) }
    """
    m = parse_model(text)
    graph = build_graph(m.program)
    abstraction = compute_types(m, 2, [make_world(m, [0])], m.property_named("T"))
    with pytest.raises(LikelihoodContextError):
        build_pomdp(ConfigTable(graph, abstraction.rbat, abstraction.kb0),
                    abstraction, abstraction.types[0])


def assert_transitions_are_witness_likelihoods(model, k, phi=None):
    """Every transition of every buildable type's POMDP is likelihood_row
    at the witness's world after a sequence that reaches the state, merged
    by target; breakdown branches go to the sink.  Worlds and observations
    are progressed here along the sequences, and every state is reached by
    one of them."""
    graph = build_graph(model.program)
    a = compute_types(model, k, reps_from_init(model), phi)
    rbat = real_bat(model)
    checked = 0
    for witness in a.types:
        try:
            table = ConfigTable(graph, a.rbat, a.kb0)
            p = build_pomdp(table, a, witness)
        except (ObservationUniformityError, LikelihoodContextError):
            continue
        seen = {p.initial}
        # (sequence length, node, observation, world) of each walk
        stack = [(0, 0, initial_kb(model), witness)]
        while stack:
            depth, node, kb, w = stack.pop()
            si = p.state_index[(table.entry(node, kb, w), depth)]
            seen.add(si)
            if depth == k:
                continue
            for edge in enabled(graph, node, kb)[0]:
                prim = edge.prim
                expected = {}
                for value, weight in likelihood_row(prim.symbol, prim.args,
                                                    w, rbat):
                    if weight == 0:
                        continue
                    t = GroundAction(prim.symbol, prim.args, value)
                    kb2 = next_observation(kb, t)
                    if kb2 is BREAKDOWN:
                        target = p.state_index[(None, None)]
                        seen.add(target)
                    else:
                        w2 = progress_world(w, t, rbat)
                        target = p.state_index[
                            (table.entry(edge.target, kb2, w2), depth + 1)]
                        stack.append((depth + 1, edge.target, kb2, w2))
                    expected[target] = expected.get(target, F(0)) + weight
                assert p.transitions[si][print_program(prim)] == \
                    sorted(expected.items())
                checked += 1
        assert seen == set(range(len(p.states)))
    return checked


def test_transitions_are_witness_likelihoods_coffee():
    for path in (COFFEE, ROOT / "perfbench" / "models" / "coffee_choice.bp"):
        model = parse_model(path.read_text())
        phi = model.property_named("P1")
        assert assert_transitions_are_witness_likelihoods(
            model, horizon_of(phi), phi) > 0


@pytest.mark.parametrize("seed", range(200))
def test_transitions_are_witness_likelihoods_random(seed):
    assert_transitions_are_witness_likelihoods(
        parse_model(random_model_text(seed)), 2)
