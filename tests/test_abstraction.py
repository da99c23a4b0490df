from fractions import Fraction

import pytest

from beliefprog import (ConfigTable, InadmissiblePropertyError, build_graph,
                        build_pomdp, compute_types, ground_action_universe,
                        horizon_of, make_world, parse_model)
from beliefprog import abstraction as abstraction_mod
from beliefprog.abstraction import (BREAKDOWN, RepresentativeError, reps_auto,
                                    reps_from_init, reps_from_ranges)
from beliefprog.kb import (eval_fluent_formula, next_observation,
                           progress_world, real_bat)


def test_ground_universe_coffee(coffee):
    # program pre-order: the sensing loop precedes east in the source
    names = [str(a) for a in ground_action_universe(coffee)]
    assert names == ["sencfe(1)", "sencfe(0)", "east(1, 1)", "east(1, 0)",
                     "eps", "fail"]


def test_ground_universe_empty_program():
    m = parse_model("fluents h;\nbelief { (0): 1 }\nprogram { }")
    assert [str(a) for a in ground_action_universe(m)] == ["eps", "fail"]


def test_ground_universe_dedupes_repeated_prims():
    text = """
        fluents h;
        action a stochastic(x; y) { outcomes: (x); likelihood: case true: 1; }
        ssa h { case a(x, y): h + y; default: h; }
        belief { (0): 1 }
        program { a(1); a(1) }
    """
    m = parse_model(text)
    names = [str(t) for t in ground_action_universe(m)]
    assert names == ["a(1, 1)", "eps", "fail"]


def test_horizon_of_forms(coffee):
    assert horizon_of(coffee.property_named("P1")) == 2
    from beliefprog.parser import Parser, _Resolver
    p = Parser("P[>= 0](X B(h = 0) = 1)")
    phi = p.state_formula()
    assert horizon_of(phi) == 1
    # a bare subjective formula needs no steps
    from beliefprog.parser import parse_subjective
    assert horizon_of(parse_subjective("B(h = 2) < 1", coffee)) == 0


def test_unbounded_until_rejected(coffee):
    with pytest.raises(InadmissiblePropertyError):
        horizon_of(coffee.property_named("P2"))


def test_nested_p_rejected():
    text = """
        fluents h;
        belief { (0): 1 }
        program { }
        property N { P[>= 0](X P[>= 0](X B(h = 0) = 1)) }
    """
    m = parse_model(text)
    with pytest.raises(InadmissiblePropertyError):
        horizon_of(m.property_named("N"))


def test_three_types_for_coffee(coffee):
    reps = [make_world(coffee, [v]) for v in (0, -1, -2)]
    a = compute_types(coffee, 2, reps, coffee.property_named("P1"))
    assert len(a.types) == 3
    witnesses = sorted(t.witness["h"] for t in a.types)
    assert witnesses == [-2, -1, 0]


def test_duplicate_representatives_collapse(coffee):
    reps = [make_world(coffee, [0]), make_world(coffee, [0])]
    a = compute_types(coffee, 2, reps, coffee.property_named("P1"))
    assert len(a.types) == 1


def test_violating_representative_rejected(coffee):
    with pytest.raises(RepresentativeError):
        compute_types(coffee, 2, [make_world(coffee, [1])],
                      coffee.property_named("P1"))


def test_empty_representatives_rejected(coffee):
    with pytest.raises(RepresentativeError):
        compute_types(coffee, 2, [], coffee.property_named("P1"))


def test_type_soundness_by_reevaluation(coffee):
    # a type's bit vector is the truth of every objective context formula
    # after every kept sequence, sequences by length and then action
    # symbols; two representatives of the same type agree on all of it
    reps = [make_world(coffee, [v]) for v in (0, -1, -2, -3)]
    a = compute_types(coffee, 2, reps, coffee.property_named("P1"))
    rb = real_bat(coffee)
    ctx = a.context
    order = sorted(a.sequences, key=lambda z: (
        len(z), [(t.symbol, t.ctrl, t.unctrl) for t in z]))

    def bitvec(w0):
        bits = []
        for z in order:
            w = w0
            for t in z:
                w = progress_world(w, t, rb)
            bits.extend(eval_fluent_formula(ctx.formulas[idx].formula, w)
                        for idx in ctx.objective_indices())
        return tuple(bits)

    # -2 and -3 collapse into one type
    assert len(a.types) == 3
    for tau in a.types:
        assert bitvec(tau.witness) == tau.bitvec
    assert {bitvec(w) for w in reps} == {tau.bitvec for tau in a.types}
    assert bitvec(reps[2]) == bitvec(reps[3])


def test_pruning_drops_zero_likelihood_sequences(coffee):
    reps = [make_world(coffee, [v]) for v in (0, -1, -2)]
    a = compute_types(coffee, 2, reps, coffee.property_named("P1"))
    # sencfe(1) has zero real likelihood at h in {0,-1,-2}, so [sencfe(1)]
    # is pruned (1, subtree of 6 never enumerated) along with the four
    # depth-2 sequences ending in an impossible sencfe(1)
    assert a.pruned == 5
    assert all(str(z[0]) != "sencfe(1)" for z in a.sequences if z)
    assert len(a.sequences) == 43 - 5 - 6


def test_breakdown_marked_for_belief_impossible_sequences(coffee):
    reps = [make_world(coffee, [0])]
    a = compute_types(coffee, 2, reps, coffee.property_named("P1"))
    east11 = next(t for t in a.universe if str(t) == "east(1, 1)")
    sen1 = next(t for t in a.universe if str(t) == "sencfe(1)")
    # the believed-accurate sensor reading 1 after east(1, 1) is believed
    # possible, so its configuration is a state and not the sink
    p = build_pomdp(ConfigTable(build_graph(coffee.program), a.rbat, a.kb0), a,
                    a.types[0])
    w1 = a.rbat.step(reps[0], east11)[1]
    kb1 = next_observation(a.kb0, east11)
    kb2 = next_observation(kb1, sen1)
    assert kb2 != BREAKDOWN and kb2.render() == "{(2): 1}"
    targets = dict(p.transitions[p.state_index[((0, kb1, w1), 1)]]["sencfe"])
    reached = [i for i, (config, depth) in enumerate(p.states)
               if config is not None and config[1] == kb2
               and config[2] == a.rbat.step(w1, sen1)[1] and depth == 2]
    assert len(reached) == 1 and targets[reached[0]] == Fraction(1, 10)


def test_context_contains_instantiated_likelihood_contexts(coffee):
    reps = [make_world(coffee, [0])]
    a = compute_types(coffee, 1, reps, coffee.property_named("P1"))
    rendered = [str(f) for f in a.context.formulas]
    assert "h = 2" in rendered
    assert "h = 1 | h = 3" in rendered
    assert "h <= 0" in rendered  # init constraint
    provs = {f.provenance for f in a.context.formulas}
    assert {"init", "likelihood-context", "test", "property"} <= provs


def test_reps_helpers(coffee):
    worlds = reps_from_init(coffee)
    assert sorted(w["h"] for w in worlds) == [-2, -1, 0]
    ranged = reps_from_ranges(coffee, {"h": (-2, 0)})
    assert sorted(w["h"] for w in ranged) == [-2, -1, 0]
    auto = reps_auto(coffee)
    assert sorted(w["h"] for w in auto) == [-2, -1, 0]


def test_reps_from_ranges_rejects_an_unknown_fluent(coffee):
    with pytest.raises(RepresentativeError, match="unknown fluent 'zz'"):
        reps_from_ranges(coffee, {"h": (-2, 0), "zz": (-2, 0)})


def test_reps_range_budget_is_exact_at_its_bound(coffee, monkeypatch):
    assert len(reps_from_ranges(coffee, {"h": (-400, 0)})) == 401
    monkeypatch.setattr(abstraction_mod, "REPRESENTATIVE_BUDGET", 3)
    assert len(reps_from_ranges(coffee, {"h": (-2, 0)})) == 3
    with pytest.raises(RepresentativeError, match="box of 4 worlds, over "
                                                  "the budget of 3"):
        reps_from_ranges(coffee, {"h": (-3, 0)})
