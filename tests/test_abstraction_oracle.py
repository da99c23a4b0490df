"""The type abstraction against its eager reference implementation.

``eager_compute_types`` is the straightforward construction: it progresses
the knowledge base of every kept sequence, evaluates every context formula
for every representative, and deduplicates on all entries.
``compute_types`` must give the same sequences, pruning, type order,
witnesses, entries and knowledge bases.
"""

import itertools
import re
from fractions import Fraction

import pytest

import beliefprog.abstraction as abstraction_mod
from beliefprog import (IncompatibleSensingError, build_graph, build_pomdp,
                        compute_types, horizon_of, parse_model)
from beliefprog.abstraction import (BREAKDOWN, Abstraction, ProgramContext,
                                    TypeAssignment, ground_action_universe,
                                    reps_from_init)
from beliefprog.kb import (action_likelihood, eval_fluent_formula,
                           eval_subjective, initial_kb, progress_kb,
                           progress_world, real_bat)
from conftest import ROOT, random_model_text

CHOICE = ROOT / "perfbench" / "models" / "coffee_choice.bp"


def eager_compute_types(model, k, reps, phi=None) -> Abstraction:
    """Reference: every sequence's KB and every entry computed up front."""
    reps = list(dict.fromkeys(reps))
    context = ProgramContext(model, phi)
    universe = ground_action_universe(model)
    rbat = real_bat(model)
    obj_idx = context.objective_indices()
    subj_idx = context.subjective_indices()

    kb_of = {(): initial_kb(model)}
    # per sequence: list of (world, likelihood) per representative
    worlds_of = {(): [(w, Fraction(1)) for w in reps]}
    pruned = 0
    frontier = [()]
    for _depth in range(k):
        new_frontier = []
        for z in frontier:
            for t in universe:
                z2 = z + (t,)
                succ = []
                alive = False
                for w, like in worlds_of[z]:
                    if like == 0:
                        succ.append((w, like))
                        continue
                    step = like * action_likelihood(t, w, rbat)
                    succ.append((progress_world(w, t, rbat), step))
                    alive = alive or step != 0
                if not alive:
                    pruned += 1
                    continue
                worlds_of[z2] = succ
                kb_prev = kb_of[z]
                if kb_prev == BREAKDOWN:
                    kb_of[z2] = BREAKDOWN
                else:
                    try:
                        kb_of[z2] = progress_kb(kb_prev, t)
                    except IncompatibleSensingError:
                        kb_of[z2] = BREAKDOWN
                new_frontier.append(z2)
        frontier = new_frontier
    sequences = sorted(worlds_of.keys(),
                       key=lambda z: (len(z), [universe.index(t) for t in z]))

    subj_entries = {}
    for z in sequences:
        kb = kb_of[z]
        for idx in subj_idx:
            subj_entries[(z, idx)] = kb != BREAKDOWN and \
                eval_subjective(kb, context.formulas[idx].formula)

    def entry_key(key):
        z, idx = key
        return (len(z), tuple((t.symbol, t.ctrl, t.unctrl) for t in z), idx)

    types = []
    seen = set()
    for rep_i, w0 in enumerate(reps):
        entries = dict(subj_entries)
        for z in sequences:
            w_z, _like = worlds_of[z][rep_i]
            for idx in obj_idx:
                entries[(z, idx)] = eval_fluent_formula(
                    context.formulas[idx].formula, w_z)
        key = tuple(entries[k2] for k2 in sorted(entries, key=entry_key))
        if key in seen:
            continue
        seen.add(key)
        types.append(TypeAssignment(w0, entries, key))
    types.sort(key=lambda t: t.bitvec)
    return Abstraction(context, universe, k, sequences, kb_of, types, pruned)


def assert_same_abstraction(lazy, eager):
    assert lazy.sequences == eager.sequences
    assert lazy.pruned == eager.pruned
    assert [t.witness for t in lazy.types] == [t.witness for t in eager.types]
    n = len(eager.context.formulas)
    for tl, te in zip(lazy.types, eager.types):
        assert len(tl.entries) == len(te.entries) == len(eager.sequences) * n
        for z in eager.sequences:
            for idx in range(n):
                assert tl.entries[(z, idx)] == te.entries[(z, idx)], (z, idx)
    for z in eager.sequences:
        assert z in lazy.kb_of
        assert lazy.kb_of[z] == eager.kb_of[z], z
    # pruned sequences stay out of the lazy mapping
    for depth in range(eager.horizon + 1):
        for z in itertools.product(eager.universe, repeat=depth):
            assert (z in lazy.kb_of) == (z in eager.kb_of)
            assert lazy.kb_of.get(z) == eager.kb_of.get(z)


def _with_bound(text, k):
    return re.sub(r"F<=\d+", f"F<={k}", text)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_coffee_p1_matches_eager(coffee_text, k):
    model = parse_model(_with_bound(coffee_text, k))
    phi = model.property_named("P1")
    reps = reps_from_init(model)
    eager = eager_compute_types(model, k, reps, phi)
    # from k=3 on the belief breaks down, first after
    # east(1, 1) sencfe(1) sencfe(0)
    assert any(kb == BREAKDOWN for kb in eager.kb_of.values()) == (k >= 3)
    assert_same_abstraction(compute_types(model, k, reps, phi), eager)


def test_choice_model_matches_eager():
    model = parse_model(CHOICE.read_text())
    phi = model.property_named("P1")
    k = horizon_of(phi)
    reps = reps_from_init(model)
    assert_same_abstraction(compute_types(model, k, reps, phi),
                            eager_compute_types(model, k, reps, phi))


@pytest.mark.parametrize("seed", range(200))
def test_random_models_match_eager(seed):
    model = parse_model(random_model_text(seed))
    reps = reps_from_init(model)
    assert_same_abstraction(compute_types(model, 2, reps),
                            eager_compute_types(model, 2, reps))


def test_pomdp_build_progresses_only_reachable_sequences(coffee_text,
                                                        monkeypatch):
    model = parse_model(_with_bound(coffee_text, 5))
    phi = model.property_named("P1")
    calls = []

    def counting(kb, action):
        calls.append(action)
        return progress_kb(kb, action)

    monkeypatch.setattr(abstraction_mod, "progress_kb", counting)
    a = compute_types(model, 5, reps_from_init(model), phi)
    assert calls == []
    graph = build_graph(model.program)
    pomdps = [build_pomdp(model, graph, a, tau) for tau in a.types]
    used = {z for p in pomdps for z, _node in p.states if z is not None}
    assert len(a.sequences) == 5348
    assert 0 < len(calls) <= len(used)


def test_sequence_budget_is_exact_at_its_bound(coffee, monkeypatch):
    reps = reps_from_init(coffee)
    phi = coffee.property_named("P1")
    monkeypatch.setattr(abstraction_mod, "SEQUENCE_BUDGET", 32)
    assert len(compute_types(coffee, 2, reps, phi).sequences) == 32
    monkeypatch.setattr(abstraction_mod, "SEQUENCE_BUDGET", 31)
    with pytest.raises(abstraction_mod.SequenceBudgetError, match="32"):
        compute_types(coffee, 2, reps, phi)


ORDER_MODEL = """
fluents h;
action a stochastic(; y) {
  outcomes: (1);
  likelihood: case h = 1: 1; default: 1;
}
action b stochastic(; y) {
  outcomes: (1);
  likelihood: default: 1;
}
ssa h { case a(y): h + 1; case b(y): h - 1; default: h; }
init { worlds: (0), (2); }
belief { (0): 1 }
program { b; a }
"""


def test_type_order_follows_action_symbols_not_tree_order():
    # h = 1 holds after a for h = 0 and after b for h = 2; b comes first in
    # the tree, a first in symbol order, which sets the type order
    model = parse_model(ORDER_MODEL)
    reps = reps_from_init(model)
    lazy = compute_types(model, 1, reps)
    assert [str(t) for t in lazy.universe[:2]] == ["b(1)", "a(1)"]
    assert [t.witness["h"] for t in lazy.types] == [2, 0]
    assert_same_abstraction(lazy, eager_compute_types(model, 1, reps))
