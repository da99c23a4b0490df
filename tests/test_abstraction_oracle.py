"""The type abstraction against its eager reference implementation.

``eager_compute_types`` is the straightforward construction: it progresses
the knowledge base of every kept sequence, evaluates every context formula
for every representative, and deduplicates and sorts on all entries.
``compute_types`` must give the same sequences (in key order: by length,
then action by action), pruning, type order, witnesses and objective truths
(``bitvec``); the subjective entries are functions of the knowledge bases,
which are the same for every representative.
"""

import re
from fractions import Fraction

import pytest

import beliefprog.abstraction as abstraction_mod
from beliefprog import (BeliefProgError, ConfigTable,
                        IncompatibleSensingError, build_graph, build_pomdp,
                        compute_types, horizon_of, parse_model,
                        pomdp_fingerprint)
from beliefprog.abstraction import (BREAKDOWN, Abstraction, ProgramContext,
                                    TypeAssignment, ground_action_universe,
                                    reps_from_init, reps_from_ranges)
from beliefprog.kb import (action_likelihood, eval_fluent_formula,
                           eval_subjective, initial_kb, oi_alternatives,
                           progress_kb, progress_world, real_bat)
from conftest import ROOT, random_model_text

CHOICE = ROOT / "perfbench" / "models" / "coffee_choice.bp"


class PlainStep:
    """The real theory's step as the POMDP builder reads it from a Bat,
    recomputed on every call, with nothing memoised or interned."""

    def __init__(self, model):
        self.model = model
        self.bat = real_bat(model)

    def step(self, w, t):
        return action_likelihood(t, w, self.bat), progress_world(w, t, self.bat)

    def branches(self, w, symbol, ctrl):
        return tuple((t, like) for t in oi_alternatives(symbol, ctrl, self.model)
                     if (like := action_likelihood(t, w, self.bat)) != 0)


def eager_compute_types(model, k, reps, phi=None):
    """Reference: every sequence's KB and every entry computed up front.
    Returns the abstraction and the sequence -> observation map."""
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

    by_key = {}  # key over all entries -> first type with it
    for rep_i, w0 in enumerate(reps):
        entries = dict(subj_entries)
        for z in sequences:
            w_z, _like = worlds_of[z][rep_i]
            for idx in obj_idx:
                entries[(z, idx)] = eval_fluent_formula(
                    context.formulas[idx].formula, w_z)
        order = sorted(entries, key=entry_key)
        key = tuple(entries[k2] for k2 in order)
        if key not in by_key:
            by_key[key] = TypeAssignment(
                w0, tuple(entries[k2] for k2 in order if k2[1] in obj_idx))
    types = [by_key[key] for key in sorted(by_key)]
    return Abstraction(context, universe, k, sequences, kb_of[()], types,
                       pruned, PlainStep(model)), kb_of


def _key_order(z):
    # by length, then action by action on (symbol, ctrl, unctrl)
    return len(z), [(t.symbol, t.ctrl, t.unctrl) for t in z]


def assert_same_abstraction(lazy, eager):
    # the eager sequences are in universe-tree order; compute_types lists
    # them in key order
    assert list(lazy.sequences) == sorted(eager.sequences, key=_key_order)
    assert lazy.pruned == eager.pruned
    assert [t.witness for t in lazy.types] == [t.witness for t in eager.types]
    assert [t.bitvec for t in lazy.types] == [t.bitvec for t in eager.types]
    assert lazy.kb0 == eager.kb0


def _pomdp_or_error(graph, abstraction, tau):
    try:
        p = build_pomdp(ConfigTable(graph, abstraction.rbat, abstraction.kb0),
                        abstraction, tau)
    except BeliefProgError as exc:
        return type(exc)
    return pomdp_fingerprint(p, abstraction)


def assert_same_pomdps(model, lazy, eager):
    """Each type's POMDP is the same whether its transitions come from the
    real Bat's memoised step or the eager oracle's plain one."""
    graph = build_graph(model.program)
    for tl, te in zip(lazy.types, eager.types):
        assert _pomdp_or_error(graph, lazy, tl) == \
            _pomdp_or_error(graph, eager, te)


def _with_bound(text, k):
    return re.sub(r"F<=\d+", f"F<={k}", text)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_coffee_p1_matches_eager(coffee_text, k):
    model = parse_model(_with_bound(coffee_text, k))
    phi = model.property_named("P1")
    reps = reps_from_init(model)
    eager, kb_of = eager_compute_types(model, k, reps, phi)
    # from k=3 on the belief breaks down, first after
    # east(1, 1) sencfe(1) sencfe(0)
    assert any(kb == BREAKDOWN for kb in kb_of.values()) == (k >= 3)
    lazy = compute_types(model, k, reps, phi)
    assert_same_abstraction(lazy, eager)
    assert_same_pomdps(model, lazy, eager)


def test_choice_model_matches_eager():
    model = parse_model(CHOICE.read_text())
    phi = model.property_named("P1")
    k = horizon_of(phi)
    reps = reps_from_init(model)
    lazy = compute_types(model, k, reps, phi)
    eager, _ = eager_compute_types(model, k, reps, phi)
    assert_same_abstraction(lazy, eager)
    assert_same_pomdps(model, lazy, eager)


@pytest.mark.parametrize("seed", range(200))
def test_random_models_match_eager(seed):
    model = parse_model(random_model_text(seed))
    reps = reps_from_init(model)
    lazy = compute_types(model, 2, reps)
    eager, _ = eager_compute_types(model, 2, reps)
    assert_same_abstraction(lazy, eager)
    assert_same_pomdps(model, lazy, eager)


def _box_case(seed):
    # a box of representatives: where an effect resets a fluent, or an
    # action kills some of them, several reach one (world, alive) state
    # and share every node below it
    model = parse_model(random_model_text(seed))
    reps = reps_from_ranges(model, {f.name: (-2, 2) for f in model.fluents})
    return model, [w for w in reps if all(eval_fluent_formula(c, w)
                                          for c in model.init.constraints)]


@pytest.mark.parametrize("seed", range(100))
def test_random_models_with_merged_representatives_match_eager(seed):
    model, reps = _box_case(seed)
    lazy = compute_types(model, 3, reps)
    eager, _ = eager_compute_types(model, 3, reps)
    assert_same_abstraction(lazy, eager)


def test_merged_representatives_occur():
    # the cases above do merge: a node holds fewer states than there are
    # representatives in 18 of the 100 models
    merged = 0
    for seed in range(100):
        model, reps = _box_case(seed)
        dag = compute_types(model, 3, reps).sequences.dag
        merged += any(len(states) < len(reps) for states in dag.states)
    assert merged == 18


def test_401_representatives(coffee_text):
    # coffee P1 at F<=5 from h = -400..0: every representative below -4
    # keeps the key of h = -400, the first of them in box order
    model = parse_model(_with_bound(coffee_text, 5))
    reps = reps_from_ranges(model, {"h": (-400, 0)})
    a = compute_types(model, 5, reps, model.property_named("P1"))
    assert [t.witness["h"] for t in a.types] == [0, -1, -2, -3, -4, -400]
    assert (len(a.sequences), a.pruned) == (5348, 341)


def test_pomdp_build_progresses_only_reachable_sequences(coffee_text,
                                                        monkeypatch):
    model = parse_model(_with_bound(coffee_text, 5))
    phi = model.property_named("P1")
    a = compute_types(model, 5, reps_from_init(model), phi)
    # progress_kb memoises every progression it runs on the believed Bat
    bat = a.kb0.bat
    assert bat._progressed == {}
    runs = []

    class Recording(dict):
        def __setitem__(self, key, value):
            runs.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(bat, "_progressed", Recording())
    graph = build_graph(model.program)
    table = ConfigTable(graph, a.rbat, a.kb0)
    pomdps = [build_pomdp(table, a, tau) for tau in a.types]
    # each progression starts from the observation of a state the program
    # reaches, and none is repeated
    observed = {kb for p in pomdps for kb in p.observations}
    assert runs and all(kb in observed for kb, _action in runs)
    assert len(set(runs)) == len(runs) == len(bat._progressed)
    assert len(a.sequences) == 5348
    # configurations merge sequences: 45 sequence-keyed states for type 0
    assert [len(p.states) for p in pomdps] == [32, 18, 15]
    assert len(runs) <= 32 + 18 + 15


def test_sequence_budget_is_exact_at_its_bound(coffee, monkeypatch):
    # the budget counts action DAG nodes: 14 for coffee P1 at F<=2
    reps = reps_from_init(coffee)
    phi = coffee.property_named("P1")
    monkeypatch.setattr(abstraction_mod, "NODE_BUDGET", 14)
    assert len(compute_types(coffee, 2, reps, phi).sequences.dag.states) == 14
    monkeypatch.setattr(abstraction_mod, "NODE_BUDGET", 13)
    with pytest.raises(abstraction_mod.SequenceBudgetError,
                       match="more than 13 action DAG nodes"):
        compute_types(coffee, 2, reps, phi)


def test_slot_budget_is_exact_at_its_bound(coffee, monkeypatch):
    # the budget counts representative states summed over the action DAG's
    # nodes: 42 over the 14 nodes of coffee P1 at F<=2 from the init worlds
    reps = reps_from_init(coffee)
    phi = coffee.property_named("P1")
    monkeypatch.setattr(abstraction_mod, "SLOT_BUDGET", 42)
    dag = compute_types(coffee, 2, reps, phi).sequences.dag
    assert dag.slots == sum(map(len, dag.states)) == 42
    monkeypatch.setattr(abstraction_mod, "SLOT_BUDGET", 41)
    with pytest.raises(abstraction_mod.SequenceBudgetError,
                       match="more than 41 representative states summed"):
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
    assert_same_abstraction(lazy, eager_compute_types(model, 1, reps)[0])
