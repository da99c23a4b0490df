"""The type abstraction against its eager reference implementation.

``eager_compute_types`` is the straightforward construction: it progresses
the knowledge base of every kept sequence, evaluates every context formula
for every representative, and deduplicates and sorts on all entries.
``compute_types`` must give the same numbers of kept and pruned sequences,
witnesses and type order: ascending by the objective truths after the kept
sequences in key order (by length, then action by action), flattened
(``bitvec``), which the eager walk keeps per type.  The subjective entries
are functions of the knowledge bases, which are the same for every
representative.
"""

import functools
import re
from fractions import Fraction

import pytest

import beliefprog.abstraction as abstraction_mod
import beliefprog.kb as kb_mod
from beliefprog import (BeliefProgError, ConfigTable,
                        IncompatibleSensingError, build_graph, build_pomdp,
                        compute_types, horizon_of, parse_model,
                        pomdp_fingerprint)
from beliefprog.abstraction import (BREAKDOWN, Abstraction, ProgramContext,
                                    ground_action_universe, reps_from_init,
                                    reps_from_ranges)
from beliefprog.kb import (action_likelihood, eval_fluent_formula,
                           eval_subjective, initial_kb, oi_alternatives,
                           progress_kb, progress_world, real_bat)
from conftest import ROOT, random_model_text, step_counts

CHOICE = ROOT / "perfbench" / "models" / "coffee_choice.bp"


class PlainStep:
    """The real theory's step as the POMDP builder reads it from a Bat,
    recomputed on every call, with nothing memoised; worlds are interned
    only where the configuration table keys them."""

    def __init__(self, model):
        self.model = model
        self.bat = real_bat(model)

    def intern(self, w):
        return self.bat.intern(w)

    def step(self, w, t):
        return action_likelihood(t, w, self.bat), progress_world(w, t, self.bat)

    def branches(self, w, cls):
        return tuple((t, like) for t in
                     oi_alternatives(cls.symbol, cls.ctrl, self.model)
                     if (like := action_likelihood(t, w, self.bat)) != 0)


def eager_compute_types(model, k, reps, phi=None):
    """Reference: every sequence's KB and every entry computed up front.
    Returns the abstraction, the sequence -> observation map, and each
    type's bitvec in type order."""
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
    sequences = list(worlds_of)

    subj_entries = {}
    for z in sequences:
        kb = kb_of[z]
        for idx in subj_idx:
            subj_entries[(z, idx)] = kb != BREAKDOWN and \
                eval_subjective(kb, context.formulas[idx].formula)

    def entry_key(key):
        z, idx = key
        return (len(z), tuple((t.symbol, t.ctrl, t.unctrl) for t in z), idx)

    by_key = {}  # key over all entries -> (first witness, bitvec)
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
            by_key[key] = (w0, tuple(entries[k2] for k2 in order
                                     if k2[1] in obj_idx))
    types = [by_key[key] for key in sorted(by_key)]
    return Abstraction(context, universe, k, sequences, kb_of[()],
                       [w for w, _bits in types], pruned, PlainStep(model)), \
        kb_of, [bits for _w, bits in types]


def assert_same_abstraction(lazy, eager, bitvecs):
    assert len(lazy.sequences) == len(eager.sequences)
    assert lazy.pruned == eager.pruned
    assert lazy.types == eager.types
    # distinct types, in ascending bitvec order
    assert bitvecs == sorted(set(bitvecs))
    assert lazy.kb0 == eager.kb0


def _pomdp_or_error(graph, abstraction, witness):
    try:
        p = build_pomdp(ConfigTable(graph, abstraction.rbat, abstraction.kb0),
                        abstraction, witness)
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
    eager, kb_of, bitvecs = eager_compute_types(model, k, reps, phi)
    # from k=3 on the belief breaks down, first after
    # east(1, 1) sencfe(1) sencfe(0)
    assert any(kb == BREAKDOWN for kb in kb_of.values()) == (k >= 3)
    lazy = compute_types(model, k, reps, phi)
    assert_same_abstraction(lazy, eager, bitvecs)
    assert_same_pomdps(model, lazy, eager)


def test_choice_model_matches_eager():
    model = parse_model(CHOICE.read_text())
    phi = model.property_named("P1")
    k = horizon_of(phi)
    reps = reps_from_init(model)
    lazy = compute_types(model, k, reps, phi)
    eager, _, bitvecs = eager_compute_types(model, k, reps, phi)
    assert_same_abstraction(lazy, eager, bitvecs)
    assert_same_pomdps(model, lazy, eager)


@pytest.mark.parametrize("seed", range(200))
def test_random_models_match_eager(seed):
    model = parse_model(random_model_text(seed))
    reps = reps_from_init(model)
    lazy = compute_types(model, 2, reps)
    eager, _, bitvecs = eager_compute_types(model, 2, reps)
    assert_same_abstraction(lazy, eager, bitvecs)
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
    eager, _, bitvecs = eager_compute_types(model, 3, reps)
    assert_same_abstraction(lazy, eager, bitvecs)


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
    assert [w["h"] for w in a.types] == [0, -1, -2, -3, -4, -400]
    assert (len(a.sequences), a.pruned) == (5348, 341)


def test_pomdp_build_progresses_only_reachable_sequences(coffee_text,
                                                        monkeypatch):
    model = parse_model(_with_bound(coffee_text, 5))
    phi = model.property_named("P1")
    a = compute_types(model, 5, reps_from_init(model), phi)
    # progress_kb memoises every progression it runs on the believed Bat,
    # in the table of its observed class
    bat = a.kb0.bat
    assert step_counts(bat) == (0, 0)
    runs = []

    class Recording(dict):
        def __init__(self, cls):
            super().__init__()
            self.cls = cls

        def __setitem__(self, key, value):
            runs.append((key, self.cls))
            super().__setitem__(key, value)

    init = kb_mod.ClassTable.__init__

    def recording_init(self, cls, sensing):
        init(self, cls, sensing)
        self.progressed = Recording(cls)

    monkeypatch.setattr(kb_mod.ClassTable, "__init__", recording_init)
    graph = build_graph(model.program)
    table = ConfigTable(graph, a.rbat, a.kb0)
    pomdps = [build_pomdp(table, a, witness) for witness in a.types]
    # each progression starts from the observation of a state the program
    # reaches, and none is repeated
    observed = {kb.id for p in pomdps for kb in p.observations
                if kb is not BREAKDOWN}
    assert runs and all(kb in observed for kb, _action in runs)
    assert len(set(runs)) == len(runs) == step_counts(bat)[0]
    assert len(a.sequences) == 5348
    # configurations merge sequences: 45 sequence-keyed states for type 0
    assert [len(p.states) for p in pomdps] == [32, 18, 15]
    assert len(runs) <= 32 + 18 + 15


def test_sequence_budget_is_exact_at_its_bound(coffee, monkeypatch):
    # the budget counts action DAG nodes, one per distinct state set: 9 for
    # coffee P1 at F<=2 (DepthKeyedDag below makes 14)
    reps = reps_from_init(coffee)
    phi = coffee.property_named("P1")
    monkeypatch.setattr(abstraction_mod, "NODE_BUDGET", 9)
    assert len(compute_types(coffee, 2, reps, phi).sequences.dag.states) == 9
    monkeypatch.setattr(abstraction_mod, "NODE_BUDGET", 8)
    with pytest.raises(abstraction_mod.SequenceBudgetError,
                       match="more than 8 action DAG nodes"):
        compute_types(coffee, 2, reps, phi)


def test_slot_budget_is_exact_at_its_bound(coffee, monkeypatch):
    # the budget counts level-table slots, a node's size times its levels
    # 0..k - first: 42 over the 9 nodes of coffee P1 at F<=2 from the init
    # worlds (3 x 3 at the root, 3 x 3 x 2 first met at depth 1, 5 x 3 at
    # depth 2)
    reps = reps_from_init(coffee)
    phi = coffee.property_named("P1")
    monkeypatch.setattr(abstraction_mod, "SLOT_BUDGET", 42)
    dag = compute_types(coffee, 2, reps, phi).sequences.dag
    assert dag.first == [0, 1, 1, 1, 2, 2, 2, 2, 2]
    assert dag.slots == sum(len(states) * (2 - first + 1) for states, first
                            in zip(dag.states, dag.first)) == 42
    monkeypatch.setattr(abstraction_mod, "SLOT_BUDGET", 41)
    with pytest.raises(abstraction_mod.SequenceBudgetError,
                       match="more than 41 representative states summed"):
        compute_types(coffee, 2, reps, phi)


# ---------------------------------------------------------------------------
# the action DAG against its depth-keyed predecessor, at bounds the eager
# walk cannot reach

class DepthKeyedDag:
    """Reference: the action DAG with a node per (state set, remaining
    depth), each expanded and given its ids at levels 0..depth on its own.
    A state set met at several depths is several nodes here."""

    def __init__(self, rbat, universe, roots, k):
        self.actions = sorted(universe)
        self.k = k
        self._step = rbat.step
        self.worlds, self.alive = [], []  # per state
        self._state_ids = {}
        self._succ = []  # per state: its successor per action, once needed
        self._node_ids = {}  # (states, remaining depth) -> node
        # per node: its states, remaining depth, kept children
        # [(action, child, positions)], and the kept and pruned sequences
        # of its subtree (the sequence to the node included)
        self.states, self.depth, self.children = [], [], []
        self.count, self.pruned = [], []
        self.root_states = [self._state(w, True) for w in roots]
        self.root = self._node(tuple(sorted(self.root_states)), k)
        lo = 0
        for _ in range(k):  # the nodes of one depth are a range of ids
            hi = len(self.states)
            for n in range(lo, hi):
                self._expand(n)
            lo = hi
        for n in reversed(range(len(self.states))):
            for _t, c, _pos in self.children[n]:
                self.count[n] += self.count[c]
                self.pruned[n] += self.pruned[c]

    def _state(self, world, alive):
        s = self._state_ids.setdefault((world, alive), len(self.worlds))
        if s == len(self.worlds):
            self.worlds.append(world)
            self.alive.append(alive)
            self._succ.append(None)
        return s

    def _node(self, states, depth):
        n = self._node_ids.setdefault((states, depth), len(self.states))
        if n == len(self.states):
            self.states.append(states)
            self.depth.append(depth)
            self.children.append([])
            self.count.append(1)
            self.pruned.append(0)
        return n

    def _successors(self, s):
        hit = self._succ[s]
        if hit is None:
            if self.alive[s]:
                w = self.worlds[s]
                hit = []
                for t in self.actions:
                    like, w2 = self._step(w, t)
                    hit.append(self._state(w2, like != 0))
                hit = tuple(hit)
            else:
                hit = (s,) * len(self.actions)
            self._succ[s] = hit
        return hit

    def _expand(self, n):
        alive, kids, depth = self.alive, self.children[n], self.depth[n] - 1
        succ = zip(*map(self._successors, self.states[n]))
        for t, col in zip(self.actions, succ):
            states = tuple(sorted(set(col)))
            if not any(alive[s] for s in states):
                self.pruned[n] += 1
                continue
            pos = {s: i for i, s in enumerate(states)}
            kids.append((t, self._node(states, depth),
                         tuple(map(pos.__getitem__, col))))

    def type_keys(self, truths):
        tables = [{} for _ in range(self.k + 1)]
        t0 = tables[0]
        leaf = {s: t0.setdefault(truths(self.worlds[s]), len(t0))
                for s in set().union(*self.states)}
        ids = [None] * len(self.states)  # per node: its ids per level
        for n in reversed(range(len(self.states))):
            at = [tuple(map(leaf.__getitem__, self.states[n]))]
            kids = self.children[n]
            for d in range(1, self.depth[n] + 1):
                table = tables[d]
                rows = zip(*(map(ids[c][d - 1].__getitem__, pos)
                             for _t, c, pos in kids))
                at.append(tuple([table.setdefault(row, len(table))
                                 for row in rows]))
            ids[n] = at
        root = ids[self.root]
        pos = {s: i for i, s in enumerate(self.states[self.root])}
        keys = [tuple(level[pos[s]] for level in root)
                for s in self.root_states]
        return keys, [list(table) for table in tables]


def _dag_types(dag_class, model, k, reps, phi, canon):
    """The DAG, the partition of the representatives (each one's index of
    the first with its key), and per type in type order its witness and
    canonical key."""
    rbat = real_bat(model)
    reps = tuple(dict.fromkeys(rbat.intern(w) for w in reps))
    context = ProgramContext(model, phi)
    formulas = [context.formulas[i].formula
                for i in context.objective_indices()]
    dag = dag_class(rbat, ground_action_universe(model), reps, k)
    keys, levels = dag.type_keys(
        lambda w: tuple(eval_fluent_formula(f, w) for f in formulas))
    first = {}  # key -> the first representative with it
    for w0, key in zip(reps, keys):
        first.setdefault(key, w0)
    order = sorted(first, key=functools.cmp_to_key(
        functools.partial(abstraction_mod._compare_keys, levels)))
    partition = [keys.index(key) for key in keys]
    return dag, partition, [(first[key], _canonical(levels, key, canon))
                            for key in order]


def _canonical(levels, key, canon):
    """A key with its ids renumbered in canon, one table per level shared
    by the DAGs compared: at level 0 by the truths, at level d by the row
    of renumbered level d-1 ids.  Two keys get equal canonical keys
    exactly when their levels are the same trees, so they expand to the
    same bitvec, which at these bounds is too long to list."""
    memo = {}

    def renumber(d, x):
        if (d, x) not in memo:
            row = levels[d][x]
            if d:
                row = tuple(renumber(d - 1, y) for y in row)
            memo[d, x] = canon[d].setdefault(row, len(canon[d]))
        return memo[d, x]

    return tuple(renumber(d, x) for d, x in enumerate(key))


DAG_CASES = {
    "coffee init F<=12": ("coffee", 12, None),
    "coffee h=-60..0 F<=10": ("coffee", 10, (-60, 0)),
    "choice init F<=8": ("choice", 8, None),
    "choice h=-10..0 F<=6": ("choice", 6, (-10, 0)),
}


@pytest.mark.parametrize("case", DAG_CASES)
def test_state_set_dag_matches_depth_keyed_dag(case, coffee_text):
    name, k, box = DAG_CASES[case]
    text = coffee_text if name == "coffee" else CHOICE.read_text()
    model = parse_model(_with_bound(text, k))
    phi = model.property_named("P1")
    reps = (reps_from_init(model) if box is None
            else reps_from_ranges(model, {"h": box}))
    canon = [{} for _ in range(k + 1)]
    dag, partition, types = _dag_types(
        abstraction_mod.ActionDag, model, k, reps, phi, canon)
    old, old_partition, old_types = _dag_types(
        DepthKeyedDag, model, k, reps, phi, canon)
    assert partition == old_partition
    assert types == old_types
    assert (dag.kept, dag.pruned) == (old.count[old.root],
                                      old.pruned[old.root])
    # one node per state set, fewer than the depth-keyed nodes
    assert len(set(dag.states)) == len(dag.states) == len(set(old.states))
    assert len(dag.states) < len(old.states)
    a = compute_types(model, k, reps, phi)
    assert a.types == [w for w, _canon in types]
    assert (len(a.sequences), a.pruned) == (dag.kept, dag.pruned)


def test_state_set_dag_size(coffee_text):
    # coffee P1 at F<=8 from the init worlds: 196 state sets, 548 (state
    # set, depth) pairs, about a million kept sequences
    model = parse_model(_with_bound(coffee_text, 8))
    phi = model.property_named("P1")
    reps = reps_from_init(model)
    dag = compute_types(model, 8, reps, phi).sequences.dag
    rbat = real_bat(model)
    old = DepthKeyedDag(rbat, ground_action_universe(model),
                        [rbat.intern(w) for w in reps], 8)
    assert (len(dag.states), len(old.states)) == (196, 548)
    assert dag.kept == old.count[old.root]


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_kept_sequences_stop_at_the_bound(coffee_text, k):
    # eps loops back to its own node, so the path count must stop at
    # length k
    model = parse_model(_with_bound(coffee_text, max(k, 1)))
    reps, phi = reps_from_init(model), model.property_named("P1")
    a = compute_types(model, k, reps, phi)
    eager, _, _ = eager_compute_types(model, k, reps, phi)
    assert len(a.sequences) == len(eager.sequences)
    assert max(map(len, eager.sequences)) == k
    assert any(c == n for n, kids in enumerate(a.sequences.dag.children)
               for c, _pos in kids) == (k > 0)


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
    assert [w["h"] for w in lazy.types] == [2, 0]
    eager, _, bitvecs = eager_compute_types(model, 1, reps)
    assert_same_abstraction(lazy, eager, bitvecs)
