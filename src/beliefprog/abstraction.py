"""Program context, ground action universe, and type computation.

Types abstract the infinitely many initial models into finitely many
equivalence classes: a type fixes the truth of every context formula after
every ground action sequence up to the property horizon.  Objective context
formulas are evaluated by progressing a representative world under the real
action theory; subjective ones are evaluated against the progressed
knowledge base, which is the same for every representative.  Types are
therefore told apart by their objective entries alone.

The action tree is memoised as a DAG (ActionDag).  A node is the set of
distinct (world, alive) states the representatives reach after a sequence;
every sequence that reaches it has the same subtree, whatever its length,
so each set is one node, expanded once, with its children in action order,
which is the key order: by length, then action by action.  Nodes are met
breadth first, and a node first met k steps down is not expanded.  The
kept and pruned sequences are path counts over the DAG to depth k, and
Abstraction.sequences counts them without listing them.  Type keys are
hash-consed, as the shared subgraphs of reduced ordered BDDs are (Bryant,
1986): a state's id at level 0 is that of its objective truths, and at
level d that of the tuple of its level d-1 ids in the node's children;
level d is made in one pass over the nodes first met within k - d steps.
A representative's key is its ids at levels 0..k, and equal keys make
one type.  A type is its witness, the first representative with its key;
the types are ordered by their truths after the kept sequences in key
order, found by descending two keys to the first leaf where they differ.
A (world, action) step is the real Bat's memoised step.  No knowledge base
is progressed here.  The abstraction hands on the real Bat and the initial
knowledge base, from which the POMDP builder steps a type's configurations
at its witness world, so real likelihoods are found in one place.
The number of DAG nodes is capped by NODE_BUDGET, and their level-table
slots (a node's size times its levels) by SLOT_BUDGET.

Representatives are supplied by the user (or generated); completeness of
the representative set is the one soundness obligation the tool cannot
discharge itself, and every report restates that caveat.
"""

import bisect
import functools
import itertools
import logging
import math
from dataclasses import dataclass

from .errors import BeliefProgError, SequenceBudgetError
# BREAKDOWN is re-exported: beliefprog.abstraction.BREAKDOWN
from .kb import (BREAKDOWN, EPSILON, FAILURE, ZERO,  # noqa: F401
                 eval_fluent_formula, initial_kb, make_world,
                 oi_alternatives, real_bat)
from .program_graph import program_prims
from .syntax import (And, BoolConst, Cmp, FluentRef, GloballyOp, Not, Num, Or,
                     POp, ParamRef, Test, UntilOp, XOp, print_formula, walk)

log = logging.getLogger(__name__)


class RepresentativeError(BeliefProgError):
    pass


# ---------------------------------------------------------------------------
# program context

@dataclass(frozen=True)
class ContextFormula:
    formula: object
    provenance: str  # init | likelihood-context | test | property
    subjective: bool

    def __str__(self):
        return print_formula(self.formula)


def _instantiate(node, bindings):
    """Substitute controllable parameters by ground values."""
    if isinstance(node, ParamRef):
        return Num(bindings[node.name])
    return node.map(lambda child: _instantiate(child, bindings))


def _tests_of(delta):
    return dict.fromkeys(node.cond for node in walk(delta) if isinstance(node, Test))


def _subjective_leaves(phi, out):
    if isinstance(phi, POp):
        psi = phi.trace
        if isinstance(psi, XOp):
            _subjective_leaves(psi.arg, out)
        elif isinstance(psi, UntilOp):
            _subjective_leaves(psi.left, out)
            _subjective_leaves(psi.right, out)
        elif isinstance(psi, GloballyOp):
            _subjective_leaves(psi.arg, out)
    elif isinstance(phi, Not):
        _subjective_leaves(phi.operand, out)
    elif isinstance(phi, And):
        _subjective_leaves(phi.left, out)
        _subjective_leaves(phi.right, out)
    else:
        if phi not in out and phi != BoolConst(True) and phi != BoolConst(False):
            out.append(phi)


class ProgramContext:
    """The finite formula set whose truth along sequences fixes a type.

    Stores positive formulas only; closure under negation is implicit in
    the truth values a type records.
    """

    def __init__(self, model, phi=None):
        self.formulas = []
        self._seen = set()

        for c in model.init.constraints:
            self._add(c, "init", subjective=False)
        # instantiated likelihood contexts separate worlds whose rows differ
        for prim in program_prims(model.program):
            bindings = dict(zip(model.action_decl(prim.symbol).ctrl, prim.args))
            for bat_decl in (model.real_bat, model.believed_bat):
                for row in bat_decl.likelihood_for(prim.symbol).rows:
                    if row.context is not None:
                        self._add(_instantiate(row.context, bindings),
                                  "likelihood-context", subjective=False)
        for cond in _tests_of(model.program):
            self._add(cond, "test", subjective=True)
        if phi is not None:
            leaves = []
            _subjective_leaves(phi, leaves)
            for leaf in leaves:
                self._add(leaf, "property", subjective=True)

    def _add(self, formula, provenance, subjective):
        if formula not in self._seen:
            self._seen.add(formula)
            self.formulas.append(ContextFormula(formula, provenance, subjective))

    def objective_indices(self):
        return [i for i, f in enumerate(self.formulas) if not f.subjective]

    def subjective_indices(self):
        return [i for i, f in enumerate(self.formulas) if f.subjective]


# ---------------------------------------------------------------------------
# ground universe and horizon

def ground_action_universe(model):
    """Instantiations of every primitive program in the model, plus the
    reserved actions, in deterministic first-seen order.
    """
    out = []
    for prim in program_prims(model.program):
        for t in oi_alternatives(prim.symbol, prim.args, model):
            if t not in out:
                out.append(t)
    out.append(EPSILON)
    out.append(FAILURE)
    return out


# ---------------------------------------------------------------------------
# types

# Cap on the nodes (distinct state sets) of one type computation's action
# DAG.  On models/coffee.bp P1 keeps 1.8e5 sequences over 133 nodes at
# F<=7, 2.2e8 over 412 nodes at F<=11, and needs 1132 nodes at F<=21 and
# 1924 at F<=32; from h=-10..0 it needs 10660 at F<=30.
NODE_BUDGET = 10_000
# Cap on the level-table slots of the action DAG, which the work and memory
# grow with: a node holds an id per state at each of its levels 0..k - d,
# d the depth where it is first met, so it costs its size times k - d + 1.
# Coffee P1 sums 54,937 at F<=5 from h=-400..0, 77,705 at F<=32 from the
# init worlds, and 1,360,670 over 271 nodes at F<=8 from h=-2000..0.
SLOT_BUDGET = 2_000_000
# Cap on the worlds of one representative box (reps_from_ranges); every
# node of the action DAG may hold a state per representative.
REPRESENTATIVE_BUDGET = 10_000


@dataclass
class Abstraction:
    context: ProgramContext
    universe: list
    horizon: int
    sequences: object  # KeptSequences: len() counts the kept sequences
    kb0: object  # the initial KnowledgeBase
    types: list  # one witness World per type, in type order
    pruned: int  # sequences dropped because no representative can reach them
    rbat: object  # the real Bat whose steps made the types


class ActionDag:
    """The action tree over (A_P)^{<=k} from a set of representative
    worlds, memoised on its nodes.

    A state is one representative's (world, alive), interned to an
    integer; a representative's world stays frozen after the step that
    killed it.  A node is the sorted tuple of the distinct states of the
    representatives after a sequence, interned to an integer.  Its subtree
    depends on that set alone, so a set met after sequences of several
    lengths is one node, expanded once.  Nodes are met breadth first, and
    first[n] is the length of the shortest sequence that reaches node n;
    a node is expanded only if first[n] < k, so first never decreases
    with the id.  A node's kept children come in action order, each as
    (child, the position in the child of each of the node's states); a
    child where no state is alive is pruned and counted in cut.  A child
    may be an older node, or the node itself, as under eps where every
    world is already final.
    """

    def __init__(self, rbat, universe, roots, k):
        self.actions = sorted(universe)
        self.k = k
        self._step = rbat.step
        self.worlds, self.alive = [], []  # per state
        self._state_ids = {}
        self._succ = []  # per state: its successor per action, once needed
        self._node_ids = {}  # states -> node
        self.slots = 0  # level-table slots: |states| * (k - first + 1)
        # per node: its states, the depth where it is first met, its kept
        # children [(child, positions)], and its pruned actions
        self.states, self.first, self.children, self.cut = [], [], [], []
        self.root_states = [self._state(w, True) for w in roots]
        self.root = self._node(tuple(sorted(self.root_states)), 0)
        n = 0
        while n < len(self.states) and self.first[n] < k:
            self._expand(n)
            n += 1
        # the kept and pruned sequences of the subtree of depth r below
        # each node met within k - r steps (the sequence to it included),
        # for r = 0..k
        count, pruned = [1] * len(self.states), [0] * len(self.states)
        for r in range(1, k + 1):
            kids = self.children[:self.met_within(k - r)]
            count = [1 + sum(count[c] for c, _pos in ch) for ch in kids]
            pruned = [cut + sum(pruned[c] for c, _pos in ch)
                      for cut, ch in zip(self.cut, kids)]
        self.kept, self.pruned = count[self.root], pruned[self.root]

    def met_within(self, depth):
        """The number of nodes first met within depth steps: ids below it."""
        return bisect.bisect_right(self.first, depth)

    def _state(self, world, alive):
        s = self._state_ids.setdefault((world, alive), len(self.worlds))
        if s == len(self.worlds):
            self.worlds.append(world)
            self.alive.append(alive)
            self._succ.append(None)
        return s

    def _node(self, states, first):
        # the key is hashed once here; everything else is keyed by the id
        n = self._node_ids.setdefault(states, len(self.states))
        if n == len(self.states):
            if n == NODE_BUDGET:
                raise SequenceBudgetError(
                    f"type abstraction up to horizon {self.k} needs more "
                    f"than {NODE_BUDGET} action DAG nodes, the budget; "
                    "lower the property's step bound")
            # the node holds a level-d id per state for d = 0..k - first
            self.slots += len(states) * (self.k - first + 1)
            if self.slots > SLOT_BUDGET:
                raise SequenceBudgetError(
                    f"type abstraction up to horizon {self.k} needs more "
                    f"than {SLOT_BUDGET} representative states summed over "
                    "the levels of its action DAG nodes, the budget; lower "
                    "the property's step bound or use fewer representatives")
            self.states.append(states)
            self.first.append(first)
            self.children.append([])
            self.cut.append(0)
        return n

    def _successors(self, s):
        hit = self._succ[s]
        if hit is None:
            if self.alive[s]:
                w = self.worlds[s]
                hit = []
                for t in self.actions:
                    like, w2 = self._step(w, t)
                    hit.append(self._state(w2, like is not ZERO))
                hit = tuple(hit)
            else:
                hit = (s,) * len(self.actions)
            self._succ[s] = hit
        return hit

    def _expand(self, n):
        alive, kids, first = self.alive, self.children[n], self.first[n] + 1
        for col in zip(*map(self._successors, self.states[n])):
            states = tuple(sorted(set(col)))
            if not any(alive[s] for s in states):
                self.cut[n] += 1
                continue
            pos = {s: i for i, s in enumerate(states)}
            kids.append((self._node(states, first),
                         tuple(map(pos.__getitem__, col))))

    def type_keys(self, truths):
        """Each root's type key, and the hash-consed levels behind it.

        A root's key is its ids at levels 0..k.  At level 0 a state's id
        is that of truths(world); at level d its id is that of the tuple of
        its level d-1 ids in the node's kept children.  Level d is made in
        one pass over the nodes first met within k - d steps.  levels[d]
        lists the level-d tuples by id.  Two roots have equal keys exactly
        when they agree on every objective truth after every kept sequence.
        """
        tables = [{} for _ in range(self.k + 1)]
        t0 = tables[0]
        leaf = {s: t0.setdefault(truths(self.worlds[s]), len(t0))
                for s in set().union(*self.states)}  # states in some node
        ids = [tuple(map(leaf.__getitem__, states)) for states in self.states]
        root = [ids[self.root]]  # the root's ids per level
        for d in range(1, self.k + 1):
            table, below = tables[d], ids
            ids = []
            # kids are never empty: eps is always possible
            for kids in self.children[:self.met_within(self.k - d)]:
                rows = zip(*(map(below[c].__getitem__, pos)
                             for c, pos in kids))
                ids.append(tuple([table.setdefault(row, len(table))
                                  for row in rows]))
            root.append(ids[self.root])
        pos = {s: i for i, s in enumerate(self.states[self.root])}
        keys = [tuple(level[pos[s]] for level in root)
                for s in self.root_states]
        return keys, [list(table) for table in tables]


class KeptSequences:
    """The kept action sequences of an ActionDag: len() is their number,
    a path count to depth k."""

    def __init__(self, dag):
        self.dag = dag

    def __len__(self):
        return self.dag.kept


def _compare_keys(levels, a, b):
    # the order of the objective truths after every kept sequence in key
    # order, flattened: at the first level where the ids differ, descend
    # both in child order to the first leaf that differs
    for d, (x, y) in enumerate(zip(a, b)):
        if x != y:
            for e in range(d, 0, -1):
                x, y = next(pair for pair in zip(levels[e][x], levels[e][y])
                            if pair[0] != pair[1])
            return -1 if levels[0][x] < levels[0][y] else 1
    return 0


def compute_types(model, k, reps, phi=None) -> Abstraction:
    """Partition representative initial worlds into types.

    reps: iterable of World over the model's fluents.  Every representative
    must satisfy the initial constraints; violators are reported.
    """
    reps = list(reps)
    if not reps:
        raise RepresentativeError("no representative initial worlds given")
    rejected = [w for w in reps
                if not all(eval_fluent_formula(c, w) for c in model.init.constraints)]
    if rejected:  # the count and the first three, on one short line
        raise RepresentativeError(
            f"{len(rejected)} representative world(s) violate the initial "
            "constraints: " + ", ".join(repr(w) for w in rejected[:3])
            + (", ..." if len(rejected) > 3 else ""))
    rbat = real_bat(model)
    reps = tuple(dict.fromkeys(rbat.intern(w) for w in reps))

    context = ProgramContext(model, phi)
    universe = ground_action_universe(model)
    formulas = [context.formulas[i].formula
                for i in context.objective_indices()]
    dag = ActionDag(rbat, universe, reps, k)
    # subjective truths are equal for every representative, so the
    # objective ones alone decide type equality and order
    keys, levels = dag.type_keys(
        lambda w: tuple(eval_fluent_formula(f, w) for f in formulas))
    first = {}  # key -> the first representative with it
    for w0, key in zip(reps, keys):
        first.setdefault(key, w0)
    order = sorted(first, key=functools.cmp_to_key(
        lambda a, b: _compare_keys(levels, a, b)))
    types = [first[key] for key in order]

    pruned = dag.pruned
    if pruned:
        log.info("pruned %d action sequences unreachable from every "
                 "representative", pruned)
    return Abstraction(context, universe, k, KeptSequences(dag),
                       initial_kb(model), types, pruned, rbat)


# ---------------------------------------------------------------------------
# representative world helpers

def reps_from_init(model):
    return [make_world(model, vals) for vals in model.init.worlds]


def reps_from_ranges(model, ranges):
    """Integer box per fluent, e.g. {"h": (-2, 0)}; fluents without a range
    stay at 0.  A range naming no fluent of the model, an empty range and
    a box of more than REPRESENTATIVE_BUDGET worlds are errors, raised
    before any world is made."""
    names = {f.name for f in model.fluents}
    for name in ranges:
        if name not in names:
            raise RepresentativeError(
                f"representative range for unknown fluent {name!r}")
    bounds = [ranges.get(f.name, (0, 0)) for f in model.fluents]
    for f, (lo, hi) in zip(model.fluents, bounds):
        if lo > hi:
            raise RepresentativeError(f"empty range for {f.name!r}")
    size = math.prod(int(hi) - int(lo) + 1 for lo, hi in bounds)
    if size > REPRESENTATIVE_BUDGET:
        raise RepresentativeError(
            f"representative ranges make a box of {size} worlds, over the "
            f"budget of {REPRESENTATIVE_BUDGET}")
    axes = [range(int(lo), int(hi) + 1) for lo, hi in bounds]
    return [make_world(model, vals) for vals in itertools.product(*axes)]


def _constants_near(formula, fluent, out):
    if isinstance(formula, Cmp):
        for side, other in ((formula.left, formula.right),
                            (formula.right, formula.left)):
            if isinstance(side, FluentRef) and side.name == fluent \
                    and isinstance(other, Num):
                out.add(other.value)
    elif isinstance(formula, Not):
        _constants_near(formula.operand, fluent, out)
    elif isinstance(formula, (And, Or)):
        _constants_near(formula.left, fluent, out)
        _constants_near(formula.right, fluent, out)


def reps_auto(model, spread=2, cap=500):
    """Heuristic representatives: every constant compared against a fluent
    anywhere in the initial constraints or likelihood contexts, offset by
    -spread..+spread, filtered by the initial constraints.

    This covers one world inside and outside each mentioned range at desk
    scale; it is a heuristic, not a completeness proof.
    """
    interesting = {}
    sources = list(model.init.constraints)
    for bat_decl in (model.real_bat, model.believed_bat):
        for _name, table in bat_decl.likelihood:
            for row in table.rows:
                if row.context is not None:
                    sources.append(row.context)
    for f in model.fluents:
        consts = {0}
        for src in sources:
            _constants_near(src, f.name, consts)
        values = set()
        for c in consts:
            for d in range(-spread, spread + 1):
                values.add(c + d)
        interesting[f.name] = sorted(values)
    axes = [interesting[f.name] for f in model.fluents]
    worlds = []
    for vals in itertools.product(*axes):
        w = make_world(model, vals)
        if all(eval_fluent_formula(c, w) for c in model.init.constraints):
            worlds.append(w)
            if len(worlds) >= cap:
                log.warning("reps-auto capped at %d worlds", cap)
                break
    if not worlds:
        raise RepresentativeError(
            "reps-auto found no world satisfying the initial constraints")
    return worlds
