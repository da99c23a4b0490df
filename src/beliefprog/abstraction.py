"""Program context, ground action universe, and type computation.

Types abstract the infinitely many initial models into finitely many
equivalence classes: a type fixes the truth of every context formula after
every ground action sequence up to the property horizon.  Objective context
formulas are evaluated by progressing a representative world under the real
action theory; subjective ones are evaluated against the progressed
knowledge base, which is the same for every representative.  Types are
therefore told apart by their objective entries alone.

Each piece of work is done once per call: a (world, action) step and the
objective truths at a world are memoised, and knowledge bases are
progressed lazily, so only the sequences a caller reads (the POMDP builder
reads the ones the program can take) are ever progressed.  The number of
kept sequences is capped by SEQUENCE_BUDGET.

Representatives are supplied by the user (or generated); completeness of
the representative set is the one soundness obligation the tool cannot
discharge itself, and every report restates that caveat.
"""

import itertools
import logging
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (BeliefProgError, InadmissiblePropertyError,
                     SequenceBudgetError)
from .kb import (BREAKDOWN, EPSILON, FAILURE, action_likelihood,
                 eval_fluent_formula, eval_subjective, initial_kb, make_world,
                 next_observation, oi_alternatives, progress_kb,
                 progress_world, real_bat)
from .syntax import (And, BinOp, BoolConst, Cmp, FluentRef, GloballyOp, Neg,
                     Not, Num, Or, POp, ParamRef, Piecewise, Prim, Test,
                     Seq, Choice, Star, Nil, UntilOp, XOp, print_formula)

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


def _instantiate(formula, bindings):
    """Substitute controllable parameters by ground values."""
    def go_expr(e):
        if isinstance(e, ParamRef):
            return Num(bindings[e.name])
        if isinstance(e, (Num, FluentRef)):
            return e
        if isinstance(e, Neg):
            return Neg(go_expr(e.operand))
        if isinstance(e, BinOp):
            return BinOp(e.op, go_expr(e.left), go_expr(e.right))
        if isinstance(e, Piecewise):
            return Piecewise(tuple((go(g), go_expr(v)) for g, v in e.cases),
                             go_expr(e.default))
        raise TypeError(e)

    def go(f):
        if isinstance(f, BoolConst):
            return f
        if isinstance(f, Cmp):
            return Cmp(f.op, go_expr(f.left), go_expr(f.right))
        if isinstance(f, Not):
            return Not(go(f.operand))
        if isinstance(f, And):
            return And(go(f.left), go(f.right))
        if isinstance(f, Or):
            return Or(go(f.left), go(f.right))
        raise TypeError(f)

    return go(formula)


def program_prims(delta):
    """Primitive programs in source order, deduplicated."""
    out = []

    def walk(p):
        if isinstance(p, Prim):
            key = (p.symbol, p.args)
            if key not in [(q.symbol, q.args) for q in out]:
                out.append(p)
        elif isinstance(p, Seq):
            walk(p.first), walk(p.second)
        elif isinstance(p, Choice):
            walk(p.left), walk(p.right)
        elif isinstance(p, Star):
            walk(p.body)
        elif isinstance(p, (Test, Nil)):
            pass
        else:
            raise TypeError(p)

    walk(delta)
    return out


def _tests_of(delta):
    out = []

    def walk(p):
        if isinstance(p, Test):
            if p.cond not in out:
                out.append(p.cond)
        elif isinstance(p, Seq):
            walk(p.first), walk(p.second)
        elif isinstance(p, Choice):
            walk(p.left), walk(p.right)
        elif isinstance(p, Star):
            walk(p.body)

    walk(delta)
    return out


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
    the boolean entries of a type assignment.
    """

    def __init__(self, model, phi=None):
        self.formulas = []
        self._seen = {}
        # row selectors: (symbol, ctrl args) -> per explicit row, the index
        # of its instantiated context formula; None marks the default row
        self.row_contexts = {}

        for c in model.init.constraints:
            self._add(c, "init", subjective=False)

        prims = program_prims(model.program)
        for prim in prims:
            for bat_decl in (model.real_bat, model.believed_bat):
                table = bat_decl.likelihood_for(prim.symbol)
                decl = model.action_decl(prim.symbol)
                bindings = dict(zip(decl.ctrl, prim.args))
                selectors = []
                for row in table.rows:
                    if row.context is None:
                        selectors.append(None)
                        continue
                    inst = _instantiate(row.context, bindings)
                    idx = self._add(inst, "likelihood-context", subjective=False)
                    selectors.append(idx)
                if bat_decl is model.real_bat:
                    self.row_contexts[(prim.symbol, prim.args)] = selectors

        for cond in _tests_of(model.program):
            self._add(cond, "test", subjective=True)
        if phi is not None:
            leaves = []
            _subjective_leaves(phi, leaves)
            for leaf in leaves:
                self._add(leaf, "property", subjective=True)

    def _add(self, formula, provenance, subjective):
        if formula in self._seen:
            return self._seen[formula]
        idx = len(self.formulas)
        self.formulas.append(ContextFormula(formula, provenance, subjective))
        self._seen[formula] = idx
        return idx

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


def horizon_of(phi) -> int:
    """Step bound required by a bounded state formula.

    Raises InadmissiblePropertyError on unbounded until, globally, or a
    nested probability operator.
    """
    def state(f, inside_p):
        if isinstance(f, POp):
            if inside_p:
                raise InadmissiblePropertyError(
                    "nested probability operators are not checker-admissible")
            return trace(f.trace)
        if isinstance(f, Not):
            return state(f.operand, inside_p)
        if isinstance(f, And):
            return max(state(f.left, inside_p), state(f.right, inside_p))
        return 0  # subjective leaf

    def trace(psi):
        if isinstance(psi, XOp):
            state(psi.arg, True)
            return 1
        if isinstance(psi, GloballyOp):
            raise InadmissiblePropertyError(
                "unbounded globally is not checker-admissible")
        if isinstance(psi, UntilOp):
            if psi.bound is None:
                raise InadmissiblePropertyError(
                    "unbounded until is not checker-admissible")
            state(psi.left, True)
            state(psi.right, True)
            return psi.bound
        raise TypeError(psi)

    return state(phi, False)


# ---------------------------------------------------------------------------
# types

# Cap on the action sequences one type computation may keep.  The kept set
# grows about 6x per step on models/coffee.bp: F<=7 keeps 178,847
# sequences and F<=8 about a million.
SEQUENCE_BUDGET = 200_000


class LazyKbs(Mapping):
    """Kept sequence -> observation (KnowledgeBase or BREAKDOWN),
    progressed on access.

    ``kb_of[z]`` is ``next_observation(kb_of[z[:-1]], z[-1])``, computed
    the first time it is read and kept.  Pruned sequences are not members.
    """

    def __init__(self, kb0, kept):
        self._kept = kept
        self._kbs = {(): kb0}

    def __contains__(self, z):
        return z in self._kept

    def __getitem__(self, z):
        kb = self._kbs.get(z)
        if kb is None:
            if z not in self._kept:
                raise KeyError(z)
            kb = self._kbs[z] = next_observation(self[z[:-1]], z[-1],
                                                 progress_kb)
        return kb

    def __iter__(self):
        return iter(self._kept)

    def __len__(self):
        return len(self._kept)


class _Truths:
    """Truth of the context formulas after each kept sequence.

    Objective formulas are read at a representative's world after z, once
    per distinct world; subjective ones at kb_of[z], which is the same for
    every representative, and only when asked for.
    """

    def __init__(self, context, worlds_of, kb_of):
        self.formulas = [f.formula for f in context.formulas]
        self.subjective = [f.subjective for f in context.formulas]
        self.position = {idx: pos for pos, idx
                         in enumerate(context.objective_indices())}
        self.worlds_of = worlds_of
        self.kb_of = kb_of
        self._by_world = {}

    def objective(self, world):
        """Truths of the objective formulas at world, in index order."""
        hit = self._by_world.get(world)
        if hit is None:
            hit = self._by_world[world] = tuple(
                eval_fluent_formula(self.formulas[idx], world)
                for idx in self.position)
        return hit

    def truth(self, z, idx, rep):
        if self.subjective[idx]:
            # like a label, a context entry at BREAKDOWN is false, even
            # for a negation
            kb = self.kb_of[z]
            return kb is not BREAKDOWN and \
                eval_subjective(kb, self.formulas[idx])
        return self.objective(self.worlds_of[z][rep])[self.position[idx]]


class _TypeEntries(Mapping):
    """(sequence, context index) -> bool for one representative."""

    def __init__(self, truths, rep):
        self._truths = truths
        self._rep = rep

    def __getitem__(self, key):
        if key not in self:
            raise KeyError(key)
        z, idx = key
        return self._truths.truth(z, idx, self._rep)

    def __contains__(self, key):
        z, idx = key
        return z in self._truths.worlds_of and \
            0 <= idx < len(self._truths.formulas)

    def __iter__(self):
        n = len(self._truths.formulas)
        return ((z, idx) for z in self._truths.worlds_of for idx in range(n))

    def __len__(self):
        return len(self._truths.worlds_of) * len(self._truths.formulas)


@dataclass
class TypeAssignment:
    witness: object  # representative World
    entries: Mapping  # (sequence tuple, context index) -> bool
    # objective entries, sequences in _sequence_sort_key order
    bitvec: tuple = field(default=())

    def truth(self, z, ctx_index):
        return self.entries[(z, ctx_index)]


@dataclass
class Abstraction:
    context: ProgramContext
    universe: list
    horizon: int
    sequences: list  # kept sequences (tuples of GroundAction), by tree order
    kb_of: LazyKbs  # sequence -> KnowledgeBase or BREAKDOWN
    types: list  # TypeAssignment, deduplicated, sorted by bitvec
    pruned: int  # sequences dropped because no representative can reach them


def _check_budget(k, kept, frontier, remaining):
    # eps and fail have likelihood 1 at every world, so each frontier
    # sequence keeps at least 2 + 4 + ... + 2**remaining descendants
    floor = kept + frontier * (2 ** (remaining + 1) - 2)
    if floor > SEQUENCE_BUDGET:
        raise SequenceBudgetError(
            f"type abstraction up to horizon {k} keeps at least {floor} "
            f"action sequences, over the budget of {SEQUENCE_BUDGET}; "
            "lower the property's step bound")


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
    if rejected:
        raise RepresentativeError(
            "representative world(s) violate the initial constraints: "
            + ", ".join(repr(w) for w in rejected))
    deduped = []
    for w in reps:
        if w not in deduped:
            deduped.append(w)
    reps = tuple(deduped)

    context = ProgramContext(model, phi)
    universe = ground_action_universe(model)
    rbat = real_bat(model)

    steps = {}  # (world, action) -> (real likelihood, successor world)

    def step(w, t):
        hit = steps.get((w, t))
        if hit is None:
            hit = steps[(w, t)] = (action_likelihood(t, w, rbat),
                                   progress_world(w, t, rbat))
        return hit

    # prefix tree over (A_P)^{<=k}, breadth first with children in universe
    # order, so insertion order is tree order.  A branch is pruned once every
    # representative reaches it with likelihood 0; a representative's world
    # stays frozen after the step that killed it.
    worlds_of = {(): reps}  # sequence -> world per representative
    frontier = [((), reps, (True,) * len(reps))]
    pruned = 0
    for depth in range(k + 1):
        _check_budget(k, len(worlds_of), len(frontier), k - depth)
        if depth == k:
            break
        new_frontier = []
        for z, worlds, live in frontier:
            for t in universe:
                succ, succ_live = [], []
                for w, alive in zip(worlds, live):
                    if alive:
                        like, w = step(w, t)
                        alive = like != 0
                    succ.append(w)
                    succ_live.append(alive)
                if not any(succ_live):
                    pruned += 1
                    continue
                z2 = z + (t,)
                succ = tuple(succ)
                worlds_of[z2] = succ
                new_frontier.append((z2, succ, succ_live))
        frontier = new_frontier
    sequences = list(worlds_of)

    kb_of = LazyKbs(initial_kb(model), worlds_of.keys())
    truths = _Truths(context, worlds_of, kb_of)
    # subjective entries are equal for every representative, so the
    # objective ones alone decide type equality and order
    key_order = sorted(sequences, key=_sequence_sort_key)
    types = []
    seen = set()
    for rep, w0 in enumerate(reps):
        key = tuple(itertools.chain.from_iterable(
            truths.objective(worlds_of[z][rep]) for z in key_order))
        if key in seen:
            continue
        seen.add(key)
        types.append(TypeAssignment(w0, _TypeEntries(truths, rep), key))
    types.sort(key=lambda t: t.bitvec)

    if pruned:
        log.info("pruned %d action sequences unreachable from every "
                 "representative", pruned)
    return Abstraction(context, universe, k, sequences, kb_of, types, pruned)


def _sequence_sort_key(z):
    return (len(z), tuple((t.symbol, t.ctrl, t.unctrl) for t in z))


# ---------------------------------------------------------------------------
# representative world helpers

def reps_from_init(model):
    return [make_world(model, vals) for vals in model.init.worlds]


def reps_from_ranges(model, ranges):
    """Integer box per fluent, e.g. {"h": (-2, 0)}; fluents without a range
    stay at 0."""
    axes = []
    for f in model.fluents:
        if f.name in ranges:
            lo, hi = ranges[f.name]
            if lo > hi:
                raise RepresentativeError(f"empty range for {f.name!r}")
            axes.append([Fraction(v) for v in range(int(lo), int(hi) + 1)])
        else:
            axes.append([Fraction(0)])
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
        consts = {Fraction(0)}
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
