"""Program context, ground action universe, and type computation.

Types abstract the infinitely many initial models into finitely many
equivalence classes: a type fixes the truth of every context formula after
every ground action sequence up to the property horizon.  Objective context
formulas are evaluated by progressing a representative world under the real
action theory; subjective ones are evaluated against the progressed
knowledge base, which is the same for every representative.  Types are
therefore told apart by their objective entries alone.

The sequence tree is walked once, breadth first with children in action
order, which is the key order: by length, then action by action.  Each
kept sequence appends every representative's objective truths to that
representative's key as it is kept, so no sequence is looked up or sorted
afterwards.  Each piece of work is done once per call: a (world, action)
step, giving the real likelihood and the successor world, is the real
Bat's memoised step, and the objective truths at a world are memoised.
No knowledge base is progressed here.  The abstraction hands on the real
Bat and the initial knowledge base, from which the POMDP builder steps a
type's configurations at the type witness's world, so real likelihoods are
found in one place.  The number of kept sequences is capped by
SEQUENCE_BUDGET.

Representatives are supplied by the user (or generated); completeness of
the representative set is the one soundness obligation the tool cannot
discharge itself, and every report restates that caveat.
"""

import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (BeliefProgError, InadmissiblePropertyError,
                     SequenceBudgetError)
# BREAKDOWN is re-exported: beliefprog.abstraction.BREAKDOWN
from .kb import (BREAKDOWN, EPSILON, FAILURE, ZERO,  # noqa: F401
                 eval_fluent_formula, initial_kb, make_world,
                 oi_alternatives, real_bat)
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
# Cap on the worlds of one representative box (reps_from_ranges); the type
# walk steps every representative along every kept sequence.
REPRESENTATIVE_BUDGET = 10_000


@dataclass
class TypeAssignment:
    witness: object  # representative World
    # truths of the objective context formulas, sequences in key order
    # (by length, then action by action)
    bitvec: tuple


@dataclass
class Abstraction:
    context: ProgramContext
    universe: list
    horizon: int
    sequences: list  # kept sequences (tuples of GroundAction), in key order
    kb0: object  # the initial KnowledgeBase
    types: list  # TypeAssignment, deduplicated, sorted by bitvec
    pruned: int  # sequences dropped because no representative can reach them
    rbat: object  # the real Bat whose steps made the types


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
    if rejected:  # the count and the first three, on one short line
        raise RepresentativeError(
            f"{len(rejected)} representative world(s) violate the initial "
            "constraints: " + ", ".join(repr(w) for w in rejected[:3])
            + (", ..." if len(rejected) > 3 else ""))
    rbat = real_bat(model)
    reps = tuple(dict.fromkeys(rbat.intern(w) for w in reps))
    step = rbat.step

    context = ProgramContext(model, phi)
    universe = ground_action_universe(model)
    formulas = [context.formulas[i].formula
                for i in context.objective_indices()]
    truths = {}  # world -> objective truths, in context index order

    def objective(w):
        hit = truths.get(w)
        if hit is None:
            hit = truths[w] = tuple(eval_fluent_formula(f, w)
                                    for f in formulas)
        return hit

    # prefix tree over (A_P)^{<=k}, breadth first with children sorted
    # (GroundAction order: symbol, ctrl, unctrl), so sequences are kept in
    # key order: by length, then action by action.  Each kept sequence
    # appends every representative's objective truths to that
    # representative's key, one tuple per sequence, flattened only for
    # the keys that make types.  A branch is pruned once every
    # representative reaches it with likelihood 0; a representative's
    # world stays frozen after the step that killed it.  The deepest level
    # is never expanded, so it is not kept as a frontier.  Subjective
    # truths are equal for every representative, so the objective ones
    # alone decide type equality and order.
    children = sorted(universe)
    keys = [[objective(w)] for w in reps]
    sequences = [()]
    frontier = [((), reps, (True,) * len(reps))]
    pruned = 0
    for depth in range(k + 1):
        _check_budget(k, len(sequences), len(frontier), k - depth)
        if depth == k:
            break
        new_frontier = []
        for z, worlds, live in frontier:
            for t in children:
                succ, succ_live = [], []
                for w, alive in zip(worlds, live):
                    if alive:
                        like, w = step(w, t)
                        alive = like is not ZERO
                    succ.append(w)
                    succ_live.append(alive)
                if not any(succ_live):
                    pruned += 1
                    continue
                z2 = z + (t,)
                sequences.append(z2)
                for key, w in zip(keys, succ):
                    key.append(objective(w))
                if depth + 1 < k:
                    new_frontier.append((z2, succ, succ_live))
        frontier = new_frontier

    # the truth tuples have one length, so keys sort as their flattenings
    first = {}  # key -> the first representative with it
    for w0, key in zip(reps, keys):
        first.setdefault(tuple(key), w0)
    types = [TypeAssignment(first[key],
                            tuple(itertools.chain.from_iterable(key)))
             for key in sorted(first)]

    if pruned:
        log.info("pruned %d action sequences unreachable from every "
                 "representative", pruned)
    return Abstraction(context, universe, k, sequences, initial_kb(model),
                       types, pruned, rbat)


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
    axes = [[Fraction(v) for v in range(int(lo), int(hi) + 1)]
            for lo, hi in bounds]
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
