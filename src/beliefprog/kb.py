"""Exact evaluation and progression of worlds and knowledge bases.

Everything here is exact: a whole number is an int and any other rational
a Fraction (the two mix exactly, compare and hash alike and print the
same), and there is no float anywhere in a semantic computation.  A
world's whole values are ints, as make_world, the parser's literals and
arith keep them, so building, hashing and stepping a world works on ints.
A knowledge base is a finite belief distribution over worlds paired with
the action theory the agent believes.  Its masses are integers keyed by
world id over one denominator: the world with id i has mass num[i] / den,
den > 0 is the lcm of the masses' reduced denominators, and so
gcd(den, *num.values()) == 1 and (den, num) is the one form of the
distribution.  Progression and B, Expect and Conf add and multiply ints
and build a Fraction only for a value they return; kb.dist is a read-only
{World: Fraction} view, made on first use.  Progression by t follows one
update rule:

  f'(u) = sum over support u' of f(u') *
          sum over a in the observed class of t:
          L(a at u') * [u' progressed by a equals u]

with L read from the believed likelihood tables.  The observed class of a
stochastic action is its OI-alternatives, whose likelihoods must sum to 1
at every world; that of a sensing result is the result itself, and f' is
divided by the normalizer eta = sum of f'(u) (Bayes).  The reserved
actions eps and fail have likelihood 1, are OI only to themselves, and
only touch the reserved fluents Final and Fail.

Each Bat interns the worlds and knowledge bases it makes and gives each
an integer id: world ids count up from 0 (Bat.worlds lists them) and
knowledge-base ids down from -1, so one table may key both.  A World
carries the Bat that interned it and its id there, and a Bat that meets
another's World interns a copy, so no id means two worlds.
KnowledgeBase(dist, bat) is the Bat's one knowledge base of that value;
across Bats, knowledge bases and worlds compare and hash by value.  The
Bat evaluates the model's constants once: each likelihood row's weighted
outcomes per (symbol, ctrl, row index), evaluated at no world on first use
as they are rigid (a row that raises is not kept), and per action symbol
its SSA cases and its non-frame defaults (a frame default f never changes
f).  It memoises its steps, keyed by ids: the nonzero branches per (world
id, oi_class), read from one likelihood row; the (likelihood, successor)
per (world id, action); the truth of a formula per (formula object, world
or kb id), where a Not, And or Or at a kb reads its operands'; and per
B term value, shared by equal terms, its int mass per kb id and its
formula's truth per world id, read at support worlds alone.
The steps of the belief update are kept in one ClassTable per
observed class, where a sensing result is its own class and any other
action has its oi_class: the successful progressions by kb id, and each
world's moves, successor ids with integer likelihoods, in a list indexed
by world id.  The rows of a class share one denominator, the table's
scale, which grows to the lcm of every filled row's own, so a progression
adds n * k over the support with no lcm of its own.  Every member of a
class, and every action equal to one, finds the class's table with one
lookup.  A Bat is made per theory per run (real_bat, initial_kb), so no
table outlives the run that filled it.  A World's bat and Bat.worlds point
at each other, as do a KnowledgeBase's bat and Bat._kbs, so a Bat and all
it interned are reference cycles: only the cyclic garbage collector frees
them, once the run drops its last reference.

An observation is a knowledge base or BREAKDOWN, left when a sensing result
is believed impossible; next_observation is the one progression rule for
both.  One evaluator, _value for terms and _truth for formulas, serves both
sorts: at a World a term or formula is objective, and at an observation it
is subjective, where B, Expect and Conf read the knowledge base and every
comparison at BREAKDOWN is false.  At a knowledge base, a comparison of a
B, Expect or Conf term with a constant c, on either side, is decided in
ints: the term's value is a ratio p / q of ints with q > 0 (a B term's mass
over kb.den), and p / q op c is p * c.den op c.num * q.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import eq, ge, gt, le, lt, ne
from types import MappingProxyType

from .errors import (EvalError, IncompatibleActionError,
                     IncompatibleSensingError, LikelihoodContextError,
                     LikelihoodSumError)
from .syntax import (And, Bel, BinOp, BoolConst, Cmp, Conf, Expect,
                     EPSILON_NAME, FAILURE_NAME, FluentRef, Neg, Not, Num,
                     Or, ParamRef, Piecewise, arith, exact, frac_str)

ZERO = Fraction(0)
ONE = Fraction(1)


class World:
    """Immutable total valuation of the declared fluents (incl. Final/Fail).
    bat and id are the one Bat that interned it and its world id there,
    None until then; equality and hashing ignore them."""

    __slots__ = ("_vals", "_key", "_hash", "bat", "id")

    def __init__(self, values):
        self._vals = dict(values)
        self._key = tuple(sorted(self._vals.items()))
        # hash(-1) == hash(-2) in CPython, so the values are hashed by
        # their text: h=-1 and h=-2 must not collide
        self._hash = hash(tuple((name, str(v)) for name, v in self._key))
        self.bat = self.id = None

    def __getitem__(self, name):
        return self._vals[name]

    def get(self, name, default=None):
        return self._vals.get(name, default)

    def updated(self, changes):
        vals = dict(self._vals)
        vals.update(changes)
        return World(vals)

    def vector(self, order):
        return tuple(self._vals[name] for name in order)

    def __eq__(self, other):
        return self is other or \
            isinstance(other, World) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        inner = ", ".join(f"{k}={frac_str(v)}" for k, v in self._key)
        return f"World({inner})"


def make_world(model, user_values):
    """Build a world from a valuation of the user fluents (numbers or their
    text), each whole value an int; Final=Fail=0."""
    names = [f.name for f in model.fluents]
    if len(user_values) != len(names):
        raise EvalError(f"world needs {len(names)} values, got {len(user_values)}")
    vals = dict(zip(names, (exact(Fraction(v)) for v in user_values)))
    vals["Final"] = vals["Fail"] = 0
    return World(vals)


class GroundAction:
    """Immutable action symbol with its controllable and uncontrollable
    arguments."""

    def __init__(self, symbol, ctrl, unctrl):
        _set = object.__setattr__
        _set(self, "symbol", symbol)
        _set(self, "ctrl", ctrl)
        _set(self, "unctrl", unctrl)
        # hashing the argument tuples is costly; these objects key many dicts
        _set(self, "_hash", hash((symbol, ctrl, unctrl)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return isinstance(other, GroundAction) and \
            self._hash == other._hash and self.symbol == other.symbol and \
            self.ctrl == other.ctrl and self.unctrl == other.unctrl

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"GroundAction(symbol={self.symbol!r}, ctrl={self.ctrl!r}, "
                f"unctrl={self.unctrl!r})")

    def __str__(self):
        args = [frac_str(v) for v in self.ctrl + self.unctrl]
        return f"{self.symbol}({', '.join(args)})" if args else self.symbol

    def __lt__(self, other):
        return (self.symbol, self.ctrl, self.unctrl) < \
            (other.symbol, other.ctrl, other.unctrl)

    @cached_property
    def oi_class(self):
        """symbol(ctrl, _), the key of this action's OI-alternatives."""
        return GroundAction(self.symbol, self.ctrl, ()) if self.unctrl else self


EPSILON = GroundAction(EPSILON_NAME, (), ())
FAILURE = GroundAction(FAILURE_NAME, (), ())


class ClassTable:
    """The belief-update steps of one observed class cls in one Bat: the
    successful progressions, kb id -> progressed knowledge base, and the
    moves of each world (see Bat.moves) in rows, indexed by world id and
    None until first read.  Every filled row is over one denominator for
    the class, scale, the lcm of the filled rows' own: a row whose
    denominator does not divide scale makes it grow, and the filled rows
    are scaled up once."""

    __slots__ = ("cls", "sensing", "progressed", "rows", "scale")

    def __init__(self, cls, sensing):
        self.cls = cls
        self.sensing = sensing
        self.progressed = {}
        self.rows = []
        self.scale = 1

    def cover(self, n):
        """Lengthen rows to n world ids, as the Bat interns worlds."""
        rows = self.rows
        if len(rows) < n:
            rows += [None] * (n - len(rows))

    def put(self, i, weighted):
        """Fill row i from ((successor id, likelihood), ...); returns it."""
        scale, rows = self.scale, self.rows
        d = lcm(*(like.denominator for _, like in weighted))
        if scale % d:
            grown = lcm(scale, d)
            f = grown // scale
            for j, row in enumerate(rows):
                if row:
                    rows[j] = tuple((succ, k * f) for succ, k in row)
            self.scale = scale = grown
        row = rows[i] = tuple(
            (succ, like.numerator * (scale // like.denominator))
            for succ, like in weighted)
        return row


class Bat:
    """Runtime view of one basic action theory (real or believed), with
    the memo of its steps and the intern tables of its worlds and
    knowledge bases.  World ids count up from 0 and knowledge-base ids
    down from -1, so one table may key both.  The belief update keeps its
    progressions and moves in one ClassTable per observed class, which
    _tables maps every action met (and the class itself) to."""

    def __init__(self, model, which):
        decl = model.real_bat if which == "real" else model.believed_bat
        self.which = which
        self.model = model
        self.ssa = {rule.fluent: rule for rule in decl.ssa}
        self.likelihood = dict(decl.likelihood)
        self.actions = {a.name: a for a in model.actions}
        # action symbol -> (fluent, case params, effect) in fluent order: a
        # default has params None, and a frame default f, which never
        # changes f, is left out
        self.effects = {name: [] for name in self.actions}
        for fluent, rule in self.ssa.items():
            cases = {c.action: c for c in reversed(rule.cases)}  # first counts
            for name, effects in self.effects.items():
                case = cases.get(name)
                if case is not None:
                    effects.append((fluent, case.params, case.effect))
                elif rule.default != FluentRef(fluent):
                    effects.append((fluent, None, rule.default))
        self._rows = {}  # (symbol, ctrl, row index) -> weighted outcomes
        self._branches = {}  # (world id, oi class) -> nonzero branches
        self._actions = {}  # oi class -> {outcome value: GroundAction}
        self._steps = {}  # (world id, action) -> (likelihood, successor)
        self._tables = {}  # action -> the ClassTable of its observed class
        self._truth = {}  # id(phi) -> (phi, {world or kb id: bool})
        # id(term) -> (term, {kb id: int mass}, [world id -> bool or None])
        self._belief = {}
        self._belief_of = {}  # B term -> the one pair of the terms equal to it
        self.worlds = []  # world id -> World
        self._kbs = []  # ~kb id -> KnowledgeBase
        self._world_of = {}  # intern tables: each maps a value to its
        self._kb_of = {}  # one object

    def action_decl(self, symbol):
        return self.actions.get(symbol)

    def intern(self, world):
        """The one World equal to world that this theory hands out, with
        its id here; a copy if another theory interned world first."""
        hit = self._world_of.get(world)
        if hit is None:
            hit = world if world.bat is None else World(world._vals)
            hit.bat, hit.id = self, len(self.worlds)
            self.worlds.append(hit)
            self._world_of[hit] = hit
        return hit

    def intern_kb(self, num, den):
        """The one KnowledgeBase of this theory with masses num[i] / den
        over world ids i, where no num[i] is 0 and
        gcd(den, *num.values()) == 1."""
        key = (den, frozenset(num.items()))
        hit = self._kb_of.get(key)
        if hit is None:
            hit = self._kb_of[key] = object.__new__(KnowledgeBase)
            hit.num, hit.den, hit.bat, hit.key = num, den, self, key
            hit.id = ~len(self._kbs)
            hit._hash = hit._dist = hit._name = None
            self._kbs.append(hit)
        return hit

    def branches(self, world, cls):
        """(ground action, likelihood) for each OI-alternative of the class
        cls = symbol(ctrl, _) with nonzero likelihood at world, in the
        order of this theory's outcome list (for the real theory, that of
        oi_alternatives).  Keyed by cls, whose hash is cached, so no
        Fraction is hashed."""
        if world.bat is not self:
            world = self.intern(world)
        key = (world.id, cls)
        hit = self._branches.get(key)
        if hit is None:
            symbol, ctrl = cls.symbol, cls.ctrl
            if symbol in (EPSILON_NAME, FAILURE_NAME):
                hit = ((EPSILON if symbol == EPSILON_NAME else FAILURE, ONE),)
            else:  # each outcome's GroundAction is made once per theory
                actions = self._actions.setdefault(cls, {})
                weights = {}
                for value, weight in likelihood_row(symbol, ctrl, world, self):
                    t = actions.get(value)
                    if t is None:
                        t = actions[value] = GroundAction(symbol, ctrl, value)
                    weights.setdefault(t, weight)  # the first one counts
                hit = tuple((t, like) for t, like in weights.items() if like != 0)
            self._branches[key] = hit
        return hit

    def step(self, world, action):
        """(likelihood, successor world) of a ground action at a world; the
        successor is interned and is computed even where the likelihood
        is 0, and a likelihood of 0 is ZERO itself, so callers may test
        it by identity."""
        if world.bat is not self:
            world = self.intern(world)
        key = (world.id, action)
        hit = self._steps.get(key)
        if hit is None:
            # a loop: a generator would put action in a cell on every call
            for t, like in self.branches(world, action.oi_class):
                if t.unctrl == action.unctrl:
                    break
            else:
                like = ZERO
            hit = self._steps[key] = (
                like, self.intern(progress_world(world, action, self)))
        return hit

    def class_table(self, action):
        """The ClassTable of action's observed class: the action itself
        for a sensing result, eps and fail, and its oi_class for any other
        action.  Raises EvalError for an undeclared action."""
        table = self._tables.get(action)
        if table is None:
            sensing = False
            if action.symbol not in (EPSILON_NAME, FAILURE_NAME):
                decl = self.action_decl(action.symbol)
                if decl is None:
                    raise EvalError(f"undeclared action {action.symbol!r}")
                sensing = decl.kind == "sensing"
            cls = action if sensing else action.oi_class
            table = self._tables.get(cls)
            if table is None:
                table = self._tables[cls] = ClassTable(cls, sensing)
            self._tables[action] = table
        return table

    def moves(self, i, cls):
        """((successor id, k), ...) at the world with id i: each member of
        the observed class of cls -- a sensing result itself, or
        symbol(ctrl, _) for its OI-alternatives -- with nonzero likelihood
        k / scale there, in branches order, where scale is the class
        table's.  Kept as row i of that table."""
        table = self.class_table(cls)
        table.cover(len(self.worlds))
        row = table.rows[i]
        if row is None:  # successors only for members of the class
            cls, world = table.cls, self.worlds[i]
            row = table.put(i, [
                (self.step(world, t)[1].id, like)
                for t, like in self.branches(world, cls.oi_class)
                if cls in (t, t.oi_class)])
        return row

    def holds(self, at, phi):
        """_truth(phi, at) at one of this theory's worlds or knowledge
        bases, memoised per formula object and id.  The table keeps each
        formula it has met alive, so no two formulas share an id, and
        deep formulas are never hashed."""
        entry = self._truth.get(id(phi))
        if entry is None:
            entry = self._truth[id(phi)] = (phi, {})
        table = entry[1]
        hit = table.get(at.id)
        if hit is None:
            hit = table[at.id] = _truth(phi, at, {})
        return hit

    def mass(self, kb, term):
        """The B term's value at one of this theory's knowledge bases times
        kb.den, an int, summed once per knowledge base and term value: each
        term object is hashed once, to share the masses and the formula's
        truths per world id of an equal term met before, and kept alive as
        in holds."""
        entry = self._belief.get(id(term))
        if entry is None:
            entry = self._belief[id(term)] = (
                term, *self._belief_of.setdefault(term, ({}, [])))
        _term, masses, truths = entry
        hit = masses.get(kb.id)
        if hit is None:
            hit = masses[kb.id] = _mass(kb, term.formula, truths)
        return hit


def real_bat(model):
    return Bat(model, "real")


def believed_bat(model):
    return Bat(model, "believed")


# ---------------------------------------------------------------------------
# expression and formula evaluation (both sorts; see the module docstring)

def eval_expr(e, world, bindings=None) -> int | Fraction:
    return _value(e, world, bindings or {})


def eval_fluent_formula(phi, world, bindings=None) -> bool:
    return _truth(phi, world, bindings or {})


def eval_subjective(kb, alpha) -> bool:
    """Truth of a subjective formula at an observation, memoised by the
    knowledge base's Bat; at BREAKDOWN every comparison is false."""
    if kb is BREAKDOWN:
        return _truth(alpha, kb, {})
    return kb.bat.holds(kb, alpha)


def _value(e, at, b) -> int | Fraction:
    """The value of term e at a World or None (objective) or at a
    KnowledgeBase (subjective), with parameters bound by b."""
    cls = e.__class__
    if cls is Num:
        return e.value
    subjective = at.__class__ is KnowledgeBase
    if cls is FluentRef and not subjective:
        v = at.get(e.name) if at is not None else None
        if v is None:
            raise EvalError(f"fluent {e.name!r} has no value in this context")
        return v
    if subjective and cls in _RATIO:
        return Fraction(*_ratio(e, at))
    if cls is BinOp:
        value = arith(e.op, _value(e.left, at, b), _value(e.right, at, b))
        if value is None:
            raise EvalError("division by zero in a belief expression"
                            if subjective else "division by zero")
        return value
    if cls is Neg:
        return -_value(e.operand, at, b)
    if subjective:
        raise TypeError(f"not a belief expression: {e!r}")
    if cls is ParamRef:
        try:
            return b[e.name]
        except KeyError:
            raise EvalError(f"unbound parameter {e.name!r}") from None
    if cls is Piecewise:
        for guard, value in e.cases:
            if _truth(guard, at, b):
                return _value(value, at, b)
        return _value(e.default, at, b)
    raise TypeError(f"cannot evaluate {e!r} as an objective expression")


def _mass(kb, phi, truths) -> int:
    """The mass over kb.den of kb's support worlds where phi holds; truths
    keeps phi's truth per world id, each found on first need at a support
    world, in support order."""
    worlds = kb.bat.worlds
    if len(truths) < len(worlds):
        truths += [None] * (len(worlds) - len(truths))
    m = 0
    for i, n in kb.num.items():
        t = truths[i]
        if t is None:
            t = truths[i] = _truth(phi, worlds[i], {})
        if t:
            m += n
    return m


def _ratio(e, kb):
    """(p, q), ints with q > 0, where p / q is the value of a B, Expect or
    Conf term e at a knowledge base."""
    cls = e.__class__
    if cls is Bel:
        return kb.bat.mass(kb, e), kb.den
    # the mean is m / (d * den), with d the lcm of the values' denominators
    worlds, den = kb.bat.worlds, kb.den
    values = [(worlds[i][e.fluent], n) for i, n in kb.num.items()]
    d = lcm(*(v.denominator for v, _ in values))
    scaled = [(v.numerator * (d // v.denominator), n) for v, n in values]
    m = sum(a * n for a, n in scaled)
    if cls is Expect:
        return m, d * den
    # Conf: the belief that the fluent lies in the closed [E - r, E + r]
    # (see the ledger note), |v * d * den - m| * r.den <= r.num * d * den
    r = e.radius
    bound = r.numerator * d * den
    return sum(n for a, n in scaled
               if abs(a * den - m) * r.denominator <= bound), den


_RATIO = frozenset((Bel, Expect, Conf))
_CMP = {"=": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}
_MIRROR = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _truth(phi, at, b) -> bool:
    """The truth of formula phi where _value evaluates its terms."""
    cls = phi.__class__
    if cls is Cmp:
        if at is BREAKDOWN:
            return False
        left, right, op = phi.left, phi.right, phi.op
        if at.__class__ is KnowledgeBase:
            if left.__class__ is Num and right.__class__ in _RATIO:
                left, right, op = right, left, _MIRROR[op]
            if right.__class__ is Num and left.__class__ in _RATIO:
                p, q = _ratio(left, at)  # p / q op c in ints
                c = right.value
                return _CMP[op](p * c.denominator, c.numerator * q)
        return _CMP[op](_value(left, at, b), _value(right, at, b))
    # at a knowledge base the operands' truths are memoised: a while's fin
    # is Not(its guard), and a nested loop's edges And it with their own
    if cls is Not:
        if at.__class__ is KnowledgeBase:
            return not at.bat.holds(at, phi.operand)
        return not _truth(phi.operand, at, b)
    if cls is And:
        if at.__class__ is KnowledgeBase:
            return at.bat.holds(at, phi.left) and at.bat.holds(at, phi.right)
        return _truth(phi.left, at, b) and _truth(phi.right, at, b)
    if cls is Or:
        if at.__class__ is KnowledgeBase:
            return at.bat.holds(at, phi.left) or at.bat.holds(at, phi.right)
        return _truth(phi.left, at, b) or _truth(phi.right, at, b)
    if cls is BoolConst:
        return phi.value
    if at is None or at.__class__ is World:
        raise TypeError(f"not a fluent formula: {phi!r}")
    raise TypeError(f"not a subjective formula: {phi!r}")


# ---------------------------------------------------------------------------
# world progression

def progress_world(world, action, bat) -> World:
    if action.symbol == EPSILON_NAME:
        return world.updated({"Final": 1})
    if action.symbol == FAILURE_NAME:
        return world.updated({"Fail": 1})
    effects = bat.effects.get(action.symbol)
    if effects is None:
        raise EvalError(f"undeclared action {action.symbol!r}")
    changes = {}
    args = action.ctrl + action.unctrl
    for fluent, params, effect in effects:
        if params is not None:
            changes[fluent] = _value(effect, world, dict(zip(params, args)))
        else:
            new = _value(effect, world, {})
            if new != world[fluent]:
                changes[fluent] = new
    return world.updated(changes) if changes else world


# ---------------------------------------------------------------------------
# likelihoods

def likelihood_row(symbol, ctrl, world, bat):
    """Outcome values and weights for the unique likelihood context true
    at this world.  Asserts context disjointness, completeness, and that
    the weights sum to exactly 1.  The row's values and weights are rigid,
    so bat keeps them per (symbol, ctrl, row index) once they pass.
    """
    table = bat.likelihood.get(symbol)
    if table is None:
        raise EvalError(f"no likelihood table for {symbol!r}")
    decl = bat.action_decl(symbol)
    bindings = dict(zip(decl.ctrl, ctrl))
    matches = []
    default = None
    for idx, row in enumerate(table.rows):
        if row.context is None:
            default = idx, row
        elif _truth(row.context, world, bindings):
            matches.append((idx, row))
    if len(matches) > 1:
        raise LikelihoodContextError(
            f"likelihood contexts of {symbol!r} overlap at {world!r}")
    if matches:
        idx, row = matches[0]
    elif default is not None:
        idx, row = default
    else:
        raise LikelihoodContextError(
            f"no likelihood context of {symbol!r} is true at {world!r}")
    key = (symbol, ctrl, idx)
    out = bat._rows.get(key)
    if out is None:  # rigid, so evaluated at no world: a fluent raises
        out = []
        total = ZERO
        for i, (vec, weight_expr) in enumerate(zip(table.outcomes,
                                                   row.weights), 1):
            value = _outcome(symbol, ctrl, i, vec, bindings, bat.which)
            weight = _value(weight_expr, None, bindings)
            if weight < 0:
                raise LikelihoodSumError(f"negative outcome weight for {symbol!r}")
            total += weight
            out.append((value, weight))
        if total != 1:
            raise LikelihoodSumError(
                f"outcome weights of {symbol!r} sum to {frac_str(total)}, not 1")
        out = bat._rows[key] = tuple(out)
    return out


def _outcome(symbol, ctrl, i, vec, bindings, which):
    """The values of outcome i of symbol(ctrl, _) in the which Bat, rigid,
    so evaluated at no world; one that cannot be evaluated is named, as
    validate's outcome-eval names it."""
    try:
        return tuple(_value(v, None, bindings) for v in vec)
    except EvalError as exc:
        at = GroundAction(symbol, tuple(ctrl), ())
        raise EvalError(f"outcome {i} of {symbol!r} cannot be evaluated at "
                        f"{at}: {exc} ({which})") from None


def action_likelihood(action, world, bat) -> int | Fraction:
    if action.symbol in (EPSILON_NAME, FAILURE_NAME):
        return ONE
    for value, weight in likelihood_row(action.symbol, action.ctrl, world, bat):
        if value == action.unctrl:
            return weight
    return ZERO


def oi_alternatives(symbol, ctrl, model):
    """All ground actions observationally indistinguishable from
    symbol(ctrl, _): same symbol and controllable part, each declared
    outcome (union of the real and believed outcome lists, first-seen order).
    """
    if symbol == EPSILON_NAME:
        return [EPSILON]
    if symbol == FAILURE_NAME:
        return [FAILURE]
    decl = model.action_decl(symbol)
    if decl is None:
        raise EvalError(f"undeclared action {symbol!r}")
    bindings = dict(zip(decl.ctrl, ctrl))
    values = []
    for which, bat_decl in (("real", model.real_bat),
                            ("believed", model.believed_bat)):
        table = bat_decl.likelihood_for(symbol)
        for i, vec in enumerate(table.outcomes, 1):
            value = _outcome(symbol, ctrl, i, vec, bindings, which)
            if value not in values:
                values.append(value)
    return [GroundAction(symbol, tuple(ctrl), value) for value in values]


# ---------------------------------------------------------------------------
# knowledge bases

class KnowledgeBase:
    """Finite belief distribution plus the believed action theory; the
    world with id i in bat has mass num[i] / den, in lowest terms (see the
    module docstring).  KnowledgeBase(dist, bat) takes a {world: Fraction}
    mapping and gives the Bat's one knowledge base of that value; id is
    its id there, and key its value over world ids."""

    __slots__ = ("num", "den", "bat", "id", "key", "_hash", "_dist", "_name")

    def __new__(cls, dist, bat):
        masses = [(bat.intern(w).id, p) for w, p in dist.items() if p != 0]
        den = lcm(*(p.denominator for _, p in masses))
        return bat.intern_kb(
            {i: p.numerator * (den // p.denominator) for i, p in masses}, den)

    @property
    def dist(self):
        """Read-only {world: Fraction mass}, made on first use."""
        if self._dist is None:
            worlds = self.bat.worlds
            self._dist = MappingProxyType(
                {worlds[i]: Fraction(n, self.den) for i, n in self.num.items()})
        return self._dist

    def __eq__(self, other):
        # equal knowledge bases of one Bat are one object
        return self is other or isinstance(other, KnowledgeBase) and \
            other.bat is not self.bat and self.dist == other.dist

    def __hash__(self):
        # by world value, as world ids belong to one Bat; made on first use
        if self._hash is None:
            worlds = self.bat.worlds
            self._hash = hash((self.den, frozenset(
                (worlds[i], n) for i, n in self.num.items())))
        return self._hash

    def render(self):
        """The observation's name, {val-vector: p/q, ...} sorted
        lexicographically, made on first use and kept."""
        if self._name is None:
            order = self.bat.model.fluent_order
            shown = [n for n in order if n not in ("Final", "Fail")]
            shown += [n for n in ("Final", "Fail")
                      if any(w[n] != 0 for w in self.dist)]
            entries = sorted((w.vector(shown), p) for w, p in self.dist.items())
            self._name = "{%s}" % ", ".join(
                "(%s): %s" % (", ".join(frac_str(v) for v in vec), frac_str(p))
                for vec, p in entries)
        return self._name

    def __repr__(self):
        return f"KnowledgeBase({self.render()})"


class _Breakdown:
    """The belief-breakdown observation; BREAKDOWN is the one instance."""

    key = "belief-breakdown"

    def render(self):
        return self.key

    def __repr__(self):
        return "BREAKDOWN"


BREAKDOWN = _Breakdown()


def initial_kb(model) -> KnowledgeBase:
    """The initial knowledge base, over a new believed Bat."""
    bat = believed_bat(model)
    dist = {}
    for vals, weight in model.kb0:
        w = make_world(model, vals)
        dist[w] = dist.get(w, ZERO) + weight
    return KnowledgeBase(dist, bat)


def progress_kb(kb, action) -> KnowledgeBase:
    """Progress by one ground action: each world's mass follows every
    action of the observed class, weighted by its believed likelihood.
    The class is the action itself for a sensing result, eps and fail,
    and every OI-alternative for a stochastic action.  The result is kept
    in the class's table on, and interned by, the knowledge base's Bat."""
    bat = kb.bat
    table = bat._tables.get(action)
    if table is None:
        table = bat.class_table(action)
    hit = table.progressed.get(kb.id)
    if hit is not None:
        return hit
    table.cover(len(bat.worlds))
    rows, num = table.rows, kb.num
    for i in num:
        if rows[i] is None:  # a new row may scale the filled ones up
            bat.moves(i, table.cls)
    # in integers: world i's moves have likelihoods k / scale, so over the
    # step's denominator den * scale its successor gains num[i] * k
    new = {}
    get = new.get
    for i, n in num.items():
        for succ, k in rows[i]:
            new[succ] = get(succ, 0) + n * k
    eta = sum(new.values())
    sensing = table.sensing
    if eta == 0:
        if sensing:
            raise IncompatibleSensingError(
                f"sensing result {action} is believed impossible (normalizer 0)")
        raise IncompatibleActionError(
            f"action {action} has zero believed likelihood on the whole support")
    den = kb.den * table.scale
    # a world's alternatives take distinct entries of its likelihood row,
    # so its mass is at most 1, and eta = den (mass 1) means every world
    # kept all of it
    if eta != den:
        if not sensing:
            raise LikelihoodSumError(
                f"believed likelihoods of {action} are incomplete: "
                f"total progressed mass {frac_str(Fraction(eta, den))}")
        den = eta
    g = gcd(den, *new.values())
    if g != 1:
        new = {i: n // g for i, n in new.items()}
        den //= g
    hit = table.progressed[kb.id] = bat.intern_kb(new, den)
    return hit


def next_observation(obs, action, progress=progress_kb):
    """The observation after action: BREAKDOWN stays BREAKDOWN, a sensing
    result believed impossible (normalizer 0) gives BREAKDOWN, and other
    progression errors propagate.  Callers pass their own binding of
    progress_kb, so that a wrapper on it (perfbench/spans.py) sees the call.
    """
    if obs is BREAKDOWN:
        return BREAKDOWN
    try:
        return progress(obs, action)
    except IncompatibleSensingError:
        return BREAKDOWN

