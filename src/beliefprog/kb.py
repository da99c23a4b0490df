"""Exact evaluation and progression of worlds and knowledge bases.

Everything here works on arbitrary-precision rationals; there is no float
anywhere in a semantic computation.  A knowledge base is a finite belief
distribution over worlds paired with the action theory the agent believes.
Its masses are integers over one denominator: world w has mass
num[w] / den, den > 0 is the lcm of the masses' reduced denominators, and
so gcd(den, *num.values()) == 1 and (den, num) is the one form of the
distribution.  Progression and B(phi) add and multiply ints and build a
Fraction only for a value they return; kb.dist is a read-only Fraction
view, made on first use.  Progression by t follows one update rule:

  f'(u) = sum over support u' of f(u') *
          sum over a in the observed class of t:
          L(a at u') * [u' progressed by a equals u]

with L read from the believed likelihood tables.  The observed class of a
stochastic action is its OI-alternatives, whose likelihoods must sum to 1
at every world; that of a sensing result is the result itself, and f' is
divided by the normalizer eta = sum of f'(u) (Bayes).  The reserved
actions eps and fail have likelihood 1, are OI only to themselves, and
only touch the reserved fluents Final and Fail.

Each Bat memoises its steps: the one likelihood memo, branches, per
(world, symbol, ctrl); the (likelihood, successor) per (world, action);
the integer moves and the successful progressions per (world or
knowledge base, observed class), where a sensing result is its own class
and any other action has its oi_class; and the truth of a formula per
(formula, world or knowledge base).  It interns the worlds and knowledge
bases it makes, so equal ones are one object and dicts keyed by them hit
on identity.  A Bat is made per theory per run (real_bat, initial_kb), so
no table outlives the run that filled it.

An observation is a knowledge base or BREAKDOWN, left when a sensing result
is believed impossible; next_observation is the one progression rule for
both.  One evaluator, _value for terms and _truth for formulas, serves both
sorts: at a World a term or formula is objective, and at an observation it
is subjective, where B, Expect and Conf read the knowledge base and every
comparison at BREAKDOWN is false.
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
                     Or, ParamRef, Piecewise, arith, frac_str)

ZERO = Fraction(0)
ONE = Fraction(1)


class World:
    """Immutable total valuation of the declared fluents (incl. Final/Fail)."""

    __slots__ = ("_vals", "_key", "_hash")

    def __init__(self, values):
        self._vals = dict(values)
        self._key = tuple(sorted(self._vals.items()))
        # hash(-1) == hash(-2) in CPython, so the values are hashed by
        # their text: h=-1 and h=-2 must not collide
        self._hash = hash(tuple((name, str(v)) for name, v in self._key))

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
    """Build a world from a valuation of the user fluents; Final=Fail=0."""
    names = [f.name for f in model.fluents]
    if len(user_values) != len(names):
        raise EvalError(f"world needs {len(names)} values, got {len(user_values)}")
    vals = dict(zip(names, (Fraction(v) for v in user_values)))
    vals["Final"] = ZERO
    vals["Fail"] = ZERO
    return World(vals)


class GroundAction:
    """Immutable action symbol with its controllable and uncontrollable
    arguments."""

    def __init__(self, symbol, ctrl, unctrl):
        _set = object.__setattr__
        _set(self, "symbol", symbol)
        _set(self, "ctrl", ctrl)
        _set(self, "unctrl", unctrl)
        # Fraction hashing is costly; these objects key many dicts
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


class Bat:
    """Runtime view of one basic action theory (real or believed), with
    the memo of its steps and the intern tables of its worlds and
    knowledge bases."""

    def __init__(self, model, which):
        decl = model.real_bat if which == "real" else model.believed_bat
        self.which = which
        self.model = model
        self.ssa = {rule.fluent: rule for rule in decl.ssa}
        self.likelihood = dict(decl.likelihood)
        self.actions = {a.name: a for a in model.actions}
        self._branches = {}  # (world, symbol, ctrl) -> nonzero branches
        self._actions = {}  # (symbol, ctrl) -> {outcome value: GroundAction}
        self._steps = {}  # (world, action) -> (likelihood, successor)
        self._moves = {}  # (world, observed class) -> moves
        self._truth = {}  # id(phi) -> (phi, {world or kb: bool})
        self._progressed = {}  # (kb, observed class) -> progressed kb
        self._worlds = {}  # intern tables: each maps a value to its
        self._kbs = {}  # one object

    def action_decl(self, symbol):
        return self.actions.get(symbol)

    def intern(self, world):
        """The one World equal to world that this theory hands out."""
        return self._worlds.setdefault(world, world)

    def intern_kb(self, kb):
        """The one KnowledgeBase equal to kb that this theory hands out."""
        return self._kbs.setdefault(kb, kb)

    def branches(self, world, symbol, ctrl):
        """(ground action, likelihood) for each OI-alternative of
        symbol(ctrl, _) with nonzero likelihood at world, in the order of
        this theory's outcome list (for the real theory, that of
        oi_alternatives)."""
        key = (world, symbol, ctrl)
        hit = self._branches.get(key)
        if hit is None:
            if symbol in (EPSILON_NAME, FAILURE_NAME):
                hit = ((EPSILON if symbol == EPSILON_NAME else FAILURE, ONE),)
            else:  # each outcome's GroundAction is made once per theory
                actions = self._actions.setdefault((symbol, ctrl), {})
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
        key = (world, action)
        hit = self._steps.get(key)
        if hit is None:
            # a loop: a generator would put action in a cell on every call
            for t, like in self.branches(world, action.symbol, action.ctrl):
                if t.unctrl == action.unctrl:
                    break
            else:
                like = ZERO
            hit = self._steps[key] = (
                like, self.intern(progress_world(world, action, self)))
        return hit

    def moves(self, world, action, sensing):
        """(d, ((successor, k), ...)): each member of action's observed
        class -- the action itself if sensing, else its OI-alternatives --
        with nonzero likelihood k/d at world, in branches order, where d
        is the lcm of their denominators.  Kept per observed class;
        successors are computed only for members of the class."""
        key = (world, action if sensing else action.oi_class)
        hit = self._moves.get(key)
        if hit is None:
            kept = [(t, like) for t, like in
                    self.branches(world, action.symbol, action.ctrl)
                    if not sensing or t == action]
            d = lcm(*(like.denominator for _, like in kept))
            hit = self._moves[key] = (d, tuple(
                (self.step(world, t)[1], like.numerator * (d // like.denominator))
                for t, like in kept))
        return hit

    def holds(self, at, phi):
        """_truth(phi, at) at a world or a knowledge base, memoised per
        formula object.  The table keeps each formula it has met alive, so
        no two formulas share an id, and deep formulas are never hashed."""
        entry = self._truth.get(id(phi))
        if entry is None:
            entry = self._truth[id(phi)] = (phi, {})
        table = entry[1]
        hit = table.get(at)
        if hit is None:
            hit = table[at] = _truth(phi, at, {})
        return hit


def real_bat(model):
    return Bat(model, "real")


def believed_bat(model):
    return Bat(model, "believed")


# ---------------------------------------------------------------------------
# expression and formula evaluation (both sorts; see the module docstring)

def eval_expr(e, world, bindings=None) -> Fraction:
    return _value(e, world, bindings or {})


def eval_fluent_formula(phi, world, bindings=None) -> bool:
    return _truth(phi, world, bindings or {})


def eval_subjective(kb, alpha) -> bool:
    """Truth of a subjective formula at an observation, memoised by the
    knowledge base's Bat; at BREAKDOWN every comparison is false."""
    if kb is BREAKDOWN:
        return _truth(alpha, kb, {})
    return kb.bat.holds(kb, alpha)


def _value(e, at, b) -> Fraction:
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
    if cls is Bel and subjective:
        holds = at.bat.holds
        return Fraction(sum(n for w, n in at.num.items()
                            if holds(w, e.formula)), at.den)
    if cls is BinOp:
        value = arith(e.op, _value(e.left, at, b), _value(e.right, at, b))
        if value is None:
            raise EvalError("division by zero in a belief expression"
                            if subjective else "division by zero")
        return value
    if cls is Neg:
        return -_value(e.operand, at, b)
    if subjective:
        if cls is Expect:
            return _expectation(e.fluent, at)
        if cls is Conf:
            # belief that the fluent lies in [E - r, E + r]; see the ledger
            # note on the closed interval
            mean = _expectation(e.fluent, at)
            return Fraction(sum(n for w, n in at.num.items()
                                if abs(w[e.fluent] - mean) <= e.radius), at.den)
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


def _expectation(fluent, kb) -> Fraction:
    values = [(w[fluent], n) for w, n in kb.num.items()]
    d = lcm(*(v.denominator for v, _ in values))
    return Fraction(sum(v.numerator * (d // v.denominator) * n
                        for v, n in values), d * kb.den)


_CMP = {"=": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


def _truth(phi, at, b) -> bool:
    """The truth of formula phi where _value evaluates its terms."""
    cls = phi.__class__
    if cls is Cmp:
        return at is not BREAKDOWN and \
            _CMP[phi.op](_value(phi.left, at, b), _value(phi.right, at, b))
    if cls is Not:
        return not _truth(phi.operand, at, b)
    if cls is And:
        return _truth(phi.left, at, b) and _truth(phi.right, at, b)
    if cls is Or:
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
        return world.updated({"Final": ONE})
    if action.symbol == FAILURE_NAME:
        return world.updated({"Fail": ONE})
    decl = bat.action_decl(action.symbol)
    if decl is None:
        raise EvalError(f"undeclared action {action.symbol!r}")
    changes = {}
    args = action.ctrl + action.unctrl
    for fluent, rule in bat.ssa.items():
        case = next((c for c in rule.cases if c.action == action.symbol), None)
        if case is not None:
            bindings = dict(zip(case.params, args))
            changes[fluent] = eval_expr(case.effect, world, bindings)
        else:
            new = eval_expr(rule.default, world)
            if new != world[fluent]:
                changes[fluent] = new
    return world.updated(changes) if changes else world


# ---------------------------------------------------------------------------
# likelihoods

def likelihood_row(symbol, ctrl, world, bat):
    """Outcome values and weights for the unique likelihood context true
    at this world.  Asserts context disjointness, completeness, and that
    the weights sum to exactly 1.
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
            default = row
        elif eval_fluent_formula(row.context, world, bindings):
            matches.append((idx, row))
    if len(matches) > 1:
        raise LikelihoodContextError(
            f"likelihood contexts of {symbol!r} overlap at {world!r}")
    if matches:
        row = matches[0][1]
    elif default is not None:
        row = default
    else:
        raise LikelihoodContextError(
            f"no likelihood context of {symbol!r} is true at {world!r}")
    out = []
    total = ZERO
    for vec, weight_expr in zip(table.outcomes, row.weights):
        value = tuple(eval_expr(v, world, bindings) for v in vec)
        weight = eval_expr(weight_expr, world, bindings)
        if weight < 0:
            raise LikelihoodSumError(f"negative outcome weight for {symbol!r}")
        total += weight
        out.append((value, weight))
    if total != 1:
        raise LikelihoodSumError(
            f"outcome weights of {symbol!r} sum to {frac_str(total)}, not 1")
    return out


def action_likelihood(action, world, bat) -> Fraction:
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
    for bat_decl in (model.real_bat, model.believed_bat):
        table = bat_decl.likelihood_for(symbol)
        for vec in table.outcomes:
            value = tuple(eval_expr(v, None, bindings) for v in vec)
            if value not in values:
                values.append(value)
    return [GroundAction(symbol, tuple(ctrl), value) for value in values]


def trace_likelihood(world, actions, bat) -> Fraction:
    """l*(w, z): product of per-step likelihoods along the progressed worlds."""
    total = ONE
    w = world
    for a in actions:
        total *= action_likelihood(a, w, bat)
        if total == 0:
            return ZERO
        w = progress_world(w, a, bat)
    return total


# ---------------------------------------------------------------------------
# knowledge bases

class KnowledgeBase:
    """Finite belief distribution plus the believed action theory; world
    w has mass num[w] / den, in lowest terms (see the module docstring).
    KnowledgeBase(dist, bat) takes a {world: Fraction} mapping."""

    __slots__ = ("num", "den", "bat", "_key", "_hash", "_dist", "_name")

    def __init__(self, dist, bat):
        masses = [(w, p) for w, p in dist.items() if p != 0]
        den = lcm(*(p.denominator for _, p in masses))
        self._set({w: p.numerator * (den // p.denominator) for w, p in masses},
                  den, bat)

    @classmethod
    def _lowest(cls, num, den, bat):
        """The knowledge base with masses num[w] / den, where no num[w] is
        0 and gcd(den, *num.values()) == 1."""
        kb = cls.__new__(cls)
        kb._set(num, den, bat)
        return kb

    def _set(self, num, den, bat):
        self.num = num
        self.den = den
        self.bat = bat
        self._key = (den, frozenset(num.items()))
        self._hash = hash(self._key)
        self._dist = self._name = None

    @property
    def dist(self):
        """Read-only {world: Fraction mass}, made on first use."""
        if self._dist is None:
            self._dist = MappingProxyType(
                {w: Fraction(n, self.den) for w, n in self.num.items()})
        return self._dist

    @property
    def key(self):
        return self._key

    def total(self):
        return Fraction(sum(self.num.values()), self.den)

    def __eq__(self, other):
        return self is other or \
            isinstance(other, KnowledgeBase) and self._key == other._key

    def __hash__(self):
        return self._hash

    def render(self):
        """The observation's name, {val-vector: p/q, ...} sorted
        lexicographically, made on first use and kept."""
        if self._name is None:
            order = self.bat.model.fluent_order
            shown = [n for n in order if n not in ("Final", "Fail")]
            shown += [n for n in ("Final", "Fail")
                      if any(w[n] != 0 for w in self.num)]
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
        w = bat.intern(make_world(model, vals))
        dist[w] = dist.get(w, ZERO) + weight
    return bat.intern_kb(KnowledgeBase(dist, bat))


def progress_kb(kb, action) -> KnowledgeBase:
    """Progress by one ground action: each world's mass follows every
    action of the observed class, weighted by its believed likelihood.
    The class is the action itself for a sensing result, eps and fail,
    and every OI-alternative for a stochastic action.  The result is kept
    per observed class on, and interned by, the knowledge base's Bat."""
    bat = kb.bat
    sensing = False
    if action.symbol not in (EPSILON_NAME, FAILURE_NAME):
        decl = bat.action_decl(action.symbol)
        if decl is None:
            raise EvalError(f"undeclared action {action.symbol!r}")
        sensing = decl.kind == "sensing"
    key = (kb, action if sensing else action.oi_class)
    hit = bat._progressed.get(key)
    if hit is not None:
        return hit
    # in integers: world w's moves have likelihoods k/d, so over the step's
    # common denominator den * scale its successor gains num[w] * k * scale/d
    moved = [(n, bat.moves(w, action, sensing)) for w, n in kb.num.items()]
    scale = lcm(*(d for _, (d, _) in moved))
    new = {}
    for n, (d, outs) in moved:
        n *= scale // d
        for succ, k in outs:
            new[succ] = new.get(succ, 0) + n * k
    eta = sum(new.values())
    if eta == 0:
        if sensing:
            raise IncompatibleSensingError(
                f"sensing result {action} is believed impossible (normalizer 0)")
        raise IncompatibleActionError(
            f"action {action} has zero believed likelihood on the whole support")
    den = kb.den * scale
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
        new = {w: n // g for w, n in new.items()}
        den //= g
    hit = bat._progressed[key] = bat.intern_kb(
        KnowledgeBase._lowest(new, den, bat))
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

