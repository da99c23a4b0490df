"""Exact evaluation and progression of worlds and knowledge bases.

Everything here works on arbitrary-precision rationals; there is no float
anywhere in a semantic computation.  A knowledge base is a finite belief
distribution over worlds paired with the action theory the agent believes,
and progression follows the two update rules:

  stochastic t:  f'(u) = sum over support u' of
                 f(u') * sum over OI-alternatives a of t:
                 L(a at u') * [u' progressed by a equals u]

  sensing t:     f'(u) = f(u) * L(t at u) / eta      (Bayes)

with L read from the believed likelihood tables.  The reserved actions
eps and fail have likelihood 1, are OI only to themselves, and only touch
the reserved fluents Final and Fail.

An observation is a knowledge base or BREAKDOWN, left when a sensing result
is believed impossible; next_observation and eval_subjective are the one
progression rule and the one truth rule for both.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (EvalError, IncompatibleActionError,
                     IncompatibleSensingError, LikelihoodContextError,
                     LikelihoodSumError)
from .syntax import (And, Bel, BinOp, BoolConst, Cmp, Conf, Expect,
                     EPSILON_NAME, FAILURE_NAME, FluentRef, Neg, Not, Num,
                     Or, ParamRef, Piecewise, frac_str)

ZERO = Fraction(0)
ONE = Fraction(1)


class World:
    """Immutable total valuation of the declared fluents (incl. Final/Fail)."""

    __slots__ = ("_vals", "_key", "_hash")

    def __init__(self, values):
        self._vals = dict(values)
        self._key = tuple(sorted(self._vals.items()))
        self._hash = hash(self._key)

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
        return isinstance(other, World) and self._key == other._key

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


@dataclass(frozen=True, eq=False)
class GroundAction:
    symbol: str
    ctrl: tuple
    unctrl: tuple

    def __post_init__(self):
        # Fraction hashing is costly; these objects key many dicts
        object.__setattr__(self, "_hash",
                           hash((self.symbol, self.ctrl, self.unctrl)))

    def __eq__(self, other):
        return isinstance(other, GroundAction) and \
            self._hash == other._hash and self.symbol == other.symbol and \
            self.ctrl == other.ctrl and self.unctrl == other.unctrl

    def __hash__(self):
        return self._hash

    def __str__(self):
        args = [frac_str(v) for v in self.ctrl + self.unctrl]
        return f"{self.symbol}({', '.join(args)})" if args else self.symbol

    def __lt__(self, other):
        return (self.symbol, self.ctrl, self.unctrl) < \
            (other.symbol, other.ctrl, other.unctrl)


EPSILON = GroundAction(EPSILON_NAME, (), ())
FAILURE = GroundAction(FAILURE_NAME, (), ())
RESERVED = (EPSILON, FAILURE)


class Bat:
    """Runtime view of one basic action theory (real or believed)."""

    def __init__(self, model, which):
        decl = model.real_bat if which == "real" else model.believed_bat
        self.which = which
        self.model = model
        self.ssa = {rule.fluent: rule for rule in decl.ssa}
        self.likelihood = dict(decl.likelihood)
        self.actions = {a.name: a for a in model.actions}

    def action_decl(self, symbol):
        return self.actions.get(symbol)


def real_bat(model):
    return Bat(model, "real")


def believed_bat(model):
    return Bat(model, "believed")


# ---------------------------------------------------------------------------
# expression and formula evaluation

def eval_expr(e, world, bindings=None) -> Fraction:
    b = bindings or {}
    return _eval(e, world, b)


def _eval(e, world, b):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, FluentRef):
        v = world.get(e.name) if world is not None else None
        if v is None:
            raise EvalError(f"fluent {e.name!r} has no value in this context")
        return v
    if isinstance(e, ParamRef):
        try:
            return b[e.name]
        except KeyError:
            raise EvalError(f"unbound parameter {e.name!r}") from None
    if isinstance(e, Neg):
        return -_eval(e.operand, world, b)
    if isinstance(e, BinOp):
        left = _eval(e.left, world, b)
        right = _eval(e.right, world, b)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if right == 0:
            raise EvalError("division by zero")
        return left / right
    if isinstance(e, Piecewise):
        for guard, value in e.cases:
            if eval_fluent_formula(guard, world, b):
                return _eval(value, world, b)
        return _eval(e.default, world, b)
    raise TypeError(f"cannot evaluate {e!r} as an objective expression")


_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_fluent_formula(phi, world, bindings=None) -> bool:
    b = bindings or {}
    if isinstance(phi, BoolConst):
        return phi.value
    if isinstance(phi, Cmp):
        return _CMP[phi.op](_eval(phi.left, world, b), _eval(phi.right, world, b))
    if isinstance(phi, Not):
        return not eval_fluent_formula(phi.operand, world, b)
    if isinstance(phi, And):
        return eval_fluent_formula(phi.left, world, b) and \
            eval_fluent_formula(phi.right, world, b)
    if isinstance(phi, Or):
        return eval_fluent_formula(phi.left, world, b) or \
            eval_fluent_formula(phi.right, world, b)
    raise TypeError(f"not a fluent formula: {phi!r}")


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
    """Finite belief distribution plus the believed action theory."""

    __slots__ = ("dist", "bat", "_key", "_hash")

    def __init__(self, dist, bat):
        self.dist = {w: p for w, p in dist.items() if p != 0}
        self.bat = bat
        self._key = tuple(sorted((w._key, p) for w, p in self.dist.items()))
        self._hash = hash(self._key)

    @property
    def key(self):
        return self._key

    def total(self):
        return sum(self.dist.values(), ZERO)

    def __eq__(self, other):
        return isinstance(other, KnowledgeBase) and self._key == other._key

    def __hash__(self):
        return self._hash

    def render(self, fluent_order=None):
        """Debug form: {val-vector: p/q, ...} sorted lexicographically."""
        order = fluent_order or self.bat.model.fluent_order
        shown = [n for n in order if n not in ("Final", "Fail")]
        shown += [n for n in ("Final", "Fail")
                  if any(w[n] != 0 for w in self.dist)]
        entries = sorted((w.vector(shown), p) for w, p in self.dist.items())
        body = ", ".join("(%s): %s" % (", ".join(frac_str(v) for v in vec),
                                       frac_str(p))
                         for vec, p in entries)
        return "{%s}" % body

    def __repr__(self):
        return f"KnowledgeBase({self.render()})"


class _Breakdown:
    """The belief-breakdown observation; BREAKDOWN is the one instance."""

    key = "belief-breakdown"

    def render(self, fluent_order=None):
        return self.key

    def __repr__(self):
        return "BREAKDOWN"


BREAKDOWN = _Breakdown()


def initial_kb(model) -> KnowledgeBase:
    bat = believed_bat(model)
    dist = {}
    for vals, weight in model.kb0:
        w = make_world(model, vals)
        dist[w] = dist.get(w, ZERO) + weight
    return KnowledgeBase(dist, bat)


def progress_kb_stochastic(kb, action) -> KnowledgeBase:
    alts = oi_alternatives(action.symbol, action.ctrl, kb.bat.model)
    new = {}
    total = ZERO
    per_point_ok = True
    for w, p in kb.dist.items():
        point_mass = ZERO
        for alt in alts:
            like = action_likelihood(alt, w, kb.bat)
            if like == 0:
                continue
            point_mass += like
            succ = progress_world(w, alt, kb.bat)
            new[succ] = new.get(succ, ZERO) + p * like
        total += p * point_mass
        if point_mass != 1:
            per_point_ok = False
    if total == 0:
        raise IncompatibleActionError(
            f"action {action} has zero believed likelihood on the whole support")
    if not per_point_ok or total != 1:
        raise LikelihoodSumError(
            f"believed likelihoods of {action} are incomplete: "
            f"total progressed mass {frac_str(total)}")
    return KnowledgeBase(new, kb.bat)


def progress_kb_sensing(kb, action) -> KnowledgeBase:
    new = {}
    eta = ZERO
    for w, p in kb.dist.items():
        like = action_likelihood(action, w, kb.bat)
        if like == 0:
            continue
        succ = progress_world(w, action, kb.bat)
        new[succ] = new.get(succ, ZERO) + p * like
        eta += p * like
    if eta == 0:
        raise IncompatibleSensingError(
            f"sensing result {action} is believed impossible (normalizer 0)")
    if eta != 1:
        new = {w: p / eta for w, p in new.items()}
    return KnowledgeBase(new, kb.bat)


def progress_kb(kb, action) -> KnowledgeBase:
    """Progress by one ground action, dispatching on its kind."""
    if action.symbol in (EPSILON_NAME, FAILURE_NAME):
        new = {}
        for w, p in kb.dist.items():
            succ = progress_world(w, action, kb.bat)
            new[succ] = new.get(succ, ZERO) + p
        return KnowledgeBase(new, kb.bat)
    decl = kb.bat.action_decl(action.symbol)
    if decl is None:
        raise EvalError(f"undeclared action {action.symbol!r}")
    if decl.kind == "sensing":
        return progress_kb_sensing(kb, action)
    return progress_kb_stochastic(kb, action)


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


# ---------------------------------------------------------------------------
# subjective evaluation

def _belief_value(e, kb) -> Fraction:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Bel):
        return sum((p for w, p in kb.dist.items()
                    if eval_fluent_formula(e.formula, w)), ZERO)
    if isinstance(e, Expect):
        return sum((w[e.fluent] * p for w, p in kb.dist.items()), ZERO)
    if isinstance(e, Conf):
        # belief that the fluent lies in [E - r, E + r]; see the ledger
        # note on the closed interval
        mean = _belief_value(Expect(e.fluent), kb)
        return sum((p for w, p in kb.dist.items()
                    if abs(w[e.fluent] - mean) <= e.radius), ZERO)
    if isinstance(e, Neg):
        return -_belief_value(e.operand, kb)
    if isinstance(e, BinOp):
        left = _belief_value(e.left, kb)
        right = _belief_value(e.right, kb)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if right == 0:
            raise EvalError("division by zero in a belief expression")
        return left / right
    raise TypeError(f"not a belief expression: {e!r}")


def eval_subjective(kb, alpha) -> bool:
    """Truth of a subjective formula at an observation; at BREAKDOWN every
    comparison is false and the boolean structure still applies."""
    if isinstance(alpha, BoolConst):
        return alpha.value
    if isinstance(alpha, Cmp):
        if kb is BREAKDOWN:
            return False
        return _CMP[alpha.op](_belief_value(alpha.left, kb),
                              _belief_value(alpha.right, kb))
    if isinstance(alpha, Not):
        return not eval_subjective(kb, alpha.operand)
    if isinstance(alpha, And):
        return eval_subjective(kb, alpha.left) and eval_subjective(kb, alpha.right)
    if isinstance(alpha, Or):
        return eval_subjective(kb, alpha.left) or eval_subjective(kb, alpha.right)
    raise TypeError(f"not a subjective formula: {alpha!r}")
