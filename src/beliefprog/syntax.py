"""Typed AST for model files, the walk over a tree's nodes, the one
arithmetic rule (arith, and constant_value, which folds by it), and the
canonical pretty-printer.

All numeric literals are exact: a whole number is an `int` and any other
a `fractions.Fraction` (the two mix exactly, compare and hash alike and
print the same); nothing in the AST ever holds a float.  Formula nodes
are shared between the two formula sorts (fluent formulas and subjective
formulas); the parser enforces the sort discipline.
"""

from fractions import Fraction
from operator import attrgetter

RESERVED_FLUENTS = ("Final", "Fail")
EPSILON_NAME = "eps"
FAILURE_NAME = "fail"
RESERVED_ACTIONS = (EPSILON_NAME, FAILURE_NAME)


# ---------------------------------------------------------------------------
# node base

class loose:
    """Default of a node field that equality and hashing ignore, such as a
    source position: ``pos: tuple = loose(None)``."""

    __slots__ = ("default",)

    def __init__(self, default):
        self.default = default


# sets a field past the frozen __setattr__; writing the instance __dict__
# instead would slow every later read of the node's fields
_set = object.__setattr__


class Node:
    """Base of the AST classes: an immutable record of the fields its class
    annotates, in order, built from positional or keyword arguments.

    The fields are read once, when a subclass is defined, and no method is
    generated.  Two nodes are equal when they are of one class and agree on
    every field that is not `loose`, and equal nodes hash alike.  The repr
    is the one ``dataclasses`` prints.  The fields that can hold child
    nodes, alone or inside tuples, are those annotated neither `str`,
    `Fraction` nor `bool` and not `loose`; `map`, `walk` and `depth` read
    the tree's shape from them alone.
    """

    _fields = ()  # field names in declaration order
    _defaults = {}  # field name -> default
    _loose = ()  # fields that equality and hashing skip
    _children = ()  # fields that can hold a child node, alone or in tuples

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields, defaults = list(cls._fields), dict(cls._defaults)
        skipped, children = list(cls._loose), list(cls._children)
        # since 3.10 a class's __annotations__ are its own, and empty when
        # it annotates nothing; 3.14 evaluates them here on first access
        for name, kind in cls.__annotations__.items():
            if name not in fields:
                fields.append(name)
            if name in cls.__dict__:
                default = cls.__dict__[name]
                if isinstance(default, loose):
                    skipped.append(name)
                    default = default.default
                    setattr(cls, name, default)
                defaults[name] = default
            if kind not in (str, Fraction, bool) and name not in skipped:
                children.append(name)
        cls._fields, cls._defaults, cls._loose = tuple(fields), defaults, tuple(skipped)
        cls._children = tuple(children)
        # the class leads the key, so nodes of two classes never hash
        # alike; an attrgetter is no descriptor, so self._key is the getter
        cls._key = attrgetter(
            "__class__", *(name for name in fields if name not in skipped))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._complete(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)

    @classmethod
    def _complete(cls, args, kwargs):
        """Every field's value, from positional then keyword arguments, then
        the defaults."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} "
                            f"fields but {len(args)} were given")
        values = list(args)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__} missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got an unexpected or repeated "
                            f"field {next(iter(kwargs))!r}")
        return values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def map(self, fn):
        """This node with fn applied to each child node, also inside tuple
        fields; loose fields are kept.  The node itself when no child
        changed."""
        changed = None
        for name in self._children:
            old = getattr(self, name)
            if isinstance(old, Node):
                new = fn(old)
            elif isinstance(old, tuple):
                new = _map_items(old, fn)
            else:
                continue
            if new is not old:
                changed = changed or {}
                changed[name] = new
        if changed is None:
            return self
        return self.__class__(*[changed.get(name, getattr(self, name))
                                for name in self._fields])


def _map_items(items, fn):
    """A tuple with fn applied to the nodes in it, also in nested tuples;
    the tuple itself when none changed."""
    mapped = tuple(fn(item) if isinstance(item, Node)
                   else _map_items(item, fn) if isinstance(item, tuple)
                   else item for item in items)
    if any(new is not old for new, old in zip(mapped, items)):
        return mapped
    return items


def walk(node):
    """Every node of the tree under node, in pre-order with children in
    field order, without recursion."""
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, Node):
            yield item
            stack.extend(getattr(item, name) for name in reversed(item._children))
        elif isinstance(item, tuple):
            stack.extend(reversed(item))


def depth(node):
    """The number of nodes on the longest path down from node, counted one
    level at a time without recursion."""
    levels, level = 0, [node]
    while level:
        levels += 1
        below = [getattr(item, name) for item in level for name in item._children]
        level = []
        for item in below:  # grows by the items of tuple fields
            if isinstance(item, Node):
                level.append(item)
            elif isinstance(item, tuple):
                below.extend(item)
    return levels


# ---------------------------------------------------------------------------
# arithmetic expressions

class Num(Node):
    value: Fraction  # an int where whole


class FluentRef(Node):
    name: str
    pos: tuple = loose(None)


class ParamRef(Node):
    name: str
    pos: tuple = loose(None)


class BinOp(Node):
    op: str  # one of + - * /
    left: object
    right: object


class Neg(Node):
    operand: object


class Piecewise(Node):
    """Guarded cases evaluated top to bottom, with a mandatory default."""

    cases: tuple  # of (formula, expr) pairs
    default: object


def exact(x):
    """An int or Fraction x as an int when it is whole, else x itself."""
    return x.numerator if x.denominator == 1 else x


def arith(op, a, b):
    """a op b for op one of + - * / on ints and Fractions, exactly (an int
    over an int is a Fraction, never a float), with a whole result as an
    int; None for a division by zero."""
    if op == "+":
        value = a + b
    elif op == "-":
        value = a - b
    elif op == "*":
        value = a * b
    elif b:
        value = Fraction(a, b)
    else:
        return None
    return value if value.__class__ is int else exact(value)


def constant_value(e):
    """The value of a parameter- and fluent-free expression, else None."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Neg):
        v = constant_value(e.operand)
        return None if v is None else -v
    if isinstance(e, BinOp):
        a, b = constant_value(e.left), constant_value(e.right)
        return None if a is None or b is None else arith(e.op, a, b)
    return None


# belief-expression atoms (only valid inside subjective formulas)

class Bel(Node):
    formula: object  # a fluent formula


class Expect(Node):
    fluent: str


class Conf(Node):
    fluent: str
    radius: Fraction


# ---------------------------------------------------------------------------
# formulas (shared node shapes for both sorts)

class BoolConst(Node):
    value: bool


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class Cmp(Node):
    op: str  # = != < <= > >=
    left: object
    right: object


class Not(Node):
    operand: object


class And(Node):
    left: object
    right: object


class Or(Node):
    left: object
    right: object


def conj(a, b):
    """Conjunction that folds boolean constants but does nothing smarter."""
    if a == TRUE:
        return b
    if b == TRUE:
        return a
    if a == FALSE or b == FALSE:
        return FALSE
    return And(a, b)


def disj(a, b):
    if a == FALSE:
        return b
    if b == FALSE:
        return a
    if a == TRUE or b == TRUE:
        return TRUE
    return Or(a, b)


def neg(a):
    if a == TRUE:
        return FALSE
    if a == FALSE:
        return TRUE
    return Not(a)


# ---------------------------------------------------------------------------
# program expressions

class Nil(Node):
    pass


class Prim(Node):
    """Primitive program: an action with its controllable arguments only."""

    symbol: str
    args: tuple  # of exact numbers, ints where whole
    pos: tuple = loose(None)


class Test(Node):
    cond: object  # subjective formula


class Seq(Node):
    first: object
    second: object


class Choice(Node):
    left: object
    right: object


class Star(Node):
    body: object


NIL = Nil()


def seq(a, b):
    """Sequence constructor with Nil units removed and chains right-associated
    (node canonicalization: one shape per program, however it was written)."""
    if isinstance(a, Nil):
        return b
    if isinstance(b, Nil):
        return a
    if isinstance(a, Seq):
        return seq(a.first, seq(a.second, b))
    return Seq(a, b)


# ---------------------------------------------------------------------------
# temporal properties

class PropInterval(Node):
    lo: Fraction
    hi: Fraction
    lo_open: bool = False
    hi_open: bool = False

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or (x == self.lo and self.lo_open):
            return False
        if x > self.hi or (x == self.hi and self.hi_open):
            return False
        return True

    def __str__(self):
        return "%s%s, %s%s" % ("(" if self.lo_open else "[", self.lo,
                               self.hi, ")" if self.hi_open else "]")


class POp(Node):
    """Probability-threshold state formula P_I[trace]."""

    interval: PropInterval
    trace: object


class XOp(Node):
    arg: object  # state formula


class UntilOp(Node):
    left: object
    right: object
    bound: object = None  # int step bound, or None for unbounded


class GloballyOp(Node):
    """Unbounded 'globally'; simulator-only, the checker rejects it."""

    arg: object


# ---------------------------------------------------------------------------
# declarations and the model file

class FluentDecl(Node):
    name: str


class ActionDecl(Node):
    name: str
    kind: str  # "stochastic" | "sensing"
    ctrl: tuple  # controllable parameter names (empty for sensing)
    unctrl: tuple  # uncontrollable parameter names


class LikelihoodRow(Node):
    context: object  # fluent formula, or None for the default row
    weights: tuple  # one expr per declared outcome


class LikelihoodTable(Node):
    outcomes: tuple  # of tuples of exprs (uncontrollable values per outcome)
    rows: tuple  # of LikelihoodRow


class SsaCase(Node):
    action: str
    params: tuple  # case-local names bound to ctrl then unctrl arguments
    effect: object  # expr
    pos: tuple = loose(None)


class SsaRule(Node):
    fluent: str
    cases: tuple
    default: object  # expr, usually the fluent itself (frame)


class BatDecl(Node):
    ssa: tuple  # of SsaRule
    likelihood: tuple  # of (action name, LikelihoodTable)

    def ssa_for(self, fluent):
        for rule in self.ssa:
            if rule.fluent == fluent:
                return rule
        return None

    def likelihood_for(self, action):
        for name, table in self.likelihood:
            if name == action:
                return table
        return None


class InitTheory(Node):
    constraints: tuple  # fluent formulas
    worlds: tuple  # of valuation tuples over the declared fluents


class ModelFile(Node):
    fluents: tuple  # FluentDecl, user-declared only
    actions: tuple  # ActionDecl
    real_bat: BatDecl
    believed_bat: BatDecl
    init: InitTheory
    kb0: tuple  # of (valuation tuple, exact weight)
    program: object
    properties: tuple  # of (name, state formula)
    source: str = loose("")

    @property
    def fluent_order(self):
        return tuple(f.name for f in self.fluents) + RESERVED_FLUENTS

    def action_decl(self, name):
        for a in self.actions:
            if a.name == name:
                return a
        return None

    def property_named(self, name):
        for pname, phi in self.properties:
            if pname == name:
                return phi
        return None


# ---------------------------------------------------------------------------
# pretty-printer
#
# print_model is a strict inverse modulo sugar: parsing its output yields an
# AST equal to the one printed (the parse/print fixed-point invariant).

def frac_str(x: int | Fraction) -> str:
    return str(x)  # Fraction prints as "p/q" or "p", as an int does


def print_expr(e) -> str:
    return _expr(e, 0)


_BINPREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _expr(e, prec):
    if isinstance(e, Num):
        s = frac_str(e.value)
        return f"({s})" if e.value < 0 and prec > 0 else s
    if isinstance(e, (FluentRef, ParamRef)):
        return e.name
    if isinstance(e, Neg):
        s = "-" + _expr(e.operand, 3)
        return f"({s})" if prec > 2 else s
    if isinstance(e, BinOp):
        p = _BINPREC[e.op]
        s = f"{_expr(e.left, p)} {e.op} {_expr(e.right, p + 1)}"
        return f"({s})" if p < prec else s
    if isinstance(e, Piecewise):
        cases = " ".join(f"case {print_formula(g)}: {_expr(v, 0)};"
                         for g, v in e.cases)
        return "{ %s default: %s }" % (cases, _expr(e.default, 0))
    if isinstance(e, Bel):
        return f"B({print_formula(e.formula)})"
    if isinstance(e, Expect):
        return f"Expect({e.fluent})"
    if isinstance(e, Conf):
        return f"Conf({e.fluent}, {frac_str(e.radius)})"
    raise TypeError(f"not an expression node: {e!r}")


def print_formula(f) -> str:
    return _formula(f, 0)


def _formula(f, prec):
    # precedence: | (0) < & (1) < ! (2)
    if isinstance(f, BoolConst):
        return "true" if f.value else "false"
    if isinstance(f, Cmp):
        return f"{_expr(f.left, 1)} {f.op} {_expr(f.right, 1)}"
    if isinstance(f, Not):
        if isinstance(f.operand, (Cmp, And, Or)):
            return "!(" + _formula(f.operand, 0) + ")"
        return "!" + _formula(f.operand, 2)
    if isinstance(f, And):
        s = f"{_formula(f.left, 1)} & {_formula(f.right, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(f, Or):
        s = f"{_formula(f.left, 0)} | {_formula(f.right, 1)}"
        return f"({s})" if prec > 0 else s
    raise TypeError(f"not a formula node: {f!r}")


def print_program(p) -> str:
    return _prog(p, 0)


def _prog(p, prec):
    # precedence: | (0) < ; (1) < * (2)
    if isinstance(p, Nil):
        return "nil"
    if isinstance(p, Prim):
        if p.args:
            return "%s(%s)" % (p.symbol, ", ".join(frac_str(a) for a in p.args))
        return p.symbol
    if isinstance(p, Test):
        return f"({print_formula(p.cond)})?"
    if isinstance(p, Seq):
        s = f"{_prog(p.first, 1)}; {_prog(p.second, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(p, Choice):
        s = f"{_prog(p.left, 0)} | {_prog(p.right, 1)}"
        return f"({s})" if prec > 0 else s
    if isinstance(p, Star):
        return _prog(p.body, 2) + "*" if isinstance(p.body, (Nil, Prim)) \
            else f"({_prog(p.body, 0)})*"
    raise TypeError(f"not a program node: {p!r}")


def print_state_formula(phi) -> str:
    if isinstance(phi, POp):
        return f"P{phi.interval}({print_trace_formula(phi.trace)})"
    if isinstance(phi, Not):
        return "!" + _wrap_state(phi.operand)
    if isinstance(phi, And):
        return f"{_wrap_state(phi.left)} & {_wrap_state(phi.right)}"
    return print_formula(phi)


def _wrap_state(phi):
    if isinstance(phi, (And, Or)):
        return f"({print_state_formula(phi)})"
    return print_state_formula(phi)


def print_trace_formula(psi) -> str:
    if isinstance(psi, XOp):
        return f"X {_wrap_state(psi.arg)}"
    if isinstance(psi, UntilOp):
        bound = f"<={psi.bound}" if psi.bound is not None else ""
        if psi.left == TRUE:
            return f"F{bound} {_wrap_state(psi.right)}"
        return f"{_wrap_state(psi.left)} U{bound} {_wrap_state(psi.right)}"
    if isinstance(psi, GloballyOp):
        return f"G {_wrap_state(psi.arg)}"
    raise TypeError(f"not a trace formula: {psi!r}")


def _print_outcomes(table):
    """A stochastic action's outcome list: each vector in parentheses."""
    return ", ".join("(%s)" % ", ".join(print_expr(v) for v in vec)
                     for vec in table.outcomes)


def _print_likelihood(table, indent):
    lines = []
    for row in table.rows:
        head = "default" if row.context is None else f"case {print_formula(row.context)}"
        weights = ", ".join(print_expr(w) for w in row.weights)
        lines.append(f"{indent}{head}: {weights};")
    return lines


def _print_ssa(rule):
    lines = [f"ssa {rule.fluent} {{"]
    for c in rule.cases:
        params = ", ".join(c.params)
        lines.append(f"  case {c.action}({params}): {print_expr(c.effect)};")
    lines.append(f"  default: {print_expr(rule.default)};")
    lines.append("}")
    return lines


def print_model(m: ModelFile) -> str:
    out = []
    out.append("fluents " + ", ".join(f.name for f in m.fluents) + ";")
    out.append("")
    for a in m.actions:
        table = m.real_bat.likelihood_for(a.name)
        if a.kind == "stochastic":
            sig = "stochastic(%s; %s)" % (", ".join(a.ctrl), ", ".join(a.unctrl))
            out.append(f"action {a.name} {sig} {{")
            out.append(f"  outcomes: {_print_outcomes(table)};")
        else:
            vals = ", ".join(
                print_expr(vec[0]) if len(vec) == 1
                else "(%s)" % ", ".join(print_expr(v) for v in vec)
                for vec in table.outcomes)
            out.append(f"action {a.name} sensing({vals}) {{")
        out.append("  likelihood:")
        out.extend(_print_likelihood(table, "    "))
        out.append("}")
        out.append("")
    for rule in m.real_bat.ssa:
        out.extend(_print_ssa(rule))
        out.append("")
    believed_parts = []
    for name, table in m.believed_bat.likelihood:
        if table != m.real_bat.likelihood_for(name):
            believed_parts.append((name, table))
    believed_ssa = [r for r in m.believed_bat.ssa
                    if r != m.real_bat.ssa_for(r.fluent)]
    if believed_parts or believed_ssa:
        out.append("believed {")
        for name, table in believed_parts:
            decl = next(a for a in m.actions if a.name == name)
            out.append(f"  action {name} {{")
            if decl.kind == "stochastic":
                out.append(f"    outcomes: {_print_outcomes(table)};")
            out.append("    likelihood:")
            out.extend(_print_likelihood(table, "      "))
            out.append("  }")
        for rule in believed_ssa:
            out.extend("  " + line for line in _print_ssa(rule))
        out.append("}")
        out.append("")
    out.append("init {")
    if m.init.constraints:
        out.append("  constraints: " +
                   ", ".join(print_formula(c) for c in m.init.constraints) + ";")
    if m.init.worlds:
        out.append("  worlds: " +
                   ", ".join("(%s)" % ", ".join(frac_str(v) for v in w)
                             for w in m.init.worlds) + ";")
    out.append("}")
    out.append("")
    pairs = ", ".join("(%s): %s" % (", ".join(frac_str(v) for v in vals),
                                    frac_str(w))
                      for vals, w in m.kb0)
    out.append("belief { %s }" % pairs)
    out.append("")
    out.append("program {")
    out.append("  " + print_program(m.program))
    out.append("}")
    for name, phi in m.properties:
        out.append("")
        out.append(f"property {name} {{ {print_state_formula(phi)} }}")
    out.append("")
    return "\n".join(out)
