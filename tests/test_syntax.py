"""The AST node base: construction, immutability, equality, repr and the
walk over a node's children."""

from fractions import Fraction

import pytest

from beliefprog.errors import Diagnostic
from beliefprog.kb import GroundAction
from beliefprog.syntax import (FALSE, TRUE, And, Cmp, FluentRef, ModelFile,
                               Nil, Not, Num, Or, Piecewise, Prim, PropInterval,
                               SsaCase, UntilOp, arith, depth, walk)

F = Fraction


def test_equality_and_hash_ignore_loose_fields():
    a, b = FluentRef("h", (1, 2)), FluentRef("h", (7, 9))
    assert a == b and hash(a) == hash(b)
    assert FluentRef("h") != FluentRef("g")
    assert Prim("east", (F(1),), (1, 1)) == Prim("east", (F(1),))
    assert Prim("east", (F(1),)) != Prim("east", (F(2),))
    assert ModelFile((), (), None, None, None, (), Nil(), (), source="x") == \
        ModelFile((), (), None, None, None, (), Nil(), (), source="y")


def test_nodes_of_different_classes_are_never_equal():
    a, b = FluentRef("h"), Num(F(2))
    assert And(a, b) != Or(a, b)
    assert not And(a, b) == Or(a, b)
    assert Nil() == Nil() and hash(Nil()) == hash(Nil())
    assert Num(F(1)) != F(1) and TRUE != True  # noqa: E712
    assert Cmp("=", a, b) == Cmp("=", FluentRef("h", (3, 4)), Num(F(2)))
    assert hash(Cmp("=", a, b)) == hash(Cmp("=", FluentRef("h", (3, 4)), Num(F(2))))
    assert len({And(a, b), And(a, b), Or(a, b)}) == 2


def test_fields_are_frozen():
    node = FluentRef("h", (1, 2))
    with pytest.raises(AttributeError):
        node.name = "g"
    with pytest.raises(AttributeError):
        node.other = 1
    with pytest.raises(AttributeError):
        del node.pos
    assert node.name == "h" and node.pos == (1, 2)


def test_ground_actions_are_frozen():
    action = GroundAction("east", (F(1),), ())
    key = hash(action)
    for name in ("symbol", "ctrl", "unctrl", "other"):
        with pytest.raises(AttributeError):
            setattr(action, name, None)
    with pytest.raises(AttributeError):
        del action.ctrl
    assert action == GroundAction("east", (F(1),), ()) and hash(action) == key


def test_keyword_construction_and_defaults():
    assert UntilOp(TRUE, FALSE).bound is None
    assert UntilOp(right=FALSE, left=TRUE, bound=3) == UntilOp(TRUE, FALSE, 3)
    iv = PropInterval(F(0), hi=F(1, 2))
    assert (iv.lo_open, iv.hi_open) == (False, False)
    assert PropInterval(F(0), F(1), hi_open=True).hi_open
    assert FluentRef(name="h").pos is None
    assert list(vars(Cmp("<", FluentRef("h"), Num(F(0))))) == ["op", "left", "right"]


@pytest.mark.parametrize("make, message", [
    (lambda: Cmp("=", FluentRef("h")), "missing field 'right'"),
    (lambda: UntilOp(left=TRUE), "missing field 'right'"),
    (lambda: Num(F(1), F(2)), "takes 1 fields but 2 were given"),
    (lambda: Num(F(1), value=F(2)), "repeated field 'value'"),
    (lambda: FluentRef("h", place=(1, 1)), "unexpected or repeated field 'place'"),
])
def test_bad_construction_raises_type_error(make, message):
    with pytest.raises(TypeError, match=message):
        make()


def test_reprs_match_the_dataclass_reprs():
    assert repr(FluentRef("h", (3, 7))) == "FluentRef(name='h', pos=(3, 7))"
    assert repr(Cmp("<=", FluentRef("h"), Num(F(-1, 2)))) == (
        "Cmp(op='<=', left=FluentRef(name='h', pos=None), "
        "right=Num(value=Fraction(-1, 2)))")
    assert repr(PropInterval(F(0), F(1, 2))) == (
        "PropInterval(lo=Fraction(0, 1), hi=Fraction(1, 2), lo_open=False, "
        "hi_open=False)")
    assert repr(Nil()) == "Nil()"
    assert repr(Diagnostic("syntax", "unexpected character", 2, 5)) == (
        "Diagnostic(code='syntax', message='unexpected character', line=2, col=5)")
    assert repr(Diagnostic("belief-sum", "empty")) == (
        "Diagnostic(code='belief-sum', message='empty', line=None, col=None)")
    assert repr(GroundAction("east", (F(1),), (F(-1),))) == (
        "GroundAction(symbol='east', ctrl=(Fraction(1, 1),), "
        "unctrl=(Fraction(-1, 1),))")


def test_diagnostics_compare_by_value():
    assert Diagnostic("arity", "x", 1, 2) == Diagnostic("arity", "x", 1, 2)
    assert Diagnostic("arity", "x", 1, 2) != Diagnostic("arity", "x", 1, 3)


def test_walk_is_pre_order_and_enters_tuple_fields():
    h, one, two = FluentRef("h"), Num(F(1)), Num(F(2))
    guard = Cmp("=", h, one)
    pw = Piecewise(((guard, two), (TRUE, one)), h)
    top = And(Not(guard), Cmp("<", pw, two))
    assert list(walk(top)) == [top, Not(guard), guard, h, one,
                                Cmp("<", pw, two), pw, guard, h, one, two,
                                TRUE, one, h, two]
    assert list(walk(Prim("east", (F(1),)))) == [Prim("east", (F(1),))]
    assert depth(top) == 5 and depth(h) == 1


def test_walk_and_depth_of_a_deep_chain_do_not_recurse():
    node = TRUE
    for _ in range(10_000):
        node = Not(node)
    assert sum(1 for _ in walk(node)) == 10_001
    assert depth(node) == 10_001


def test_map_returns_the_node_itself_when_nothing_changed():
    pw = Piecewise(((Cmp("=", FluentRef("h"), Num(F(1))), Num(F(2))),), Num(F(0)))
    prim = Prim("east", (F(1),))
    for node in (pw, prim, Nil(), UntilOp(TRUE, pw, 2)):
        assert node.map(lambda child: child) is node


def test_map_rebuilds_changed_children_and_keeps_loose_fields():
    case = SsaCase("east", ("x", "y"), FluentRef("h", (4, 20)), pos=(4, 8))
    one = Num(F(1))
    mapped = case.map(lambda child: one)
    assert mapped == SsaCase("east", ("x", "y"), one)
    assert mapped.pos == (4, 8)
    pw = Piecewise(((TRUE, FluentRef("h")),), Num(F(0)))
    assert pw.map(lambda child: one) == Piecewise(((one, one),), one)


def test_arith_is_exact_and_gives_whole_results_as_ints():
    # an int over an int is a Fraction, never a float
    half = arith("/", 1, 2)
    assert half == F(1, 2) and type(half) is Fraction
    two = arith("/", 4, 2)
    assert two == 2 and type(two) is int
    assert arith("/", 1, 0) is None
    assert arith("/", F(1, 2), 0) is None
    # a whole result of Fractions is an int; any other stays a Fraction
    for op, a, b, want in (("+", F(1, 2), F(1, 2), 1), ("-", F(3, 2), F(1, 2), 1),
                           ("*", F(2, 3), 3, 2), ("/", F(1, 2), F(1, 4), 2),
                           ("+", 1, 2, 3), ("*", -2, 3, -6)):
        got = arith(op, a, b)
        assert got == want and type(got) is int, (op, a, b)
    for op, a, b, want in (("+", 1, F(1, 2), F(3, 2)), ("*", F(1, 3), 2, F(2, 3)),
                           ("/", 2, 4, F(1, 2)), ("-", 0, F(1, 2), F(-1, 2))):
        got = arith(op, a, b)
        assert got == want and type(got) is Fraction, (op, a, b)
