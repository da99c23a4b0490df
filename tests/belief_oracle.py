"""The Fraction tree walker for subjective terms and formulas.

kb decides a comparison of a B, Expect or Conf term with a constant at a
knowledge base in integers over its masses, and builds any other subjective
value from the same integer sums.  This walker is what kb did before: every
B, Expect and Conf value is summed in Fractions over kb.dist with no memo,
each B formula evaluated afresh at each support world, and every comparison
is one of two Fractions.  At a World it is kb's objective walker.
"""

from fractions import Fraction
from operator import eq, ge, gt, le, lt, ne

from beliefprog import kb as kb_mod
from beliefprog.errors import EvalError
from beliefprog.kb import BREAKDOWN, KnowledgeBase
from beliefprog.syntax import (And, Bel, BinOp, BoolConst, Cmp, Conf, Expect,
                               Neg, Not, Num, Or, arith)

_CMP = {"=": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


def reference_value(e, at) -> Fraction:
    """The value of term e at a World or knowledge base, as a Fraction."""
    if at.__class__ is not KnowledgeBase:
        return Fraction(kb_mod._value(e, at, {}))
    cls, dist = e.__class__, at.dist
    if cls is Num:
        return Fraction(e.value)
    if cls is Bel:
        return sum((p for w, p in dist.items()
                    if kb_mod._truth(e.formula, w, {})), Fraction(0))
    if cls in (Expect, Conf):
        mean = sum((w[e.fluent] * p for w, p in dist.items()), Fraction(0))
        if cls is Expect:
            return mean
        # the closed interval [E - r, E + r]
        return sum((p for w, p in dist.items()
                    if abs(w[e.fluent] - mean) <= e.radius), Fraction(0))
    if cls is BinOp:
        value = arith(e.op, reference_value(e.left, at),
                      reference_value(e.right, at))
        if value is None:
            raise EvalError("division by zero in a belief expression")
        return Fraction(value)
    if cls is Neg:
        return -reference_value(e.operand, at)
    raise TypeError(f"not a belief expression: {e!r}")


def reference_truth(phi, at, value=reference_value) -> bool:
    """The truth of formula phi at a World, knowledge base or BREAKDOWN,
    where every comparison at BREAKDOWN is false; value(e, at) gives the
    value of a compared term."""
    cls = phi.__class__
    if cls is Cmp:
        return at is not BREAKDOWN and _CMP[phi.op](
            value(phi.left, at), value(phi.right, at))
    if cls is Not:
        return not reference_truth(phi.operand, at, value)
    if cls is And:
        return reference_truth(phi.left, at, value) and \
            reference_truth(phi.right, at, value)
    if cls is Or:
        return reference_truth(phi.left, at, value) or \
            reference_truth(phi.right, at, value)
    if cls is BoolConst:
        return phi.value
    raise TypeError(f"not a subjective formula: {phi!r}")


def outcome(call, *args):
    """call(*args), or the class and message of the exception it raised."""
    try:
        return call(*args)
    except Exception as exc:  # compared, not hidden
        return type(exc), str(exc)
