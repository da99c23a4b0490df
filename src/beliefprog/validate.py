"""Model-level well-formedness checks beyond what parsing enforces.

Symbolic checks run here, and outcome values and likelihood weights are
evaluated at every program primitive's arguments; anything that would need
an arithmetic solver (context disjointness and completeness for
parameter-dependent tables, weight sums with parameters) is deferred to
evaluation-time assertions in the progression code.
"""

from fractions import Fraction

from .errors import Diagnostic, EvalError
from .kb import eval_expr
from .program_graph import program_prims
from .syntax import constant_value, frac_str, print_program


def _const_weights(row):
    values = [constant_value(w) for w in row.weights]
    return values if all(v is not None for v in values) else None


def _outcome_value(vec):
    """The outcome's constant value, or its expressions when a parameter
    occurs; equal results always denote the same outcome."""
    values = tuple(constant_value(v) for v in vec)
    return tuple(vec) if None in values else values


def _repeats(values):
    """(i, j), 1-based, for each value i that repeats an earlier value j."""
    return [(i + 1, values.index(v) + 1) for i, v in enumerate(values)
            if values.index(v) < i]


def _check_table(decl, prims, table, out, where):
    name = decl.name
    if not table.outcomes:
        out.append(Diagnostic("no-outcomes",
                              f"{decl.kind} action {name!r} declares no outcomes ({where})"))
    # a ground action names its outcome by value, so a repeated value would
    # make the two outcomes' weights indistinguishable; values that differ
    # as written may still coincide at a primitive's arguments, as (x) and
    # (2 * x) do at x = 0
    written = _repeats([_outcome_value(vec) for vec in table.outcomes])
    for i, j in written:
        out.append(Diagnostic("duplicate-outcome",
                              f"outcome {i} of {name!r} repeats outcome "
                              f"{j} ({where})"))
    for prim in prims:
        bindings = dict(zip(decl.ctrl, prim.args))
        values = []
        for i, vec in enumerate(table.outcomes, 1):
            try:
                values.append(tuple(eval_expr(v, None, bindings) for v in vec))
            except EvalError as exc:
                out.append(Diagnostic("outcome-eval",
                                      f"outcome {i} of {name!r} cannot be "
                                      f"evaluated at {print_program(prim)}: "
                                      f"{exc} ({where})"))
        for i, row in enumerate(table.rows, 1):
            try:
                for weight in row.weights:
                    eval_expr(weight, None, bindings)
            except EvalError as exc:
                out.append(Diagnostic("weight-eval",
                                      f"row {i} of {name!r} cannot be "
                                      f"evaluated at {print_program(prim)}: "
                                      f"{exc} ({where})"))
        if len(values) < len(table.outcomes):
            continue  # outcomes that have no value cannot be compared
        for i, j in sorted(set(_repeats(values)) - set(written)):
            out.append(Diagnostic("duplicate-outcome",
                                  f"outcome {i} of {name!r} repeats outcome "
                                  f"{j} at {print_program(prim)} ({where})"))
    for row in table.rows:
        values = _const_weights(row)
        if values is None:
            continue  # parameter-dependent; asserted at evaluation time
        total = sum(values, Fraction(0))
        if any(v < 0 for v in values):
            out.append(Diagnostic("weight-sum",
                                  f"negative outcome weight in {name!r} ({where})"))
        elif total != 1:
            out.append(Diagnostic("weight-sum",
                                  f"outcome weights of {name!r} sum to "
                                  f"{frac_str(total)}, not 1 ({where})"))
    explicit = [r.context for r in table.rows if r.context is not None]
    for i, ctx in enumerate(explicit):
        if ctx in explicit[:i]:
            out.append(Diagnostic("context-overlap",
                                  f"duplicate likelihood context in {name!r} ({where})"))


def validate_restrictions(model):
    """Return the list of restriction diagnostics (empty when clean)."""
    out = []

    total = sum((w for _, w in model.kb0), Fraction(0))
    if not model.kb0:
        out.append(Diagnostic("belief-sum", "initial belief distribution is empty"))
    elif total != 1:
        out.append(Diagnostic("belief-sum",
                              f"initial belief weights sum to {frac_str(total)}, not 1"))
    for vals, w in model.kb0:
        if w <= 0:
            out.append(Diagnostic("belief-sum",
                                  f"initial belief weight {frac_str(w)} for "
                                  f"{vals} is not positive"))

    prims = program_prims(model.program)
    for decl in model.actions:
        used = [p for p in prims if p.symbol == decl.name]
        for which, bat in (("real", model.real_bat), ("believed", model.believed_bat)):
            table = bat.likelihood_for(decl.name)
            if table is None:
                out.append(Diagnostic("no-outcomes",
                                      f"no likelihood table for {decl.name!r} ({which})"))
                continue
            _check_table(decl, used, table, out, which)

    return out
