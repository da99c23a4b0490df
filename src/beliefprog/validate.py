"""Model-level well-formedness checks beyond what parsing enforces.

Symbolic checks run here; anything that would need an arithmetic solver
(context disjointness and completeness for parameter-dependent tables,
weight sums with parameters) is deferred to evaluation-time assertions in
the progression code.
"""

from fractions import Fraction

from .errors import Diagnostic
from .syntax import frac_str


def _const_weights(row):
    from .parser import _fold_const
    values = [_fold_const(w) for w in row.weights]
    return values if all(v is not None for v in values) else None


def _outcome_value(vec):
    """The outcome's constant value, or its expressions when a parameter
    occurs; equal results always denote the same outcome."""
    from .parser import _fold_const
    values = tuple(_fold_const(v) for v in vec)
    return tuple(vec) if None in values else values


def _check_table(name, kind, table, out, where):
    if not table.outcomes:
        out.append(Diagnostic("no-outcomes",
                              f"{kind} action {name!r} declares no outcomes ({where})"))
    # a ground action names its outcome by value, so a repeated value would
    # make the two outcomes' weights indistinguishable
    seen = []
    for i, vec in enumerate(table.outcomes, 1):
        value = _outcome_value(vec)
        if value in seen:
            out.append(Diagnostic("duplicate-outcome",
                                  f"outcome {i} of {name!r} repeats outcome "
                                  f"{seen.index(value) + 1} ({where})"))
        seen.append(value)
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

    for decl in model.actions:
        for which, bat in (("real", model.real_bat), ("believed", model.believed_bat)):
            table = bat.likelihood_for(decl.name)
            if table is None:
                out.append(Diagnostic("no-outcomes",
                                      f"no likelihood table for {decl.name!r} ({which})"))
                continue
            _check_table(decl.name, decl.kind, table, out, which)

    return out
