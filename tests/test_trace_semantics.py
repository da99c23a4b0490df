"""One path semantics for trace formulas.

The checker's exact probabilities and the simulator's estimates decide X,
U and G on a path with the same rule (``checker.trace_verdict``), and a
simulated trace continues the way a POMDP path does: final and failing
traces repeat their last observation, a broken-down trace stays in the
breakdown sink, and a horizon-cut trace stops.
"""

import json
import math
from fractions import Fraction

import pytest

from beliefprog import (BeliefProgError, estimate, eval_trace_formula,
                        make_world, parse_model, parse_trace_formula)
from beliefprog.checker import trace_verdict
import beliefprog.simulate as simulate
from beliefprog.cli import main
from beliefprog.parser import parse_subjective
from beliefprog.simulate import TraceRecord
from beliefprog.syntax import TRUE, And, POp, PropInterval, UntilOp, XOp
from conftest import COFFEE, ROOT

F = Fraction

# the sensor answers 0 half the time at h = 0, which the agent believes
# impossible: each reading breaks the belief state with probability 1/2
TWO_STEP = """
fluents h;
action sen sensing(1, 0) {
  likelihood: case h = 0: 1/2, 1/2; default: 0, 1;
}
believed {
  action sen { likelihood: case h = 0: 1, 0; default: 0, 1; }
}
init { constraints: h = 0; worlds: (0); }
belief { (0): 1 }
program { sen; sen }
property P1 { P[>= 0](F<=2 !(B(h = 0) = 1)) }
"""


@pytest.fixture
def two_step(tmp_path):
    path = tmp_path / "two_step.bp"
    path.write_text(TWO_STEP)
    return path


def _json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# the breakdown sink: verify and simulate agree

def test_two_step_breakdown_exact_and_estimated(two_step, capsys):
    code, report = _json(capsys, "verify", str(two_step), "--property", "P1")
    assert code == 0
    sub = report["verdict"]["per_type"][0]["subformulas"][0]
    assert (sub["min"], sub["max"]) == ("3/4", "3/4")
    for psi, exact in (("F<=2 !(B(h = 0) = 1)", 0.75),
                       ("G B(h = 0) = 1", 0.25)):
        code, report = _json(capsys, "simulate", str(two_step), "--horizon",
                             "2", "--trials", "2000", "--seed", "1",
                             "--psi", psi)
        assert code == 0
        assert report["outcomes"]["belief-breakdown"] > 0
        lo, hi = report["interval_95"]
        assert lo <= exact <= hi, (psi, report["estimate"])


# ---------------------------------------------------------------------------
# the verdict rule and the completion of a recorded trace

def _record(kbs, outcome):
    return TraceRecord(None, [None] * (len(kbs) - 1), kbs, outcome, F(1))


@pytest.fixture(scope="module")
def sure_and_unsure():
    """A model, the knowledge base B(h = 0) = 1 and one where it fails."""
    from beliefprog.kb import initial_kb
    m = parse_model("fluents h;\nbelief { (0): 1/2, (1): 1/2 }\n"
                    "program { }\ninit { worlds: (0); }")
    unsure = initial_kb(m)
    sure = type(unsure)({w: F(1) for w in unsure.dist if w["h"] == 0},
                        unsure.bat)
    return m, sure, unsure


@pytest.mark.parametrize("text, outcome, expected", [
    # the sink satisfies every negated comparison and no comparison
    ("F<=5 !(B(h = 0) = 1)", "belief-breakdown", True),
    ("G B(h = 0) = 1", "belief-breakdown", False),
    ("F B(h = 0) < 1", "belief-breakdown", False),
    ("X !(B(h = 0) = 1)", "belief-breakdown", True),
    # final and failing traces repeat their last knowledge base
    ("X B(h = 0) = 1", "final", True),
    ("G B(h = 0) = 1", "fail", True),
    ("F<=5 !(B(h = 0) = 1)", "final", False),
    # a cut trace stops: open formulas are false, except G
    ("X !(B(h = 0) = 1)", "horizon-cut", False),
    ("F !(B(h = 0) = 1)", "horizon-cut", False),
    ("G B(h = 0) = 1", "horizon-cut", True),
])
def test_completion_of_a_one_position_trace(sure_and_unsure, text, outcome,
                                            expected):
    m, sure, _ = sure_and_unsure
    psi = parse_trace_formula(text, m)
    assert eval_trace_formula(psi, _record([sure], outcome)) is expected


def test_until_closes_false_at_its_bound(sure_and_unsure):
    m, sure, unsure = sure_and_unsure
    psi = parse_trace_formula("B(h = 0) = 1 U<=2 B(h = 0) < 1", m)
    record = _record([sure, sure, sure, unsure], "final")
    assert not eval_trace_formula(psi, record)
    record = _record([sure, sure, unsure], "final")
    assert eval_trace_formula(psi, record)


def test_trace_verdict_positions(sure_and_unsure):
    m, _, _ = sure_and_unsure
    yes, no = (lambda beta: True), (lambda beta: beta == TRUE)
    x = parse_trace_formula("X B(h = 0) = 1", m)
    assert trace_verdict(x, 0, no) is None
    assert trace_verdict(x, 1, yes) is True
    until = parse_trace_formula("F<=2 B(h = 0) = 1", m)
    assert trace_verdict(until, 0, yes) is True
    assert trace_verdict(until, 1, no) is None
    assert trace_verdict(until, 2, no) is False
    g = parse_trace_formula("G B(h = 0) = 1", m)
    assert trace_verdict(g, 7, yes) is None
    assert trace_verdict(g, 7, no) is False


def test_nested_probability_rejected_once_per_formula(sure_and_unsure):
    m, sure, _ = sure_and_unsure
    # the conjunct with P is never reached on this path, and still rejected
    nested = POp(PropInterval(F(0), F(1)), XOp(TRUE))
    psi = UntilOp(TRUE, And(parse_subjective("B(h = 0) = 0", m), nested), 1)
    with pytest.raises(BeliefProgError,
                       match="nested probability operators cannot be "
                             "estimated on a single trace"):
        eval_trace_formula(psi, _record([sure], "final"))


def test_estimate_rejects_a_nested_probability_before_any_trial(
        sure_and_unsure, monkeypatch):
    m, _, _ = sure_and_unsure
    nested = POp(PropInterval(F(0), F(1)), XOp(TRUE))
    psi = UntilOp(TRUE, And(parse_subjective("B(h = 0) = 0", m), nested), 1)

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran before the formula was checked")

    monkeypatch.setattr(simulate, "_lockstep", no_trial)
    with pytest.raises(BeliefProgError, match="nested probability"):
        estimate(m, psi, make_world(m, [0]), "first-enabled", 10, 0, 2)


def test_estimate_checks_its_formula_once(sure_and_unsure, monkeypatch):
    m, _, _ = sure_and_unsure
    psi = parse_trace_formula("F<=2 B(h = 0) = 1", m)
    seen = []
    check = simulate._reject_nested_p

    def counting(formula):
        seen.append(formula)
        check(formula)

    monkeypatch.setattr(simulate, "_reject_nested_p", counting)
    result = estimate(m, psi, make_world(m, [0]), "first-enabled", 50, 0, 2)
    assert result.trials == 50
    assert sum(formula is psi for formula in seen) == 1


# ---------------------------------------------------------------------------
# the policy-map path of the simulator against the checker

def _consistent(successes, trials, p, sigmas=5):
    """Within `sigmas` standard deviations of trials * p; exact for p in
    {0, 1}."""
    if p in (0, 1):
        return successes == trials * p
    mean = trials * float(p)
    return abs(successes - mean) <= sigmas * math.sqrt(mean * (1 - float(p)))


@pytest.mark.parametrize("model_path", [
    COFFEE, ROOT / "perfbench" / "models" / "coffee_choice.bp", None,
], ids=["coffee", "coffee-choice", "two-step-breakdown"])
def test_witness_policies_simulate_to_exact_values(model_path, two_step,
                                                   capsys):
    path = model_path or two_step
    model = parse_model(path.read_text())
    psi = model.property_named("P1").trace
    _, report = _json(capsys, "verify", str(path), "--property", "P1")
    checked = 0
    for t, tr in zip(report["types"], report["verdict"]["per_type"]):
        world = make_world(model, [F(t["witness"][f.name])
                                   for f in model.fluents])
        sub = tr["subformulas"][0]
        for which in ("min", "max"):
            result = estimate(model, psi, world, sub[f"arg{which}_policy"],
                              2000, 17, report["horizon"])
            exact = F(sub[which])
            assert _consistent(result.successes, result.trials, exact), \
                (t["id"], which, result.successes, exact)
            checked += 1
    assert checked == 2 * len(report["types"])
