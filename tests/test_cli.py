import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import beliefprog
from beliefprog import abstraction as abstraction_mod
from beliefprog import pomdp as pomdp_mod
from beliefprog.cli import main
from beliefprog.parser import MAX_DEPTH, parse_model
from beliefprog.syntax import depth
from conftest import COFFEE, ROOT

MODEL = str(COFFEE)
CHOICE = ROOT / "perfbench" / "models" / "coffee_choice.bp"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_progress_prints_each_distribution(capsys):
    code, out, _ = run(capsys, "progress", MODEL, "east(1,1)", "sencfe(1)")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "initial: {(0): 1/2, (1): 1/2}",
        "after east(1, 1): {(0): 1/4, (1): 1/2, (2): 1/4}",
        "after sencfe(1): {(2): 1}",
    ]


def test_progress_sensing_zero(capsys):
    code, out, _ = run(capsys, "progress", MODEL, "east(1,1)", "sencfe(0)")
    assert code == 0
    assert out.strip().splitlines()[-1] == "after sencfe(0): {(0): 1/3, (1): 2/3}"


def test_progress_incompatible_sensing_is_an_error(capsys):
    code, _, err = run(capsys, "progress", MODEL, "sencfe(1)")
    assert code == 2
    assert "believed impossible" in err


@pytest.mark.parametrize("term, declared", [
    ("east(1,5)", "east declares east(1, 1), east(1, 0)"),
    ("sencfe(7)", "sencfe declares sencfe(1), sencfe(0)")],
    ids=["stochastic", "sensing"])
def test_progress_rejects_an_undeclared_outcome(capsys, term, declared):
    code, out, err = run(capsys, "progress", MODEL, term)
    assert code == 2
    assert "after" not in out
    assert "[undeclared-outcome]" in err and declared in err
    assert "believed impossible" not in err


def test_verify_p1_violated_exit_1(capsys):
    code, out, _ = run(capsys, "verify", MODEL, "--property", "P1",
                       "--reps-range", "h=-2..0")
    assert code == 1
    assert "VIOLATED" in out
    assert "[1/20, 1/20]" in out
    assert "types: 3, distinct POMDPs: 2" in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", MODEL, "--property", "P1",
                       "--reps-range", "h=-2..0", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"]["holds"] is False
    maxima = {t["type"]: t["subformulas"][0]["max"]
              for t in report["verdict"]["per_type"]}
    assert sorted(maxima.values()) == ["0", "0", "1/20"]
    assert report["distinct_pomdps"] == 2
    # lossless round-trip
    assert json.loads(json.dumps(report)) == report


def test_verify_inadmissible_p2_exit_2(capsys):
    code, _, err = run(capsys, "verify", MODEL, "--property", "P2")
    assert code == 2
    assert "inadmissible" in err


def test_verify_unknown_property(capsys):
    code, _, err = run(capsys, "verify", MODEL, "--property", "nope")
    assert code == 2


def test_verify_reps_from_init_section(capsys):
    code, out, _ = run(capsys, "verify", MODEL, "--property", "P1")
    assert code == 1
    assert "init section" in out


def test_verify_reps_auto(capsys):
    code, out, _ = run(capsys, "verify", MODEL, "--property", "P1", "--reps-auto")
    assert code == 1
    assert "types: 3" in out


def test_verify_reps_file(tmp_path, capsys):
    reps = tmp_path / "worlds.txt"
    reps.write_text("0\n-1\n-2\n")
    code, out, _ = run(capsys, "verify", MODEL, "--property", "P1",
                       "--reps", str(reps))
    assert code == 1
    assert "types: 3" in out


def test_simulate_inadmissible_property_estimates(capsys):
    code, out, _ = run(capsys, "simulate", MODEL, "--world", "h=0",
                       "--property", "P2", "--trials", "500",
                       "--horizon", "6", "--seed", "3")
    assert code == 0
    assert "lower-bound" in out


def test_simulate_psi_text_report(capsys):
    code, out, _ = run(capsys, "simulate", MODEL, "--world", "h=0",
                       "--psi", "F<=2 B(h=2) = 1", "--trials", "2000",
                       "--horizon", "6", "--seed", "42")
    assert code == 0
    assert "Pr(F<=2 B(h = 2) = 1)" in out


def test_simulate_json(capsys):
    code, out, _ = run(capsys, "simulate", MODEL, "--world", "h=-1",
                       "--psi", "F<=2 B(h=2) = 1", "--trials", "300",
                       "--horizon", "4", "--seed", "1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["estimate"] == 0.0
    assert report["bounded"] is True


def test_export_graph_dot(capsys):
    code, out, _ = run(capsys, "export-graph", MODEL)
    assert code == 0
    assert out.startswith("digraph")
    assert "sencfe" in out


def test_export_pomdp_json(capsys, tmp_path):
    out_file = tmp_path / "pomdp.json"
    code, _, _ = run(capsys, "export-pomdp", MODEL, "--property", "P1",
                     "--reps-range", "h=-2..0", "--type", "0",
                     "-o", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["k"] == 2
    assert any(t[3] == "1/10" for t in data["transitions"])


def test_export_pomdp_dot(capsys):
    code, out, _ = run(capsys, "export-pomdp", MODEL, "--property", "P1",
                       "--reps-range", "h=-2..0", "--dot")
    assert code == 0
    assert out.startswith("digraph")


def test_encode_pa_roundtrip(tmp_path, capsys):
    automaton = tmp_path / "pa.json"
    automaton.write_text(json.dumps({
        "states": 2,
        "letters": ["a"],
        "matrices": {"a": [["1/2", "1/2"], ["0", "1"]]},
        "initial": 0,
        "accepting": [1],
        "threshold": "3/4",
    }))
    out_file = tmp_path / "model.bp"
    code, _, _ = run(capsys, "encode-pa", str(automaton), "-o", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "progress", str(out_file), "rho_a(2)")
    assert code == 0
    assert out.strip().splitlines()[-1] == "after rho_a(2): {(1): 1/2, (2): 1/2}"


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.bp"
    bad.write_text("fluents Final;\nbelief { (0): 1 }\nprogram { }")
    code, _, err = run(capsys, "verify", str(bad), "--property", "P1")
    assert code == 2
    assert "reserved" in err


def test_restriction_violation_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.bp"
    bad.write_text("""
        fluents h;
        belief { (0): 1/2, (1): 1/3 }
        program { }
    """)
    code, _, err = run(capsys, "verify", str(bad), "--property", "P1")
    assert code == 2
    assert "belief-sum" in err


def test_duplicate_outcome_value_exit_2(tmp_path, coffee_text, capsys):
    bad = tmp_path / "dup.bp"
    bad.write_text(coffee_text.replace("action sencfe sensing(1, 0)",
                                       "action sencfe sensing(0, 0)"))
    code, _, err = run(capsys, "verify", str(bad), "--property", "P1")
    assert code == 2
    assert "duplicate-outcome" in err
    assert "Traceback" not in err


def test_sequence_budget_exit_2(tmp_path, coffee_text, capsys):
    # P1 at F<=30 from h = -10..0 needs 10660 action DAG nodes, over
    # NODE_BUDGET (from the init worlds it needs 1780)
    deep = tmp_path / "deep.bp"
    deep.write_text(coffee_text.replace("F<=2 B(h = 2)", "F<=30 B(h = 2)"))
    code, _, err = run(capsys, "verify", str(deep), "--property", "P1",
                       "--reps-range", "h=-10..0")
    assert code == 2
    assert err.strip() == (
        "error: type abstraction up to horizon 30 needs more than 10000 "
        "action DAG nodes, the budget; lower the property's step bound")


def test_slot_budget_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(abstraction_mod, "SLOT_BUDGET", 41)
    code, _, err = run(capsys, "verify", str(COFFEE), "--property", "P1")
    assert code == 2
    assert err.strip() == (
        "error: type abstraction up to horizon 2 needs more than 41 "
        "representative states summed over the levels of its action DAG "
        "nodes, the budget; lower the property's step bound or use fewer "
        "representatives")


def test_state_budget_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(pomdp_mod, "STATE_BUDGET", 5)
    code, _, err = run(capsys, "verify", str(COFFEE), "--property", "P1")
    assert code == 2
    assert err.strip() == ("error: a type's POMDP up to horizon 2 has more "
                           "than 5 states, the budget; lower the property's "
                           "step bound")


def test_table_budget_is_exact_at_its_bound(capsys, monkeypatch):
    # the configurations of 100 uniform-random trials of 20 steps on the
    # choice model hold 9699 belief worlds in all; verifying coffee P1, 27
    sim = ("simulate", str(CHOICE), "--world", "h=0", "--policy",
           "uniform-random", "--trials", "100", "--seed", "1", "--horizon",
           "20", "--psi", "F<=3 B(h = 2) = 1")
    verify = ("verify", MODEL, "--property", "P1")
    for argv, bound, code in ((sim, 9699, 0), (verify, 27, 1)):
        monkeypatch.setattr(pomdp_mod, "TABLE_BUDGET", bound)
        assert run(capsys, *argv)[0] == code
        monkeypatch.setattr(pomdp_mod, "TABLE_BUDGET", bound - 1)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.strip() == (
            f"error: the configurations reached hold more than {bound - 1} "
            "belief worlds in all, the budget; lower --horizon or the "
            "property's step bound")


def test_verify_timing_names_every_stage(capsys):
    code, out, _ = run(capsys, "verify", MODEL, "--property", "P1",
                       "--format", "json")
    assert code == 1
    assert set(json.loads(out)["timing"]) == {
        "parse", "types", "pomdps", "fingerprints", "check"}


P1 = "P[>= 1/20](F<=2 B(h = 2) = 1)"


def _with_program(text, program):
    return re.sub(r"program \{.*?\n\}", f"program {{ {program} }}", text,
                  flags=re.S)


# unless the nesting bound rejects it first, each of these exhausts the
# interpreter's stack in one stage: the parser, seq(), the resolver,
# print_state_formula, or hashing during the abstraction; the RecursionError
# would exit 1, which reads as "violated"
@pytest.mark.parametrize("deepen", [
    lambda text: text.replace(P1, "!" * 1200 + P1),
    lambda text: text.replace(P1, "!" * 700 + P1),
    lambda text: text.replace(P1, "(" * 300 + P1 + ")" * 300),
    lambda text: text.replace("h + y;", "h + " * 1200 + "y;"),
    lambda text: _with_program(text, "sencfe; " * 1200 + "east(1)"),
    lambda text: _with_program(text, "sencfe; " * 700 + "east(1)"),
    lambda text: _with_program(text, " | ".join(["sencfe"] * 700)),
], ids=["not1200", "not700", "parens300", "ssa1200", "seq1200", "seq700",
        "choice700"])
def test_deep_nesting_exit_2(tmp_path, coffee_text, capsys, deepen):
    deep = tmp_path / "deep.bp"
    deep.write_text(deepen(coffee_text))
    code, _, err = run(capsys, "verify", str(deep), "--property", "P1")
    assert code == 2
    assert err == f"error: [nesting] the input nests deeper than {MAX_DEPTH} levels\n"


def test_deep_trace_formula_exit_2(capsys):
    code, _, err = run(capsys, "simulate", MODEL, "--world", "h=0",
                       "--psi", "F<=2 " + "!" * 3000 + "B(h = 2) = 1")
    assert code == 2
    assert err == f"error: [nesting] the input nests deeper than {MAX_DEPTH} levels\n"


def test_nesting_bound_is_exact_at_its_bound(tmp_path, coffee_text, capsys):
    # a chain of k steps is a program k nodes deep, under the ModelFile
    at_bound = _with_program(coffee_text, "sencfe; " * (MAX_DEPTH - 2) + "east(1)")
    assert depth(parse_model(at_bound)) == MAX_DEPTH
    model = tmp_path / "at_bound.bp"
    model.write_text(at_bound)
    code, out, err = run(capsys, "verify", str(model), "--property", "P1")
    assert code == 1 and "verdict: VIOLATED" in out
    model.write_text(at_bound.replace("sencfe; ", "sencfe; sencfe; ", 1))
    code, _, err = run(capsys, "verify", str(model), "--property", "P1")
    assert code == 2 and "[nesting]" in err


# believed weights of a(1/2) sum to 1/2: an error in the believed theory,
# not a belief breakdown
HALF_BELIEVED = """
fluents h;
action a stochastic(x; y) { outcomes: (0), (1); likelihood: case true: 1, 0; }
believed { action a { likelihood: case true: x, 0; } }
ssa h { case a(x, y): h + y; default: h; }
belief { (0): 1 }
init { worlds: (0); }
program { a(1/2) }
property P1 { P[>= 0](F<=1 B(h = 0) = 1) }
"""

# outcomes (x) and (2 * x) coincide at the program's argument 0
EQUAL_AT_ZERO = """
fluents h;
action a stochastic(x; y) { outcomes: (x), (2 * x); likelihood: case true: 1/2, 1/2; }
ssa h { case a(x, y): h + y; default: h; }
belief { (0): 1 }
init { worlds: (0); }
program { a(0) }
property P1 { P[>= 0](F<=1 B(h = 0) = 1) }
"""


# row 1's weights divide by the program's argument 0
WEIGHT_DIVIDES_BY_ZERO = """
fluents h;
action a stochastic(x; y) { outcomes: (0), (1); likelihood: case true: 1 / x, 1 - 1 / x; }
ssa h { case a(x, y): h + y; default: h; }
belief { (0): 1 }
init { worlds: (0); }
program { a(0) }
property P1 { P[>= 0](F<=1 B(h = 0) = 1) }
"""

# the believed table's default row divides by the argument; the real one
# does not
BELIEVED_WEIGHT_DIVIDES_BY_ZERO = """
fluents h;
action a stochastic(x; y) { outcomes: (0), (1); likelihood: case true: 1/2, 1/2; }
believed { action a { likelihood: case h = 5: 1, 0; default: x / x, 0; } }
ssa h { case a(x, y): h + y; default: h; }
belief { (0): 1 }
init { worlds: (0); }
program { a(0) }
property P1 { P[>= 0](F<=1 B(h = 0) = 1) }
"""


@pytest.mark.parametrize("text, message", [
    (HALF_BELIEVED, "outcome weights of 'a' sum to 1/2"),
    (EQUAL_AT_ZERO, "[duplicate-outcome]"),
    (WEIGHT_DIVIDES_BY_ZERO, "[weight-eval] row 1 of 'a' cannot be evaluated "
                             "at a(0): division by zero (real)"),
    (BELIEVED_WEIGHT_DIVIDES_BY_ZERO, "[weight-eval] row 2 of 'a' cannot be "
                                      "evaluated at a(0): division by zero "
                                      "(believed)"),
], ids=["half-believed", "equal-at-zero", "weight-eval-real",
        "weight-eval-believed"])
@pytest.mark.parametrize("command", [
    ("verify", "--property", "P1"),
    ("simulate", "--psi", "F<=1 B(h = 0) = 1", "--trials", "20"),
], ids=["verify", "simulate"])
def test_verify_and_simulate_agree_on_model_errors(tmp_path, capsys, text,
                                                    message, command):
    path = tmp_path / "m.bp"
    path.write_text(text)
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert message in err
    assert "belief-breakdown" not in out + err


# outcome 1 divides by the program's argument 0
DIVIDES_BY_ZERO = """
fluents h;
action a stochastic(x; y) { outcomes: (1 / x), (2); likelihood: case true: 1/2, 1/2; }
ssa h { case a(x, y): h + y; default: h; }
belief { (0): 1 }
init { worlds: (0); }
program { a(0) }
property P1 { P[>= 0](F<=1 B(h = 0) = 1) }
"""


@pytest.mark.parametrize("command", [
    ("verify", "--property", "P1"),
    ("simulate", "--psi", "F<=1 B(h = 0) = 1", "--trials", "20"),
], ids=["verify", "simulate"])
def test_unevaluable_outcome_names_action_outcome_and_prim(tmp_path, capsys,
                                                           command):
    path = tmp_path / "m.bp"
    path.write_text(DIVIDES_BY_ZERO)
    code, _, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert ("[outcome-eval] outcome 1 of 'a' cannot be evaluated at a(0): "
            "division by zero (real)") in err
    assert "Traceback" not in err


BELIEF_DIVIDES_BY_ZERO = "F<=2 1 / (B(h = 2) - B(h = 2)) > 0"


@pytest.mark.parametrize("command", [
    ("verify", "--property", "D"),
    ("simulate", "--psi", BELIEF_DIVIDES_BY_ZERO),
], ids=["verify", "simulate"])
def test_belief_term_division_by_zero_exit_2(tmp_path, capsys, command):
    path = tmp_path / "m.bp"
    path.write_text(COFFEE.read_text() +
                    f"property D {{ P[>= 0]({BELIEF_DIVIDES_BY_ZERO}) }}\n")
    code, _, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert err == "error: division by zero in a belief expression\n"


# ---------------------------------------------------------------------------
# malformed command-line values end as errors (exit 2) naming the value

@pytest.mark.parametrize("argv, message", [
    (("--world", "h=abc"), "--world value of 'h': 'abc' is not a number"),
    (("--world", "h"), "--world entry 'h' is not fluent=value"),
    (("--world", "h=0,h=-2"), "--world gives fluent 'h' more than once"),
    (("--trials", "0"), "trials must be at least 1, got 0"),
    (("--trials", "-3"), "trials must be at least 1, got -3"),
    (("--horizon", "-2"), "horizon must be at least 0, got -2"),
], ids=["world-not-a-number", "world-without-value", "world-repeated-fluent",
        "trials-zero", "trials-negative", "horizon-negative"])
def test_simulate_rejects_bad_values(capsys, argv, message):
    code, _, err = run(capsys, "simulate", MODEL, "--psi", "F<=2 B(h=2) = 1",
                       "--trials", "10", *argv)
    assert code == 2
    assert err.strip() == f"error: {message}"


def test_simulate_accepts_horizon_zero(capsys):
    code, out, _ = run(capsys, "simulate", MODEL, "--psi", "F<=2 B(h=2) = 1",
                       "--trials", "10", "--horizon", "0")
    assert code == 0
    assert "0/10 traces, horizon 0" in out


@pytest.mark.parametrize("ranges, message", [
    (["zz=-2..0"], "representative range for unknown fluent 'zz'"),
    (["h=-2..0", "h=0..0"], "--reps-range gives fluent 'h' more than once"),
], ids=["unknown-fluent", "repeated-fluent"])
def test_verify_rejects_reps_range_naming_no_single_fluent(capsys, ranges,
                                                           message):
    argv = [arg for spec in ranges for arg in ("--reps-range", spec)]
    code, _, err = run(capsys, "verify", MODEL, "--property", "P1", *argv)
    assert code == 2
    assert err.strip() == f"error: {message}"


@pytest.mark.parametrize("command", ["verify", "export-pomdp"])
@pytest.mark.parametrize("flags", [
    ["--reps-range", "h=-10..0", "--reps-auto"],
    ["--reps", "reps.txt", "--reps-range", "h=-2..0"],
    ["--reps-auto", "--reps", "reps.txt"],
], ids=["range-auto", "file-range", "auto-file"])
def test_representative_flags_exclude_each_other(capsys, command, flags):
    # each flag picks the whole representative set; two of them is a
    # usage error, not one silently ignored
    with pytest.raises(SystemExit) as exc:
        main([command, MODEL, "--property", "P1", *flags])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_verify_rejected_representatives_make_one_short_line(capsys):
    # 3000 of the box's worlds violate h <= 0; listing them all made a
    # 95 KB line
    code, _, err = run(capsys, "verify", MODEL, "--property", "P1",
                       "--reps-range", "h=-2..3000")
    assert code == 2
    assert err == (
        "error: 3000 representative world(s) violate the initial "
        "constraints: World(Fail=0, Final=0, h=1), World(Fail=0, Final=0, "
        "h=2), World(Fail=0, Final=0, h=3), ...\n")


def test_verify_rejects_non_integer_reps_range(capsys):
    code, _, err = run(capsys, "verify", MODEL, "--property", "P1",
                       "--reps-range", "h=a..0")
    assert code == 2
    assert err.strip() == ("error: --reps-range 'h=a..0': the bounds must be "
                           "integers")


def test_verify_rejects_non_numeric_reps_file_line(tmp_path, capsys):
    reps = tmp_path / "worlds.txt"
    reps.write_text("(0)\n(x)\n")
    code, _, err = run(capsys, "verify", MODEL, "--property", "P1",
                       "--reps", str(reps))
    assert code == 2
    assert err.strip() == f"error: {reps} line 2: 'x' is not a number"


IMPORT_SETS = """
import importlib
import sys
at_start = set(sys.modules)


def loaded():
    return {m.split(".", 1)[1] for m in sys.modules if m.startswith("beliefprog.")}


import beliefprog
assert not loaded(), ("import beliefprog", loaded())
assert "numpy" not in sys.modules, "import beliefprog"
listed = set(dir(beliefprog))

from beliefprog.parser import parse_model
from beliefprog.program_graph import build_graph
from beliefprog.validate import validate_restrictions
with open("models/coffee.bp", encoding="utf-8") as fh:
    model = parse_model(fh.read())
assert not validate_restrictions(model)
build_graph(model.program)
assert loaded() == {"errors", "syntax", "parser", "kb", "program_graph",
                    "validate"}, ("set-up", loaded())
for name in ("dataclasses", "logging", "json", "numpy"):
    assert name in at_start or name not in sys.modules, ("set-up", name)

import beliefprog.checker
assert "abstraction" not in loaded(), ("checker", loaded())

from beliefprog import cli
assert cli.main(["verify", "models/coffee.bp", "--property", "P1"]) == 1
assert "numpy" not in sys.modules, "verify"
from beliefprog import estimate, run_trace
from beliefprog import simulate
assert (estimate, run_trace) == (simulate.estimate, simulate.run_trace)

for module, names in beliefprog._EXPORTS.items():
    owner = importlib.import_module("beliefprog." + module)
    for name in names:
        assert getattr(beliefprog, name) is getattr(owner, name), name
        assert name in listed, ("dir", name)
assert not hasattr(beliefprog, "no_such_name")
"""


def test_each_path_imports_only_what_it_uses():
    """In a fresh interpreter: `import beliefprog` loads no submodule, the
    set-up path (parse, validate, graph) loads six modules and neither
    dataclasses, logging, json nor numpy, the checker loads no abstraction,
    verify loads no numpy, and every name the package exports loads from
    its module."""
    # a fresh interpreter on the package these tests import
    src = str(Path(beliefprog.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_SETS],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "verdict: VIOLATED" in proc.stdout


# ---------------------------------------------------------------------------
# malformed input files end as errors (exit 2), never as a traceback

AUTOMATON = {"states": 2, "letters": ["a"],
             "matrices": {"a": [["1/2", "1/2"], ["0", "1"]]},
             "accepting": [1], "threshold": "3/4"}


@pytest.mark.parametrize("text, message", [
    ('{"states": 2,', "automaton is not valid JSON"),
    (json.dumps({k: v for k, v in AUTOMATON.items() if k != "matrices"}),
     "automaton has no entry 'matrices'"),
    (json.dumps({**AUTOMATON, "threshold": "x"}),
     "automaton has a malformed value"),
], ids=["invalid-json", "missing-key", "bad-fraction"])
def test_encode_pa_rejects_malformed_automaton(tmp_path, capsys, text, message):
    automaton = tmp_path / "pa.json"
    automaton.write_text(text)
    code, _, err = run(capsys, "encode-pa", str(automaton))
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1


def test_non_utf8_model_exit_2(tmp_path, capsys):
    bad = tmp_path / "latin1.bp"
    bad.write_bytes(COFFEE.read_bytes() + "// café\n".encode("latin-1"))
    code, _, err = run(capsys, "verify", str(bad), "--property", "P1")
    assert code == 2
    assert err.strip().startswith(f"error: {bad}: not UTF-8 text")


def test_non_utf8_reps_file_exit_2(tmp_path, capsys):
    reps = tmp_path / "worlds.txt"
    reps.write_bytes(b"(0)\n(-1) // \xff\n")
    code, _, err = run(capsys, "verify", MODEL, "--property", "P1",
                       "--reps", str(reps))
    assert code == 2
    assert err.strip().startswith(f"error: {reps}: not UTF-8 text")


# a million worlds from three short ranges
THREE_FLUENTS = """
fluents a, b, c;
belief { (0, 0, 0): 1 }
program { }
property P1 { P[>= 0](F<=1 B(a = 0) = 1) }
"""


def test_reps_range_box_over_budget_exit_2(tmp_path, capsys, monkeypatch):
    def no_world(*args):
        raise AssertionError("a world of the box was built")
    monkeypatch.setattr(abstraction_mod, "make_world", no_world)
    path = tmp_path / "m.bp"
    path.write_text(THREE_FLUENTS)
    code, _, err = run(capsys, "verify", str(path), "--property", "P1",
                       "--reps-range", "a=0..99", "--reps-range", "b=0..99",
                       "--reps-range", "c=0..99")
    assert code == 2
    assert err.strip() == ("error: representative ranges make a box of "
                           "1000000 worlds, over the budget of "
                           f"{abstraction_mod.REPRESENTATIVE_BUDGET}")
