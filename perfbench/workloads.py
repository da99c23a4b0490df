"""The benchmark's workloads, their exact references, and the correctness gate.

Model paths are relative to the repository root.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

COFFEE = "models/coffee.bp"
DEEP = "perfbench/models/coffee_deep.bp"
CHOICE = "perfbench/models/coffee_choice.bp"

F = Fraction


@dataclass(frozen=True)
class VerifyOp:
    """``beliefprog verify <model> --property <prop> --format json``.

    per_type lists, in report order, each type's witness value of h and the
    exact [min, max] of its single P subformula.
    """
    model: str
    prop: str
    holds: bool
    per_type: tuple  # ((h, min, max), ...)
    pruned: int = None  # checked when given

    def argv(self, seed):
        return ["verify", self.model, "--property", self.prop, "--format", "json"]


@dataclass(frozen=True)
class SimulateOp:
    """``beliefprog simulate ... --format json`` with the benchmark's seed.

    contains: an exact probability the reported 95% interval must contain.
    """
    model: str
    world: str
    policy: str
    psi: str
    trials: int
    horizon: int = 10
    contains: Fraction = None

    def argv(self, seed):
        return ["simulate", self.model, "--world", self.world,
                "--policy", self.policy, "--psi", self.psi,
                "--trials", str(self.trials), "--horizon", str(self.horizon),
                "--seed", str(seed), "--format", "json"]


@dataclass(frozen=True)
class Workload:
    """The operation run closed-loop, and a companion operation of the other
    kind on the same model that traced runs also call, so that every layer
    is measured on every workload.  Why each workload was chosen is
    recorded in BENCHMARK.json."""
    name: str
    op: object  # VerifyOp or SimulateOp
    companion: object


def kind(op):
    return "verify" if isinstance(op, VerifyOp) else "simulate"


COFFEE_P1 = VerifyOp(COFFEE, "P1", False,
                     (("0", F(1, 20), F(1, 20)), ("-1", F(0), F(0)), ("-2", F(0), F(0))),
                     pruned=5)
CHOICE_P1 = VerifyOp(CHOICE, "P1", False,
                     (("0", F(0), F(1, 4)), ("-1", F(0), F(1, 40)), ("-2", F(0), F(0))))
CHOICE_SIM = SimulateOp(CHOICE, "h=0", "uniform-random", "F<=3 B(h = 2) = 1", 2000)

WORKLOADS = {w.name: w for w in [
    Workload("verify-deep",
             VerifyOp(DEEP, "P1", False,
                      (("0", F(111, 400), F(111, 400)), ("-1", F(1, 40), F(1, 40)),
                       ("-2", F(0), F(0))), pruned=341),
             SimulateOp(DEEP, "h=0", "first-enabled", "F<=5 B(h = 2) = 1", 2000)),
    Workload("verify-choice", CHOICE_P1, CHOICE_SIM),
    Workload("sim-coffee",
             SimulateOp(COFFEE, "h=0", "first-enabled", "F<=2 B(h=2) = 1", 5000,
                        contains=F(1, 20)),
             COFFEE_P1),
    Workload("sim-choice", CHOICE_SIM, CHOICE_P1),
]}


# ---------------------------------------------------------------------------
# correctness gate: each function returns a list of mismatch descriptions

def check_verify(op, rc, report):
    errors = []
    expected_rc = 0 if op.holds else 1
    if rc != expected_rc:
        errors.append(f"exit code {rc}, expected {expected_rc}")
    if report["verdict"]["holds"] != op.holds:
        errors.append(f"verdict holds={report['verdict']['holds']}, expected {op.holds}")
    if op.pruned is not None and report["pruned_sequences"] != op.pruned:
        errors.append(f"pruned {report['pruned_sequences']}, expected {op.pruned}")
    types = report["types"]
    per_type = report["verdict"]["per_type"]
    if len(types) != len(op.per_type) or len(per_type) != len(op.per_type):
        errors.append(f"{len(types)} types, expected {len(op.per_type)}")
        return errors
    for t, tr, (h, lo, hi) in zip(types, per_type, op.per_type):
        if t["witness"] != {"h": h}:
            errors.append(f"type {t['id']} witness {t['witness']}, expected h={h}")
        sub = tr["subformulas"][0]
        got = (F(sub["min"]), F(sub["max"]))
        if got != (lo, hi):
            errors.append(f"type {tr['type']} [min, max] = [{got[0]}, {got[1]}], "
                          f"expected [{lo}, {hi}]")
    return errors


def check_simulate(op, rc, report, reference=None):
    """reference: the report of an earlier call with the same seed."""
    errors = []
    if rc != 0:
        errors.append(f"exit code {rc}, expected 0")
    if report["trials"] != op.trials:
        errors.append(f"{report['trials']} trials, expected {op.trials}")
    if sum(report["outcomes"].values()) != report["trials"]:
        errors.append(f"outcome counts {report['outcomes']} do not sum to "
                      f"{report['trials']} trials")
    if reference is not None and (report["successes"], report["outcomes"]) != \
            (reference["successes"], reference["outcomes"]):
        errors.append("repeating the seed changed the result: "
                      f"{report['successes']} {report['outcomes']} vs "
                      f"{reference['successes']} {reference['outcomes']}")
    if op.contains is not None:
        lo, hi = report["interval_95"]
        if not F(lo) <= op.contains <= F(hi):
            errors.append(f"95% interval [{lo}, {hi}] misses {op.contains}")
    return errors


def binomial_consistent(successes, trials, p, sigmas=5):
    """Whether a success count is within `sigmas` standard deviations of
    trials*p; for p = 0 or 1 the count must be exact."""
    if p in (0, 1):
        return successes == trials * p
    mean = trials * float(p)
    return abs(successes - mean) <= sigmas * math.sqrt(mean * (1 - float(p)))
