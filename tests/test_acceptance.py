"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go.
All equalities on probabilities and distributions are exact rational
comparisons; the only tolerances are the ones stated (Monte Carlo bands and
wall-clock limits).
"""

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from beliefprog import (ConfigTable, InadmissiblePropertyError, build_graph,
                        build_pomdp, check, compute_types, estimate,
                        horizon_of, initial_kb, make_world,
                        parse_ground_action, parse_trace_formula,
                        pomdp_fingerprint, progress_kb)
from conftest import random_pa
from pa_oracle import soundness_check

F = Fraction


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\ncriterion {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} {name}: {detail}"


def _dist(kb):
    return {w["h"]: p for w, p in kb.dist.items()}


@pytest.fixture(scope="module")
def verification(coffee):
    graph = build_graph(coffee.program)
    phi = coffee.property_named("P1")
    reps = [make_world(coffee, [v]) for v in (0, -1, -2)]
    t0 = time.perf_counter()
    abstraction = compute_types(coffee, horizon_of(phi), reps, phi)
    table = ConfigTable(graph, abstraction.rbat, abstraction.kb0)
    pomdps = [build_pomdp(table, abstraction, witness, type_id=i)
              for i, witness in enumerate(abstraction.types)]
    fingerprints = [pomdp_fingerprint(p, abstraction) for p in pomdps]
    elapsed = time.perf_counter() - t0
    verdict = check(pomdps, phi)
    return abstraction, pomdps, fingerprints, verdict, elapsed


def test_criterion_1_progression_goldens(coffee):
    t0 = time.perf_counter()
    kb1 = progress_kb(initial_kb(coffee), parse_ground_action("east(1,1)", coffee))
    kb2 = progress_kb(kb1, parse_ground_action("sencfe(1)", coffee))
    elapsed = time.perf_counter() - t0
    ok = (_dist(kb1) == {0: F(1, 4), 1: F(1, 2), 2: F(1, 4)}
          and _dist(kb2) == {2: F(1)}
          and elapsed < 1.0)
    _report(1, "progression goldens", ok,
            f"f'={kb1.render()}, f''={kb2.render()}, {elapsed * 1000:.0f} ms")


def test_criterion_2_sensing_zero_golden(coffee):
    kb1 = progress_kb(initial_kb(coffee), parse_ground_action("east(1,1)", coffee))
    kb3 = progress_kb(kb1, parse_ground_action("sencfe(0)", coffee))
    ok = _dist(kb3) == {0: F(1, 3), 1: F(2, 3)}
    _report(2, "sensing-0 golden", ok, f"f'''={kb3.render()}")


def test_criterion_3_type_abstraction(verification):
    abstraction, _pomdps, fingerprints, _verdict, elapsed = verification
    distinct = len(set(fingerprints))
    ok = len(abstraction.types) == 3 and distinct == 2 and elapsed < 5.0
    _report(3, "type abstraction", ok,
            f"{len(abstraction.types)} types, {distinct} distinct POMDPs, "
            f"{elapsed:.2f} s")


def test_criterion_4_verification_verdict(verification):
    abstraction, _pomdps, _fps, verdict, _elapsed = verification
    maxima = {abstraction.types[tr.type_id]["h"]:
              (tr.subformulas[0].minimum, tr.subformulas[0].maximum)
              for tr in verdict.per_type}
    ok = (not verdict.holds
          and maxima[0] == (F(1, 20), F(1, 20))
          and maxima[-1] == (F(0), F(0))
          and maxima[-2] == (F(0), F(0)))
    _report(4, "verification verdict", ok,
            "violated, maxima " + ", ".join(
                f"h={h}: {mx}" for h, (_mn, mx) in sorted(maxima.items())))


def test_criterion_5_pa_reduction_soundness():
    t0 = time.perf_counter()
    reports = []
    for seed in range(4):
        pa = random_pa(seed, max_states=4, max_letters=2)
        reports.append(soundness_check(pa, max_len=6))
    elapsed = time.perf_counter() - t0
    ok = all(r.all_equal for r in reports) and elapsed < 30.0
    words = sum(r.words_checked for r in reports)
    _report(5, "PA-reduction soundness", ok,
            f"{len(reports)} automata, {words} words, exact equality, "
            f"{elapsed:.2f} s")


def test_criterion_6_checker_simulator_agreement(coffee):
    psi = parse_trace_formula("F<=2 B(h=2) = 1", coffee)
    res = estimate(coffee, psi, make_world(coffee, [0]), "first-enabled",
                   100_000, 42, 10)
    lo, hi = res.interval
    ok = abs(res.estimate - 0.05) <= 0.01 and lo <= 0.05 <= hi
    details = [f"h=0: {res.estimate:.5f} in [{lo:.5f}, {hi:.5f}]"]
    for h0 in (-1, -2):
        r = estimate(coffee, psi, make_world(coffee, [h0]), "first-enabled",
                     100_000, 42, 10)
        ok = ok and r.estimate == 0.0
        details.append(f"h={h0}: {r.estimate}")
    _report(6, "checker-simulator agreement", ok, "; ".join(details))


def test_criterion_7_property_suites():
    import test_properties
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x",
         str(Path(__file__).parent / "test_properties.py")],
        capture_output=True, text=True,
        cwd=str(Path(__file__).parent.parent))
    ok = proc.returncode == 0 and test_properties.N_CASES >= 200
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout else "no output"
    _report(7, "property suites", ok,
            f"{test_properties.N_CASES} cases per property; {tail}")


def test_criterion_8_inadmissibility_behavior(coffee):
    p2 = coffee.property_named("P2")
    rejected = False
    message = ""
    try:
        horizon_of(p2)
    except InadmissiblePropertyError as exc:
        rejected = True
        message = str(exc)
    res = estimate(coffee, p2.trace, make_world(coffee, [0]), "first-enabled",
                   2_000, 7, 8)
    ok = rejected and "unbounded" in message and not res.bounded \
        and 0.0 <= res.estimate <= 1.0
    _report(8, "inadmissibility behavior", ok,
            f"checker: {message!r}; simulate lower bound {res.estimate:.4f}")
