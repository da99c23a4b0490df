"""Byte-for-byte golden outputs of verify, export-pomdp and seeded simulate.

Each case runs cli.main in-process and compares its stdout with a file
under tests/golden/ (`.dot` for export-pomdp --dot, `.json` otherwise);
the timing block of verify and simulate is dropped before the comparison.
The `-F<k>` verify cases raise P1's step bound to k, where most nodes of
the type DAG are shared (coffee at F<=6 keeps 30723 action sequences, the
choice model at F<=5 keeps 22546).  A change that should leave every
verdict, POMDP and seeded estimate as it was must pass this test
unchanged.  To record the
outputs of the current code (only where a change is meant to alter them):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from beliefprog.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
MODELS = {name: str(ROOT / path) for name, path in (
    ("coffee", "models/coffee.bp"),
    ("deep", "perfbench/models/coffee_deep.bp"),
    ("choice", "perfbench/models/coffee_choice.bp"))}
# the benchmark's simulate workloads (sim-coffee, sim-choice)
SIMULATE = {"coffee": ("first-enabled", "F<=2 B(h=2) = 1", 5000),
            "choice": ("uniform-random", "F<=3 B(h = 2) = 1", 2000)}
# verify at a raised step bound of P1: case -> (model, bound)
BOUNDED = {"verify-coffee-F6": ("coffee", 6), "verify-choice-F5": ("choice", 5)}


def _cases():
    cases = {}
    for name, path in MODELS.items():
        cases[f"verify-{name}"] = ["verify", path, "--property", "P1",
                                   "--format", "json"]
        for t in range(3):
            cases[f"export-pomdp-{name}-type{t}"] = [
                "export-pomdp", path, "--property", "P1", "--type", str(t),
                "--json"]
    for name in ("coffee", "choice"):
        cases[f"export-pomdp-dot-{name}-type0"] = [
            "export-pomdp", MODELS[name], "--property", "P1", "--type", "0",
            "--dot"]
    for name, (policy, psi, trials) in SIMULATE.items():
        for seed in range(3):
            cases[f"simulate-{name}-seed{seed}"] = [
                "simulate", MODELS[name], "--world", "h=0", "--policy", policy,
                "--psi", psi, "--trials", str(trials), "--horizon", "10",
                "--seed", str(seed), "--format", "json"]
    for name, (model, _k) in BOUNDED.items():
        cases[name] = ["verify", MODELS[model], "--property", "P1",
                       "--format", "json"]
    return cases


CASES = _cases()


def argv_of(name, directory):
    """The case's argv; a bounded case reads its model, with P1's step
    bound raised, from a copy written to directory."""
    argv = list(CASES[name])
    if name in BOUNDED:
        model, k = BOUNDED[name]
        text = Path(MODELS[model]).read_text(encoding="utf-8")
        path = Path(directory) / f"{name}.bp"
        path.write_text(re.sub(r"(property P1 \{.*)F<=\d+", rf"\g<1>F<={k}",
                               text), encoding="utf-8")
        argv[1] = str(path)
    return argv


def golden_file(name):
    return GOLDEN / (name + (".dot" if "--dot" in CASES[name] else ".json"))


def output(argv):
    """stdout of one call, with the timing block of verify and simulate
    dropped."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    text = buf.getvalue()
    if argv[0] in ("verify", "simulate"):
        report = json.loads(text)
        del report["timing"]
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return text


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    expected = golden_file(name).read_text(encoding="utf-8")
    assert output(argv_of(name, tmp_path)) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        for name in sorted(CASES):
            golden_file(name).write_text(output(argv_of(name, directory)),
                                         encoding="utf-8")
