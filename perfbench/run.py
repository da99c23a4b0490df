"""beliefprog benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Run from the repository root; the package is imported from ``src/``, so
nothing needs installing.  One workload runs closed-loop in this process
(one client, operations one after another, no threads) and prints
human-readable lines followed, as the last line, by one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``call_s`` (median
time of one call; the lines before the JSON also give it as ``verdict_s``
or ``trials_per_s``), ``setup_s`` and ``peak_rss_mb``.  Both times are wall
times scaled to a reference speed of the host by a fixed loop timed before,
during and after each call and after each set-up (see ``calibrate.py``);
the lines before the JSON also give the unscaled wall times.  With
``--trace 1`` they are the per-layer ones, from spans around each layer's
public functions, plus the tracing overhead.  Every operation's output is
checked against exact references; a mismatch makes the exit code 1.
``--workload all`` runs every workload in a fresh process and prints one
table of verdict_s, trials_per_s, setup_s, peak_rss_mb and error_rate.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py",
                                 description="beliefprog benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args):
    """Every workload in its own process; one table of the end-to-end
    metrics, with call_s read as verdict_s or trials_per_s."""
    import harness  # needs src/ on the path

    columns = (("verdict_s", "s"), ("trials_per_s", "trials/s"), ("setup_s", "s"),
               ("peak_rss_mb", "MiB"), ("error_rate", "share"))
    rows = []
    status = 0
    for name, workload in WORKLOADS.items():
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
            status = 1
            rows.append((name, {}))
            continue
        result = json.loads(lines[-1])
        values = {m: e["value"] for m, e in result["metrics"].items()}
        user = harness.user_metric(workload, values["call_s"])
        values[user[0]] = user[1]
        values["error_rate"] = result["failed"] / result["attempted"]
        rows.append((name, values))
    print(f"{'workload':<14}" + "".join(f"{f'{c} [{u}]':>24}" for c, u in columns))
    for name, values in rows:
        print(f"{name:<14}" + "".join(
            f"{values[c]:>24.6g}" if c in values else f"{'-':>24}" for c, _u in columns))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "beliefprog" / "__init__.py").is_file():
        print(f"error: no beliefprog sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    import harness  # needs src/ on the path

    result, lines = harness.run_workload(WORKLOADS[args.workload], args.seed,
                                         args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
