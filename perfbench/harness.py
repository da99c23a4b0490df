"""Closed-loop measurement of one workload.

One client in one process runs the workload's operation again and again
through ``beliefprog.cli.main`` in-process, each call starting after the
previous one ended; no threads.
"""

import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import monotonic, perf_counter

import numpy

import beliefprog
from beliefprog import cli, make_world, parse_model
from beliefprog.simulate import estimate

import spans
from calibrate import REFERENCE_S, SAMPLE_PERIOD_S, at_reference_speed, run_sampled
from workloads import binomial_consistent, check_simulate, check_verify, kind

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

SETUP_RUNS = 5
CROSSCHECK_TRIALS = 1000
# shares of a traced run's time: untraced calls measure the tracing overhead,
# traced companion calls measure the layers the workload's operation skips
TRACED_RUN_SHARES = {"untraced": 0.4, "traced": 0.45, "companion": 0.15}

SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import beliefprog
from beliefprog.parser import parse_model
from beliefprog.program_graph import build_graph
from beliefprog.validate import validate_restrictions
with open(sys.argv[2], encoding="utf-8") as fh:
    model = parse_model(fh.read())
if validate_restrictions(model):
    sys.exit("model violates the theory restrictions")
build_graph(model.program)
import time
end = time.monotonic()
sys.path.insert(0, sys.argv[3])
from calibrate import sample
print(end, *(sample() for _ in range(8)))
"""


def environment(workload, seed):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"workload": workload.name, "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "beliefprog": beliefprog.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def _main(argv):
    try:
        return cli.main(argv)
    except Exception:  # an escaped exception is a failed operation
        traceback.print_exc()
        return None


def run_cli(argv, sampled=False):
    """One operation: exit code, stdout, stderr, wall seconds, and with
    `sampled` the result of ``calibrate.run_sampled`` (else None)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # start every call from the same heap, outside the timing
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if sampled:
            rc, seconds, *speed = run_sampled(lambda: _main(argv))
        else:
            start = perf_counter()
            rc = _main(argv)
            seconds = perf_counter() - start
            speed = None
    return rc, out.getvalue(), err.getvalue(), seconds, speed


def measure_setup(model, runs=SETUP_RUNS):
    """Wall seconds of fresh interpreters that import beliefprog, load and
    validate the model and build its program graph; returns the measured
    times and the same at the reference speed, from reference loops the
    interpreter runs after its timed part, on the same processor."""
    times, scaled = [], []
    for _ in range(runs):
        start = monotonic()  # the system-wide clock, read again in the child
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(ROOT / model),
             str(ROOT / "perfbench")],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        end, *samples = map(float, proc.stdout.split())
        times.append(end - start)
        scaled.append(at_reference_speed(times[-1], samples))
    return times, scaled


class Run:
    """One benchmark run: call times, first reports, failures.  With
    `sampled`, the host's speed is sampled around every untraced call."""

    def __init__(self, seed, tracer=None, sampled=False):
        self.seed = seed
        self.tracer = tracer
        self.sampled = sampled
        self.seconds = {}  # (op, traced) -> call wall times
        self.scaled = {}  # op -> untraced call times at the reference speed
        self.samples = []  # reference loop times
        self.traced_ops = {"verify": [], "simulate": []}  # kind -> op ids
        self.first_report = {}  # op -> report
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, what, errors):
        self.failed += 1
        self.failures.extend(f"{what}: {e}" for e in errors)

    def call(self, op, traced=False):
        op_id = self.attempted
        self.attempted += 1
        if traced:
            with spans.installed(self.tracer), self.tracer.operation(op_id):
                rc, out, err, seconds, _ = run_cli(op.argv(self.seed))
            self.traced_ops[kind(op)].append(op_id)
        else:
            rc, out, err, seconds, speed = run_cli(op.argv(self.seed), self.sampled)
            if speed:
                self.scaled.setdefault(op, []).append(speed[0])
                self.samples.extend(speed[1])
        self.seconds.setdefault((op, traced), []).append(seconds)
        try:
            report = json.loads(out)
        except ValueError:
            self.fail(f"call {op_id}", [f"no JSON report (exit {rc}): "
                                        f"{err.strip()[-500:]}"])
            return seconds
        if kind(op) == "verify":
            errors = check_verify(op, rc, report)
        else:
            errors = check_simulate(op, rc, report, self.first_report.get(op))
        self.first_report.setdefault(op, report)
        if errors:
            self.fail(f"call {op_id}", errors)
        return seconds

    def measure(self, seconds, entries):
        """entries: (op, traced, share).  Calls each entry once, then the
        entry furthest below its share of the time, until the next call
        would be expected to end more than half a call past `seconds`."""
        spent = [self.call(op, traced) for op, traced, _share in entries]
        start = perf_counter() - sum(spent)
        while True:
            j = min(range(len(entries)), key=lambda j: spent[j] / entries[j][2])
            op, traced, _share = entries[j]
            if perf_counter() - start + statistics.median(self.seconds[op, traced]) / 2 \
                    > seconds:
                break
            spent[j] += self.call(op, traced)

    def crosscheck(self, trials=CROSSCHECK_TRIALS):
        """Simulate every type's argmin and argmax policy from the first
        verify report at its witness world and compare the estimate with
        the checker's exact value.  Returns one line per check."""
        op, report = next(((op, r) for op, r in self.first_report.items()
                           if kind(op) == "verify"), (None, None))
        if report is None:
            return []
        model = parse_model((ROOT / op.model).read_text(encoding="utf-8"))
        psi = model.property_named(op.prop).trace
        lines, done = [], set()
        for t, tr in zip(report["types"], report["verdict"]["per_type"]):
            sub = tr["subformulas"][0]
            for which in ("min", "max"):
                policy = sub[f"arg{which}_policy"]
                key = (json.dumps(t["witness"], sort_keys=True),
                       json.dumps(policy, sort_keys=True))
                if key in done:
                    continue
                done.add(key)
                exact = Fraction(sub[which])
                world = make_world(model, [Fraction(t["witness"][f.name])
                                           for f in model.fluents])
                self.attempted += 1
                what = f"type {t['id']} ({t['witness']}) arg{which} policy"
                try:
                    result = estimate(model, psi, world, policy, trials, self.seed,
                                      report["horizon"])
                except Exception as exc:  # an escaped exception is a failed check
                    self.fail("crosscheck", [f"{what}: {exc!r}"])
                    continue
                ok = binomial_consistent(result.successes, trials, exact)
                line = (f"{what}: {result.successes}/{trials} simulated vs exact "
                        f"{exact} -> {'ok' if ok else 'MISMATCH'}")
                lines.append(line)
                if not ok:
                    self.fail("crosscheck", [line])
        return lines


def run_workload(workload, seed, seconds, trace, setup_runs=SETUP_RUNS):
    """Measure one workload; returns (result line dict, human lines)."""
    lines = [f"perfbench {workload.name} seed={seed} seconds={seconds} trace={int(trace)}",
             "environment " + json.dumps(environment(workload, seed), sort_keys=True)]
    op = workload.op
    run = Run(seed, spans.Tracer() if trace else None, sampled=not trace)
    if trace:
        shares = TRACED_RUN_SHARES
        run.measure(seconds, [(op, False, shares["untraced"]), (op, True, shares["traced"]),
                              (workload.companion, True, shares["companion"])])
    else:
        setup_wall, setup = measure_setup(op.model, setup_runs)
        run.measure(seconds, [(op, False, 1.0)])
    lines.extend("crosscheck " + line for line in run.crosscheck())

    untraced = run.seconds[op, False]
    if trace:
        metrics = spans.layer_metrics(run.tracer, run.traced_ops, kind(op))
        traced = run.seconds[op, True]
        metrics["trace.overhead_call_s"] = (
            statistics.median(traced) - statistics.median(untraced), "s")
        lines.append(_summary("traced call_s", traced, "s", "traced calls"))
        lines.append(_summary("untraced call_s", untraced, "s", "untraced calls"))
        lines.extend(_stress_lines(metrics, statistics.median(traced), kind(op)))
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"spans-{workload.name}-seed{seed}.tsv.gz"
        run.tracer.write(path)
        lines.append(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "call_s": (statistics.median(run.scaled[op]), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MiB"),
        }
        lines.append(_summary("call_s", run.scaled[op], "s",
                              f"{kind(op)} calls at the reference speed"))
        name, value, unit = user_metric(workload, metrics["call_s"][0])
        lines.append(f"{name} = {value:.6g} {unit}  (from call_s)")
        lines.append(_summary("setup_s", setup, "s",
                              "fresh interpreters at the reference speed"))
        lines.append(_summary("wall call_s", untraced, "s", f"{kind(op)} calls"))
        lines.append(_summary("wall setup_s", setup_wall, "s", "fresh interpreters"))
        lines.append(_summary("speed sample", run.samples, "s",
                              f"reference loops, every {SAMPLE_PERIOD_S} s in a call; "
                              f"{REFERENCE_S} s at the reference speed"))
        lines.append(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MiB")
    lines.append(f"error_rate = {run.failed / run.attempted:.4g} share "
                 f"({run.failed} failed of {run.attempted} operations)")
    lines.extend("FAIL " + f for f in run.failures)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, lines


def user_metric(workload, call_s):
    """The median call time as users of the operation read it: verdict_s
    for verify, trials_per_s (trials over the median call time) for
    simulate."""
    if kind(workload.op) == "verify":
        return "verdict_s", call_s, "s"
    return "trials_per_s", workload.op.trials / call_s, "trials/s"


def _summary(name, values, unit, what):
    """Median, sample count, range, and the highest percentile that has at
    least ten samples beyond it."""
    n = len(values)
    text = (f"{name} = {statistics.median(values):.6g} {unit}  (median of {n} "
            f"{what}; min {min(values):.6g}, max {max(values):.6g}")
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        tail = statistics.quantiles(values, n=100)[pct - 1]
        text += f"; p{pct} {tail:.6g}"
    return text + ")"


def _stress_lines(metrics, call_s, op_kind):
    """Share of the traced call time spent in each layer's entry span."""
    entry = {"verify": ("abstraction.compute_types_s", "checker.check_s",
                        "pomdp.build_pomdp_s", "pomdp.fingerprint_s"),
             "simulate": ("simulate.estimate_s",)}[op_kind] + \
        ("parser.parse_model_s", "validate.validate_restrictions_s")
    shares = {name: metrics[name][0] / call_s for name in entry}
    largest = max(shares, key=shares.get)
    return [f"stress {name} = {share:.3f} of the traced call time"
            for name, share in shares.items()] + [f"stress largest span: {largest}"]
