"""In-memory spans around the public functions of beliefprog's layers.

A layer is a module of ``src/beliefprog``.  Spans are recorded by replacing,
for the duration of a traced run, the module attribute through which a
caller reaches another layer (``beliefprog.cli.compute_types``,
``beliefprog.abstraction.progress_kb``, ...) with a wrapper; ``installed``
puts every original back on exit.  No file of the package is changed.

Each span keeps (name, start, end, parent, operation id) in flat arrays.
Self time is a span's duration minus the time its direct child spans cover;
calls run on one thread, so children are disjoint and nested in the parent.
A layer's ``self_s`` is the self time of its entry span (``cli.main``,
``compute_types``, ``check``, ``estimate``).
"""

import contextlib
import functools
import gzip
import statistics
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import beliefprog.abstraction as abstraction
import beliefprog.checker as checker
import beliefprog.cli as cli
import beliefprog.kb as kb
import beliefprog.pomdp as pomdp
import beliefprog.program_graph as program_graph
import beliefprog.simulate as simulate

KB_FUNCTIONS = ("progress_kb", "progress_world", "action_likelihood",
                "eval_fluent_formula", "eval_subjective")
# calls bound in simulate that TraceEngine makes only when its caches miss
ENGINE_MISS_FUNCTIONS = ("enabled", "progress_kb", "progress_world",
                         "action_likelihood", "obs_satisfies")
ENGINE_METHODS = ("enabled_at", "progress", "world_after", "real_outcomes",
                  "satisfies")


class Tracer:
    """Spans and per-operation facts of one traced run."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names = []
        self._name_id = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.op_id = -1
        self.counts = defaultdict(Counter)  # op id -> name -> summed count
        self.sets = defaultdict(lambda: defaultdict(set))  # op id -> name -> set

    def intern(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        """Start a span named by ``intern``; returns its index."""
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i):
        self.end[i] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id, root="cli.main"):
        """Attribute every span opened inside to one operation, under a
        root span."""
        self.op_id = op_id
        i = self.open(self.intern(root))
        try:
            yield
        finally:
            self.close(i)
            self.op_id = -1

    def count(self, name, n=1):
        self.counts[self.op_id][name] += n

    def collect(self, name, items):
        self.sets[self.op_id][name].update(items)

    def span_tables(self):
        """Per operation id, per span name: calls, total and self seconds."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child_time[self.parent[i]] += self.end[i] - self.start[i]
        tables = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for i in range(n):
            row = tables[self.op[i]][self.names[self.name[i]]]
            duration = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child_time[i]
        return tables

    def write(self, path):
        """All spans as gzipped TSV: op, span, parent, name, start_s, end_s."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]}\t{i}\t{self.parent[i]}\t"
                         f"{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\n")


def _span(tracer, name, fn, on_return=None, also_count=None):
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if also_count is not None:
            tracer.count(also_count)
        if on_return is not None:
            on_return(tracer, result)
        return result
    return traced


def _counter(tracer, name, fn, on_return=None):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.count(name)
        if on_return is not None:
            on_return(tracer, result)
        return result
    return counted


def _on_types(tracer, result):
    tracer.count("abstraction.sequences", len(result.sequences))
    tracer.count("abstraction.pruned", result.pruned)
    tracer.count("abstraction.types", len(result.types))


def _on_graph(tracer, graph):
    tracer.count("program_graph.nodes", len(graph.nodes))
    tracer.count("program_graph.edges", sum(len(out) for out in graph.edges))


def _on_pomdp(tracer, p):
    tracer.count("pomdp.states", len(p.states))
    tracer.count("pomdp.observations", len(p.observations))
    tracer.collect("pomdp.sequences", (z for z, _node in p.states if z is not None))


def _on_fingerprint(tracer, data):
    tracer.collect("pomdp.fingerprints", (data,))


def _on_check(tracer, verdict):
    tracer.count("checker.policies", sum(tr.policies for tr in verdict.per_type))


def _on_estimate(tracer, result):
    tracer.count("simulate.trials", result.trials)


def _on_trace(tracer, record):
    tracer.count("simulate.steps", len(record.actions))


def _plan(tracer):
    """(owner, attribute, wrapper factory) for every traced binding."""
    plan = [
        (cli, "parse_model", lambda f: _span(tracer, "parser.parse_model", f)),
        (cli, "validate_restrictions",
         lambda f: _span(tracer, "validate.validate_restrictions", f)),
        (cli, "compute_types",
         lambda f: _span(tracer, "abstraction.compute_types", f, _on_types)),
        (cli, "build_pomdp", lambda f: _span(tracer, "pomdp.build_pomdp", f, _on_pomdp)),
        (cli, "pomdp_fingerprint",
         lambda f: _span(tracer, "pomdp.pomdp_fingerprint", f, _on_fingerprint)),
        (cli, "check", lambda f: _span(tracer, "checker.check", f, _on_check)),
        (checker, "probability", lambda f: _span(tracer, "checker.probability", f)),
        (cli, "estimate", lambda f: _span(tracer, "simulate.estimate", f, _on_estimate)),
        (simulate, "trial_rng", lambda f: _span(tracer, "simulate.trial_rng", f)),
        (simulate, "eval_trace_formula",
         lambda f: _span(tracer, "simulate.eval_trace_formula", f)),
        (simulate, "run_trace", lambda f: _counter(tracer, "simulate.run_trace", f, _on_trace)),
        (simulate, "obs_satisfies",
         lambda f: _counter(tracer, "simulate.engine_misses", f)),
    ]
    for owner in (cli, simulate):
        plan.append((owner, "build_graph",
                     lambda f: _span(tracer, "program_graph.build_graph", f, _on_graph)))
    for owner in (pomdp, simulate):
        miss = "simulate.engine_misses" if owner is simulate else None
        plan.append((owner, "enabled",
                     lambda f, miss=miss: _span(tracer, "program_graph.enabled", f,
                                                also_count=miss)))
    for owner in (abstraction, checker, cli, pomdp, program_graph, simulate):
        for fname in KB_FUNCTIONS:
            if getattr(owner, fname, None) is not getattr(kb, fname):
                continue
            miss = ("simulate.engine_misses"
                    if owner is simulate and fname in ENGINE_MISS_FUNCTIONS else None)
            plan.append((owner, fname,
                         lambda f, n=f"kb.{fname}", miss=miss:
                         _span(tracer, n, f, also_count=miss)))
    for method in ENGINE_METHODS:
        plan.append((simulate.TraceEngine, method,
                     lambda f: _counter(tracer, "simulate.engine_lookups", f)))
    return plan


@contextlib.contextmanager
def installed(tracer):
    """Wrap the layer bindings for the duration of the block."""
    saved = []
    try:
        for owner, attr, make in _plan(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

# (name, unit, source): source is the operation kind whose traced calls
# give the value -- "verify", "simulate", or "primary" for the kind the
# workload is measured on
LAYER_METRICS = [
    ("abstraction.compute_types_s", "s", "verify"),
    ("abstraction.self_s", "s", "verify"),
    ("abstraction.sequences", "count", "verify"),
    ("abstraction.pruned", "count", "verify"),
    ("abstraction.types", "count", "verify"),
    ("abstraction.sequence_use_ratio", "ratio", "verify"),
    ("kb.progress_kb_calls", "count", "primary"),
    ("kb.progress_kb_s", "s", "primary"),
    ("kb.progress_world_calls", "count", "primary"),
    ("kb.action_likelihood_calls", "count", "primary"),
    ("kb.eval_fluent_formula_calls", "count", "primary"),
    ("kb.eval_subjective_calls", "count", "primary"),
    ("kb.eval_subjective_s", "s", "primary"),
    ("checker.check_s", "s", "verify"),
    ("checker.self_s", "s", "verify"),
    ("checker.policies", "count", "verify"),
    ("checker.probability_calls", "count", "verify"),
    ("checker.probability_s", "s", "verify"),
    ("pomdp.build_pomdp_s", "s", "verify"),
    ("pomdp.fingerprint_s", "s", "verify"),
    ("pomdp.states", "count", "verify"),
    ("pomdp.observations", "count", "verify"),
    ("pomdp.distinct", "count", "verify"),
    ("program_graph.build_graph_s", "s", "primary"),
    ("program_graph.nodes", "count", "primary"),
    ("program_graph.edges", "count", "primary"),
    ("program_graph.enabled_calls", "count", "primary"),
    ("program_graph.enabled_s", "s", "primary"),
    ("simulate.estimate_s", "s", "simulate"),
    ("simulate.self_s", "s", "simulate"),
    ("simulate.trials", "count", "simulate"),
    ("simulate.steps", "count", "simulate"),
    ("simulate.trial_rng_s", "s", "simulate"),
    ("simulate.eval_trace_formula_s", "s", "simulate"),
    ("simulate.engine_lookups", "count", "simulate"),
    ("simulate.engine_hit_ratio", "ratio", "simulate"),
    ("parser.parse_model_s", "s", "primary"),
    ("validate.validate_restrictions_s", "s", "primary"),
    ("cli.self_s", "s", "primary"),
]


def op_layer_values(tracer, op_id, table):
    """Every per-layer value of one operation, by metric name; table is the
    operation's entry of ``Tracer.span_tables``."""
    counts = tracer.counts[op_id]
    sets = tracer.sets[op_id]

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    sequences = counts["abstraction.sequences"]
    lookups = counts["simulate.engine_lookups"]
    return {
        "abstraction.compute_types_s": total("abstraction.compute_types"),
        "abstraction.self_s": self_time("abstraction.compute_types"),
        "abstraction.sequences": sequences,
        "abstraction.pruned": counts["abstraction.pruned"],
        "abstraction.types": counts["abstraction.types"],
        "abstraction.sequence_use_ratio":
            len(sets["pomdp.sequences"]) / sequences if sequences else 0.0,
        "kb.progress_kb_calls": calls("kb.progress_kb"),
        "kb.progress_kb_s": total("kb.progress_kb"),
        "kb.progress_world_calls": calls("kb.progress_world"),
        "kb.action_likelihood_calls": calls("kb.action_likelihood"),
        "kb.eval_fluent_formula_calls": calls("kb.eval_fluent_formula"),
        "kb.eval_subjective_calls": calls("kb.eval_subjective"),
        "kb.eval_subjective_s": total("kb.eval_subjective"),
        "checker.check_s": total("checker.check"),
        "checker.self_s": self_time("checker.check"),
        "checker.policies": counts["checker.policies"],
        "checker.probability_calls": calls("checker.probability"),
        "checker.probability_s": total("checker.probability"),
        "pomdp.build_pomdp_s": total("pomdp.build_pomdp"),
        "pomdp.fingerprint_s": total("pomdp.pomdp_fingerprint"),
        "pomdp.states": counts["pomdp.states"],
        "pomdp.observations": counts["pomdp.observations"],
        "pomdp.distinct": len(sets["pomdp.fingerprints"]),
        "program_graph.build_graph_s": total("program_graph.build_graph"),
        "program_graph.nodes": counts["program_graph.nodes"],
        "program_graph.edges": counts["program_graph.edges"],
        "program_graph.enabled_calls": calls("program_graph.enabled"),
        "program_graph.enabled_s": total("program_graph.enabled"),
        "simulate.estimate_s": total("simulate.estimate"),
        "simulate.self_s": self_time("simulate.estimate"),
        "simulate.trials": counts["simulate.trials"],
        "simulate.steps": counts["simulate.steps"],
        "simulate.trial_rng_s": total("simulate.trial_rng"),
        "simulate.eval_trace_formula_s": total("simulate.eval_trace_formula"),
        "simulate.engine_lookups": lookups,
        "simulate.engine_hit_ratio":
            1 - counts["simulate.engine_misses"] / lookups if lookups else 0.0,
        "parser.parse_model_s": total("parser.parse_model"),
        "validate.validate_restrictions_s": total("validate.validate_restrictions"),
        "cli.self_s": self_time("cli.main"),
    }


def layer_metrics(tracer, ops_by_kind, primary):
    """Median of each per-layer value over the traced operations of the
    kind its layer runs in; ops_by_kind maps a kind to operation ids."""
    tables = tracer.span_tables()
    per_op = {op: op_layer_values(tracer, op, tables[op])
              for ops in ops_by_kind.values() for op in ops}
    out = {}
    for name, unit, source in LAYER_METRICS:
        ops = ops_by_kind[primary if source == "primary" else source]
        out[name] = (statistics.median(per_op[op][name] for op in ops), unit)
    return out
