"""Command-line entry point.

Subcommands wire the pipeline together: parse -> validate -> graph ->
types -> POMDPs -> check / simulate / export.  Exit codes for verify:
0 the property holds, 1 it is violated, 2 error or inadmissible input.

main pauses Python's cyclic garbage collector for the whole command and
turns it back on, if it was on, however the command ends.  A command's
worlds, knowledge bases and configuration tables live until it returns,
and they are reference cycles (see kb), so each collection during the
command would rescan them all and free almost nothing; the one collection
after it frees them.  Library calls (compute_types, check, estimate)
leave the caller's collector settings alone.
"""

import argparse
import gc
import hashlib
import json
import logging
import sys
import time
from fractions import Fraction

from . import __version__
from .abstraction import (compute_types, reps_auto, reps_from_init,
                          reps_from_ranges)
from .checker import DEFAULT_POLICY_CAP, check, horizon_of
from .errors import BeliefProgError, InadmissiblePropertyError, ParseError
from .kb import initial_kb, make_world, progress_kb
from .parser import (model_digest, parse_ground_action, parse_model,
                     parse_trace_formula)
from .pomdp import (ConfigTable, build_pomdp, pomdp_fingerprint,
                    to_dot as pomdp_dot, to_json as pomdp_json)
from .program_graph import build_graph, to_dot as graph_dot
from .syntax import POp, frac_str, print_state_formula, print_trace_formula
from .validate import validate_restrictions

log = logging.getLogger("beliefprog")


def _read_text(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise BeliefProgError(f"{path}: not UTF-8 text ({exc.reason} at "
                                  f"byte {exc.start})") from None


def _load_model(path):
    model = parse_model(_read_text(path))
    problems = validate_restrictions(model)
    if problems:
        raise BeliefProgError(
            "model violates the theory restrictions:\n  "
            + "\n  ".join(str(d) for d in problems))
    return model


def _world_dict(model, world):
    return {f.name: frac_str(world[f.name]) for f in model.fluents}


def _resolve_reps(model, args):
    if getattr(args, "reps", None):
        worlds = []
        for number, line in enumerate(_read_text(args.reps).split("\n"), 1):
            line = line.split("//")[0].strip().strip("()")
            if not line:
                continue
            vals = [_number(v, f"{args.reps} line {number}")
                    for v in line.replace(",", " ").split()]
            worlds.append(make_world(model, vals))
        return worlds, f"file {args.reps}"
    if getattr(args, "reps_range", None):
        ranges = {}
        for spec in args.reps_range:
            name, _, span = spec.partition("=")
            lo, _, hi = span.partition("..")
            if not hi:
                hi = lo
            name = name.strip()
            if name in ranges:
                raise BeliefProgError(f"--reps-range gives fluent {name!r} "
                                      "more than once")
            try:
                ranges[name] = (int(lo), int(hi))
            except ValueError:
                raise BeliefProgError(f"--reps-range {spec!r}: the bounds "
                                      "must be integers") from None
        return reps_from_ranges(model, ranges), f"ranges {args.reps_range}"
    if getattr(args, "reps_auto", False):
        return reps_auto(model), "auto heuristic"
    worlds = reps_from_init(model)
    if not worlds:
        raise BeliefProgError(
            "no representative worlds: give --reps/--reps-range/--reps-auto "
            "or a 'worlds:' clause in the init section")
    return worlds, "init section"


REP_CAVEAT = ("type soundness relies on the representative initial worlds "
              "covering every equivalence class; the tool cannot prove this "
              "set complete")


def _build_abstraction(model, phi, args, timing, warnings):
    t0 = time.perf_counter()
    k = horizon_of(phi)
    reps, source = _resolve_reps(model, args)
    abstraction = compute_types(model, k, reps, phi)
    timing["types"] = time.perf_counter() - t0
    if abstraction.pruned:
        warnings.append(f"pruned {abstraction.pruned} action sequences with "
                        f"zero likelihood for every representative")
    warnings.append(REP_CAVEAT + f" (representatives from {source})")
    t0 = time.perf_counter()
    graph = build_graph(model.program)
    table = ConfigTable(graph, abstraction.rbat, abstraction.kb0)
    pomdps = [build_pomdp(table, abstraction, witness, type_id=i)
              for i, witness in enumerate(abstraction.types)]
    timing["pomdps"] = time.perf_counter() - t0
    for p in pomdps:
        if p.breakdown_states:
            warnings.append(f"type {p.type_id}: belief-breakdown branch "
                            f"reached (really possible, believed impossible)")
    return abstraction, graph, pomdps, reps, source


def cmd_verify(args):
    timing = {}
    warnings = []
    t0 = time.perf_counter()
    model = _load_model(args.model)
    timing["parse"] = time.perf_counter() - t0
    phi = model.property_named(args.property)
    if phi is None:
        raise BeliefProgError(f"no property named {args.property!r} in the model")
    abstraction, graph, pomdps, reps, source = _build_abstraction(
        model, phi, args, timing, warnings)
    t0 = time.perf_counter()
    fingerprints = [hashlib.sha256(pomdp_fingerprint(p, abstraction)).hexdigest()
                    for p in pomdps]
    timing["fingerprints"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    verdict = check(pomdps, phi, policy_cap=args.policy_cap)
    timing["check"] = time.perf_counter() - t0

    report = {
        "model_digest": model_digest(model),
        "property": args.property,
        "formula": print_state_formula(phi),
        "horizon": abstraction.horizon,
        "representatives": [_world_dict(model, w) for w in reps],
        "representative_source": source,
        "pruned_sequences": abstraction.pruned,
        "types": [{
            "id": i,
            "witness": _world_dict(model, witness),
            "pomdp_states": len(pomdps[i].states),
            "pomdp_observations": len(pomdps[i].observations),
            "fingerprint": fingerprints[i],
        } for i, witness in enumerate(abstraction.types)],
        "distinct_pomdps": len(set(fingerprints)),
        "verdict": {
            "holds": verdict.holds,
            "per_type": [{
                "type": tr.type_id,
                "holds": tr.holds,
                "policies": tr.policies,
                "subformulas": [{
                    "trace": print_trace_formula(sr.formula.trace),
                    "interval": str(sr.formula.interval),
                    "min": frac_str(sr.minimum),
                    "max": frac_str(sr.maximum),
                    "holds": sr.holds,
                    "argmin_policy": _policy_dict(pomdps[tr.type_id], sr.argmin),
                    "argmax_policy": _policy_dict(pomdps[tr.type_id], sr.argmax),
                } for sr in tr.subformulas],
            } for tr in verdict.per_type],
        },
        "warnings": warnings,
        "timing": timing,
    }
    _emit(args, report, _render_verify_text)
    return 0 if verdict.holds else 1


def _policy_dict(pomdp, policy):
    return dict(sorted((pomdp.observations[obs].render(), label)
                       for obs, label in policy.items()))


def _render_verify_text(report):
    lines = [f"model {report['model_digest'][:12]}  property {report['property']} "
             f"= {report['formula']}  (horizon {report['horizon']})"]
    lines.append("representatives (%s): %s" % (
        report["representative_source"],
        "; ".join(",".join(f"{k}={v}" for k, v in w.items())
                  for w in report["representatives"])))
    lines.append(f"types: {len(report['types'])}, distinct POMDPs: "
                 f"{report['distinct_pomdps']}, pruned sequences: "
                 f"{report['pruned_sequences']}")
    for t in report["types"]:
        lines.append(f"  type {t['id']}: witness "
                     + ",".join(f"{k}={v}" for k, v in t["witness"].items())
                     + f", {t['pomdp_states']} states / "
                     f"{t['pomdp_observations']} observations, "
                     f"fingerprint {t['fingerprint'][:12]}")
    for tr in report["verdict"]["per_type"]:
        for sr in tr["subformulas"]:
            lines.append(f"  type {tr['type']}: Pr({sr['trace']}) in "
                         f"[{sr['min']}, {sr['max']}] over {tr['policies']} "
                         f"polic{'y' if tr['policies'] == 1 else 'ies'}; "
                         f"target {sr['interval']}: "
                         f"{'ok' if sr['holds'] else 'MISS'}")
    lines.append("verdict: " + ("HOLDS" if report["verdict"]["holds"] else "VIOLATED"))
    for w in report["warnings"]:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


def estimate(*args, **kwargs):
    """simulate.estimate, imported on first call: verify never loads numpy."""
    from .simulate import estimate as run
    return run(*args, **kwargs)


def cmd_simulate(args):
    timing = {}
    t0 = time.perf_counter()
    model = _load_model(args.model)
    if args.psi:
        psi = parse_trace_formula(args.psi, model)
    elif args.property:
        phi = model.property_named(args.property)
        if phi is None:
            raise BeliefProgError(f"no property named {args.property!r}")
        if not isinstance(phi, POp):
            raise BeliefProgError(
                "simulate estimates a single P[...](trace) property")
        psi = phi.trace
    else:
        raise BeliefProgError("give --psi or --property")
    world = _parse_world(model, args.world)
    timing["parse"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = estimate(model, psi, world, args.policy, args.trials,
                      args.seed, args.horizon)
    timing["estimate"] = time.perf_counter() - t0
    report = {
        "model_digest": model_digest(model),
        "trace_formula": print_trace_formula(psi),
        "world": _world_dict(model, world),
        "policy": args.policy,
        "trials": result.trials,
        "horizon": result.horizon,
        "seed": args.seed,
        "successes": result.successes,
        "estimate": result.estimate,
        "half_width_95": result.half_width,
        "interval_95": list(result.interval),
        "outcomes": result.outcomes,
        "bounded": result.bounded,
        "timing": timing,
    }
    if not result.bounded:
        report["note"] = ("unbounded formula estimated with a horizon "
                          "cutoff; for F/U this is a lower-bound estimate, "
                          "for G an upper-bound estimate")
    _emit(args, report, _render_simulate_text)
    return 0


def _render_simulate_text(report):
    lines = [f"Pr({report['trace_formula']}) ~ {report['estimate']:.6f} "
             f"+/- {report['half_width_95']:.6f} (95%), "
             f"{report['successes']}/{report['trials']} traces, "
             f"horizon {report['horizon']}, seed {report['seed']}"]
    lines.append("outcomes: " + ", ".join(f"{k}: {v}" for k, v in
                                          sorted(report["outcomes"].items())))
    if "note" in report:
        lines.append("note: " + report["note"])
    return "\n".join(lines)


def _parse_world(model, spec):
    names = [f.name for f in model.fluents]
    values = {}
    if spec:
        for part in spec.split(","):
            name, eq, value = part.partition("=")
            name = name.strip()
            if name not in names:
                raise BeliefProgError(f"unknown fluent {name!r} in --world")
            if name in values:
                raise BeliefProgError(f"--world gives fluent {name!r} more "
                                      "than once")
            if not eq:
                raise BeliefProgError(f"--world entry {part.strip()!r} is "
                                      "not fluent=value")
            values[name] = _number(value, f"--world value of {name!r}")
    return make_world(model, [values.get(name, 0) for name in names])


def _number(text, where):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise BeliefProgError(f"{where}: {text.strip()!r} is not a "
                              "number") from None


def cmd_progress(args):
    model = _load_model(args.model)
    kb = initial_kb(model)
    print(f"initial: {kb.render()}")
    for term in args.actions:
        action = parse_ground_action(term, model)
        kb = progress_kb(kb, action)
        print(f"after {action}: {kb.render()}")
    return 0


def cmd_export_graph(args):
    model = _load_model(args.model)
    graph = build_graph(model.program)
    _write_output(args.output, graph_dot(graph))
    return 0


def cmd_export_pomdp(args):
    timing = {}
    warnings = []
    model = _load_model(args.model)
    if args.property:
        phi = model.property_named(args.property)
        if phi is None:
            raise BeliefProgError(f"no property named {args.property!r}")
    else:
        if not model.properties:
            raise BeliefProgError("model has no properties; give --property")
        phi = model.properties[0][1]
    abstraction, graph, pomdps, _reps, _src = _build_abstraction(
        model, phi, args, timing, warnings)
    if not 0 <= args.type < len(pomdps):
        raise BeliefProgError(f"type index {args.type} out of range "
                              f"(have {len(pomdps)})")
    p = pomdps[args.type]
    if args.dot:
        _write_output(args.output, pomdp_dot(p))
    else:
        _write_output(args.output, pomdp_json(p, abstraction))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_encode_pa(args):
    from .pa import ProbAutomaton, encode_text
    pa = ProbAutomaton.from_json(_read_text(args.automaton))
    _write_output(args.output, encode_text(pa))
    return 0


def _write_output(path, text):
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit(args, report, text_renderer):
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(text_renderer(report))


def _add_reps_flags(sub):
    reps = sub.add_mutually_exclusive_group()
    reps.add_argument("--reps", help="file with one representative world per line")
    reps.add_argument("--reps-range", action="append",
                      help="fluent=lo..hi integer box (repeatable)")
    reps.add_argument("--reps-auto", action="store_true",
                      help="derive representatives from constants in the model")


def build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="beliefprog",
        description="verify and simulate belief programs")
    ap.add_argument("--version", action="version", version=__version__)
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="decide a bounded property over all types")
    v.add_argument("model")
    v.add_argument("--property", required=True)
    _add_reps_flags(v)
    v.add_argument("--policy-cap", type=int, default=DEFAULT_POLICY_CAP,
                   help="most nodes of each policy search (default %(default)s)")
    v.add_argument("--format", choices=["text", "json"], default="text")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("simulate", help="Monte Carlo estimate of a trace formula")
    s.add_argument("model")
    s.add_argument("--world", default="", help="e.g. h=0 or h=0,g=1/2")
    s.add_argument("--policy", default="first-enabled")
    s.add_argument("--trials", type=int, default=10000)
    s.add_argument("--horizon", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--psi", help='trace formula, e.g. "F<=2 B(h=2) = 1"')
    s.add_argument("--property", help="estimate the trace of this P property")
    s.add_argument("--format", choices=["text", "json"], default="text")
    s.set_defaults(func=cmd_simulate)

    g = sub.add_parser("progress",
                       help="apply ground actions to the initial KB")
    g.add_argument("model")
    g.add_argument("actions", nargs="+", metavar="action",
                   help='ground action terms, e.g. "east(1,1)" "sencfe(1)"')
    g.set_defaults(func=cmd_progress)

    eg = sub.add_parser("export-graph", help="program graph in dot format")
    eg.add_argument("model")
    eg.add_argument("--dot", action="store_true", default=True)
    eg.add_argument("-o", "--output", default="-")
    eg.set_defaults(func=cmd_export_graph)

    ep = sub.add_parser("export-pomdp", help="one type's POMDP as JSON or dot")
    ep.add_argument("model")
    ep.add_argument("--type", type=int, default=0)
    ep.add_argument("--property", help="property fixing the horizon "
                                       "(default: first in the model)")
    group = ep.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", default=True)
    group.add_argument("--dot", action="store_true", default=False)
    _add_reps_flags(ep)
    ep.add_argument("-o", "--output", default="-")
    ep.set_defaults(func=cmd_export_pomdp)

    pa = sub.add_parser("encode-pa",
                        help="encode a probabilistic automaton as a model")
    pa.add_argument("automaton", help="automaton JSON file")
    pa.add_argument("-o", "--output", default="-")
    pa.set_defaults(func=cmd_encode_pa)
    return ap


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(build_arg_parser().parse_args(argv))
    finally:
        if collecting:
            gc.enable()


def _run(args) -> int:
    logging.basicConfig(level=logging.INFO if args.verbose else logging.ERROR,
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    try:
        return args.func(args)
    except ParseError as exc:
        for d in exc.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return 2
    except InadmissiblePropertyError as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        return 2
    except BeliefProgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
