import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from beliefprog import (ConfigTable, PolicyBudgetError, action_likelihood,
                        build_graph, build_pomdp, compute_types, make_world,
                        parse_model, progress_world)
from beliefprog.checker import DEFAULT_POLICY_CAP, policy_count, policy_space

ROOT = Path(__file__).resolve().parent.parent
COFFEE = ROOT / "models" / "coffee.bp"


def step_counts(bat):
    """(progressions, moves) kept in a Bat's class tables, counting each
    table once although every action met keys it."""
    tables = {id(t): t for t in bat._tables.values()}.values()
    return (sum(len(t.progressed) for t in tables),
            sum(row is not None for t in tables for row in t.rows))


@pytest.fixture(scope="session")
def coffee_text():
    return COFFEE.read_text()


@pytest.fixture(scope="session")
def coffee(coffee_text):
    return parse_model(coffee_text)


@pytest.fixture(scope="module")
def coffee_table(coffee):
    """Coffee P1 at F<=2 from h = 0, -1, -2: its types and their table."""
    graph = build_graph(coffee.program)
    reps = [make_world(coffee, [v]) for v in (0, -1, -2)]
    abstraction = compute_types(coffee, 2, reps, coffee.property_named("P1"))
    return abstraction, ConfigTable(graph, abstraction.rbat, abstraction.kb0)


@pytest.fixture(scope="module")
def coffee_pomdps(coffee_table):
    abstraction, table = coffee_table
    return abstraction, [build_pomdp(table, abstraction, witness, type_id=i)
                         for i, witness in enumerate(abstraction.types)]


def pomdp_with_witness(abstraction, pomdps, h):
    """The POMDP of the type whose witness world has this h."""
    return next(p for w, p in zip(abstraction.types, pomdps) if w["h"] == h)


# ---------------------------------------------------------------------------
# oracles

def enumerate_policies(pomdp, cap=DEFAULT_POLICY_CAP):
    """Every proper policy as an observation -> action map, in the checker's
    witness order: decision observations sorted by name, each one's choices
    in declaration order, the earlier observations varying slowest."""
    decisions, count = policy_space(pomdp), policy_count(pomdp)
    if cap is not None and count > cap:
        raise PolicyBudgetError(f"{count} proper policies exceed the cap {cap}")
    observations = [obs for obs, _ in decisions]
    for combo in itertools.product(*[choices for _, choices in decisions]):
        yield dict(zip(observations, combo))


def trace_likelihood(world, actions, bat):
    """l*(w, z): the product of the per-step likelihoods along the
    progressed worlds."""
    total = Fraction(1)
    for a in actions:
        total *= action_likelihood(a, world, bat)
        if total == 0:
            return total
        world = progress_world(world, a, bat)
    return total


# ---------------------------------------------------------------------------
# random small models for the property suites (<= 2 fluents, <= 3 actions,
# <= 2 outcomes each)

def _weights(rng, n):
    raw = [rng.randint(0, 4) for _ in range(n)]
    if sum(raw) == 0:
        raw[rng.randrange(n)] = 1
    total = sum(raw)
    return [f"{v}/{total}" if v != total else "1" for v in raw]


def _context(rng, fluents, anchors):
    # aim at values the belief support actually visits, so sensing rows can
    # split the distribution instead of staying flat
    f = rng.choice(fluents)
    op = rng.choice(["<=", "<", "=", ">=", "="])
    c = rng.choice(anchors) + rng.choice([0, 0, 1])
    return f"{f} {op} {c}"


def random_model_text(seed):
    """A syntactically and restriction-wise valid small model."""
    rng = random.Random(seed)
    fluents = [f"f{i}" for i in range(rng.randint(1, 2))]
    lines = ["fluents " + ", ".join(fluents) + ";", ""]

    beliefs = sorted({tuple(rng.randint(-1, 1) for _ in fluents)
                      for _ in range(rng.randint(1, 3))})
    anchors = sorted({v for w in beliefs for v in w})

    actions = []
    for i in range(rng.randint(1, 3)):
        name = f"a{i}"
        if rng.random() < 0.6:
            ctrl = rng.random() < 0.5
            n_out = 2 if rng.random() < 0.7 else 1
            actions.append((name, "stochastic", ctrl))
            sig = "stochastic(x; y)" if ctrl else "stochastic(; y)"
            lines.append(f"action {name} {sig} {{")
            base = "x" if ctrl else str(rng.randint(0, 2))
            outs = [base, f"{base} + 1"][:n_out]
            lines.append("  outcomes: " + ", ".join(f"({o})" for o in outs) + ";")
            lines.append("  likelihood:")
            if rng.random() < 0.5:
                lines.append(f"    case {_context(rng, fluents, anchors)}: "
                             + ", ".join(_weights(rng, n_out)) + ";")
                lines.append("    default: " + ", ".join(_weights(rng, n_out)) + ";")
            else:
                lines.append("    case true: " + ", ".join(_weights(rng, n_out)) + ";")
            lines.append("}")
        else:
            n_out = rng.randint(1, 2)
            values = rng.sample([0, 1, 2], n_out)
            actions.append((name, "sensing", False))
            lines.append(f"action {name} sensing("
                         + ", ".join(str(v) for v in values) + ") {")
            lines.append("  likelihood:")
            case_w = _weights(rng, n_out)
            default_w = _weights(rng, n_out)
            if default_w == case_w and n_out > 1:
                default_w = list(reversed(case_w))
            lines.append(f"    case {_context(rng, fluents, anchors)}: "
                         + ", ".join(case_w) + ";")
            lines.append("    default: " + ", ".join(default_w) + ";")
            lines.append("}")
        lines.append("")

    # every stochastic action affects at least one fluent, so progression
    # rarely fixes the knowledge base (which would force shared observations)
    affected = {}
    for name, kind, ctrl in actions:
        if kind == "stochastic":
            affected[name] = {rng.choice(fluents)} | \
                {f for f in fluents if rng.random() < 0.3}
    for f in fluents:
        cases = []
        for name, kind, ctrl in actions:
            if kind != "stochastic" or f not in affected[name]:
                continue
            params = "x, y" if ctrl else "y"
            # accumulating effects keep the progressed beliefs distinct;
            # absorbing ones ("y") would glue observations together
            effect = rng.choice([f"{f} + y", f"{f} + y", f"{f} - y",
                                 f"{f} + 1", "y"])
            cases.append(f"  case {name}({params}): {effect};")
        if cases:
            lines.append(f"ssa {f} {{")
            lines.extend(cases)
            lines.append(f"  default: {f};")
            lines.append("}")
            lines.append("")

    worlds = sorted({tuple(rng.randint(-1, 1) for _ in fluents)
                     for _ in range(rng.randint(1, 3))})
    lines.append("init {")
    bound = max(max(w) for w in worlds)
    if rng.random() < 0.5:
        lines.append(f"  constraints: {fluents[0]} <= {bound + rng.randint(0, 1)};")
    lines.append("  worlds: " + ", ".join(
        "(" + ", ".join(str(v) for v in w) + ")" for w in worlds) + ";")
    lines.append("}")
    lines.append("")

    bw = _weights(rng, len(beliefs))
    lines.append("belief { " + ", ".join(
        "(" + ", ".join(str(v) for v in w) + "): " + p
        for w, p in zip(beliefs, bw)) + " }")
    lines.append("")

    lines.append("program {")
    lines.append("  " + _random_program(rng, actions, fluents, depth=2))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _prim(rng, actions):
    name, kind, ctrl = rng.choice(actions)
    return f"{name}({rng.randint(0, 2)})" if kind == "stochastic" and ctrl else name


def _test(rng, fluents):
    f = rng.choice(fluents)
    kind = rng.randrange(3)
    if kind == 0:
        return f"B({f} = {rng.randint(-1, 2)}) {rng.choice(['<', '<=', '>='])} " \
               f"{rng.choice(['0', '1/2', '1'])}"
    if kind == 1:
        return f"Expect({f}) {rng.choice(['<=', '>'])} {rng.randint(-1, 2)}"
    return f"Conf({f}, 1) {rng.choice(['<=', '>'])} 1/2"


def _random_program(rng, actions, fluents, depth):
    if depth == 0 or rng.random() < 0.4:
        return _prim(rng, actions)
    kind = rng.randrange(4)
    if kind == 0:
        return (_random_program(rng, actions, fluents, depth - 1) + "; "
                + _random_program(rng, actions, fluents, depth - 1))
    if kind == 1:
        left = _random_program(rng, actions, fluents, depth - 1)
        right = _random_program(rng, actions, fluents, depth - 1)
        for _ in range(3):
            if left.split(";")[0].split("(")[0] != right.split(";")[0].split("(")[0]:
                break
            right = _random_program(rng, actions, fluents, depth - 1)
        return f"({left} | {right})"
    if kind == 2:
        return f"while {_test(rng, fluents)} do " \
               f"{_random_program(rng, actions, fluents, depth - 1)} end"
    return "(" + _random_program(rng, actions, fluents, depth - 1) + ")*"


@pytest.fixture
def model_factory():
    def build(seed):
        return parse_model(random_model_text(seed))
    return build


# ---------------------------------------------------------------------------
# random probabilistic automata

def random_pa(seed, max_states=4, max_letters=2):
    from beliefprog.pa import ProbAutomaton

    rng = random.Random(seed)
    n = rng.randint(2, max_states)
    letters = tuple("ab"[:rng.randint(1, max_letters)])
    matrices = {}
    for letter in letters:
        rows = []
        for _ in range(n):
            raw = [rng.randint(0, 3) for _ in range(n)]
            if sum(raw) == 0:
                raw[rng.randrange(n)] = 1
            total = sum(raw)
            rows.append(tuple(Fraction(v, total) for v in raw))
        matrices[letter] = tuple(rows)
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5) or frozenset({n - 1})
    pa = ProbAutomaton(n, letters, matrices, rng.randrange(n), accepting,
                       Fraction(rng.randint(1, 3), 4))
    pa.validate()
    return pa
