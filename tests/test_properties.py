"""Randomized invariant suites over small generated models.

Each property runs across 200 seeded models (at most 2 fluents, 3 actions,
2 outcomes per action).  Cases that legitimately cannot apply (for example
a generated program whose observations disagree on enabled actions, which
the builder rejects by design) are counted and skipped; every suite checks
that a healthy majority of cases actually exercised the property.
"""

import itertools
import random
from fractions import Fraction

import pytest

from beliefprog import (BeliefProgError, ConfigTable, IncompatibleActionError,
                        IncompatibleSensingError, LikelihoodContextError,
                        ObservationUniformityError, PolicyBudgetError,
                        build_graph, build_pomdp, compute_types,
                        ground_action_universe, initial_kb, make_world,
                        parse_model, probability, progress_kb)
from beliefprog import kb as kb_mod
from beliefprog.checker import horizon_of, obs_satisfies
from beliefprog.kb import BREAKDOWN, eval_subjective, likelihood_row, real_bat
from beliefprog.parser import parse_subjective
from beliefprog.program_graph import enabled
from beliefprog.simulate import TraceEngine, estimate
from beliefprog.syntax import (TRUE, And, Bel, BinOp, Cmp, Conf, Expect,
                               FluentRef, Neg, Num, UntilOp, print_model,
                               print_program, walk)
from belief_oracle import outcome, reference_truth, reference_value
from conftest import COFFEE, ROOT, enumerate_policies, random_model_text

N_CASES = 200

_applied = {}


def _mark(name, ok):
    hits, total = _applied.get(name, (0, 0))
    _applied[name] = (hits + (1 if ok else 0), total + 1)


def _reps(model):
    return [make_world(model, vals) for vals in model.init.worlds]


def _build(model, k=2):
    """Build what can be built: types whose POMDP the builder rejects
    (observation disagreement, ambiguous action) are left out."""
    graph = build_graph(model.program)
    abstraction = compute_types(model, k, _reps(model))
    table = ConfigTable(graph, abstraction.rbat, abstraction.kb0)
    pomdps = []
    for i, witness in enumerate(abstraction.types):
        try:
            pomdps.append(build_pomdp(table, abstraction, witness, type_id=i))
        except (ObservationUniformityError, LikelihoodContextError):
            continue
    return graph, abstraction, pomdps


@pytest.mark.parametrize("seed", range(N_CASES))
def test_progression_normalization(model_factory, seed):
    """Every successful progression yields strictly positive weights that
    sum to exactly 1."""
    model = model_factory(seed)
    rng = random.Random(seed * 31 + 7)
    universe = [t for t in ground_action_universe(model)
                if t.symbol not in ("eps", "fail")]
    kb = initial_kb(model)
    assert sum(kb.num.values()) == kb.den
    steps = 0
    for _ in range(4):
        if not universe:
            break
        t = rng.choice(universe)
        try:
            kb = progress_kb(kb, t)
        except (IncompatibleActionError, IncompatibleSensingError):
            continue
        assert sum(kb.num.values()) == kb.den
        assert all(p > 0 for p in kb.dist.values())
        steps += 1
    _mark("normalization", steps > 0)


@pytest.mark.parametrize("seed", range(N_CASES))
def test_likelihood_completeness_at_evaluation_points(model_factory, seed):
    """At every world a run can reach, exactly one context applies and its
    outcome weights sum to 1 (likelihood_row asserts this; re-add here)."""
    model = model_factory(seed)
    rb = real_bat(model)
    worlds = set(_reps(model))
    # push the initial worlds around a little to hit more contexts
    from beliefprog.kb import progress_world
    for t in ground_action_universe(model):
        for w in list(worlds):
            worlds.add(progress_world(w, t, rb))
    checked = 0
    for w in worlds:
        for decl in model.actions:
            ctrl = (Fraction(1),) * len(decl.ctrl)
            rows = likelihood_row(decl.name, ctrl, w, rb)
            assert sum((wt for _, wt in rows), Fraction(0)) == 1
            checked += 1
    _mark("completeness", checked > 0)


def test_incomplete_weights_are_caught():
    text = """
        fluents h;
        action a stochastic(; y) {
          outcomes: (0), (1);
          likelihood: case h = 0: 1/2, 1/3; default: 1, 0;
        }
        belief { (0): 1 }
        program { a }
    """
    from beliefprog import LikelihoodSumError, validate_restrictions
    m = parse_model(text)
    assert any(d.code == "weight-sum" for d in validate_restrictions(m))
    with pytest.raises(LikelihoodSumError):
        likelihood_row("a", (), make_world(m, [0]), real_bat(m))


def _independent_reachability(model, graph, k, witness):
    """Forward reachability over (sequence, node) pairs written against the
    graph, progressing worlds and observations itself and sharing no code
    with the POMDP builder; returns (sequence, node) -> observation."""
    from beliefprog.abstraction import BREAKDOWN
    from beliefprog.kb import (action_likelihood, next_observation,
                               oi_alternatives, progress_world)

    rb = real_bat(model)
    world_at = {(): witness}
    obs_at = {(): initial_kb(model)}
    seen = {((), 0): obs_at[()]}
    stack = [((), 0)]
    while stack:
        z, node = stack.pop()
        if len(z) == k:
            continue
        live, _fin, _fail = enabled(graph, node, obs_at[z])
        for e in live:
            for t in oi_alternatives(e.prim.symbol, e.prim.args, model):
                if action_likelihood(t, world_at[z], rb) == 0:
                    continue
                z2 = z + (t,)
                if z2 not in world_at:
                    world_at[z2] = progress_world(world_at[z], t, rb)
                    obs_at[z2] = next_observation(obs_at[z], t)
                if obs_at[z2] == BREAKDOWN:
                    continue
                state = (z2, e.target)
                if state not in seen:
                    seen[state] = obs_at[z2]
                    stack.append(state)
    return seen


def _has_disagreement(model, graph, k, witness):
    per_obs = {}
    for (z, node), kb in _independent_reachability(model, graph, k,
                                                   witness).items():
        if len(z) == k:
            continue
        live, is_final, _failing = enabled(graph, node, kb)
        actions = tuple([print_program(e.prim) for e in live]
                        + (["eps"] if is_final else []))
        prev = per_obs.setdefault(kb, actions)
        if prev != actions:
            return True
    return False


@pytest.mark.parametrize("seed", range(N_CASES))
def test_observation_uniform_enabled_sets(model_factory, seed):
    """The builder accepts a model iff every pair of reachable decision
    states sharing an observation enables the same actions; checked against
    an independent reachability pass in both directions."""
    model = model_factory(seed)
    graph = build_graph(model.program)
    abstraction = compute_types(model, 2, _reps(model))
    table = ConfigTable(graph, abstraction.rbat, abstraction.kb0)
    for i, witness in enumerate(abstraction.types):
        try:
            build_pomdp(table, abstraction, witness, type_id=i)
            built = True
        except ObservationUniformityError:
            built = False
        except LikelihoodContextError:
            # per-action ambiguity is a different rejection; not this property
            _mark("uniform-obs", False)
            return
        assert built == (not _has_disagreement(model, graph, 2, witness))
    _mark("uniform-obs", True)


@pytest.mark.parametrize("seed", range(N_CASES))
def test_forward_dp_mass_conservation(model_factory, seed):
    """success + failed + alive mass equals 1 at every DP depth."""
    model = model_factory(seed)
    _graph, _abstraction, pomdps = _build(model)
    beta = parse_subjective(f"B({model.fluents[0].name} = 0) >= 1/2", model)
    psi = UntilOp(TRUE, beta, 2)
    ran = False
    for p in pomdps:
        for policy in itertools.islice(enumerate_policies(p, cap=None), 8):
            masses = []
            probability(p, policy, psi, conservation=masses)
            assert masses and all(m == 1 for m in masses)
            ran = True
    _mark("conservation", ran)


@pytest.mark.parametrize("seed", range(N_CASES))
def test_until_probability_monotone_in_bound(model_factory, seed):
    model = model_factory(seed)
    _graph, _abstraction, pomdps = _build(model)
    beta = parse_subjective(f"B({model.fluents[0].name} = 1) > 0", model)
    ran = False
    for p in pomdps:
        for policy in itertools.islice(enumerate_policies(p, cap=None), 4):
            values = [probability(p, policy, UntilOp(TRUE, beta, k))
                      for k in range(3)]
            assert values == sorted(values)
            ran = True
    _mark("monotone", ran)


def _subjective_formulas(graph, context):
    """Every guard and fin condition of graph, and every subjective formula
    of the type context."""
    return [e.guard for out in graph.edges for e in out] + graph.fin + [
        context.formulas[i].formula for i in context.subjective_indices()]


_OPS = ("=", "!=", "<", "<=", ">", ">=")
_CONSTANTS = (0, 1, Fraction(1, 2), -1, Fraction(-3, 2), Fraction(1, 3), 2)


def comparisons(model):
    """Per fluent f: B, Expect and Conf terms against constants (0, 1,
    fractional and negative) on either side under all six operators, two
    such terms against each other, terms that kb does not decide in
    integers (a negated or a summed one), and formulas that raise at a
    knowledge base whose support holds f = 0, or at every one."""
    out = []
    for f in model.fluents:
        ref = FluentRef(f.name)
        inverse = Bel(Cmp("=", BinOp("/", Num(1), ref), Num(1)))
        terms = [Bel(Cmp("=", ref, Num(0))), Bel(Cmp(">=", ref, Num(1))),
                 Expect(f.name), Conf(f.name, Fraction(1, 2)), Conf(f.name, 1),
                 Conf(f.name, 0)]
        for i, term in enumerate(terms):
            for j, op in enumerate(_OPS):
                c = Num(_CONSTANTS[(i + j) % len(_CONSTANTS)])
                out += [Cmp(op, term, c), Cmp(op, c, term)]
            out.append(Cmp(_OPS[i], term, terms[i - 1]))
        out += [Cmp("<=", Neg(Expect(f.name)), Num(Fraction(1, 2))),
                Cmp(">", Num(Fraction(1, 2)), BinOp("+", *terms[:2])),
                Cmp(">", inverse, Num(0)), Cmp("<=", Num(1), inverse),
                And(Cmp(">", Conf(f.name, 1), Num(0)), Cmp("!=", inverse, Num(0))),
                Cmp("<", BinOp("/", Expect(f.name),
                               Bel(Cmp("=", ref, Num(7)))), Num(1))]
    return out


def _check_memo(kb0, formulas):
    """eval_subjective and kb._value, read twice at every knowledge base
    that kb0's Bat has made and at BREAKDOWN, are the Fraction walker's
    truth and value, or raise its error class and message.  Returns the
    number of knowledge bases."""
    kbs = list(kb0.bat._kbs)
    terms = list({id(e): e for alpha in formulas for e in walk(alpha)
                  if isinstance(e, (Bel, Expect, Conf))}.values())
    for at in kbs + [BREAKDOWN]:
        known = {}  # term -> its walker value at `at`, found once

        def value(e, at):
            v = known.get(e)
            if v is None:  # an error is raised anew
                v = known[e] = reference_value(e, at)
            return v

        for alpha in formulas:
            truth = outcome(reference_truth, alpha, at, value)
            assert outcome(eval_subjective, at, alpha) == truth, (alpha, at)
            assert outcome(eval_subjective, at, alpha) == truth, (alpha, at)
        for e in terms if at is not BREAKDOWN else ():
            v = outcome(value, e, at)
            assert outcome(kb_mod._value, e, at, {}) == v, (e, at)
            assert outcome(kb_mod._value, e, at, {}) == v, (e, at)
    return len(kbs)


@pytest.mark.parametrize("seed", range(N_CASES))
def test_subjective_memo_matches_unmemoised_truth(model_factory, seed):
    """At every knowledge base that verify's POMDPs and a uniform-random
    estimate meet."""
    model = model_factory(seed)
    graph, abstraction, _pomdps = _build(model, k=3)
    formulas = _subjective_formulas(graph, abstraction.context) + \
        comparisons(model)
    _check_memo(abstraction.kb0, formulas)
    engine = TraceEngine(model)
    psi = UntilOp(TRUE, Cmp("=", Bel(Cmp("=", FluentRef(model.fluents[0].name),
                                         Num(0))), Num(1)), 2)
    try:
        estimate(model, psi, _reps(model)[0], "uniform-random", 40, seed, 4,
                 engine)
    except BeliefProgError:
        pass
    _check_memo(engine.kb0, formulas)


@pytest.mark.parametrize("seed", range(N_CASES))
def test_belief_memo_matches_unmemoised_truth(model_factory, seed):
    """Every B term of the model's subjective formulas, and B(f = v) and
    B(f >= v) for every value v of a fluent f in a belief world, at every
    knowledge base the believed Bat has made, read through its memos, is
    the Fraction walker's value, which sums B afresh; so is the truth of
    every formula, and of each comparison of those terms with 1/2."""
    model = model_factory(seed)
    graph, abstraction, _pomdps = _build(model, k=3)
    formulas = _subjective_formulas(graph, abstraction.context)
    kbs = list(abstraction.kb0.bat._kbs)
    terms = [e for alpha in formulas for e in walk(alpha) if isinstance(e, Bel)]
    terms += [Bel(Cmp(op, FluentRef(f.name), Num(v)))
              for f in model.fluents for op in ("=", ">=")
              for v in sorted({w[f.name] for kb in kbs for w in kb.dist})]
    formulas += [Cmp(op, e, Num(Fraction(1, 2))) for e in terms for op in _OPS]
    for kb in kbs:
        assert [kb_mod._value(e, kb, {}) for e in terms] == \
            [reference_value(e, kb) for e in terms]
        assert [eval_subjective(kb, alpha) for alpha in formulas] == \
            [reference_truth(alpha, kb) for alpha in formulas]
    _mark("belief memo", bool(terms))


@pytest.mark.parametrize("path", [
    COFFEE, ROOT / "perfbench" / "models" / "coffee_deep.bp",
    ROOT / "perfbench" / "models" / "coffee_choice.bp"],
    ids=["coffee", "coffee-deep", "choice"])
def test_subjective_memo_matches_unmemoised_truth_on_bundled_models(path):
    """Over verify's POMDPs for P1 and a uniform-random estimate of its
    trace formula."""
    model = parse_model(path.read_text())
    phi = model.property_named("P1")
    graph = build_graph(model.program)
    abstraction = compute_types(model, horizon_of(phi), _reps(model), phi)
    table = ConfigTable(graph, abstraction.rbat, abstraction.kb0)
    for witness in abstraction.types:
        build_pomdp(table, abstraction, witness)
    assert _check_memo(abstraction.kb0, _subjective_formulas(
        graph, abstraction.context) + comparisons(model)) > 1
    engine = TraceEngine(model)
    estimate(model, phi.trace, make_world(model, [0]), "uniform-random", 200,
             0, 10, engine)
    assert _check_memo(engine.kb0, _subjective_formulas(
        engine.graph, abstraction.context) + comparisons(model)) > 10


@pytest.mark.parametrize("seed", range(N_CASES))
def test_parse_print_roundtrip(seed):
    """parse(print(parse(text))) equals parse(text)."""
    text = random_model_text(seed)
    m1 = parse_model(text)
    m2 = parse_model(print_model(m1))
    assert m1 == m2
    _mark("roundtrip", True)


def test_zz_suite_coverage_summary():
    # runs last (alphabetical within the file): most cases of each suite
    # must have exercised their property rather than skipping
    for name, (hits, total) in _applied.items():
        assert total >= N_CASES * 0.9 or total == 0, name
        assert hits >= total * 0.6, (name, hits, total)
