"""Bounded PCTL checking over every proper policy by one exact search.

A proper policy picks one enabled action per observation; with finitely
many observations and actions the policy space is a finite cartesian
product, and "for all proper policies" is decided exactly by the min and
max probability over it (the interval is convex, so the extremes suffice).

Path probabilities are computed by forward mass propagation over the
induced chain, absorbing at each depth the mass that trace_verdict (the
path rule the simulator shares) decides.  check does not walk the policies
one by one: a depth-first search propagates the mass of all policies at
once and fixes a choice only at the decision observations that mass
reaches before the formula is decided (the finite-horizon policy tree of
a POMDP).  Each leaf of the search stands for every policy that agrees
with its fixed choices, so the leaves partition the policy space and
their values give the exact extremes; the policy cap bounds search nodes.
The search's masses are ints over D^last, where D is the lcm of the
POMDP's transition denominators (integer_weights, derived once per check)
and last the formula's decision depth, so a step multiplies and divides
ints exactly; probability, which re-derives each witness's value, stays
in Fractions.  The witness policies come first in one fixed order of the
policy space: decision observations sorted by name (their rendering),
each one's choices in declaration order, the earlier observations varying
slowest.
"""

import itertools
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import InadmissiblePropertyError, PolicyBudgetError
from .kb import eval_subjective
from .syntax import (And, GloballyOp, Not, POp, UntilOp, XOp,
                     print_trace_formula, walk)

log = logging.getLogger(__name__)

DEFAULT_POLICY_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# truth on observations and on paths

def obs_satisfies(kb, beta) -> bool:
    """Truth of a P-free state formula at an observation."""
    return eval_subjective(kb, beta)


def decision_depth(psi):
    """The depth that decides psi on every path; None for G and unbounded U."""
    if isinstance(psi, XOp):
        return 1
    return psi.bound if isinstance(psi, UntilOp) else None


def horizon_of(phi) -> int:
    """Step bound required by a bounded state formula: the largest decision
    depth of its P operators.  Raises InadmissiblePropertyError on the first
    P, in walk order, whose trace is unbounded or holds a P."""
    k = 0
    for node in walk(phi):
        if isinstance(node, POp):
            last = decision_depth(node.trace)
            if last is None:
                raise InadmissiblePropertyError(
                    "unbounded globally is not checker-admissible"
                    if isinstance(node.trace, GloballyOp) else
                    "unbounded until is not checker-admissible")
            if any(isinstance(inner, POp) for inner in walk(node.trace)):
                raise InadmissiblePropertyError(
                    "nested probability operators are not checker-admissible")
            k = max(k, last)
    return k


def trace_verdict(psi, depth, holds):
    """What the path position at depth decides about psi when no earlier
    position did: True, False, or None (still open).  holds(beta) is the
    truth of a state formula at that position's observation."""
    if isinstance(psi, XOp):
        return holds(psi.arg) if depth == 1 else None
    if isinstance(psi, UntilOp):
        if holds(psi.right):
            return True
        return False if depth == psi.bound or not holds(psi.left) else None
    if isinstance(psi, GloballyOp):
        return None if holds(psi.arg) else False
    raise TypeError(psi)


# ---------------------------------------------------------------------------
# policies

def policy_space(pomdp):
    """Sorted decision observations and their choice lists."""
    decisions = [(obs, choices) for obs, choices in pomdp.agent_actions.items()
                 if choices]
    decisions.sort(key=lambda item: pomdp.observations[item[0]].render())
    return decisions


def policy_count(pomdp) -> int:
    count = 1
    for _obs, choices in policy_space(pomdp):
        count *= len(choices)
    return count


def _action_at(pomdp, policy, state):
    trans = pomdp.transitions[state]
    choices = pomdp.agent_actions.get(pomdp.obs_of[state]) or ()
    if choices:
        label = policy[pomdp.obs_of[state]]
        if label not in trans:
            raise RuntimeError(f"policy action {label!r} is not available at "
                               f"{pomdp.state_str(state)}")
        return label
    return next(iter(trans))


def _step(pomdp, policy, alive):
    new = {}
    for state, mass in alive.items():
        label = _action_at(pomdp, policy, state)
        for target, prob in pomdp.transitions[state][label]:
            if prob == 0:
                continue
            new[target] = new.get(target, Fraction(0)) + mass * prob
    return new


def _last_depth(psi):
    last = decision_depth(psi)
    if last is None:
        raise InadmissiblePropertyError(
            f"trace formula {print_trace_formula(psi)} is not bounded")
    return last


def _absorb(pomdp, psi, depth, alive, verdicts, decided):
    """Move the mass that trace_verdict decides at depth from alive into
    decided[True] / decided[False]; return the mass still open.  verdicts
    memoises (observation, depth) -> verdict, since a state formula's truth
    depends only on the observation."""
    still = {}
    for state, mass in alive.items():
        key = (pomdp.obs_of[state], depth)
        if key not in verdicts:
            obs = pomdp.observations[key[0]]
            verdicts[key] = trace_verdict(
                psi, depth, lambda beta: obs_satisfies(obs, beta))
        verdict = verdicts[key]
        if verdict is None:
            still[state] = mass
        else:
            decided[verdict] += mass
    return still


def probability(pomdp, policy, psi, conservation=None) -> Fraction:
    """Exact probability of the trace formula under one policy."""
    last = _last_depth(psi)
    decided = {True: Fraction(0), False: Fraction(0)}
    verdicts = {}
    alive = {pomdp.initial: Fraction(1)}
    for depth in range(last + 1):
        alive = _absorb(pomdp, psi, depth, alive, verdicts, decided)
        if conservation is not None:
            conservation.append(sum(decided.values())
                                + sum(alive.values(), Fraction(0)))
        if not alive:
            break
        alive = _step(pomdp, policy, alive)
    return decided[True]


def integer_weights(pomdp):
    """(D, numerator): D is the lcm of the denominators of the POMDP's
    transition probabilities, and numerator[id(prob)] = k, with
    prob = k / D, for each probability object in pomdp.transitions.  Probabilities are
    keyed by object, as one likelihood object serves many transitions and
    a Fraction's hash is costly."""
    probs = {id(prob): prob for trans in pomdp.transitions
             for targets in trans.values() for _target, prob in targets}
    d = lcm(*(prob.denominator for prob in probs.values()))
    return d, {key: prob.numerator * (d // prob.denominator)
               for key, prob in probs.items()}


def _integer_step(pomdp, weights, policy, alive):
    """_step on integer masses: a mass m over D^last at depth d < last is a
    multiple of D^(last - d), so m * k // D is exact."""
    d, numerator = weights
    new = {}
    get = new.get
    for state, mass in alive.items():
        label = _action_at(pomdp, policy, state)
        for target, prob in pomdp.transitions[state][label]:
            k = numerator[id(prob)]
            if k:
                new[target] = get(target, 0) + mass * k // d
    return new


def _search(pomdp, psi, cap, weights):
    """Min and max of Pr(psi) over every proper policy, with weights, the
    (D, numerator) of integer_weights(pomdp).

    Returns (min, argmin, max, argmax, search nodes).  A node propagates
    the open mass one depth under the choices fixed so far and branches
    over the decision observations that this mass newly reaches, in
    policy_space order with choices in declaration order.  A leaf (no open
    mass, or the formula's decision depth) stands for every policy that
    agrees with its fixed choices, so the leaves partition the policy
    space.  The witnesses are the first optimal policies when policies are
    ordered by their choice indices, observations sorted by name and
    compared in that order: each leaf's first member takes the first
    choice wherever it fixed none, and the smallest such member wins.
    Masses and values are ints over D^last, last the decision depth: the
    root holds D^last, and each extreme becomes one Fraction."""
    last = _last_depth(psi)
    decisions = policy_space(pomdp)
    choices_of = dict(decisions)
    rank = {obs: i for i, (obs, _choices) in enumerate(decisions)}
    verdicts = {}
    best = {}  # 1 (min) / -1 (max) -> ((sign * value, completion key), fixed)
    nodes = 0

    def leaf(value, fixed):
        # the completion key is made only where the value ties or wins; it
        # holds the nonzero choice indices as (-rank, index) in rank order,
        # which order as the full tuples of indices do
        key = None
        for sign in (1, -1):
            incumbent = best.get(sign)
            if incumbent is not None and sign * value > incumbent[0][0]:
                continue
            if key is None:
                key = tuple((-r, i) for r, i in sorted(
                    (rank[obs], choices_of[obs].index(choice))
                    for obs, choice in fixed.items()) if i)
            if incumbent is None or (sign * value, key) < incumbent[0]:
                best[sign] = ((sign * value, key), fixed)

    def visit(depth, alive, fixed, value):
        nonlocal nodes
        nodes += 1
        if cap is not None and nodes > cap:
            raise PolicyBudgetError(
                f"policy search reached {nodes} nodes, over the cap {cap}")
        decided = {True: value, False: 0}
        alive = _absorb(pomdp, psi, depth, alive, verdicts, decided)
        if not alive or depth == last:
            leaf(decided[True], fixed)
            return
        reached = {pomdp.obs_of[state] for state in alive}
        new = sorted((reached - fixed.keys()) & rank.keys(),
                     key=rank.__getitem__)
        for combo in itertools.product(*[choices_of[obs] for obs in new]):
            branch = {**fixed, **dict(zip(new, combo))}
            visit(depth + 1, _integer_step(pomdp, weights, branch, alive),
                  branch, decided[True])

    whole = weights[0] ** last
    visit(0, {pomdp.initial: whole}, {}, 0)

    (low, _), argmin = best[1]
    (high, _), argmax = best[-1]
    return (Fraction(low, whole), _complete(decisions, argmin),
            Fraction(-high, whole), _complete(decisions, argmax), nodes)


def _complete(decisions, fixed):
    """The first policy that agrees with fixed: each decision observation
    not in fixed takes its first choice in declaration order."""
    return {obs: fixed.get(obs, choices[0]) for obs, choices in decisions}


# ---------------------------------------------------------------------------
# verdicts

@dataclass
class SubformulaResult:
    formula: object
    minimum: Fraction
    maximum: Fraction
    argmin: dict
    argmax: dict
    holds: bool  # min and max both inside the interval


@dataclass
class TypeResult:
    type_id: int
    policies: int
    subformulas: list
    holds: bool


@dataclass
class Verdict:
    property_formula: object
    holds: bool
    per_type: list = field(default_factory=list)


def _eval_state(phi, p_truth, initial_kb):
    if isinstance(phi, POp):
        return p_truth[id(phi)]
    if isinstance(phi, Not):
        return not _eval_state(phi.operand, p_truth, initial_kb)
    if isinstance(phi, And):
        return _eval_state(phi.left, p_truth, initial_kb) and \
            _eval_state(phi.right, p_truth, initial_kb)
    return obs_satisfies(initial_kb, phi)


def _recheck(pomdp, psi, witnesses):
    """Re-derive each (value, policy) witness with probability: the value
    must be the search's and the propagated mass exactly 1 at every depth."""
    checked = []
    for value, policy in witnesses:
        if policy in checked:
            continue
        checked.append(policy)
        masses = []
        got = probability(pomdp, policy, psi, conservation=masses)
        if got != value or any(mass != 1 for mass in masses):
            raise RuntimeError(
                f"witness policy re-check of Pr({print_trace_formula(psi)}): "
                f"probability gives {got} with masses "
                f"{[str(m) for m in masses]}, the search gave {value}")


def check(pomdps, phi, policy_cap=DEFAULT_POLICY_CAP) -> Verdict:
    """Decide a bounded state formula over the per-type POMDPs.

    The verdict is the conjunction over all types: the property is valid in
    the program iff it holds in every type's POMDP.
    """
    k = horizon_of(phi)
    p_subs = [node for node in walk(phi) if isinstance(node, POp)]
    verdict = Verdict(phi, True)

    for position, pomdp in enumerate(pomdps):
        type_id = pomdp.type_id if pomdp.type_id is not None else position
        if pomdp.k < k:
            raise InadmissiblePropertyError(
                f"POMDP horizon {pomdp.k} is smaller than the property "
                f"horizon {k}")
        policies = policy_count(pomdp)
        weights = integer_weights(pomdp)
        p_truth = {}
        sub_list = []
        for sub in p_subs:
            minimum, argmin, maximum, argmax, nodes = _search(
                pomdp, sub.trace, policy_cap, weights)
            log.info("type %s: %d proper policies, min %s and max %s after "
                     "%d search nodes", type_id, policies, minimum, maximum,
                     nodes)
            _recheck(pomdp, sub.trace, [(minimum, argmin), (maximum, argmax)])
            holds = sub.interval.contains(minimum) and \
                sub.interval.contains(maximum)
            p_truth[id(sub)] = holds
            sub_list.append(SubformulaResult(sub, minimum, maximum, argmin,
                                             argmax, holds))
        initial_kb = pomdp.observations[pomdp.obs_of[pomdp.initial]]
        type_holds = _eval_state(phi, p_truth, initial_kb)
        verdict.per_type.append(TypeResult(type_id, policies, sub_list,
                                           type_holds))
        verdict.holds = verdict.holds and type_holds
    return verdict
