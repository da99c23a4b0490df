"""Bounded PCTL checking by exhaustive enumeration of proper policies.

A proper policy picks one enabled action per observation; with finitely
many observations and actions the policy space is a finite cartesian
product, so "for all proper policies" is decided exactly by computing the
probability for every policy and checking the min and max against the
interval (the interval is convex, so the extremes suffice).

Path probabilities are computed by forward mass propagation with success
and failure absorption, following the cylinder-set measure of the induced
chain.
"""

import itertools
import logging
from dataclasses import dataclass, field
from fractions import Fraction

from .abstraction import horizon_of
from .errors import InadmissiblePropertyError, PolicyBudgetError
from .kb import eval_subjective
from .syntax import (And, Not, POp, UntilOp, XOp, print_state_formula,
                     print_trace_formula)

log = logging.getLogger(__name__)

DEFAULT_POLICY_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# state-formula truth on observations

def obs_satisfies(kb, beta) -> bool:
    """Truth of a P-free state formula at an observation."""
    return eval_subjective(kb, beta)


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


def enumerate_policies(pomdp, cap=DEFAULT_POLICY_CAP):
    """Yield proper policies as observation -> action maps, deterministic
    order: observations sorted, actions in edge-declaration order."""
    decisions = policy_space(pomdp)
    count = policy_count(pomdp)
    log.warning("enumerating %d proper polic%s over %d decision observation(s)",
                count, "y" if count == 1 else "ies", len(decisions))
    if cap is not None and count > cap:
        raise PolicyBudgetError(
            f"{count} proper policies exceed the enumeration cap {cap}")
    observations = [obs for obs, _ in decisions]
    for combo in itertools.product(*[choices for _, choices in decisions]):
        yield dict(zip(observations, combo))


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


def probability(pomdp, policy, psi, abstraction, conservation=None) -> Fraction:
    """Exact probability of the trace formula under one policy."""
    def sat(state, beta):
        return obs_satisfies(pomdp.observations[pomdp.obs_of[state]], beta)

    if isinstance(psi, XOp):
        alive = _step(pomdp, policy, {pomdp.initial: Fraction(1)})
        if conservation is not None:
            conservation.append(sum(alive.values(), Fraction(0)))
        return sum((m for s, m in alive.items() if sat(s, psi.arg)), Fraction(0))

    if not isinstance(psi, UntilOp) or psi.bound is None:
        raise InadmissiblePropertyError(
            f"trace formula {print_trace_formula(psi)} is not bounded")

    success = Fraction(0)
    failed = Fraction(0)
    alive = {pomdp.initial: Fraction(1)}
    for depth in range(psi.bound + 1):
        still = {}
        for state, mass in alive.items():
            if sat(state, psi.right):
                success += mass
            elif not sat(state, psi.left):
                failed += mass
            else:
                still[state] = mass
        alive = still
        if conservation is not None:
            total = success + failed + sum(alive.values(), Fraction(0))
            conservation.append(total)
        if not alive or depth == psi.bound:
            break
        alive = _step(pomdp, policy, alive)
    return success


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
    witness: object
    policies: int
    subformulas: list
    holds: bool


@dataclass
class Verdict:
    property_formula: object
    holds: bool
    per_type: list = field(default_factory=list)

    def render(self):
        status = "holds" if self.holds else "violated"
        return f"{print_state_formula(self.property_formula)}: {status}"


def _collect_p_subformulas(phi, out):
    if isinstance(phi, POp):
        out.append(phi)
    elif isinstance(phi, Not):
        _collect_p_subformulas(phi.operand, out)
    elif isinstance(phi, And):
        _collect_p_subformulas(phi.left, out)
        _collect_p_subformulas(phi.right, out)


def _eval_state(phi, p_truth, initial_kb):
    if isinstance(phi, POp):
        return p_truth[id(phi)]
    if isinstance(phi, Not):
        return not _eval_state(phi.operand, p_truth, initial_kb)
    if isinstance(phi, And):
        return _eval_state(phi.left, p_truth, initial_kb) and \
            _eval_state(phi.right, p_truth, initial_kb)
    return obs_satisfies(initial_kb, phi)


def check(pomdps, phi, abstraction, policy_cap=DEFAULT_POLICY_CAP) -> Verdict:
    """Decide a bounded state formula over the per-type POMDPs.

    The verdict is the conjunction over all types: the property is valid in
    the program iff it holds in every type's POMDP.
    """
    k = horizon_of(phi)
    p_subs = []
    _collect_p_subformulas(phi, p_subs)
    verdict = Verdict(phi, True)

    for position, pomdp in enumerate(pomdps):
        type_id = pomdp.type_id if pomdp.type_id is not None else position
        if pomdp.k < k:
            raise InadmissiblePropertyError(
                f"POMDP horizon {pomdp.k} is smaller than the property "
                f"horizon {k}")
        results = {}
        n_policies = 0
        for policy in enumerate_policies(pomdp, policy_cap):
            n_policies += 1
            for sub in p_subs:
                prob = probability(pomdp, policy, sub.trace, abstraction)
                cur = results.get(id(sub))
                if cur is None:
                    results[id(sub)] = SubformulaResult(sub, prob, prob,
                                                        dict(policy), dict(policy),
                                                        False)
                else:
                    if prob < cur.minimum:
                        cur.minimum, cur.argmin = prob, dict(policy)
                    if prob > cur.maximum:
                        cur.maximum, cur.argmax = prob, dict(policy)
        p_truth = {}
        sub_list = []
        for sub in p_subs:
            res = results[id(sub)]
            res.holds = sub.interval.contains(res.minimum) and \
                sub.interval.contains(res.maximum)
            p_truth[id(sub)] = res.holds
            sub_list.append(res)
        initial_kb = pomdp.observations[pomdp.obs_of[pomdp.initial]]
        type_holds = _eval_state(phi, p_truth, initial_kb)
        witness = abstraction.types[type_id].witness if \
            abstraction is not None and type_id < len(abstraction.types) else None
        verdict.per_type.append(TypeResult(type_id, witness, n_policies,
                                           sub_list, type_holds))
        verdict.holds = verdict.holds and type_holds
    return verdict
