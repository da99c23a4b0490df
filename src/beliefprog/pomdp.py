"""Finite POMDP construction for one type.

States are (action sequence, graph node) pairs explored forward from the
empty sequence.  Transition probabilities are the real likelihoods at the
type witness's world progressed along the sequence, read through the
abstraction's memoised step; the type fixes the truth of every likelihood
context along every sequence, so any world of the type gives the same
weights.  The believed knowledge base progressed along the sequence
supplies the observation attached to each state and the labels attached
to each observation.

Two deliberate conventions:

  * branches whose real probability is 0 are omitted entirely;
  * branches that are really possible but believed impossible (the Bayes
    normalizer is 0) are routed to a distinguished "belief-breakdown" sink
    observation with an empty label set, so the real probability mass is
    still accounted for.

Terminal (final/failing) states carry self-loops, keeping all paths
infinite; frontier states at the horizon carry a fail self-loop.
"""

import json
import logging
from collections import deque
from fractions import Fraction

from .errors import LikelihoodContextError, ObservationUniformityError
from .kb import BREAKDOWN, eval_subjective, oi_alternatives
from .program_graph import enabled
from .syntax import EPSILON_NAME, FAILURE_NAME, frac_str, print_formula, print_program

log = logging.getLogger(__name__)

_PALETTE = ["black", "blue", "green", "red", "orange", "purple", "brown",
            "cyan", "magenta", "gray"]


class FinitePomdp:
    def __init__(self, k, type_id=None):
        self.k = k
        self.type_id = type_id
        self.states = []            # (sequence tuple, node index); sink is (None, None)
        self.state_index = {}
        self.initial = 0
        self.transitions = []       # per state: {action label: [(target, prob)]}
        self.obs_of = []            # per state: observation index
        self.observations = []      # KnowledgeBase or BREAKDOWN
        self.labels = []            # per observation: frozenset of context indices
        self.agent_actions = {}     # obs index -> tuple of action labels (choices)
        self.breakdown_states = 0

    # -- structure helpers -------------------------------------------------

    def action_labels(self):
        seen = []
        for t in self.transitions:
            for label in t:
                if label not in seen:
                    seen.append(label)
        return seen

    def state_str(self, i):
        z, node = self.states[i]
        if z is None:
            return "<belief-breakdown>"
        return "<%s | node %d>" % (" ".join(str(t) for t in z) or "()", node)


def _add_state(p, key):
    if key in p.state_index:
        return p.state_index[key]
    idx = len(p.states)
    p.state_index[key] = idx
    p.states.append(key)
    p.transitions.append({})
    p.obs_of.append(None)
    return idx


def build_pomdp(model, graph, abstraction, tau, type_id=None) -> FinitePomdp:
    """Forward exploration of the reachable (sequence, node) space."""
    k = abstraction.horizon
    ctx = abstraction.context
    p = FinitePomdp(k, type_id)
    # keyed by the observation itself: a KnowledgeBase caches its hash and
    # equal ones are one interned object, and BREAKDOWN is a singleton
    obs_index = {}

    def observation_of(kb):
        index = obs_index.get(kb)
        if index is None:
            index = obs_index[kb] = len(p.observations)
            p.observations.append(kb)
            # the breakdown label set is empty, even for a negation
            p.labels.append(frozenset() if kb is BREAKDOWN else frozenset(
                i for i in ctx.subjective_indices()
                if eval_subjective(kb, ctx.formulas[i].formula)))
        return index

    world_at = {(): tau.witness}  # sequence -> the witness's world after it
    start = _add_state(p, ((), 0))
    p.obs_of[start] = observation_of(abstraction.kb_of[()])
    queue = deque([start])
    while queue:
        si = queue.popleft()
        z, node = p.states[si]
        if z is None:  # breakdown sink
            p.transitions[si][FAILURE_NAME] = [(si, Fraction(1))]
            continue
        kb = abstraction.kb_of[z]
        trans = p.transitions[si]
        choices = []
        if len(z) == k:
            trans[FAILURE_NAME] = [(si, Fraction(1))]
            p.agent_actions.setdefault(p.obs_of[si], None)
            continue
        live, is_final, is_failing = enabled(graph, node, kb)
        if is_final:
            trans[EPSILON_NAME] = [(si, Fraction(1))]
            choices.append(EPSILON_NAME)
        for edge in live:
            label = print_program(edge.prim)
            if label in trans:
                raise LikelihoodContextError(
                    f"two enabled transitions share the action {label!r} at "
                    f"{p.state_str(si)}; per-action successor would be ambiguous")
            branches = {}
            for t in oi_alternatives(edge.prim.symbol, edge.prim.args, model):
                like, w2 = abstraction.step(world_at[z], t)
                if like == 0:
                    continue
                z2 = z + (t,)
                world_at[z2] = w2
                kb2 = abstraction.kb_of[z2]
                # every breakdown branch goes to the one sink state
                target = _add_state(p, (None, None) if kb2 is BREAKDOWN
                                    else (z2, edge.target))
                if p.obs_of[target] is None:
                    p.obs_of[target] = observation_of(kb2)
                    queue.append(target)
                    if kb2 is BREAKDOWN:
                        p.breakdown_states += 1
                        log.warning("belief-breakdown branch reached via %s",
                                    " ".join(str(a) for a in z2))
                branches[target] = branches.get(target, Fraction(0)) + like
            trans[label] = sorted(branches.items())
            choices.append(label)
        if not choices:
            trans[FAILURE_NAME] = [(si, Fraction(1))]
        obs = p.obs_of[si]
        known = p.agent_actions.get(obs)
        agent = tuple(c for c in choices if c != EPSILON_NAME) + \
            ((EPSILON_NAME,) if EPSILON_NAME in choices else ())
        if known is None or obs not in p.agent_actions:
            p.agent_actions[obs] = agent
        elif known != agent:
            raise ObservationUniformityError(
                f"states sharing observation {obs} disagree on enabled "
                f"actions: {known} vs {agent} at {p.state_str(si)}")
    # frontier-only observations never offer a choice
    for obs, acts in list(p.agent_actions.items()):
        if acts is None:
            p.agent_actions[obs] = ()
    return p


# ---------------------------------------------------------------------------
# canonical serialization

def _canonical_struct(p, model, formulas):
    # by sequence length, then sequence; the breakdown sink (seq [], node
    # -1) sorts after the one-step sequences
    order = sorted((1, True, (), -1, i) if z is None else
                   (len(z), False, tuple(str(t) for t in z), node, i)
                   for i, (z, node) in enumerate(p.states))
    renum = {old: new for new, (*_, old) in enumerate(order)}

    states = []
    for _, _, seq, node, old in order:
        kb = p.observations[p.obs_of[old]]
        states.append({
            "seq": list(seq),
            "node": node,
            "observation": kb.render(model.fluent_order),
            "labels": sorted(print_formula(formulas[j].formula)
                             for j in p.labels[p.obs_of[old]]),
        })
    transitions = []
    for old in range(len(p.states)):
        for label, targets in p.transitions[old].items():
            for target, prob in targets:
                transitions.append((renum[old], label, renum[target],
                                    frac_str(prob)))
    transitions.sort()
    return {
        "k": p.k,
        "initial": renum[p.initial],
        "states": states,
        "transitions": [list(t) for t in transitions],
    }


def pomdp_fingerprint(p, model, abstraction) -> bytes:
    """Order-independent canonical byte string of the structure."""
    data = _canonical_struct(p, model, abstraction.context.formulas)
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def to_json(p, model, abstraction) -> str:
    data = _canonical_struct(p, model, abstraction.context.formulas)
    data["type"] = p.type_id
    data["actions"] = p.action_labels()
    return json.dumps(data, indent=2, sort_keys=True)


def to_dot(p, model) -> str:
    lines = ["digraph pomdp {", "  rankdir=LR;"]
    for i in range(len(p.states)):
        color = _PALETTE[p.obs_of[i] % len(_PALETTE)]
        label = p.state_str(i).replace('"', r'\"')
        lines.append(f'  s{i} [label="{label}", color="{color}", shape=ellipse];')
    for i, trans in enumerate(p.transitions):
        for action, targets in trans.items():
            for target, prob in targets:
                lines.append(f'  s{i} -> s{target} '
                             f'[label="{action} : {frac_str(prob)}"];')
    lines.append("}")
    return "\n".join(lines)
