"""Finite POMDP construction for one type.

A state is a program configuration at a depth: ((graph node, observation,
real world), depth), explored breadth first from (0, the initial
knowledge base, the type witness) at depth 0.  A configuration's branches
are the real likelihoods at its own world, read from the real Bat's
memoised step; the type fixes the truth of every likelihood context along
every sequence, so any world of the type gives the same weights.  The
observation is progressed by next_observation and supplies the labels.
Sequences that reach one configuration at one depth reach one state: the
state's future depends only on the configuration, so the merge is exact.

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
from .kb import BREAKDOWN, eval_subjective, next_observation, progress_kb
from .program_graph import enabled
from .syntax import EPSILON_NAME, FAILURE_NAME, frac_str, print_formula, print_program

log = logging.getLogger(__name__)

_PALETTE = ["black", "blue", "green", "red", "orange", "purple", "brown",
            "cyan", "magenta", "gray"]


class FinitePomdp:
    def __init__(self, k, type_id=None):
        self.k = k
        self.type_id = type_id
        # ((node, observation, world), depth) in build order; the sink is
        # (None, None)
        self.states = []
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
        config, depth = self.states[i]
        if config is None:
            return "<belief-breakdown>"
        node, obs, world = config
        return "<node %d | %s | %r | depth %d>" % (node, obs.render(), world,
                                                   depth)


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
    """Forward exploration of the reachable configurations by depth."""
    k = abstraction.horizon
    ctx = abstraction.context
    rbat = abstraction.rbat
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

    start = _add_state(p, ((0, abstraction.kb0, tau.witness), 0))
    p.obs_of[start] = observation_of(abstraction.kb0)
    queue = deque([start])
    while queue:
        si = queue.popleft()
        config, depth = p.states[si]
        if config is None:  # breakdown sink
            p.transitions[si][FAILURE_NAME] = [(si, Fraction(1))]
            continue
        node, kb, world = config
        trans = p.transitions[si]
        choices = []
        if depth == k:
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
            for t, like in rbat.branches(world, edge.prim.symbol,
                                         edge.prim.args):
                kb2 = next_observation(kb, t, progress_kb)
                # every breakdown branch goes to the one sink state
                target = _add_state(p, (None, None) if kb2 is BREAKDOWN else (
                    (edge.target, kb2, rbat.step(world, t)[1]), depth + 1))
                if p.obs_of[target] is None:
                    p.obs_of[target] = observation_of(kb2)
                    queue.append(target)
                    if kb2 is BREAKDOWN:
                        p.breakdown_states += 1
                        log.warning("belief-breakdown branch reached via %s "
                                    "at %s", t, p.state_str(si))
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
    # states in build order, which is breadth first with edges and
    # outcomes in declaration order; worlds are left out, so types whose
    # POMDPs differ only in their worlds serialise alike.  The breakdown
    # sink has node and depth -1.
    shown = [(obs.render(model.fluent_order),
              sorted(print_formula(formulas[j].formula) for j in labels))
             for obs, labels in zip(p.observations, p.labels)]
    states = []
    for (config, depth), obs in zip(p.states, p.obs_of):
        rendered, labels = shown[obs]
        states.append({
            "depth": -1 if config is None else depth,
            "node": -1 if config is None else config[0],
            "observation": rendered,
            "labels": labels,
        })
    transitions = sorted(
        (i, label, target, frac_str(prob))
        for i, trans in enumerate(p.transitions)
        for label, targets in trans.items() for target, prob in targets)
    return {
        "k": p.k,
        "initial": p.initial,
        "states": states,
        "transitions": [list(t) for t in transitions],
    }


def pomdp_fingerprint(p, model, abstraction) -> bytes:
    """Canonical byte string of the structure."""
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
