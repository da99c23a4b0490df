"""The configuration table, and finite POMDP construction for one type.

A configuration is a program position with the agent's observation, in a
real world: (graph node, observation, world).  ConfigTable has one entry
per configuration a run meets, and fills each part of an entry once: the
enabled edges (evaluated once per (node, observation)), each edge's move
(a row of the real Bat's branches at the entry's own world) and each
outcome's successor entry or BREAKDOWN.  One table serves every type of a
verify call, and simulate.TraceEngine extends it for sampling, so the
successor rule lives here alone.

A POMDP state is a configuration at a depth, ((node, observation, world),
depth): build_pomdp unrolls the table breadth first by depth from (0, the
initial knowledge base, the type witness).  The type fixes the truth of
every likelihood context along every sequence, so any world of the type
gives the same weights.  Sequences that reach one configuration at one
depth reach one state, which is exact: its future depends only on the
configuration.  Branches whose real probability is 0 are omitted; really
possible but believed impossible ones (the Bayes normalizer is 0) go to
one "belief-breakdown" sink with an empty label set, so the real
probability mass is still accounted for.  Terminal (final/failing)
states carry self-loops, keeping all paths infinite; frontier states at
the horizon carry a fail self-loop.
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


class Configuration:
    """One entry of the table, filled by ConfigTable: fill sets live (the
    enabled edges), is_final, is_failing and moves; labels waits for a
    policy map or a POMDP state to read it."""

    __slots__ = ("node", "obs", "world", "live", "is_final", "is_failing",
                 "moves", "labels")

    def __init__(self, node, obs, world):
        self.node = node
        self.obs = obs
        self.world = world
        self.live = self.moves = self.labels = None
        self.is_final = self.is_failing = False


class Move:
    """An enabled edge taken from one configuration: its really-possible
    outcomes ((ground action, real likelihood), ...), the cut-offs that
    real_outcomes gave with them, and per outcome its successor or None."""

    __slots__ = ("edge", "outcomes", "cuts", "succ")

    def __init__(self, edge, outcomes, cuts):
        self.edge = edge
        self.outcomes = outcomes
        self.cuts = cuts
        self.succ = [None] * len(outcomes)


class ConfigTable:
    """The configurations of one run over a program graph, a real Bat and
    an initial knowledge base, each filled once."""

    def __init__(self, graph, rbat, kb0):
        self.graph = graph
        self.rbat = rbat
        self.kb0 = kb0
        self._enabled = {}  # (node, observation) -> enabled(...)
        self._entries = {}  # (node, observation, world) -> Configuration

    def entry(self, node, obs, world):
        key = (node, obs, world)
        hit = self._entries.get(key)
        if hit is None:
            hit = self._entries[key] = Configuration(node, obs, world)
        return hit

    def enabled_at(self, node, kb):
        key = (node, kb)
        hit = self._enabled.get(key)
        if hit is None:
            hit = self._enabled[key] = enabled(self.graph, node, kb)
        return hit

    def progress(self, kb, action):
        return next_observation(kb, action, progress_kb)

    def world_after(self, world, action):
        return self.rbat.step(world, action)[1]

    def real_outcomes(self, world, edge):
        """The real branches row of an edge's primitive program at world,
        and no cut-offs."""
        prim = edge.prim
        return self.rbat.branches(world, prim.symbol, prim.args), None

    def fill(self, entry):
        live, entry.is_final, entry.is_failing = \
            self.enabled_at(entry.node, entry.obs)
        entry.moves = [None] * len(live)
        entry.live = live

    def move(self, entry, i):
        edge = entry.live[i]
        move = entry.moves[i] = Move(edge, *self.real_outcomes(entry.world, edge))
        return move

    def successor(self, entry, move, j):
        t = move.outcomes[j][0]
        obs = self.progress(entry.obs, t)
        succ = move.succ[j] = BREAKDOWN if obs is BREAKDOWN else self.entry(
            move.edge.target, obs, self.world_after(entry.world, t))
        return succ

    def labels(self, entry):
        if entry.labels is None:
            entry.labels = [print_program(e.prim) for e in entry.live]
        return entry.labels


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
        return list(dict.fromkeys(label for t in self.transitions for label in t))

    def state_str(self, i):
        config, depth = self.states[i]
        if config is None:
            return "<belief-breakdown>"
        node, obs, world = config
        return "<node %d | %s | %r | depth %d>" % (node, obs.render(), world,
                                                   depth)


def build_pomdp(table, abstraction, tau, type_id=None) -> FinitePomdp:
    """The table unrolled breadth first by depth from the type witness."""
    k = abstraction.horizon
    ctx = abstraction.context
    p = FinitePomdp(k, type_id)
    # keyed by the observation itself: a KnowledgeBase caches its hash and
    # equal ones are one interned object, and BREAKDOWN is a singleton
    obs_index = {}
    queue = deque()  # (state, its Configuration or BREAKDOWN)

    def state(entry, depth):
        key = (None, None) if entry is BREAKDOWN else (
            (entry.node, entry.obs, entry.world), depth)
        index = p.state_index.get(key)
        if index is None:
            index = p.state_index[key] = len(p.states)
            p.states.append(key)
            p.transitions.append({})
            queue.append((index, entry))
            kb = BREAKDOWN if entry is BREAKDOWN else entry.obs
            if kb not in obs_index:
                obs_index[kb] = len(p.observations)
                p.observations.append(kb)
                # the breakdown label set is empty, even for a negation
                p.labels.append(frozenset() if kb is BREAKDOWN else frozenset(
                    i for i in ctx.subjective_indices()
                    if eval_subjective(kb, ctx.formulas[i].formula)))
            p.obs_of.append(obs_index[kb])
        return index

    state(table.entry(0, table.kb0, tau.witness), 0)
    while queue:
        si, entry = queue.popleft()
        trans = p.transitions[si]
        depth = p.states[si][1]
        if entry is BREAKDOWN or depth == k:  # the sink, or the frontier
            trans[FAILURE_NAME] = [(si, Fraction(1))]
            if entry is not BREAKDOWN:
                p.agent_actions.setdefault(p.obs_of[si], None)
            continue
        if entry.live is None:
            table.fill(entry)
        if entry.is_final:
            trans[EPSILON_NAME] = [(si, Fraction(1))]
        labels = table.labels(entry)
        for i, label in enumerate(labels):
            if label in trans:
                raise LikelihoodContextError(
                    f"two enabled transitions share the action {label!r} at "
                    f"{p.state_str(si)}; per-action successor would be ambiguous")
            move = entry.moves[i] or table.move(entry, i)
            branches = {}
            for j, (t, like) in enumerate(move.outcomes):
                succ = move.succ[j] or table.successor(entry, move, j)
                # every breakdown branch goes to the one sink state
                if succ is BREAKDOWN and not p.breakdown_states:
                    p.breakdown_states = 1
                    log.warning("belief-breakdown branch reached via %s "
                                "at %s", t, p.state_str(si))
                target = state(succ, depth + 1)
                branches[target] = branches.get(target, Fraction(0)) + like
            trans[label] = sorted(branches.items())
        agent = tuple(labels) + ((EPSILON_NAME,) if entry.is_final else ())
        if not agent:
            trans[FAILURE_NAME] = [(si, Fraction(1))]
        obs = p.obs_of[si]
        known = p.agent_actions.get(obs)
        if known is None:
            p.agent_actions[obs] = agent
        elif known != agent:
            raise ObservationUniformityError(
                f"states sharing observation {obs} disagree on enabled "
                f"actions: {known} vs {agent} at {p.state_str(si)}")
    # frontier-only observations never offer a choice
    p.agent_actions = {obs: acts or () for obs, acts in p.agent_actions.items()}
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
