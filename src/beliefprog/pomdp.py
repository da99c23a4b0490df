"""The configuration table, and finite POMDP construction for one type.

A configuration is a program position with the agent's observation, in a
real world: (graph node, observation, world).  ConfigTable has one entry
per configuration a run meets, and fills each part of an entry once: the
enabled edges (evaluated once per (node, observation)), each edge's move
(a row of the real Bat's branches at the entry's own world) and each
outcome's successor entry or BREAKDOWN.  One table serves every type of a
verify call, and simulate.TraceEngine extends it for sampling, so the
successor rule lives here alone.  The belief worlds summed over the
entries' knowledge bases are capped by TABLE_BUDGET.  Guards and labels
are read through kb.eval_subjective, whose truths the believed Bat keeps
per knowledge base, so every node and every type shares them.

A POMDP state is a table entry at a depth, (Configuration, depth), so
every type's POMDP over one table shares the entries: build_pomdp unrolls
the table breadth first by depth from the entry (0, the initial knowledge
base, the type witness).  The type fixes the truth of every likelihood
context along every sequence, so any world of the type gives the same
weights.  Sequences that reach one configuration at one depth reach one
state, which is exact: its future depends only on the configuration.  Branches whose real probability is 0 are omitted; really
possible but believed impossible ones (the Bayes normalizer is 0) go to
one "belief-breakdown" sink with an empty label set, so the real
probability mass is still accounted for.  Terminal (final/failing)
states carry self-loops, keeping all paths infinite; frontier states at
the horizon carry a fail self-loop.
"""

import json
import logging
from fractions import Fraction

from .errors import (LikelihoodContextError, ObservationUniformityError,
                     StateBudgetError, TableBudgetError)
from .kb import BREAKDOWN, eval_subjective, next_observation, progress_kb
from .program_graph import enabled
from .syntax import EPSILON_NAME, FAILURE_NAME, frac_str, print_formula

log = logging.getLogger(__name__)

# Cap on the states of one type's POMDP.  On the choice model
# (perfbench/models/coffee_choice.bp) type 0 has 6621 states at F<=8 and
# 15900 at F<=9.
STATE_BUDGET = 10_000

# Cap on the belief worlds summed over the configurations of one table,
# each of which costs its knowledge base's support in every progression and
# belief sum.  On the choice model, 100 uniform-random trials (seed 1, h=0)
# reach 391,460 at --horizon 200 and 761,596 at 300; verifying P1 at F<=8
# reaches 34,506.
TABLE_BUDGET = 500_000

_PALETTE = ["black", "blue", "green", "red", "orange", "purple", "brown",
            "cyan", "magenta", "gray"]


class Configuration:
    """One entry of the table, the one object for its (node, obs, world),
    filled by ConfigTable: fill sets live (the enabled edges), is_final,
    is_failing and moves."""

    __slots__ = ("node", "obs", "world", "live", "is_final", "is_failing",
                 "moves")

    def __init__(self, node, obs, world):
        self.node = node
        self.obs = obs
        self.world = world
        self.live = self.moves = None
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
        self.support = 0  # belief worlds summed over the entries

    def entry(self, node, obs, world):
        key = (node, obs, world)
        hit = self._entries.get(key)
        if hit is None:
            support = self.support + len(obs.num)
            if support > TABLE_BUDGET:
                raise TableBudgetError(
                    f"the configurations reached hold more than {TABLE_BUDGET} "
                    "belief worlds in all, the budget; lower --horizon or "
                    "the property's step bound")
            self.support = support
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


class FinitePomdp:
    """One type's POMDP up to horizon k.  A state is a (Configuration,
    depth) pair of the table it was built from, or the sink (None, None)."""

    def __init__(self, k, type_id=None):
        self.k = k
        self.type_id = type_id
        self.states = []  # in build order
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
        entry, depth = self.states[i]
        if entry is None:
            return "<belief-breakdown>"
        return "<node %d | %s | %r | depth %d>" % (
            entry.node, entry.obs.render(), entry.world, depth)


def build_pomdp(table, abstraction, tau, type_id=None) -> FinitePomdp:
    """The table unrolled breadth first by depth from the type witness."""
    k = abstraction.horizon
    ctx = abstraction.context
    p = FinitePomdp(k, type_id)
    # keyed by the observation itself: a KnowledgeBase caches its hash and
    # equal ones are one interned object, and BREAKDOWN is a singleton
    obs_index = {}

    def state(entry, depth):
        key = (None, None) if entry is BREAKDOWN else (entry, depth)
        index = p.state_index.get(key)
        if index is None:
            if len(p.states) == STATE_BUDGET:
                raise StateBudgetError(
                    f"a type's POMDP up to horizon {k} has more than "
                    f"{STATE_BUDGET} states, the budget; lower the "
                    "property's step bound")
            index = p.state_index[key] = len(p.states)
            p.states.append(key)
            p.transitions.append({})
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
    # states are made in breadth-first order, so the list is the queue
    for si, (entry, depth) in enumerate(p.states):
        trans = p.transitions[si]
        if entry is None or depth == k:  # the sink, or the frontier
            trans[FAILURE_NAME] = [(si, Fraction(1))]
            if entry is not None:
                p.agent_actions.setdefault(p.obs_of[si], None)
            continue
        if entry.live is None:
            table.fill(entry)
        if entry.is_final:
            trans[EPSILON_NAME] = [(si, Fraction(1))]
        for i, edge in enumerate(entry.live):
            label = edge.label
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
        agent = tuple(e.label for e in entry.live) + (
            (EPSILON_NAME,) if entry.is_final else ())
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

def _canonical_struct(p, formulas):
    # states in build order, which is breadth first with edges and
    # outcomes in declaration order; worlds are left out, so types whose
    # POMDPs differ only in their worlds serialise alike.  The breakdown
    # sink has node and depth -1.
    printed = {j: print_formula(formulas[j].formula)
               for j in frozenset().union(*p.labels)}
    shown = [(obs.render(), sorted(map(printed.__getitem__, labels)))
             for obs, labels in zip(p.observations, p.labels)]
    states = []
    for (entry, depth), obs in zip(p.states, p.obs_of):
        rendered, labels = shown[obs]
        states.append({
            "depth": -1 if entry is None else depth,
            "node": -1 if entry is None else entry.node,
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


def pomdp_fingerprint(p, abstraction) -> bytes:
    """Canonical byte string of the structure."""
    data = _canonical_struct(p, abstraction.context.formulas)
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def to_json(p, abstraction) -> str:
    data = _canonical_struct(p, abstraction.context.formulas)
    data["type"] = p.type_id
    data["actions"] = p.action_labels()
    return json.dumps(data, indent=2, sort_keys=True)


def to_dot(p) -> str:
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
