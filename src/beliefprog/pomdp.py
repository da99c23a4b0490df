"""The configuration table, and finite POMDP construction for one type.

A configuration is a program position with the agent's observation, in a
real world: (graph node, observation, world).  ConfigTable has one entry
per configuration a run meets, keyed by (node, knowledge-base id, world
id) in the believed and real Bats, and fills each part of an entry once:
the enabled edges (evaluated once per (node, knowledge-base id)), each
edge's move and each outcome's successor entry or BREAKDOWN.  A move
refers to the one RealRow of its edge's class at the entry's world, keyed
by the class id build_graph gives the edge and the world id: the real
Bat's branches there, and per outcome, filled on first use, the successor
world and the believed Bat's ClassTable of the outcome's class.  So a
move or successor met again reads the row and calls no Bat method, and
only a progression or step met for the first time goes through
progress_kb or Bat.step, whose tables keep it.  One table serves every
type of a verify call, and simulate.TraceEngine extends it for sampling,
so the successor rule lives here alone.  The belief worlds summed over the
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

from .errors import (LikelihoodContextError, ObservationUniformityError,
                     StateBudgetError, TableBudgetError)
from .kb import (BREAKDOWN, ONE, KnowledgeBase, eval_subjective,
                 next_observation, progress_kb)
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
    with its id, its index in the table's list; ConfigTable fills it: fill
    sets live (the enabled edges), is_final, is_failing and moves."""

    __slots__ = ("node", "obs", "world", "id", "live", "is_final",
                 "is_failing", "moves")

    def __init__(self, node, obs, world, id=None):
        self.node = node
        self.obs = obs
        self.world = world
        self.id = id
        self.live = self.moves = None
        self.is_final = self.is_failing = False


class RealRow:
    """The real branches of one observed class at one world, which every
    Move of an edge of that class at that world reads: its outcomes
    ((ground action, real likelihood), ...), the cut-offs real_outcomes
    gave with them, and per outcome, filled on first use, its successor
    world and the believed Bat's ClassTable of its observed class.  The
    row makes no step or progression: it points at the world that the real
    Bat's step interned and keeps, and at the table that keeps the
    progressions."""

    __slots__ = ("outcomes", "cuts", "after", "tables")

    def __init__(self, outcomes, cuts):
        self.outcomes = outcomes
        self.cuts = cuts
        self.after = [None] * len(outcomes)
        self.tables = [None] * len(outcomes)


class Move:
    """An enabled edge taken from one configuration: the real row of its
    class at the configuration's world, and per outcome its successor or
    None."""

    __slots__ = ("edge", "row", "succ")

    def __init__(self, edge, row):
        self.edge = edge
        self.row = row
        self.succ = [None] * len(row.outcomes)


class ConfigTable:
    """The configurations of one run over a program graph, a real Bat and
    an initial knowledge base, each filled once, and the real rows their
    moves read, one per (edge class id, world id)."""

    def __init__(self, graph, rbat, kb0):
        self.graph = graph
        self.rbat = rbat
        self.kb0 = kb0
        self._enabled = {}  # (node, kb id) -> enabled(...)
        self._entries = {}  # (node, kb id, world id) -> Configuration
        self._rows = [{} for _ in graph.classes]  # [cid][world id] -> RealRow
        self.configs = []  # every entry, by id
        self.support = 0  # belief worlds summed over the entries

    def entry(self, node, obs, world):
        """The one entry of (node, obs, world), keyed by the ids of obs in
        kb0's Bat and of world in rbat; a value of another Bat, or of none,
        is first interned there."""
        if obs.bat is not self.kb0.bat:
            obs = KnowledgeBase(obs.dist, self.kb0.bat)
        if world.bat is not self.rbat:
            world = self.rbat.intern(world)
        key = (node, obs.id, world.id)
        hit = self._entries.get(key)
        if hit is None:
            support = self.support + len(obs.num)
            if support > TABLE_BUDGET:
                raise TableBudgetError(
                    f"the configurations reached hold more than {TABLE_BUDGET} "
                    "belief worlds in all, the budget; lower --horizon or "
                    "the property's step bound")
            self.support = support
            hit = self._entries[key] = Configuration(node, obs, world,
                                                     len(self.configs))
            self.configs.append(hit)
        return hit

    def enabled_at(self, node, kb):
        key = (node, kb.id)
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
        return self.rbat.branches(world, edge.cls), None

    def fill(self, entry):
        live, entry.is_final, entry.is_failing = \
            self.enabled_at(entry.node, entry.obs)
        entry.moves = [None] * len(live)
        entry.live = live

    def move(self, entry, i):
        edge, world = entry.live[i], entry.world
        rows = self._rows[edge.cid]
        row = rows.get(world.id)
        if row is None:
            row = rows[world.id] = RealRow(*self.real_outcomes(world, edge))
        move = entry.moves[i] = Move(edge, row)
        return move

    def successor(self, entry, move, j):
        """Outcome j's successor entry, or BREAKDOWN: the knowledge base is
        progressed first, and the world stepped only for an entry.  The
        row finds a progression made before in its class table, and keeps
        the step's world, so neither needs a Bat call."""
        row, kb = move.row, entry.obs
        t = row.outcomes[j][0]
        table = row.tables[j]
        if table is None:
            table = row.tables[j] = kb.bat.class_table(t)
        obs = table.progressed.get(kb.id) or self.progress(kb, t)
        if obs is BREAKDOWN:
            succ = BREAKDOWN
        else:
            after = row.after[j]
            if after is None:
                after = row.after[j] = self.world_after(entry.world, t)
            succ = self.entry(move.edge.target, obs, after)
        move.succ[j] = succ
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


def build_pomdp(table, abstraction, witness, type_id=None) -> FinitePomdp:
    """The table unrolled breadth first by depth from a type's witness
    world."""
    k = abstraction.horizon
    ctx = abstraction.context
    p = FinitePomdp(k, type_id)
    # keyed by the observation's key: a knowledge base's is its value over
    # its Bat's world ids, whose frozenset caches its hash
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
            if kb.key not in obs_index:
                obs_index[kb.key] = len(p.observations)
                p.observations.append(kb)
                # the breakdown label set is empty, even for a negation
                p.labels.append(frozenset() if kb is BREAKDOWN else frozenset(
                    i for i in ctx.subjective_indices()
                    if eval_subjective(kb, ctx.formulas[i].formula)))
            p.obs_of.append(obs_index[kb.key])
        return index

    state(table.entry(0, table.kb0, witness), 0)
    # states are made in breadth-first order, so the list is the queue
    for si, (entry, depth) in enumerate(p.states):
        trans = p.transitions[si]
        if entry is None or depth == k:  # the sink, or the frontier
            trans[FAILURE_NAME] = [(si, ONE)]
            if entry is not None:
                p.agent_actions.setdefault(p.obs_of[si], None)
            continue
        if entry.live is None:
            table.fill(entry)
        if entry.is_final:
            trans[EPSILON_NAME] = [(si, ONE)]
        for i, edge in enumerate(entry.live):
            label = edge.label
            if label in trans:
                raise LikelihoodContextError(
                    f"two enabled transitions share the action {label!r} at "
                    f"{p.state_str(si)}; per-action successor would be ambiguous")
            move = entry.moves[i] or table.move(entry, i)
            branches = {}
            for j, (t, like) in enumerate(move.row.outcomes):
                succ = move.succ[j] or table.successor(entry, move, j)
                # every breakdown branch goes to the one sink state
                if succ is BREAKDOWN and not p.breakdown_states:
                    p.breakdown_states = 1
                    log.warning("belief-breakdown branch reached via %s "
                                "at %s", t, p.state_str(si))
                target = state(succ, depth + 1)
                branches[target] = branches[target] + like \
                    if target in branches else like
            trans[label] = sorted(branches.items())
        agent = tuple(e.label for e in entry.live) + (
            (EPSILON_NAME,) if entry.is_final else ())
        if not agent:
            trans[FAILURE_NAME] = [(si, ONE)]
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
