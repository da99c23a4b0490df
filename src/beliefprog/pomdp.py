"""The configuration table, and finite POMDP construction for one type.

A configuration is a program position with the agent's observation, in a
real world: (graph node, observation, world).  ConfigTable gives each
configuration a run meets an id, keyed by (node, knowledge-base id, world
id) in the believed and real Bats, and keeps its parts in flat lists over
three kinds of id, each part filled once: per configuration its enabled
edges (evaluated once per (node, knowledge-base id)) and its move slots,
one per choice; per move slot the RealRow its move reads and its
successor slots, one per outcome; per successor slot its configuration
id, or BROKE for BREAKDOWN.  A move reads the one RealRow of its edge's
class at its configuration's world, keyed by the class id build_graph
gives the edge and the world id: the real Bat's branches there, and per
outcome, filled on first use, the successor world and the believed Bat's
ClassTable of the outcome's class.  So a move or successor met again
reads the row and calls no Bat method, and only a progression or step
met for the first time goes through progress_kb or Bat.step, whose tables
keep it.  One table serves every type of a verify call, and
simulate.TraceEngine extends it for sampling, so the successor rule lives
here alone.  The belief worlds summed over the configurations' knowledge
bases are capped by TABLE_BUDGET.  Guards and labels are read through
kb.eval_subjective, whose truths the believed Bat keeps per knowledge
base, so every node and every type shares them.

A POMDP state is a configuration id at a depth, so every type's POMDP
over one table shares the configurations: build_pomdp unrolls the table
breadth first by depth from the configuration (0, the initial knowledge
base, the type witness).  The type fixes the truth of every likelihood
context along every sequence, so any world of the type gives the same
weights.  Sequences that reach one configuration at one depth reach one
state, which is exact: its future depends only on the configuration.
Branches whose real probability is 0 are omitted; really possible but
believed impossible ones (the Bayes normalizer is 0) go to one
"belief-breakdown" sink with an empty label set, so the real probability
mass is still accounted for.  Terminal (final/failing) states carry
self-loops, keeping all paths infinite; frontier states at the horizon
carry a fail self-loop.
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


class RealRow:
    """The real branches of one observed class at one world, which every
    move of an edge of that class at that world reads: its outcomes
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


# a successor slot's code before it is reached, and for BREAKDOWN
UNREACHED, BROKE = -1, -2


class ConfigTable:
    """The configurations of one run over a program graph, a real Bat and
    an initial knowledge base, each filled once, and the real rows their
    moves read, one per (edge class id, world id).  A configuration's move
    slots are its live edges, then the stop when it is final, made when it
    is filled; a move's successor slots are its row's outcomes."""

    def __init__(self, graph, rbat, kb0):
        self.graph = graph
        self.rbat = rbat
        self.kb0 = kb0
        self._enabled = {}  # (node, kb id) -> enabled(...)
        self._ids = {}  # (node, kb id, world id) -> configuration id
        self._rows = [{} for _ in graph.classes]  # [cid][world id] -> RealRow
        # per configuration id; the enabled(...) triple (live edges, is
        # final, is failing) and first move slot are None and -1 until filled
        self.nodes, self.kbs, self.worlds = [], [], []
        self.enabled, self.first_moves = [], []
        # per move slot: its configuration id, RealRow (None until the move
        # is made, and for the stop) and first successor slot
        self.slot_config, self.real_rows, self.first_succs = [], [], []
        # per successor slot: its move slot, and its successor
        self.succ_slot, self.succs = [], []  # a configuration id, or a code
        self.support = 0  # belief worlds summed over the configurations

    def entry(self, node, obs, world):
        """The id of (node, obs, world), keyed by the ids of obs in kb0's
        Bat and of world in rbat; a value of another Bat, or of none, is
        first interned there."""
        if obs.bat is not self.kb0.bat:
            obs = KnowledgeBase(obs.dist, self.kb0.bat)
        if world.bat is not self.rbat:
            world = self.rbat.intern(world)
        key = (node, obs.id, world.id)
        c = self._ids.get(key)
        if c is None:
            support = self.support + len(obs.num)
            if support > TABLE_BUDGET:
                raise TableBudgetError(
                    f"the configurations reached hold more than {TABLE_BUDGET} "
                    "belief worlds in all, the budget; lower --horizon or "
                    "the property's step bound")
            self.support = support
            c = self._ids[key] = len(self.nodes)
            self.nodes.append(node)
            self.kbs.append(obs)
            self.worlds.append(world)
            self.enabled.append(None)
            self.first_moves.append(-1)
        return c

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

    def fill(self, c):
        """Fill configuration c, and make its move slots."""
        fill = self.enabled_at(self.nodes[c], self.kbs[c])
        n = len(fill[0]) + fill[1]
        self.first_moves[c] = len(self.real_rows)
        self.slot_config += [c] * n
        self.real_rows += [None] * n
        self.first_succs += [-1] * n
        self.enabled[c] = fill

    def move(self, m):
        """Make the move of move slot m, a live edge's, and its successor
        slots; returns its RealRow, that of the edge's class at the
        configuration's world."""
        c = self.slot_config[m]
        edge = self.enabled[c][0][m - self.first_moves[c]]
        world = self.worlds[c]
        rows = self._rows[edge.cid]
        row = rows.get(world.id)
        if row is None:
            row = rows[world.id] = RealRow(*self.real_outcomes(world, edge))
        n = len(row.outcomes)
        self.first_succs[m] = len(self.succs)
        self.succ_slot += [m] * n
        self.succs += [UNREACHED] * n
        self.real_rows[m] = row
        return row

    def successor(self, s):
        """The successor of successor slot s, a configuration id or BROKE:
        the knowledge base is progressed first, and the world stepped only
        for a configuration.  The row finds a progression made before in
        its class table, and keeps the step's world, so neither needs a
        Bat call."""
        m = self.succ_slot[s]
        c, row = self.slot_config[m], self.real_rows[m]
        j, kb = s - self.first_succs[m], self.kbs[c]
        t = row.outcomes[j][0]
        table = row.tables[j]
        if table is None:
            table = row.tables[j] = kb.bat.class_table(t)
        obs = table.progressed.get(kb.id) or self.progress(kb, t)
        if obs is BREAKDOWN:
            succ = BROKE
        else:
            after = row.after[j]
            if after is None:
                after = row.after[j] = self.world_after(self.worlds[c], t)
            edge = self.enabled[c][0][m - self.first_moves[c]]
            succ = self.entry(edge.target, obs, after)
        self.succs[s] = succ
        return succ


class FinitePomdp:
    """One type's POMDP up to horizon k.  A state is a (configuration id,
    depth) pair of the table it was built from, or the sink (None, None)."""

    def __init__(self, k, type_id=None, table=None):
        self.k = k
        self.type_id = type_id
        self.table = table
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
        c, depth = self.states[i]
        if c is None:
            return "<belief-breakdown>"
        t = self.table
        return "<node %d | %s | %r | depth %d>" % (
            t.nodes[c], t.kbs[c].render(), t.worlds[c], depth)


def build_pomdp(table, abstraction, witness, type_id=None) -> FinitePomdp:
    """The table unrolled breadth first by depth from a type's witness
    world."""
    k = abstraction.horizon
    ctx = abstraction.context
    p = FinitePomdp(k, type_id, table)
    # keyed by the observation's key: a knowledge base's is its value over
    # its Bat's world ids, whose frozenset caches its hash
    obs_index = {}

    def state(c, depth):
        key = (None, None) if c == BROKE else (c, depth)
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
            kb = BREAKDOWN if c == BROKE else table.kbs[c]
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
    for si, (c, depth) in enumerate(p.states):
        trans = p.transitions[si]
        if c is None or depth == k:  # the sink, or the frontier
            trans[FAILURE_NAME] = [(si, ONE)]
            if c is not None:
                p.agent_actions.setdefault(p.obs_of[si], None)
            continue
        if table.enabled[c] is None:
            table.fill(c)
        live, is_final, _failing = table.enabled[c]
        if is_final:
            trans[EPSILON_NAME] = [(si, ONE)]
        m = table.first_moves[c]
        for edge in live:
            label = edge.label
            if label in trans:
                raise LikelihoodContextError(
                    f"two enabled transitions share the action {label!r} at "
                    f"{p.state_str(si)}; per-action successor would be ambiguous")
            row = table.real_rows[m] or table.move(m)
            s = table.first_succs[m]
            branches = {}
            for t, like in row.outcomes:
                succ = table.succs[s]
                if succ == UNREACHED:
                    succ = table.successor(s)
                s += 1
                # every breakdown branch goes to the one sink state
                if succ == BROKE and not p.breakdown_states:
                    p.breakdown_states = 1
                    log.warning("belief-breakdown branch reached via %s "
                                "at %s", t, p.state_str(si))
                target = state(succ, depth + 1)
                branches[target] = branches[target] + like \
                    if target in branches else like
            trans[label] = sorted(branches.items())
            m += 1
        agent = tuple(e.label for e in live) + (
            (EPSILON_NAME,) if is_final else ())
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
    for (c, depth), obs in zip(p.states, p.obs_of):
        rendered, labels = shown[obs]
        states.append({
            "depth": -1 if c is None else depth,
            "node": -1 if c is None else p.table.nodes[c],
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
