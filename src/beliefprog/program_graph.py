"""Characteristic program graph: finite transition structure of a program.

Nodes are canonical reachable subprograms (Seq with Nil collapsed), node 0
is the whole program.  Each edge carries a subjective guard and a primitive
program; each node carries a termination condition.  The failure condition
is the negation of the termination condition and all guards.

The construction is the syntactic recasting of the configuration transition
rules:

    edges(prim)          = {(true, prim, nil)}
    edges(test)          = {}
    edges(d1; d2)        = {(g, p, d'; d2)} for steps of d1
                         u {(fin(d1) & g, p, d')} for steps of d2
    edges(d1 | d2)       = union
    edges(d*)            = {(g, p, d'; d*)} for steps of d

    fin(nil) = true   fin(prim) = false   fin(test a) = a
    fin(d1; d2) = fin(d1) & fin(d2)
    fin(d1 | d2) = fin(d1) | fin(d2)     fin(d*) = true
"""

from collections import deque

from .kb import GroundAction, eval_subjective
from .syntax import (Choice, FALSE, Nil, Prim, Seq, Star, Test, TRUE, conj,
                     disj, neg, print_formula, print_program, seq, walk)


def fin_condition(delta):
    if isinstance(delta, Nil):
        return TRUE
    if isinstance(delta, Prim):
        return FALSE
    if isinstance(delta, Test):
        return delta.cond
    if isinstance(delta, Seq):
        return conj(fin_condition(delta.first), fin_condition(delta.second))
    if isinstance(delta, Choice):
        return disj(fin_condition(delta.left), fin_condition(delta.right))
    if isinstance(delta, Star):
        return TRUE
    raise TypeError(delta)


def step_edges(delta):
    """Raw (guard, prim, successor) triples of one subprogram."""
    if isinstance(delta, (Nil, Test)):
        return []
    if isinstance(delta, Prim):
        return [(TRUE, delta, Nil())]
    if isinstance(delta, Seq):
        out = [(g, p, seq(d, delta.second))
               for g, p, d in step_edges(delta.first)]
        fin1 = fin_condition(delta.first)
        if fin1 != FALSE:
            out.extend((conj(fin1, g), p, d)
                       for g, p, d in step_edges(delta.second))
        return out
    if isinstance(delta, Choice):
        return step_edges(delta.left) + step_edges(delta.right)
    if isinstance(delta, Star):
        return [(g, p, seq(d, delta)) for g, p, d in step_edges(delta.body)]
    raise TypeError(delta)


def program_prims(delta):
    """Primitive programs in source order, deduplicated."""
    return list(dict.fromkeys(node for node in walk(delta) if isinstance(node, Prim)))


class Edge:
    """A guarded step to node target; label, the primitive's name printed
    once, is the action of its POMDP transitions and policy choices, and
    cls, the primitive's observed class symbol(args, _), keys its real
    branches; build_graph gives the edges of equal classes one cls object
    and one class id, cid, counted from 0."""

    __slots__ = ("guard", "prim", "target", "label", "cls", "cid")

    def __init__(self, guard, prim, target, cls, cid):
        self.guard = guard
        self.prim = prim
        self.target = target
        self.label = print_program(prim)
        self.cls = cls
        self.cid = cid

    def __repr__(self):
        return f"Edge({print_formula(self.guard)}, {self.label}, {self.target})"


class CharGraph:
    def __init__(self, nodes, edges, fin, fail, classes):
        self.nodes = nodes          # canonical subprograms, node 0 = program
        self.edges = edges          # list of Edge lists, per node
        self.fin = fin              # termination formula per node
        self.fail = fail            # failure formula per node
        self.classes = classes      # the edges' observed classes, by cid


def build_graph(delta) -> CharGraph:
    """Explore the subprogram closure of delta breadth-first."""
    nodes = [delta]
    index = {delta: 0}
    edges = []
    fin = []
    fail = []
    classes, cids = [], {}  # the edges' observed classes, and their cids
    frontier = deque([delta])
    while frontier:
        node = frontier.popleft()
        raw = step_edges(node)
        out = []
        for guard, prim, succ in raw:
            if succ not in index:
                index[succ] = len(nodes)
                nodes.append(succ)
                frontier.append(succ)
            cls = GroundAction(prim.symbol, prim.args, ())
            cid = cids.setdefault(cls, len(classes))
            if cid == len(classes):
                classes.append(cls)
            out.append(Edge(guard, prim, index[succ], classes[cid], cid))
        edges.append(out)
        f = fin_condition(node)
        fin.append(f)
        guards = FALSE
        for e in out:
            guards = disj(guards, e.guard)
        fail.append(neg(disj(f, guards)))
    return CharGraph(nodes, edges, fin, fail, classes)


def enabled(graph, node, kb):
    """Edges whose guard holds at this knowledge base, plus the node's
    final/failing status.  Failing iff neither final nor any edge enabled.
    """
    live = [e for e in graph.edges[node] if eval_subjective(kb, e.guard)]
    is_final = eval_subjective(kb, graph.fin[node])
    is_failing = not is_final and not live
    return live, is_final, is_failing


def to_dot(graph) -> str:
    lines = ["digraph program {", "  rankdir=LR;", "  node [shape=box];"]
    for i, node in enumerate(graph.nodes):
        label = print_program(node).replace('"', r'\"')
        fin = print_formula(graph.fin[i]).replace('"', r'\"')
        fail = print_formula(graph.fail[i]).replace('"', r'\"')
        lines.append(f'  n{i} [label="{i}: {label}\\nFin: {fin}\\nFail: {fail}"];')
    for i, out in enumerate(graph.edges):
        for e in out:
            label = "%s / %s" % (print_formula(e.guard).replace('"', r'\"'),
                                 e.label)
            lines.append(f'  n{i} -> n{e.target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
