from beliefprog import (build_graph, enabled, initial_kb, parse_ground_action,
                        parse_model, progress_kb)
from beliefprog import syntax as S
from beliefprog.kb import KnowledgeBase, believed_bat, make_world
from beliefprog.program_graph import to_dot
from beliefprog.syntax import Nil, Prim, print_formula, print_program
from fractions import Fraction


def test_nil_graph():
    g = build_graph(Nil())
    assert len(g.nodes) == 1
    assert g.edges[0] == []
    assert g.fin[0] == S.TRUE
    assert g.fail[0] == S.FALSE


def test_single_action_graph():
    delta = Prim("east", (Fraction(1),))
    g = build_graph(delta)
    assert len(g.nodes) == 2
    assert len(g.edges[0]) == 1
    e = g.edges[0][0]
    assert e.guard == S.TRUE and e.target == 1
    assert isinstance(g.nodes[1], Nil)
    assert g.fin[0] == S.FALSE and g.fin[1] == S.TRUE
    assert g.fail[0] == S.FALSE  # the unguarded edge is always enabled


def test_coffee_graph_two_loop_heads(coffee):
    g = build_graph(coffee.program)
    # outer-loop head (whole program) and inner-loop head
    assert len(g.nodes) == 2
    outer = [(print_formula(e.guard), print_program(e.prim), e.target)
             for e in g.edges[0]]
    assert outer == [
        ("B(h = 2) < 1 & Conf(h, 1/2) <= 1/2", "sencfe", 1),
        ("B(h = 2) < 1 & !(Conf(h, 1/2) <= 1/2)", "east(1)", 0),
    ]
    inner = [(print_formula(e.guard), print_program(e.prim), e.target)
             for e in g.edges[1]]
    assert inner == [
        ("Conf(h, 1/2) <= 1/2", "sencfe", 1),
        ("!(Conf(h, 1/2) <= 1/2)", "east(1)", 0),
    ]
    assert print_formula(g.fin[0]) == "!(B(h = 2) < 1)"
    assert g.fin[1] == S.FALSE


def test_enabled_at_initial_kb(coffee):
    # Conf(h,1/2) = 1 initially, so the inner loop is skipped: east is the
    # one enabled action
    g = build_graph(coffee.program)
    kb = initial_kb(coffee)
    live, is_final, is_failing = enabled(g, 0, kb)
    assert [print_program(e.prim) for e in live] == ["east(1)"]
    assert not is_final and not is_failing


def test_enabled_after_east(coffee):
    g = build_graph(coffee.program)
    kb1 = progress_kb(initial_kb(coffee), parse_ground_action("east(1, 1)", coffee))
    live, is_final, is_failing = enabled(g, 0, kb1)
    assert [print_program(e.prim) for e in live] == ["sencfe"]
    assert not is_final


def test_certainty_makes_outer_node_final(coffee):
    g = build_graph(coffee.program)
    kb = KnowledgeBase({make_world(coffee, [2]): Fraction(1)}, believed_bat(coffee))
    live, is_final, is_failing = enabled(g, 0, kb)
    assert live == [] and is_final and not is_failing


def test_nil_node_always_final(coffee):
    g = build_graph(Nil())
    live, is_final, is_failing = enabled(g, 0, initial_kb(coffee))
    assert is_final and not is_failing and live == []


def test_guard_partition_holds_on_reachable_kbs(coffee):
    # exactly one of {some edge enabled or final, failing} at every node
    g = build_graph(coffee.program)
    kb = initial_kb(coffee)
    seen = [kb]
    for term in ("east(1, 1)", "sencfe(0)", "east(1, 1)", "sencfe(1)"):
        kb = progress_kb(kb, parse_ground_action(term, coffee))
        seen.append(kb)
    for kb in seen:
        for node in range(len(g.nodes)):
            live, is_final, is_failing = enabled(g, node, kb)
            assert is_failing == (not live and not is_final)


def test_star_graph_nodes_bounded():
    # (a)* shares the node for a; Star(a) and closure stay finite
    prim = Prim("a", ())
    g_plain = build_graph(prim)
    g_star = build_graph(S.Star(prim))
    assert len(g_star.nodes) <= len(g_plain.nodes) + 1


def test_choice_keeps_edge_order():
    delta = S.Choice(Prim("a", ()), Prim("b", ()))
    g = build_graph(delta)
    assert [print_program(e.prim) for e in g.edges[0]] == ["a", "b"]


def test_dot_export_mentions_guards(coffee):
    g = build_graph(coffee.program)
    dot = to_dot(g)
    assert "digraph" in dot and "sencfe" in dot and "Fin:" in dot
