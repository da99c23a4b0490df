from fractions import Fraction

import pytest

from beliefprog import ParseError, parse_ground_action, parse_model
from beliefprog import syntax as S
from beliefprog.errors import Diagnostic
from beliefprog.parser import _TOKEN_RE, MAX_DEPTH, parse_subjective, tokenize
from beliefprog.syntax import (Choice, Nil, Num, Prim, Seq, Star, depth,
                               print_model, print_program)
from conftest import COFFEE, ROOT, random_model_text


def test_coffee_model_shape(coffee):
    assert [f.name for f in coffee.fluents] == ["h"]
    east = coffee.action_decl("east")
    assert east.kind == "stochastic"
    assert east.ctrl == ("x",) and east.unctrl == ("y",)
    sen = coffee.action_decl("sencfe")
    assert sen.kind == "sensing" and sen.ctrl == ()
    assert len(coffee.real_bat.likelihood_for("sencfe").rows) == 3
    # believed table overrides only the sensor
    assert coffee.believed_bat.likelihood_for("east") == \
        coffee.real_bat.likelihood_for("east")
    assert coffee.believed_bat.likelihood_for("sencfe") != \
        coffee.real_bat.likelihood_for("sencfe")
    assert len(coffee.properties) == 2


def test_while_sugar_expansion(coffee):
    # while a do d end  ==  (a?; d)*; (!a)?
    prog = coffee.program
    assert isinstance(prog, Seq)
    assert isinstance(prog.first, Star)
    assert isinstance(prog.second, S.Test)
    inner = prog.first.body
    assert isinstance(inner, Seq) and isinstance(inner.first, S.Test)


def test_empty_program_parses_to_nil():
    m = parse_model("fluents h;\nbelief { (0): 1 }\nprogram { }")
    assert isinstance(m.program, Nil)


def test_decimal_literals_are_exact():
    m = parse_model("""
        fluents h;
        action s sensing(1, 0) {
          likelihood:
            case h = 2: 0.8, 0.2;
            default: 0.05, 0.95;
        }
        belief { (0): 0.25, (1): 0.75 }
        program { }
    """)
    assert m.kb0[0][1] == Fraction(1, 4)
    assert m.kb0[1][1] == Fraction(3, 4)
    row = m.real_bat.likelihood_for("s").rows[0]
    assert row.weights[0] == Num(Fraction(4, 5))
    default = m.real_bat.likelihood_for("s").rows[1]
    assert default.weights[0] == Num(Fraction(1, 20))


def test_whole_literals_parse_to_ints_and_others_to_fractions():
    m = parse_model("""
        fluents h;
        action a stochastic(; y) {
          outcomes: (2), (0.5), (1/2), (4/2), (007), (0.50), (2.0);
          likelihood: case true: 1/7, 1/7, 1/7, 1/7, 1/7, 1/7, 1/7;
        }
        ssa h { case a(y): h + y; default: h; }
        belief { (0): 1 }
        program { a }
    """)
    values = [vec[0].value for vec in m.real_bat.likelihood_for("a").outcomes]
    assert values == [2, Fraction(1, 2), Fraction(1, 2), 2, 7, Fraction(1, 2), 2]
    assert [type(v) for v in values] == [int, Fraction, Fraction, int, int,
                                         Fraction, int]
    assert type(m.kb0[0][1]) is int


def test_reserved_fluent_name_rejected():
    with pytest.raises(ParseError) as err:
        parse_model("fluents Final;\nbelief { (0): 1 }\nprogram { }")
    assert any(d.code == "reserved-name" for d in err.value.diagnostics)


def test_reserved_action_name_rejected():
    text = """
        fluents h;
        action eps stochastic(; y) { outcomes: (0); likelihood: case true: 1; }
        belief { (0): 1 }
        program { }
    """
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert any(d.code == "reserved-name" for d in err.value.diagnostics)


def test_undeclared_fluent_reported_with_position():
    with pytest.raises(ParseError) as err:
        parse_model("fluents h;\nssa g { default: 1; }\nbelief { (0): 1 }\nprogram { }")
    diag = [d for d in err.value.diagnostics if d.code == "undeclared"]
    assert diag


def test_arity_mismatch_in_program():
    text = """
        fluents h;
        action a stochastic(x; y) { outcomes: (x); likelihood: case true: 1; }
        belief { (0): 1 }
        program { a(1, 2) }
    """
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert any(d.code == "arity" for d in err.value.diagnostics)


def test_believed_override_reports_real_outcome_once():
    # an override without outcomes keeps the real table's, resolved once
    text = """fluents h;
action a stochastic(; y) {
  outcomes: (h);
  likelihood: case true: 1;
}
believed { action a { likelihood: case true: 1; } }
belief { (0): 1 }
program { a }
"""
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert [(d.code, d.line, d.col) for d in err.value.diagnostics] == \
        [("not-rigid", 3, 14)]
    assert "fluent 'h' not allowed in outcome values" in str(err.value)


def test_sensing_action_in_ssa_rejected():
    text = """
        fluents h;
        action s sensing(1, 0) { likelihood: case true: 1/2, 1/2; }
        ssa h { case s(y): y; default: h; }
        belief { (0): 1 }
        program { }
    """
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert any(d.code == "sensing-effect" for d in err.value.diagnostics)


def test_syntax_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_model("fluents h\nbelief { (0): 1 }")
    d = err.value.diagnostics[-1]
    assert d.line == 2 and d.col is not None


def test_quantifier_free_grammar_has_no_forall():
    with pytest.raises(ParseError):
        parse_model("fluents h;\nbelief { (0): 1 }\nprogram { (forall x: x = x)? }")


def test_if_sugar():
    text = """
        fluents h;
        action a stochastic(; y) { outcomes: (1); likelihood: case true: 1; }
        belief { (0): 1 }
        program { if B(h = 0) >= 1 then a else a; a end }
    """
    m = parse_model(text)
    assert isinstance(m.program, Choice)
    assert isinstance(m.program.left, Seq)
    assert isinstance(m.program.left.first, S.Test)


TWO_ACTIONS = """
    fluents h;
    action a stochastic(; y) { outcomes: (1); likelihood: case true: 1; }
    action b stochastic(; y) { outcomes: (1); likelihood: case true: 1; }
    belief { (0): 1 }
"""


def test_n_step_sequence_builds_n_minus_one_seq_nodes(monkeypatch):
    made = []
    build = Seq.__init__

    def counted(self, *args, **kwargs):
        made.append(None)
        build(self, *args, **kwargs)

    monkeypatch.setattr(Seq, "__init__", counted)
    steps = "; ".join(["a", "b"] * 30)
    m = parse_model(TWO_ACTIONS + f"program {{ {steps} }}")
    assert len(made) == 59
    assert print_program(m.program) == steps


def test_mixed_program_parses_to_one_right_chained_sequence():
    m = parse_model(TWO_ACTIONS + """program {
        a; (b; a); while B(h = 0) < 1 do a; b end;
        if B(h = 0) >= 1 then b else (a; b); a end; b
    }""")
    a, b = Prim("a", ()), Prim("b", ())
    bel = S.Bel(S.Cmp("=", S.FluentRef("h"), Num(Fraction(0))))
    loop = S.Cmp("<", bel, Num(Fraction(1)))
    cond = S.Cmp(">=", bel, Num(Fraction(1)))
    expected = Seq(a, Seq(b, Seq(a, Seq(
        Star(Seq(S.Test(loop), Seq(a, b))),
        Seq(S.Test(S.Not(loop)),
            Seq(Choice(Seq(S.Test(cond), b),
                       Seq(S.Test(S.Not(cond)), Seq(a, Seq(b, a)))),
                b))))))
    assert m.program == expected


def test_ground_action_parsing(coffee):
    a = parse_ground_action("east(1, 1)", coffee)
    assert a.symbol == "east" and a.ctrl == (Fraction(1),) and a.unctrl == (Fraction(1),)
    s = parse_ground_action("sencfe(0)", coffee)
    assert s.ctrl == () and s.unctrl == (Fraction(0),)
    assert parse_ground_action("eps", coffee).symbol == "eps"
    with pytest.raises(ParseError):
        parse_ground_action("east(1)", coffee)
    with pytest.raises(ParseError):
        parse_ground_action("west(1, 1)", coffee)
    # an outcome is declared per controllable argument: east(x, _) has x
    # and x - 1
    assert parse_ground_action("east(3, 2)", coffee).unctrl == (Fraction(2),)
    with pytest.raises(ParseError, match=r"east\(3, 1\) is not a declared "
                                         r"outcome; east declares east\(3, 3\), "
                                         r"east\(3, 2\)"):
        parse_ground_action("east(3, 1)", coffee)


def test_roundtrip_fixed_point(coffee_text):
    m1 = parse_model(coffee_text)
    printed = print_model(m1)
    m2 = parse_model(printed)
    assert m2 == m1
    assert parse_model(print_model(m2)) == m2


def test_property_interval_forms():
    text = """
        fluents h;
        belief { (0): 1 }
        program { }
        property PA { P[>= 1/20](F<=2 B(h = 0) = 1) }
        property PB { P(1/20, 1](X B(h = 0) = 1) }
        property PC { P[0, 1/2)(B(h = 0) = 1 U<=3 B(h = 1) = 1) }
    """
    m = parse_model(text)
    a = m.property_named("PA")
    assert a.interval.lo == Fraction(1, 20) and not a.interval.lo_open
    b = m.property_named("PB")
    assert b.interval.lo_open and not b.interval.hi_open
    c = m.property_named("PC")
    assert c.interval.hi_open and c.trace.bound == 3


def test_prim_args_are_rational_constants():
    text = """
        fluents h;
        action a stochastic(x; y) { outcomes: (x); likelihood: case true: 1; }
        belief { (0): 1 }
        program { a(1/2) }
    """
    m = parse_model(text)
    assert m.program == Prim("a", (Fraction(1, 2),))


def test_subjective_formula_requires_belief_wrapping():
    text = """
        fluents h;
        belief { (0): 1 }
        program { (h = 2)? }
    """
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert any(d.code == "sort" for d in err.value.diagnostics)


@pytest.mark.parametrize("section", [
    "program { ({case h = 1: 1; default: 0} = 1)? }",
    "program { ({case true: 1; default: 0} = 1)? }",
    "program { } property Q { P[>= 1/2](F<=1 {case h = 1: 1; default: 0} = 1) }",
])
def test_piecewise_term_in_a_subjective_formula_is_a_sort_error(section):
    with pytest.raises(ParseError) as err:
        parse_model(f"fluents h; belief {{ (0): 1 }} {section}")
    assert [d.code for d in err.value.diagnostics] == ["sort"]


def test_standalone_formulas_are_depth_bounded(coffee):
    # a subjective formula is its own root: n negations over a
    # comparison B(h = 2) = 1 are n + 4 nodes deep
    assert depth(parse_subjective("!" * (MAX_DEPTH - 4) + "B(h = 2) = 1", coffee)) \
        == MAX_DEPTH
    for n in (MAX_DEPTH - 3, 3000):
        with pytest.raises(ParseError) as err:
            parse_subjective("!" * n + "B(h = 2) = 1", coffee)
        assert [d.code for d in err.value.diagnostics] == ["nesting"]


def reference_tokenize(text):
    """The tokenizer that counts newlines in every lexeme, kept as the
    oracle of token positions."""
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError([Diagnostic(
                "syntax", f"unexpected character {text[pos]!r}", line, col)])
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            kind = m.lastgroup if m.lastgroup != "punct" else lexeme
            tokens.append((kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


def _tokens(text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except ParseError as exc:
        return [(d.code, d.message, d.line, d.col) for d in exc.diagnostics]


def _reference_tokens(text):
    try:
        return reference_tokenize(text)
    except ParseError as exc:
        return [(d.code, d.message, d.line, d.col) for d in exc.diagnostics]


BUNDLED_TEXTS = [COFFEE, ROOT / "perfbench" / "models" / "coffee_deep.bp",
                 ROOT / "perfbench" / "models" / "coffee_choice.bp"]
TRICKY_TEXTS = [
    "",
    "\n\n",
    "fluents h; // a comment\n\n\n// another\nbelief{(0):1}",
    "fluents h;\r\n\r\n  // crlf comment\r\nbelief { (0): 1 }\r\n",
    "\tfluents\th;\n\t\t// tab\n\tbelief {\t(0):\t1/2 }",
    "// only a comment",
    "fluents h;\n  x <= 0.50 & y >= 007\n\n\t!= ?*|",
    "fluents h;\n\n   $ belief",
    "fluents h; // comment\r\n\t  @",
    "fluents h;\r\n\t#",
    "a\n\n\n",
]


@pytest.mark.parametrize("text", [
    *(pytest.param(p.read_text(), id=p.stem) for p in BUNDLED_TEXTS),
    *(pytest.param(random_model_text(seed), id=f"random-{seed}")
      for seed in range(200)),
    *(pytest.param(text, id=f"tricky-{i}") for i, text in enumerate(TRICKY_TEXTS)),
])
def test_tokens_keep_the_reference_positions(text):
    assert _tokens(text) == _reference_tokens(text)


@pytest.mark.parametrize("text, line, col", [
    ("fluents h;\n\n   $ belief", 3, 4),
    ("fluents h; // comment\r\n\t  @", 2, 4),
    ("#", 1, 1),
])
def test_an_unexpected_character_is_reported_at_its_line_and_column(
        text, line, col):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    (d,) = err.value.diagnostics
    assert d.code == "syntax" and d.message.startswith("unexpected character")
    assert (d.line, d.col) == (line, col)
