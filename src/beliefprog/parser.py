"""Tokenizer and recursive-descent parser for model files.

The complete grammar is documented in EBNF in the README.  Numeric literals
("3", "0.25") and fraction spellings ("1/2") all resolve to exact rationals;
decimal literals are exact base-10, never binary floats, and a literal
without a point is an int.  Every token carries its 1-based line and
column, which diagnostics report.

Two spots need backtracking: a program atom starting with "(" may be either
a parenthesized program or a test formula, and a formula atom starting with
"(" may be either formula grouping or a parenthesized arithmetic operand.
The parser saves the cursor, attempts the formula reading and falls back.
"""

import functools
import re
from fractions import Fraction

from .errors import Diagnostic, ParseError
from .syntax import (
    And, ActionDecl, BatDecl, Bel, BinOp, Choice, Cmp, Conf, Expect, FALSE,
    FluentDecl, FluentRef, GloballyOp, InitTheory, LikelihoodRow,
    LikelihoodTable, ModelFile, Neg, Nil, Not, Num, Or, POp, ParamRef,
    Piecewise, Prim, PropInterval, RESERVED_ACTIONS, RESERVED_FLUENTS,
    SsaCase, SsaRule, Star, Test, TRUE, UntilOp, XOp, arith, constant_value,
    depth, exact, seq,
)

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct><=|>=|!=|[{}()\[\];:,?*|&!+\-/=<>])
""", re.VERBOSE)

# words that can never name a fluent, an action, or a parameter
KEYWORDS = {
    "fluents", "action", "stochastic", "sensing", "outcomes", "likelihood",
    "ssa", "believed", "init", "belief", "program", "property",
    "constraints", "worlds", "case", "default",
    "while", "do", "if", "then", "else", "end", "nil",
    "true", "false", "B", "Expect", "Conf",
    "P", "X", "F", "G", "U",
}

# nodes on the longest path of a parsed tree, counted from its root (the
# ModelFile of a model); the bundled models reach 10.  Deeper trees would
# exhaust the interpreter's stack in the recursive stages after parsing.
MAX_DEPTH = 200


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


# Only a whitespace token can hold a newline, so each token's column is
# counted from start, the offset where its line starts.
def tokenize(text):
    tokens = []
    line, start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError([Diagnostic("syntax", f"unexpected character {text[pos]!r}",
                                         line, pos - start + 1)])
        kind, nxt = m.lastgroup, m.end()
        if kind == "ws":  # rfind gives -1 where the token holds no newline
            line += text.count("\n", pos, nxt)
            start = text.rfind("\n", pos, nxt) + 1 or start
        else:
            lexeme = m.group()
            tokens.append(Token(lexeme if kind == "punct" else kind, lexeme,
                                line, pos - start + 1))
        pos = nxt
    tokens.append(Token("eof", "", line, pos - start + 1))
    return tokens


class _Backtrack(Exception):
    pass


class Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.i = 0
        self.errors = []

    # -- cursor helpers ------------------------------------------------

    def peek(self):
        return self.tokens[self.i]  # advance stops at eof

    def at(self, kind, text=None):
        t = self.tokens[self.i]
        return t.kind == kind and (text is None or t.text == text)

    def at_word(self, word):
        return self.at("ident", word)

    def advance(self):
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def accept(self, kind, text=None):
        if self.at(kind, text):
            return self.advance()
        return None

    def accept_word(self, word):
        return self.accept("ident", word)

    def expect(self, kind, what=None):
        t = self.peek()
        if t.kind != kind:
            self.fail(what or f"expected {kind!r}, found {t.text!r}", t)
        return self.advance()

    def expect_word(self, word):
        t = self.peek()
        if not self.at_word(word):
            self.fail(f"expected {word!r}, found {t.text!r}", t)
        return self.advance()

    def fail(self, message, tok=None, code="syntax"):
        tok = tok or self.peek()
        raise ParseError(self.errors + [Diagnostic(code, message, tok.line, tok.col)])

    def error(self, message, tok=None, code="resolve", pos=None):
        """Record a resolution error but keep going."""
        if tok is not None:
            pos = (tok.line, tok.col)
        self.errors.append(Diagnostic(code, message,
                                      pos[0] if pos else None,
                                      pos[1] if pos else None))

    def listed(self, item):
        """item, then one more after each comma: x (, x)*."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def ident(self, what="identifier"):
        t = self.expect("ident", f"expected {what}")
        if t.text in KEYWORDS:
            self.fail(f"{t.text!r} is a reserved word", t)
        return t

    # -- expressions ----------------------------------------------------

    def expr(self):
        return self._additive()

    def _additive(self):
        e = self._multiplicative()
        while self.at("+") or self.at("-"):
            op = self.advance().text
            e = _mk_binop(op, e, self._multiplicative())
        return e

    def _multiplicative(self):
        e = self._factor()
        while self.at("*") or self.at("/"):
            op = self.advance().text
            e = _mk_binop(op, e, self._factor())
        return e

    def _factor(self):
        t = self.peek()
        if self.accept("-"):
            inner = self._factor()
            return Num(-inner.value) if isinstance(inner, Num) else Neg(inner)
        if self.at("number"):
            text = self.advance().text
            return Num(exact(Fraction(text)) if "." in text else int(text))
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        if self.at("{"):
            return self._piecewise()
        if self.at("ident"):
            if t.text in ("B", "Expect", "Conf"):
                return self._belief_atom()
            if t.text in KEYWORDS:
                self.fail(f"{t.text!r} cannot start an expression", t)
            self.advance()
            return FluentRef(t.text, (t.line, t.col))
        self.fail(f"expected an expression, found {t.text!r}", t)

    def _piecewise(self):
        self.expect("{")
        cases = []
        while self.accept_word("case"):
            guard = self.formula()
            self.expect(":")
            value = self.expr()
            self.expect(";")
            cases.append((guard, value))
        self.expect_word("default")
        self.expect(":")
        default = self.expr()
        self.expect("}")
        if not cases:
            self.fail("piecewise expression needs at least one case")
        return Piecewise(tuple(cases), default)

    def _belief_atom(self):
        t = self.advance()
        self.expect("(")
        if t.text == "B":
            inner = self.formula()
            self.expect(")")
            return Bel(inner)
        if t.text == "Expect":
            name = self.ident("fluent name")
            self.expect(")")
            return Expect(name.text)
        name = self.ident("fluent name")
        self.expect(",")
        radius = self.rational()
        self.expect(")")
        return Conf(name.text, radius)

    def rational(self):
        """A constant arithmetic expression folded to an exact number."""
        tok = self.peek()
        e = self.expr()
        value = constant_value(e)
        if value is None:
            self.fail("expected a rational constant", tok)
        return value

    # -- formulas (both sorts share the boolean skeleton; the resolver
    #    enforces the sort discipline afterwards) ------------------------

    def formula(self):
        f = self._conjunct()
        while self.accept("|"):
            f = Or(f, self._conjunct())
        return f

    def _conjunct(self):
        f = self._funary()
        while self.accept("&"):
            f = And(f, self._funary())
        return f

    def _funary(self):
        if self.accept("!"):
            return Not(self._funary())
        if self.accept_word("true"):
            return TRUE
        if self.accept_word("false"):
            return FALSE
        if self.at("("):
            # may be grouping or a parenthesized arithmetic operand
            mark = self.i
            try:
                return self._comparison()
            except (ParseError, _Backtrack):
                self.i = mark
            self.expect("(")
            f = self.formula()
            self.expect(")")
            return f
        try:
            return self._comparison()
        except _Backtrack:
            self.fail("expected a comparison operator")

    def _comparison(self):
        left = self.expr()
        if self.peek().kind not in ("=", "!=", "<", "<=", ">", ">="):
            raise _Backtrack()
        op = self.advance().text
        right = self.expr()
        return Cmp(op, left, right)

    # -- programs ---------------------------------------------------------

    def program(self):
        p = self._pseq()
        while self.accept("|"):
            p = Choice(p, self._pseq())
        return p

    def _pseq(self):
        # folded from the right, so that seq never re-walks the chain built
        # so far: n steps make n - 1 Seq nodes
        steps = [self._pstar()]
        while self.accept(";"):
            steps.append(self._pstar())
        p = steps.pop()
        while steps:
            p = seq(steps.pop(), p)
        return p

    def _pstar(self):
        p = self._patom()
        while self.accept("*"):
            p = Star(p)
        return p

    def _patom(self):
        t = self.peek()
        if self.accept_word("nil"):
            return Nil()
        if self.at_word("while"):
            return self._while()
        if self.at_word("if"):
            return self._if()
        if self.at("(") or t.text in ("B", "Expect", "Conf") \
                or self.at("number") or self.at("!") \
                or t.text in ("true", "false"):
            mark = self.i
            try:
                cond = self.formula()
                self.expect("?")
                return Test(cond)
            except (ParseError, _Backtrack):
                self.i = mark
            self.expect("(", "expected a test or a parenthesized program")
            p = self.program()
            self.expect(")")
            return p
        name = self.ident("action name")
        args = []
        if self.accept("("):
            if not self.at(")"):
                args = self.listed(self.rational)
            self.expect(")")
        return Prim(name.text, tuple(args), (name.line, name.col))

    def _while(self):
        self.expect_word("while")
        cond = self.formula()
        self.expect_word("do")
        body = self.program()
        self.expect_word("end")
        # while a do p end  ==  (a?; p)*; (!a)?
        return seq(Star(seq(Test(cond), body)), Test(Not(cond)))

    def _if(self):
        self.expect_word("if")
        cond = self.formula()
        self.expect_word("then")
        then = self.program()
        if self.accept_word("else"):
            other = self.program()
        else:
            other = Nil()
        self.expect_word("end")
        return Choice(seq(Test(cond), then), seq(Test(Not(cond)), other))

    # -- temporal properties -----------------------------------------------

    def state_formula(self):
        f = self._state_conjunct()
        while self.accept("|"):
            # grammar (A) has no disjunction; expand through de Morgan
            f = Not(And(Not(f), Not(self._state_conjunct())))
        return f

    def _state_conjunct(self):
        f = self._state_unary()
        while self.accept("&"):
            f = And(f, self._state_unary())
        return f

    def _state_unary(self):
        if self.accept("!"):
            return Not(self._state_unary())
        # a token that is not eof has one after it
        if self.at_word("P") and self.tokens[self.i + 1].kind in ("[", "("):
            return self._prob_formula()
        if self.at("("):
            mark = self.i
            try:
                return self.formula()
            except (ParseError, _Backtrack):
                self.i = mark
            self.expect("(")
            f = self.state_formula()
            self.expect(")")
            return f
        return self.formula()

    def _prob_formula(self):
        self.expect_word("P")
        lo_open = bool(self.accept("("))
        if not lo_open:
            self.expect("[")
        t = self.peek()
        if t.kind in ("<", "<=", ">", ">=", "="):
            op = self.advance().text
            r = self.rational()
            interval = _interval_from_relop(op, r)
            if lo_open:
                self.fail("relational bounds use P[...] with square brackets", t)
            self.expect("]")
        else:
            lo = self.rational()
            self.expect(",")
            hi = self.rational()
            if self.accept(")"):
                hi_open = True
            else:
                self.expect("]")
                hi_open = False
            interval = PropInterval(lo, hi, lo_open, hi_open)
            if not (0 <= lo <= hi <= 1):
                self.fail("probability interval must lie inside [0, 1]", t)
        self.expect("(")
        trace = self.trace_formula()
        self.expect(")")
        return POp(interval, trace)

    def trace_formula(self):
        if self.accept_word("X"):
            return XOp(self._state_unary())
        if self.accept_word("F"):
            bound = self._step_bound()
            return UntilOp(TRUE, self._state_unary(), bound)
        if self.accept_word("G"):
            return GloballyOp(self._state_unary())
        left = self._state_unary()
        self.expect_word("U")
        bound = self._step_bound()
        return UntilOp(left, self._state_unary(), bound)

    def _step_bound(self):
        if self.accept("<="):
            t = self.expect("number", "expected a step bound")
            if "." in t.text:
                self.fail("step bound must be an integer", t)
            return int(t.text)
        return None

    # -- model sections ------------------------------------------------------

    def model(self):
        fluents = []
        actions = []
        real_ssa = []
        real_like = {}
        believed_raw = None
        init = None
        kb0 = None
        program_expr = None
        properties = []
        while not self.at("eof"):
            t = self.peek()
            if self.at_word("fluents"):
                self.advance()
                fluents += self.listed(lambda: self.ident("fluent name"))
                self.expect(";")
            elif self.at_word("action"):
                decl, table = self._action_decl()
                actions.append(decl)
                real_like[decl.name] = table
            elif self.at_word("ssa"):
                real_ssa.append(self._ssa_rule())
            elif self.at_word("believed"):
                if believed_raw is not None:
                    self.fail("duplicate believed section", t)
                believed_raw = self._believed()
            elif self.at_word("init"):
                if init is not None:
                    self.fail("duplicate init section", t)
                init = self._init()
            elif self.at_word("belief"):
                if kb0 is not None:
                    self.fail("duplicate belief section", t)
                kb0 = self._belief()
            elif self.at_word("program"):
                if program_expr is not None:
                    self.fail("duplicate program section", t)
                self.advance()
                self.expect("{")
                if self.at("}"):
                    program_expr = Nil()
                else:
                    program_expr = self.program()
                self.expect("}")
            elif self.at_word("property"):
                self.advance()
                name = self.ident("property name")
                self.expect("{")
                phi = self.state_formula()
                self.expect("}")
                properties.append((name.text, phi))
            else:
                self.fail(f"unexpected {t.text!r} at top level", t)
        return (fluents, actions, real_ssa, real_like, believed_raw,
                init, kb0, program_expr, properties)

    def _action_decl(self):
        self.expect_word("action")
        name = self.ident("action name")
        if self.at_word("stochastic"):
            self.advance()
            self.expect("(")
            ctrl = self._param_names()
            self.expect(";")
            unctrl = self._param_names()
            self.expect(")")
            if not unctrl:
                self.fail("a stochastic action needs at least one uncontrollable parameter")
            decl = ActionDecl(name.text, "stochastic", tuple(ctrl), tuple(unctrl))
            self.expect("{")
            self.expect_word("outcomes")
            self.expect(":")
            outcomes = self._outcome_list(len(unctrl))
            self.expect(";")
            rows = self._likelihood_rows(len(outcomes))
            self.expect("}")
            return decl, LikelihoodTable(tuple(outcomes), tuple(rows))
        self.expect_word("sensing")
        self.expect("(")
        outcomes = self._outcome_list(None)
        width = len(outcomes[0])
        if any(len(vec) != width for vec in outcomes):
            self.fail("sensing outcomes must all have the same width")
        self.expect(")")
        decl = ActionDecl(name.text, "sensing", (),
                          tuple(f"y{i}" for i in range(width)))
        self.expect("{")
        rows = self._likelihood_rows(len(outcomes))
        self.expect("}")
        return decl, LikelihoodTable(tuple(outcomes), tuple(rows))

    def _param_names(self):
        if not self.at("ident"):
            return []
        return self.listed(lambda: self.ident("parameter name").text)

    def _outcome(self, width):
        if self.accept("("):
            vec = self.listed(self.expr)
            self.expect(")")
        else:
            vec = [self.expr()]
        if width is not None and len(vec) != width:
            self.fail(f"outcome has {len(vec)} components, expected {width}")
        return tuple(vec)

    def _outcome_list(self, width):
        return self.listed(lambda: self._outcome(width))

    def _likelihood_rows(self, n_outcomes):
        self.expect_word("likelihood")
        self.expect(":")
        rows = []
        saw_default = False
        while True:
            if self.accept_word("case"):
                ctx = self.formula()
            elif self.accept_word("default"):
                if saw_default:
                    self.fail("only one default likelihood row is allowed")
                saw_default = True
                ctx = None
            else:
                break
            self.expect(":")
            weights = self.listed(self.expr)
            self.expect(";")
            if n_outcomes is not None and len(weights) != n_outcomes:
                self.fail(f"likelihood row has {len(weights)} weights, "
                          f"expected {n_outcomes}")
            rows.append(LikelihoodRow(ctx, tuple(weights)))
        if not rows:
            self.fail("likelihood table has no rows")
        if any(r.context is None for r in rows[:-1]):
            self.fail("the default likelihood row must come last")
        return rows

    def _ssa_rule(self):
        self.expect_word("ssa")
        name = self.ident("fluent name")
        self.expect("{")
        cases = []
        while self.accept_word("case"):
            act = self.ident("action name")
            self.expect("(")
            params = self._param_names()
            self.expect(")")
            self.expect(":")
            effect = self.expr()
            self.expect(";")
            cases.append(SsaCase(act.text, tuple(params), effect,
                                 (act.line, act.col)))
        self.expect_word("default")
        self.expect(":")
        default = self.expr()
        self.expect(";")
        self.expect("}")
        return SsaRule(name.text, tuple(cases), default)

    def _believed(self):
        self.expect_word("believed")
        self.expect("{")
        overrides = {}
        ssa_rules = []
        while not self.at("}"):
            if self.at_word("ssa"):
                ssa_rules.append(self._ssa_rule())
                continue
            self.expect_word("action")
            name = self.ident("action name")
            self.expect("{")
            outcomes = None
            if self.accept_word("outcomes"):
                self.expect(":")
                outcomes = self._outcome_list(None)
                self.expect(";")
            rows = self._likelihood_rows(len(outcomes) if outcomes else None)
            self.expect("}")
            overrides[name.text] = (outcomes, rows, name)
        self.expect("}")
        return overrides, ssa_rules

    def _init(self):
        self.expect_word("init")
        self.expect("{")
        constraints = []
        worlds = []
        while not self.at("}"):
            if self.accept_word("constraints"):
                self.expect(":")
                constraints += self.listed(self.formula)
                self.expect(";")
            elif self.accept_word("worlds"):
                self.expect(":")
                worlds += self.listed(self._valuation)
                self.expect(";")
            else:
                self.fail("expected 'constraints' or 'worlds'")
        self.expect("}")
        return InitTheory(tuple(constraints), tuple(worlds))

    def _valuation(self):
        self.expect("(")
        vals = self.listed(self.rational)
        self.expect(")")
        return tuple(vals)

    def _belief(self):
        self.expect_word("belief")
        self.expect("{")
        pairs = []
        while not self.at("}"):
            vals = self._valuation()
            self.expect(":")
            weight = self.rational()
            pairs.append((vals, weight))
            if not self.accept(","):
                break
        self.expect("}")
        return tuple(pairs)


def _mk_binop(op, left, right):
    """Fold constant arithmetic while parsing so "1/2" and "0.5" land as one
    exact literal (division by a constant zero stays symbolic and fails at
    evaluation time, as specified)."""
    if isinstance(left, Num) and isinstance(right, Num):
        value = arith(op, left.value, right.value)
        if value is not None:
            return Num(value)
    return BinOp(op, left, right)


def _interval_from_relop(op, r):
    if op == ">=":
        return PropInterval(r, 1)
    if op == ">":
        return PropInterval(r, 1, lo_open=True)
    if op == "<=":
        return PropInterval(0, r)
    if op == "<":
        return PropInterval(0, r, hi_open=True)
    return PropInterval(r, r)


# ---------------------------------------------------------------------------
# resolution: turn raw section data into a checked ModelFile


class _Resolver:
    def __init__(self, parser, fluent_toks, action_decls):
        self.p = parser
        self.fluents = []
        seen = set()
        for t in fluent_toks:
            if t.text in RESERVED_FLUENTS:
                self.p.error(f"fluent name {t.text!r} is reserved", t,
                             code="reserved-name")
                continue
            if t.text in seen:
                self.p.error(f"duplicate fluent {t.text!r}", t, code="duplicate")
                continue
            seen.add(t.text)
            self.fluents.append(t.text)
        self.actions = {}
        for decl in action_decls:
            if decl.name in RESERVED_ACTIONS:
                self.p.error(f"action name {decl.name!r} is reserved",
                             code="reserved-name")
                continue
            if decl.name in self.actions or decl.name in seen:
                self.p.error(f"duplicate name {decl.name!r}", code="duplicate")
                continue
            self.actions[decl.name] = decl
        self.fluent_set = set(self.fluents) | set(RESERVED_FLUENTS)

    def objective(self, node, params=(), allow_fluents=True, where=""):
        """Rewrite names to ParamRef/FluentRef and report unknowns."""
        error = self.p.error

        def resolve(node):
            if isinstance(node, Num):  # the most common leaf
                return node
            if isinstance(node, (FluentRef, ParamRef)):
                if node.name in params:
                    kind = ParamRef
                elif node.name in self.fluent_set:
                    if not allow_fluents:
                        error(f"fluent {node.name!r} not allowed in {where}",
                              code="not-rigid", pos=node.pos)
                    kind = FluentRef
                else:
                    error(f"undeclared identifier {node.name!r}"
                          f"{where and ' in ' + where}",
                          code="undeclared", pos=node.pos)
                    return node
                return node if isinstance(node, kind) else kind(node.name, node.pos)
            if isinstance(node, (Bel, Expect, Conf)):
                error("belief operators are not allowed in objective "
                      "expressions", code="sort")
                return node
            return node.map(resolve)

        return resolve(node)

    def subjective(self, node, where="test"):
        error = self.p.error

        def resolve(node):
            if isinstance(node, Bel):
                return node.map(lambda f: self.objective(f, where="belief operator"))
            if isinstance(node, (Expect, Conf)):
                if node.fluent not in self.fluent_set:
                    error(f"undeclared fluent {node.fluent!r} in {where}",
                          code="undeclared")
                return node
            if isinstance(node, (FluentRef, ParamRef)):
                error(f"fluent {node.name!r} must appear inside B/Expect/Conf "
                      f"in a subjective formula", code="sort")
                return node
            if isinstance(node, Piecewise):
                error("piecewise expressions are not allowed in a subjective "
                      "formula", code="sort")
                return node
            return node.map(resolve)

        return resolve(node)

    def likelihood_table(self, decl, table):
        ctrl = decl.ctrl
        outcomes = tuple(
            tuple(self.objective(v, ctrl, allow_fluents=False, where="outcome values")
                  for v in vec)
            for vec in table.outcomes)
        for vec in outcomes:
            if len(vec) != len(decl.unctrl):
                self.p.error(f"outcome width {len(vec)} does not match the "
                             f"uncontrollable arity of {decl.name!r}",
                             code="arity")
        rows = []
        for row in table.rows:
            ctx = None if row.context is None else \
                self.objective(row.context, ctrl, True, "likelihood context")
            weights = tuple(self.objective(w, ctrl, allow_fluents=False,
                                           where="likelihood weights")
                            for w in row.weights)
            rows.append(LikelihoodRow(ctx, weights))
        return LikelihoodTable(outcomes, tuple(rows))

    def ssa_rule(self, rule):
        if rule.fluent not in self.fluent_set:
            self.p.error(f"ssa for undeclared fluent {rule.fluent!r}",
                         code="undeclared")
        if rule.fluent in RESERVED_FLUENTS:
            self.p.error(f"ssa for reserved fluent {rule.fluent!r} is implicit",
                         code="reserved-name")
        cases = []
        for c in rule.cases:
            decl = self.actions.get(c.action)
            if decl is None:
                self.p.error(f"ssa case for undeclared action {c.action!r}",
                             code="undeclared", pos=c.pos)
                continue
            if decl.kind == "sensing":
                self.p.error(f"sensing action {c.action!r} cannot change fluents",
                             code="sensing-effect", pos=c.pos)
                continue
            want = len(decl.ctrl) + len(decl.unctrl)
            if len(c.params) != want:
                self.p.error(f"ssa case for {c.action!r} binds {len(c.params)} "
                             f"parameters, expected {want}", code="arity", pos=c.pos)
                continue
            cases.append(SsaCase(c.action, c.params,
                                 self.objective(c.effect, c.params, True,
                                                "ssa effect")))
        default = self.objective(rule.default, (), True, "ssa default")
        return SsaRule(rule.fluent, tuple(cases), default)

    def program(self, p):
        if isinstance(p, Prim):
            decl = self.actions.get(p.symbol)
            if decl is None:
                self.p.error(f"undeclared action {p.symbol!r} in program",
                             code="undeclared", pos=p.pos)
            elif len(p.args) != len(decl.ctrl):
                self.p.error(f"{p.symbol!r} takes {len(decl.ctrl)} controllable "
                             f"argument(s), got {len(p.args)}", code="arity",
                             pos=p.pos)
            return p
        if isinstance(p, Test):
            return p.map(self.subjective)
        return p.map(self.program)

    def state_formula(self, phi):
        """A state or trace formula: its P and temporal operators are kept,
        its subjective leaves resolved."""
        if isinstance(phi, (POp, Not, And, XOp, UntilOp, GloballyOp)):
            return phi.map(self.state_formula)
        return self.subjective(phi, where="property")


def _depth_bounded(parse):
    """parse, with a tree deeper than MAX_DEPTH, or one too deep to parse
    at all, raised as a ParseError of code nesting."""
    @functools.wraps(parse)
    def bounded(*args):
        try:
            tree = parse(*args)
        except RecursionError:
            tree = None
        if tree is None or depth(tree) > MAX_DEPTH:
            raise ParseError([Diagnostic(
                "nesting", f"the input nests deeper than {MAX_DEPTH} levels")])
        return tree
    return bounded


@_depth_bounded
def parse_model(text: str) -> ModelFile:
    """Parse and resolve a model file, raising ParseError with diagnostics."""
    p = Parser(text)
    (fluent_toks, actions, real_ssa, real_like, believed_raw,
     init, kb0, program_expr, properties) = p.model()

    r = _Resolver(p, fluent_toks, actions)

    like = {}
    for decl in actions:
        if decl.name in r.actions:
            like[decl.name] = r.likelihood_table(decl, real_like[decl.name])
    ssa_rules = []
    ssa_seen = set()
    for rule in real_ssa:
        if rule.fluent in ssa_seen:
            p.error(f"duplicate ssa for {rule.fluent!r}", code="duplicate")
            continue
        ssa_seen.add(rule.fluent)
        ssa_rules.append(r.ssa_rule(rule))
    for name in r.fluents:
        if name not in ssa_seen:
            ssa_rules.append(SsaRule(name, (), FluentRef(name)))

    real_bat = BatDecl(tuple(ssa_rules), tuple(sorted(like.items())))

    believed_like = dict(like)
    believed_ssa = {rule.fluent: rule for rule in ssa_rules}
    if believed_raw is not None:
        overrides, b_ssa = believed_raw
        for name, (outcomes, rows, tok) in overrides.items():
            decl = r.actions.get(name)
            if decl is None:
                p.error(f"believed override for undeclared action {name!r}",
                        tok, code="undeclared")
                continue
            if outcomes is not None and decl.kind == "sensing":
                p.error("sensing outcomes are fixed by the declaration", tok,
                        code="arity")
            width = len(like[name].outcomes if outcomes is None else outcomes)
            for row in rows:
                if len(row.weights) != width:
                    p.error(f"believed likelihood row for {name!r} has "
                            f"{len(row.weights)} weights, expected {width}",
                            tok, code="arity")
            table = r.likelihood_table(decl, LikelihoodTable(
                () if outcomes is None else tuple(outcomes), tuple(rows)))
            if outcomes is None:  # the real table's, resolved once above
                table = LikelihoodTable(like[name].outcomes, table.rows)
            believed_like[name] = table
        for rule in b_ssa:
            resolved = r.ssa_rule(rule)
            believed_ssa[resolved.fluent] = resolved
    believed_bat = BatDecl(
        tuple(believed_ssa[f] for f in [rule.fluent for rule in ssa_rules]),
        tuple(sorted(believed_like.items())))

    n_fluents = len(r.fluents)
    init = init or InitTheory((), ())
    init = InitTheory(tuple(r.objective(c, (), True, "init constraint")
                            for c in init.constraints), init.worlds)
    for w in init.worlds:
        if len(w) != n_fluents:
            p.error(f"init world {w} has {len(w)} values, expected {n_fluents}",
                    code="arity")
    kb0 = kb0 or ()
    for vals, weight in kb0:
        if len(vals) != n_fluents:
            p.error(f"belief valuation {vals} has {len(vals)} values, "
                    f"expected {n_fluents}", code="arity")

    program_expr = r.program(program_expr if program_expr is not None else Nil())
    resolved_props = tuple((name, r.state_formula(phi)) for name, phi in properties)

    if p.errors:
        raise ParseError(p.errors)

    return ModelFile(
        fluents=tuple(FluentDecl(n) for n in r.fluents),
        actions=tuple(r.actions[d.name] for d in actions if d.name in r.actions),
        real_bat=real_bat,
        believed_bat=believed_bat,
        init=init,
        kb0=tuple(kb0),
        program=program_expr,
        properties=resolved_props,
        source=text,
    )


def model_digest(m: ModelFile) -> str:
    import hashlib  # on first use: parsing alone never needs it
    return hashlib.sha256(m.source.encode()).hexdigest()


@_depth_bounded
def _standalone(text, model, rule, resolve, what):
    """A formula alone in text, read by the Parser method rule and resolved
    by the _Resolver method resolve over the model's fluents and actions."""
    p = Parser(text)
    f = rule(p)
    if not p.at("eof"):
        p.fail(f"trailing input after {what}")
    r = _Resolver(p, [], list(model.actions))
    r.fluent_set = set(model.fluent_order)
    out = resolve(r, f)
    if p.errors:
        raise ParseError(p.errors)
    return out


def parse_subjective(text: str, model: ModelFile):
    """Parse a standalone subjective formula over the model's fluents and
    actions.  A library entry point: the CLI reads state formulas only
    inside a model file or a --psi trace formula."""
    return _standalone(text, model, Parser.formula, _Resolver.subjective,
                       "formula")


def parse_trace_formula(text: str, model: ModelFile):
    """Parse a standalone trace formula such as "F<=2 B(h=2) = 1"."""
    return _standalone(text, model, Parser.trace_formula,
                       _Resolver.state_formula, "trace formula")


def parse_ground_action(text: str, model: ModelFile):
    """Parse a ground action term like "east(1,1)", "sencfe(0)" or "eps".

    Arguments fill the controllable then the uncontrollable parameters;
    the uncontrollable ones must be an outcome the action declares at its
    controllable ones (a sensing result, for a sensing action).
    """
    from .kb import EPSILON, FAILURE, GroundAction, oi_alternatives

    p = Parser(text)
    t = p.expect("ident", "expected an action name")
    name = t.text
    args = []
    if p.accept("("):
        if not p.at(")"):
            args = p.listed(p.rational)
        p.expect(")")
    if not p.at("eof"):
        p.fail("trailing input after action term")
    if name in ("eps", "ε"):
        return EPSILON
    if name in ("fail", "\U0001d523"):
        return FAILURE
    decl = model.action_decl(name)
    if decl is None:
        raise ParseError([Diagnostic("undeclared", f"unknown action {name!r}",
                                     t.line, t.col)])
    want = len(decl.ctrl) + len(decl.unctrl)
    if len(args) != want:
        raise ParseError([Diagnostic("arity",
                                     f"{name!r} takes {want} argument(s), got {len(args)}",
                                     t.line, t.col)])
    n_ctrl = len(decl.ctrl)
    action = GroundAction(name, tuple(args[:n_ctrl]), tuple(args[n_ctrl:]))
    declared = oi_alternatives(name, action.ctrl, model)
    if action not in declared:
        raise ParseError([Diagnostic(
            "undeclared-outcome",
            f"{action} is not a declared outcome; {name} declares "
            + ", ".join(str(t) for t in declared), t.line, t.col)])
    return action
