"""Probabilistic finite automata encoded as belief programs.

The encoding uses one fluent holding the current automaton state, one
stochastic action per letter whose nature-chosen parameter carries the
successor state, and likelihood contexts conditioning the transition row
on the current state.  The module is a corpus generator; the tests hold
the independent oracle, which checks that belief in the accepting states
after an encoded action sequence equals the matrix-product acceptance
probability exactly.

PA emptiness itself is undecidable; nothing here attempts to decide it.
"""

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import BeliefProgError
from .parser import parse_model
from .syntax import frac_str


@dataclass(frozen=True)
class ProbAutomaton:
    n_states: int
    letters: tuple
    matrices: dict  # letter -> tuple of row tuples of Fractions
    initial: int  # 0-based state index
    accepting: frozenset
    threshold: Fraction

    def validate(self):
        if self.n_states < 1:
            raise BeliefProgError("automaton needs at least one state")
        if not self.letters:
            raise BeliefProgError("automaton needs at least one letter")
        for letter in self.letters:
            m = self.matrices[letter]
            if len(m) != self.n_states:
                raise BeliefProgError(f"matrix for {letter!r} has {len(m)} rows")
            for i, row in enumerate(m):
                if len(row) != self.n_states:
                    raise BeliefProgError(
                        f"matrix row {i} for {letter!r} has wrong width")
                if any(x < 0 or x > 1 for x in row):
                    raise BeliefProgError(
                        f"matrix entry outside [0, 1] in row {i} of {letter!r}")
                if sum(row, Fraction(0)) != 1:
                    raise BeliefProgError(
                        f"row {i} of {letter!r} sums to "
                        f"{frac_str(sum(row, Fraction(0)))}, not 1")
        if not 0 <= self.initial < self.n_states:
            raise BeliefProgError("initial state out of range")
        if any(not 0 <= q < self.n_states for q in self.accepting):
            raise BeliefProgError("accepting state out of range")
        if not 0 <= self.threshold <= 1:
            raise BeliefProgError("threshold must lie in [0, 1]")

    @staticmethod
    def from_json(text):
        try:
            data = json.loads(text)
            letters = tuple(data["letters"])
            matrices = {
                letter: tuple(tuple(Fraction(x) for x in row)
                              for row in data["matrices"][letter])
                for letter in letters
            }
            pa = ProbAutomaton(
                n_states=int(data["states"]),
                letters=letters,
                matrices=matrices,
                initial=int(data.get("initial", 0)),
                accepting=frozenset(int(q) for q in data["accepting"]),
                threshold=Fraction(data.get("threshold", "1/2")),
            )
        except json.JSONDecodeError as exc:
            raise BeliefProgError(f"automaton is not valid JSON: {exc}") from None
        except KeyError as exc:
            raise BeliefProgError(f"automaton has no entry {exc}") from None
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise BeliefProgError(f"automaton has a malformed value: {exc}") \
                from None
        pa.validate()
        return pa

    def to_json(self):
        return json.dumps({
            "states": self.n_states,
            "letters": list(self.letters),
            "matrices": {letter: [[frac_str(x) for x in row]
                                  for row in self.matrices[letter]]
                         for letter in self.letters},
            "initial": self.initial,
            "accepting": sorted(self.accepting),
            "threshold": frac_str(self.threshold),
        }, indent=2)


def action_name(letter) -> str:
    safe = re.sub(r"[^A-Za-z0-9_]", "_", str(letter))
    return f"rho_{safe}"


def encode_text(pa: ProbAutomaton) -> str:
    """Render the automaton as a model file.  States become the integers
    1..n so the fluent stays inside declared likelihood contexts."""
    pa.validate()
    n = pa.n_states
    lines = ["// probabilistic automaton encoded as a belief program", "",
             "fluents hs;", ""]
    for letter in pa.letters:
        name = action_name(letter)
        lines.append(f"action {name} stochastic(; y) {{")
        lines.append("  outcomes: " + ", ".join(f"({q + 1})" for q in range(n)) + ";")
        lines.append("  likelihood:")
        m = pa.matrices[letter]
        for q in range(n):
            weights = ", ".join(frac_str(m[q][q2]) for q2 in range(n))
            lines.append(f"    case hs = {q + 1}: {weights};")
        lines.append("}")
        lines.append("")
    lines.append("ssa hs {")
    for letter in pa.letters:
        lines.append(f"  case {action_name(letter)}(y): y;")
    lines.append("  default: hs;")
    lines.append("}")
    lines.append("")
    lines.append("init {")
    lines.append(f"  constraints: hs = {pa.initial + 1};")
    lines.append(f"  worlds: ({pa.initial + 1});")
    lines.append("}")
    lines.append("")
    lines.append(f"belief {{ ({pa.initial + 1}): 1 }}")
    lines.append("")
    accept = " | ".join(f"hs = {q + 1}" for q in sorted(pa.accepting)) or "false"
    choice = " | ".join(action_name(letter) for letter in pa.letters)
    lines.append("program {")
    lines.append(f"  while B({accept}) < {frac_str(pa.threshold)} do")
    lines.append(f"    {choice}")
    lines.append("  end")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)


def encode(pa: ProbAutomaton):
    """The encoded model, parsed and resolved (round-trips the generator
    through the front end on purpose)."""
    return parse_model(encode_text(pa))
