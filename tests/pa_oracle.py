"""The matrix-product oracle for the PA encoding.

Belief in the accepting states after an encoded action sequence, made by
progressing the encoded model's knowledge base, must equal the acceptance
probability of the automaton's row vector times its letter matrices.  The
two sides share no code past the encoder.
"""

from dataclasses import dataclass
from fractions import Fraction

from beliefprog.kb import (eval_fluent_formula, initial_kb, oi_alternatives,
                           progress_kb)
from beliefprog.pa import ProbAutomaton, action_name, encode
from beliefprog.syntax import Cmp, FALSE, FluentRef, Num, Or, frac_str


def accepting_formula(pa: ProbAutomaton):
    f = FALSE
    for q in sorted(pa.accepting):
        atom = Cmp("=", FluentRef("hs"), Num(Fraction(q + 1)))
        f = atom if f == FALSE else Or(f, atom)
    return f


def oracle_accept_prob(pa: ProbAutomaton, word) -> Fraction:
    """Row-vector times matrices, summed over accepting states."""
    vec = [Fraction(0)] * pa.n_states
    vec[pa.initial] = Fraction(1)
    for letter in word:
        m = pa.matrices[letter]
        vec = [sum((vec[q] * m[q][q2] for q in range(pa.n_states)), Fraction(0))
               for q2 in range(pa.n_states)]
    return sum((vec[q] for q in pa.accepting), Fraction(0))


@dataclass
class SoundnessReport:
    words_checked: int
    all_equal: bool
    first_divergence: tuple = None  # (word, kb belief, oracle value)

    def render(self):
        if self.all_equal:
            return (f"checked {self.words_checked} words: knowledge-base "
                    f"belief equals the matrix oracle exactly")
        word, got, want = self.first_divergence
        return (f"divergence at word {list(word)}: belief {frac_str(got)} "
                f"vs oracle {frac_str(want)}")


def soundness_check(pa: ProbAutomaton, max_len=8) -> SoundnessReport:
    """Compare the progressed belief in accepting states against the matrix
    oracle for every word up to max_len; the two sides are computed by
    unrelated code paths."""
    model = encode(pa)
    formula = accepting_formula(pa)

    def belief_in_accepting(kb):
        total = Fraction(0)
        for w, p in kb.dist.items():
            if eval_fluent_formula(formula, w):
                total += p
        return total

    step_actions = {
        letter: oi_alternatives(action_name(letter), (), model)[0]
        for letter in pa.letters
    }

    checked = 0
    stack = [((), initial_kb(model))]
    while stack:
        word, kb = stack.pop()
        got = belief_in_accepting(kb)
        want = oracle_accept_prob(pa, word)
        checked += 1
        if got != want:
            return SoundnessReport(checked, False, (word, got, want))
        if len(word) < max_len:
            for letter in pa.letters:
                stack.append((word + (letter,),
                              progress_kb(kb, step_actions[letter])))
    return SoundnessReport(checked, True)
