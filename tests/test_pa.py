from fractions import Fraction

import pytest

from beliefprog import (BeliefProgError, initial_kb, parse_model, progress_kb,
                        validate_restrictions)
from beliefprog.kb import eval_fluent_formula, oi_alternatives
from beliefprog.pa import ProbAutomaton, encode, encode_text
from conftest import random_pa
from pa_oracle import accepting_formula, oracle_accept_prob, soundness_check

F = Fraction


@pytest.fixture
def two_state_pa():
    # one letter; from state 0 move to the accepting state 1 with 1/2,
    # state 1 absorbs
    return ProbAutomaton(
        n_states=2,
        letters=("a",),
        matrices={"a": ((F(1, 2), F(1, 2)), (F(0), F(1)))},
        initial=0,
        accepting=frozenset({1}),
        threshold=F(3, 4),
    )


def test_oracle_empty_word(two_state_pa):
    assert oracle_accept_prob(two_state_pa, ()) == 0
    accepting_start = ProbAutomaton(
        2, ("a",), two_state_pa.matrices, 1, frozenset({1}), F(1, 2))
    assert oracle_accept_prob(accepting_start, ()) == 1


def test_oracle_geometric_accumulation(two_state_pa):
    # 1/2 + 1/4 + 1/8 after three letters
    assert oracle_accept_prob(two_state_pa, ("a", "a", "a")) == F(7, 8)


def test_encoded_model_single_step_belief(two_state_pa):
    m = encode(two_state_pa)
    kb = initial_kb(m)
    rho = oi_alternatives("rho_a", (), m)[0]
    kb1 = progress_kb(kb, rho)
    accept = accepting_formula(two_state_pa)
    got = sum((p for w, p in kb1.dist.items()
               if eval_fluent_formula(accept, w)), F(0))
    assert got == F(1, 2)


def test_encoded_model_passes_restrictions(two_state_pa):
    m = encode(two_state_pa)
    assert validate_restrictions(m) == []


def test_encode_text_golden(two_state_pa):
    text = encode_text(two_state_pa)
    assert "while B(hs = 2) < 3/4 do" in text
    assert "case hs = 1: 1/2, 1/2;" in text
    assert "belief { (1): 1 }" in text


def test_soundness_two_state(two_state_pa):
    report = soundness_check(two_state_pa, max_len=6)
    assert report.all_equal
    assert report.words_checked == 7  # unary alphabet: one word per length


def test_soundness_vacuous_at_length_zero(two_state_pa):
    report = soundness_check(two_state_pa, max_len=0)
    assert report.all_equal and report.words_checked == 1


def test_identity_matrices_keep_belief_constant():
    ident = ((F(1), F(0)), (F(0), F(1)))
    pa = ProbAutomaton(2, ("a",), {"a": ident}, 0, frozenset({1}), F(1, 2))
    m = encode(pa)
    kb = initial_kb(m)
    rho = oi_alternatives("rho_a", (), m)[0]
    accept = accepting_formula(pa)

    def bel(k):
        return sum((p for w, p in k.dist.items()
                    if eval_fluent_formula(accept, w)), F(0))

    for _ in range(4):
        kb = progress_kb(kb, rho)
        assert bel(kb) == 0
    assert oracle_accept_prob(pa, ("a",) * 4) == 0


def test_corrupted_row_rejected():
    bad = ProbAutomaton(
        2, ("a",),
        {"a": ((F(1, 2), F(2, 5)), (F(0), F(1)))},  # sums to 9/10
        0, frozenset({1}), F(1, 2))
    with pytest.raises(BeliefProgError):
        encode(bad)
    with pytest.raises(BeliefProgError):
        bad.validate()


def test_json_roundtrip(two_state_pa):
    text = two_state_pa.to_json()
    back = ProbAutomaton.from_json(text)
    assert back == two_state_pa


def test_random_pa_soundness_short_words():
    for seed in range(3):
        pa = random_pa(seed)
        report = soundness_check(pa, max_len=4)
        assert report.all_equal, report.render()


def test_sspa_local_effect_encoding_matches():
    # single probabilistic transition 1 -> 2 | 3 (half/half), states 2 and 3
    # absorbing; once as a state-dependent likelihood table, once as a
    # context-free likelihood with a state-guarded (local) effect
    table_style = """
        fluents hs;
        action rho stochastic(; y) {
          outcomes: (2), (3);
          likelihood:
            case hs = 1: 1/2, 1/2;
            case hs = 2: 1, 0;
            default: 0, 1;
        }
        ssa hs { case rho(y): y; default: hs; }
        init { constraints: hs = 1; worlds: (1); }
        belief { (1): 1 }
        program { (rho)* }
    """
    local_style = """
        fluents hs;
        action rho stochastic(; y) {
          outcomes: (2), (3);
          likelihood: case true: 1/2, 1/2;
        }
        ssa hs {
          case rho(y): { case hs = 1: y; default: hs };
          default: hs;
        }
        init { constraints: hs = 1; worlds: (1); }
        belief { (1): 1 }
        program { (rho)* }
    """
    m1 = parse_model(table_style)
    m2 = parse_model(local_style)
    kb1, kb2 = initial_kb(m1), initial_kb(m2)
    rho1 = oi_alternatives("rho", (), m1)[0]
    rho2 = oi_alternatives("rho", (), m2)[0]

    def beliefs(kb):
        return sorted((w["hs"], p) for w, p in kb.dist.items())

    for _ in range(4):
        kb1 = progress_kb(kb1, rho1)
        kb2 = progress_kb(kb2, rho2)
        assert beliefs(kb1) == beliefs(kb2)
    assert beliefs(kb1) == [(2, F(1, 2)), (3, F(1, 2))]
