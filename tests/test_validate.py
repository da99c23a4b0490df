from fractions import Fraction

import pytest

from beliefprog import (LikelihoodSumError, make_world, parse_model,
                        validate_restrictions)
from beliefprog.kb import likelihood_row, real_bat


def test_coffee_is_clean(coffee):
    assert validate_restrictions(coffee) == []


def test_belief_sum_violation():
    m = parse_model("fluents h;\nbelief { (0): 1/2, (1): 1/3 }\nprogram { }")
    codes = [d.code for d in validate_restrictions(m)]
    assert "belief-sum" in codes


def test_nonpositive_belief_weight():
    m = parse_model("fluents h;\nbelief { (0): 0, (1): 1 }\nprogram { }")
    codes = [d.code for d in validate_restrictions(m)]
    assert "belief-sum" in codes


def test_empty_belief_reported():
    m = parse_model("fluents h;\nprogram { }")
    assert any(d.code == "belief-sum" for d in validate_restrictions(m))


def test_constant_weight_rows_checked_symbolically():
    m = parse_model("""
        fluents h;
        action a stochastic(; y) {
          outcomes: (0), (1);
          likelihood: case true: 1/2, 1/3;
        }
        belief { (0): 1 }
        program { a }
    """)
    assert any(d.code == "weight-sum" for d in validate_restrictions(m))


def test_sensor_weights_sum_to_one_at_coffee_position(coffee):
    rows = likelihood_row("sencfe", (), make_world(coffee, [2]), real_bat(coffee))
    assert sum((w for _, w in rows), Fraction(0)) == 1
    assert dict(rows)[(Fraction(1),)] == Fraction(4, 5)


def test_parameter_dependent_weights_deferred_to_evaluation():
    m = parse_model("""
        fluents h;
        action a stochastic(x; y) {
          outcomes: (0), (1);
          likelihood: case true: x, 1/2;
        }
        ssa h { case a(x, y): h + y; default: h; }
        belief { (0): 1 }
        program { a(1/2) }
    """)
    # symbolic check cannot decide this row; nothing reported
    assert validate_restrictions(m) == []
    # at x = 1/2 the weights sum to 1
    rows = likelihood_row("a", (Fraction(1, 2),), make_world(m, [0]), real_bat(m))
    assert sum((w for _, w in rows), Fraction(0)) == 1
    # at x = 1/4 they do not: the deferred assertion fires
    with pytest.raises(LikelihoodSumError):
        likelihood_row("a", (Fraction(1, 4),), make_world(m, [0]), real_bat(m))


def test_duplicate_context_reported():
    m = parse_model("""
        fluents h;
        action a stochastic(; y) {
          outcomes: (0);
          likelihood:
            case h = 0: 1;
            case h = 0: 1;
            default: 1;
        }
        belief { (0): 1 }
        program { a }
    """)
    assert any(d.code == "context-overlap" for d in validate_restrictions(m))


@pytest.mark.parametrize("outcomes", ["(0), (0)", "(1 - 1), (0)", "(x), (x)"])
def test_duplicate_outcome_reported(outcomes):
    m = parse_model(f"""
        fluents h;
        action a stochastic(x; y) {{
          outcomes: {outcomes};
          likelihood: case true: 1/2, 1/2;
        }}
        belief {{ (0): 1 }}
        program {{ a(1) }}
    """)
    codes = [d.code for d in validate_restrictions(m)]
    assert "duplicate-outcome" in codes


@pytest.mark.parametrize("arg, reported", [(0, True), (1, False)])
def test_outcomes_equal_at_ground_arguments_reported(arg, reported):
    m = parse_model(f"""
        fluents h;
        action a stochastic(x; y) {{
          outcomes: (x), (2 * x);
          likelihood: case true: 1/2, 1/2;
        }}
        belief {{ (0): 1 }}
        program {{ a({arg}) }}
    """)
    messages = [str(d) for d in validate_restrictions(m)
                if d.code == "duplicate-outcome"]
    assert messages == ([f"[duplicate-outcome] outcome 2 of 'a' repeats "
                         f"outcome 1 at a({arg}) ({which})"
                         for which in ("real", "believed")] if reported else [])
