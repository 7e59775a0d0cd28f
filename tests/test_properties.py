"""Randomized invariant checks at everyday sample counts.

The acceptance tests rerun the same suites at the full sample sizes; the
smaller runs here use a different seed to widen coverage.
"""

from itertools import product

import bruteforce
from propsuites import (
    hartley_bound_violations,
    knowledge_bridge_violations,
    oracle_disagreements,
    reflexive_collapse_violations,
    until_monotonicity_violations,
    validity1_violations,
    validity2_violations,
)

SEED = 97


def test_uncertainty_grows_with_member_set():
    assert validity1_violations(150, SEED) == 0


def test_certainty_shrinks_with_member_set():
    assert validity2_violations(150, SEED) == 0


def test_pattern_count_bounds():
    assert hartley_bound_violations(150, SEED) == 0


def test_knowledge_equals_zero_uncertainty():
    assert knowledge_bridge_violations(150, SEED) == 0


def test_reflexive_models_collapse_strategies():
    assert reflexive_collapse_violations(150, SEED) == 0


def test_goal_states_satisfy_until():
    assert until_monotonicity_violations(150, SEED) == 0


def test_enumeration_matches_oracle():
    assert oracle_disagreements(100, SEED) == 0


def test_enumeration_check_sees_an_oracle_that_reads_each_row_reversed(monkeypatch):
    # Reversing a state's profile order only renames each agent's actions
    # there, so the labels still agree; the first winners do not.
    def reversed_rows(model):
        return {
            (q, profile): model.states[bit.bit_length() - 1]
            for q, column, row in zip(model.states, model.menus, model.moves)
            for profile, bit in zip(product(*column), reversed(row))
        }

    monkeypatch.setattr(bruteforce, "transitions", reversed_rows)
    assert oracle_disagreements(200, SEED) > 0
