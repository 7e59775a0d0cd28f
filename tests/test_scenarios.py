"""Tests for the referendum and ThreeBallot case-study generators."""

import gc
import hashlib
import time
import weakref
from random import Random

import pytest

from atlh import mcheck
from atlh.cegm import Cegm, load_model, save_model
from atlh.formula import parse_formula, pretty_print
from atlh.mcheck import CheckOptions, check, find_witness, hartley_classes
from atlh.scenarios import (
    BALLOTS,
    VOTES,
    InfosetRow,
    ScenarioError,
    ballot_sets,
    coercion_epistemic,
    coercion_hartley,
    epistemic_coercion_property,
    gen_referendum_double,
    gen_referendum_single,
    gen_threeballot,
    hartley_coercion_property,
    hartley_invariant_property,
    infoset_table_csv,
    referendum_double_property,
    referendum_hartley_property,
    referendum_single_property,
    render_infoset_table,
    threeballot_infosets,
)

from bruteforce import strategy_wins

# Hand-checked coercer information sets, one entry per (vote, fills, receipt).
# Each value lists the five distinct sets of vote values the coercer may
# still consider possible, depending on how the other voter fills.
EXPECTED_INFOSETS = {
    ("ab", "BB FB BF", "BB"): [{"ab"}, {"Ab", "ab"}, {"aB", "ab"}, {"Ab", "aB", "ab"}, {"Ab", "aB", "AB", "ab"}],
    ("ab", "BB FB BF", "FB"): [{"ab"}, {"aB", "ab"}, {"Ab", "ab"}, {"Ab", "AB", "ab"}, {"Ab", "aB", "AB", "ab"}],
    ("ab", "BB FB BF", "BF"): [{"ab"}, {"aB", "ab"}, {"Ab", "ab"}, {"aB", "AB", "ab"}, {"Ab", "aB", "AB", "ab"}],
    ("ab", "BB BB FF", "BB"): [{"ab"}, {"aB", "ab"}, {"Ab", "ab"}, {"AB", "ab"}, {"Ab", "aB", "AB", "ab"}],
    ("ab", "BB BB FF", "FF"): [{"ab"}, {"aB", "ab"}, {"Ab", "ab"}, {"AB", "ab"}, {"Ab", "aB", "AB", "ab"}],
    ("Ab", "BB FB FF", "BB"): [{"Ab"}, {"Ab", "AB"}, {"Ab", "ab"}, {"Ab", "aB", "ab"}, {"Ab", "aB", "AB", "ab"}],
    ("Ab", "BB FB FF", "FB"): [{"Ab"}, {"Ab", "AB"}, {"Ab", "ab"}, {"Ab", "AB", "ab"}, {"Ab", "aB", "AB", "ab"}],
    ("Ab", "BB FB FF", "FF"): [{"Ab"}, {"Ab", "AB"}, {"Ab", "ab"}, {"Ab", "aB", "AB"}, {"Ab", "aB", "AB", "ab"}],
    ("Ab", "FB FB BF", "FB"): [{"Ab"}, {"Ab", "aB"}, {"Ab", "AB"}, {"Ab", "ab"}, {"Ab", "aB", "AB", "ab"}],
    ("Ab", "FB FB BF", "BF"): [{"Ab"}, {"Ab", "aB"}, {"Ab", "AB"}, {"Ab", "ab"}, {"Ab", "aB", "AB", "ab"}],
    ("aB", "BB BF FF", "BB"): [{"aB"}, {"aB", "ab"}, {"aB", "AB"}, {"Ab", "aB", "ab"}, {"Ab", "aB", "AB", "ab"}],
    ("aB", "BB BF FF", "BF"): [{"aB"}, {"aB", "AB"}, {"aB", "ab"}, {"aB", "AB", "ab"}, {"Ab", "aB", "AB", "ab"}],
    ("aB", "BB BF FF", "FF"): [{"aB"}, {"aB", "ab"}, {"aB", "AB"}, {"Ab", "aB", "AB"}, {"Ab", "aB", "AB", "ab"}],
    ("aB", "FB BF BF", "FB"): [{"aB"}, {"aB", "ab"}, {"aB", "AB"}, {"Ab", "aB"}, {"Ab", "aB", "AB", "ab"}],
    ("aB", "FB BF BF", "BF"): [{"aB"}, {"aB", "ab"}, {"aB", "AB"}, {"Ab", "aB"}, {"Ab", "aB", "AB", "ab"}],
    ("AB", "FB BF FF", "FB"): [{"AB"}, {"Ab", "AB"}, {"aB", "AB"}, {"Ab", "AB", "ab"}, {"Ab", "aB", "AB", "ab"}],
    ("AB", "FB BF FF", "BF"): [{"AB"}, {"Ab", "AB"}, {"aB", "AB"}, {"aB", "AB", "ab"}, {"Ab", "aB", "AB", "ab"}],
    ("AB", "FB BF FF", "FF"): [{"AB"}, {"Ab", "AB"}, {"aB", "AB"}, {"Ab", "aB", "AB"}, {"Ab", "aB", "AB", "ab"}],
    ("AB", "BB FF FF", "BB"): [{"AB"}, {"AB", "ab"}, {"Ab", "AB"}, {"aB", "AB"}, {"Ab", "aB", "AB", "ab"}],
    ("AB", "BB FF FF", "FF"): [{"AB"}, {"AB", "ab"}, {"Ab", "AB"}, {"aB", "AB"}, {"Ab", "aB", "AB", "ab"}],
}


def test_single_referendum_model():
    m = gen_referendum_single()
    assert m.states == ("s0", "s1", "s2")
    assert m.agents == ("v", "c")
    assert m.epistemic_class("c", "s1") == frozenset({"s1", "s2"})
    assert m.epistemic_class("c", "s0") == frozenset({"s0"})
    assert m.avail("v", "s0") == ("voteA", "voteNA", "eps")
    assert m.avail("v", "s1") == ("eps",)
    assert m.valuation["Voted"] == frozenset({"s1", "s2"})
    assert m.valuation["V_A"] == frozenset({"s1"})
    assert load_model(save_model(m)).states == m.states


def test_single_referendum_properties():
    m = gen_referendum_single()
    assert check(m, "s0", referendum_single_property())
    assert not check(m, "s0", parse_formula("<v> F (Voted & K[c] V_A)"))


def test_double_referendum_models():
    m1 = gen_referendum_double("M1")
    m2 = gen_referendum_double("M2")
    assert m1.states == m2.states == ("s0", "s1", "s2", "s3", "s4")
    assert m1.avail("v", "s0") == ("voteANB", "voteNAB", "voteAB", "voteNANB")
    assert m1.epistemic_classes("c") == (
        frozenset({"s0"}),
        frozenset({"s1", "s2"}),
        frozenset({"s3", "s4"}),
    )
    assert m2.epistemic_classes("c") == (
        frozenset({"s0"}),
        frozenset({"s1", "s2", "s3", "s4"}),
    )
    assert m1.valuation["V_A"] == frozenset({"s1", "s3"})
    assert m1.valuation["V_B"] == frozenset({"s2", "s3"})
    with pytest.raises(ScenarioError):
        gen_referendum_double("M3")


def test_double_referendum_discrimination():
    m1 = gen_referendum_double("M1")
    m2 = gen_referendum_double("M2")
    knowledge = referendum_double_property()
    assert check(m1, "s0", knowledge)
    assert check(m2, "s0", knowledge)
    doubt = referendum_hartley_property()
    assert check(m2, "s0", doubt)
    assert not check(m1, "s0", doubt)
    beta1 = [m1.valuation["V_A"], m1.valuation["V_B"]]
    beta2 = [m2.valuation["V_A"], m2.valuation["V_B"]]
    assert hartley_classes(m2, "c", "s1", beta2) == 4
    assert hartley_classes(m1, "c", "s1", beta1) == 2


def test_ballot_sets():
    assert ballot_sets("ab") == (("BB", "FB", "BF"), ("BB", "BB", "FF"))
    assert ballot_sets("Ab") == (("BB", "FB", "FF"), ("FB", "FB", "BF"))
    assert ballot_sets("aB") == (("BB", "BF", "FF"), ("FB", "BF", "BF"))
    assert ballot_sets("AB") == (("FB", "BF", "FF"), ("BB", "FF", "FF"))
    with pytest.raises(ScenarioError):
        ballot_sets("xy")


def test_ballot_sets_mark_counts():
    for vote in VOTES:
        for bs in ballot_sets(vote):
            marks_a = sum(b[0] == "F" for b in bs)
            marks_b = sum(b[1] == "F" for b in bs)
            assert marks_a == (2 if vote[0] == "A" else 1)
            assert marks_b == (2 if vote[1] == "B" else 1)
            assert all(b in BALLOTS for b in bs)


def test_threeballot_model_shape():
    m = gen_threeballot()
    assert m.agents == ("v", "w", "c")
    assert len(m.states) == 189
    terminals = [q for q in m.states if q.startswith("t_")]
    assert len(terminals) == 160
    assert sum(q.startswith("bs_") for q in m.states) == 8
    assert sum(q.startswith("r_") for q in m.states) == 20
    assert m.valuation["Voted"] == frozenset(terminals)
    for t in terminals:
        i = m.state_index[t]
        assert set(m.moves[i]) == {1 << i}
    # the coercer is action-passive and voter epistemics are the identity
    assert m.actions["c"] == ("eps",)
    assert all(m.epistemic_class("v", q) == frozenset({q}) for q in m.states)
    assert all(m.epistemic_class("w", q) == frozenset({q}) for q in m.states)


def test_threeballot_board_grouping():
    # recompute the coercer classes from scratch out of the state names
    m = gen_threeballot()
    groups = {}
    for t in m.valuation["Voted"]:
        first, second = t[2:].split("__")
        vote1, b1, b2, b3, receipt = first.split("_")
        vote2, c1, c2, c3 = second.split("_")
        board = tuple(sorted([b1, b2, b3, c1, c2, c3], key=BALLOTS.index))
        groups.setdefault((receipt, board), set()).add(t)
    for t in m.valuation["Voted"]:
        first, _ = t[2:].split("__")
        _, b1, b2, b3, receipt = first.split("_")
        board_members = None
        for (r, board), members in groups.items():
            if t in members:
                board_members = members
                break
        assert m.epistemic_class("c", t) == frozenset(board_members)


def test_infoset_table_matches_expected():
    rows = threeballot_infosets()
    assert len(rows) == 20
    assert [(r.vote, " ".join(r.ballots), r.receipt) for r in rows] == list(
        EXPECTED_INFOSETS
    )
    for row in rows:
        key = (row.vote, " ".join(row.ballots), row.receipt)
        got = {frozenset(s) for s in row.info_sets}
        want = {frozenset(s) for s in EXPECTED_INFOSETS[key]}
        assert got == want, key


def test_infoset_rows_reflexive_and_full():
    full = frozenset(VOTES)
    for row in threeballot_infosets():
        for info_set in row.info_sets:
            assert row.vote in info_set
        assert full in {frozenset(s) for s in row.info_sets}


def test_infoset_table_rendering():
    rows = threeballot_infosets()
    text = render_infoset_table(rows)
    lines = text.splitlines()
    assert "Vote and ballot set (BS)" in lines[0]
    assert "Receipt" in lines[0]
    receipt_lines = [l for l in lines if " | " in l][1:]
    assert len(receipt_lines) == 20
    assert "Vote = ab, BS = {BB, FB, BF}" in text
    assert "{Ab, aB, AB, ab}" in text

    csv = infoset_table_csv(rows)
    csv_lines = csv.splitlines()
    assert csv_lines[0] == "vote,ballots,receipt,info_sets"
    assert len(csv_lines) == 21
    assert csv_lines[1] == (
        "ab,BB FB BF,BB,{ab};{Ab ab};{aB ab};{Ab aB ab};{Ab aB AB ab}"
    )


def test_coercion_verdicts():
    m = gen_threeballot()
    assert coercion_epistemic(m) is True
    assert coercion_hartley(m) is False
    # the strategic reading of maximal doubt is the weaker demand and holds
    assert coercion_hartley(m, strategic=True) is True


def test_second_voter_can_always_match_the_first():
    # w sees every state and votes after v: an attractor wins from q0, although
    # w has 2**60 uniform strategies to enumerate
    m = gen_threeballot()
    f = parse_formula("<w> F V1_eq_V2")
    args = [frozenset(m.states), frozenset(m.valuation["V1_eq_V2"])]
    for mode in ("ir", "Ir"):
        for scope in ("objective", "subjective"):
            opts = CheckOptions(strategy_mode=mode, success_scope=scope)
            start = time.perf_counter()
            assert check(m, m.initial, f, opts) is True
            witness = find_witness(m, m.initial, f, opts)
            assert time.perf_counter() - start < 1.0
            assert strategy_wins(m, m.initial, witness.actions, "U", args, scope)


def test_coercion_on_observation_variants():
    ident = gen_threeballot("identity")
    assert coercion_epistemic(ident) is False
    blind = gen_threeballot("full")
    assert coercion_epistemic(blind) is True
    assert coercion_hartley(blind) is True
    with pytest.raises(ScenarioError):
        gen_threeballot("partial")


def _single_vote_toy() -> Cegm:
    props = {
        "Voted": ["t"],
        "V_A": [],
        "V_B": [],
        "V1_eq_AB": [],
        "V1_eq_Ab": [],
        "V1_eq_aB": [],
        "V1_eq_ab": ["t"],
        "V1_eq_V2": [],
    }
    return Cegm(
        ["v", "c"],
        ["q0", "t"],
        "q0",
        {"v": ["vote", "eps"], "c": ["eps"]},
        {("v", "q0"): ["vote"], ("v", "t"): ["eps"]},
        {("q0", ("vote", "eps")): "t", ("t", ("eps", "eps")): "t"},
        (),
        list(props),
        props,
    )


def test_single_vote_value_conjuncts_are_vacuous():
    toy = _single_vote_toy()
    # the only castable vote is transparent, so both verdicts fail ...
    assert coercion_epistemic(toy) is False
    assert coercion_hartley(toy) is False
    # ... while conjuncts for never-cast votes hold vacuously
    vac = parse_formula("!<v, c> F (V1_eq_AB & (V1_eq_V2 | K[c] V1_eq_AB))")
    assert check(toy, "q0", vac)
    assert check(toy, "q0", parse_formula("<> G !(V1_eq_AB & !V1_eq_V2 & !H[c] = log(4) {V_A, V_B})"))


def _random_vote_model(rng: Random) -> Cegm:
    """A small random voter-coercer game over the ThreeBallot propositions."""
    states = [f"q{i}" for i in range(rng.randint(2, 5))]
    trans = {
        (q, (x, y)): rng.choice(states) for q in states for x in ("l", "r") for y in ("l", "r")
    }
    obs = [("c", q, r) for q, r in zip(states, states[1:]) if rng.random() < 0.5]
    props = _single_vote_toy().valuation
    valuation = {p: [q for q in states if rng.random() < 0.5] for p in props}
    return Cegm(
        ["v", "c"],
        states,
        "q0",
        {"v": ["l", "r"], "c": ["l", "r"]},
        None,
        trans,
        obs,
        list(valuation),
        valuation,
    )


def test_coercion_helpers_check_the_property_formulas():
    models = [_single_vote_toy()] + [_random_vote_model(Random(seed)) for seed in range(12)]
    verdicts = set()
    for m in models:
        for literal in (False, True):
            got = coercion_epistemic(m, literal)
            assert got == check(m, m.initial, epistemic_coercion_property(literal))
            verdicts.add(got)
        got = coercion_hartley(m, strategic=True)
        assert got == check(m, m.initial, hartley_coercion_property())
        verdicts.add(got)
    assert verdicts == {True, False}


# per coercer observation: coercion_epistemic with literal_antecedent False
# and True, then coercion_hartley with strategic False and True
COERCION_VERDICTS = {
    "board": (True, False, False, True),
    "identity": (False, False, False, True),
    "full": (True, True, True, False),
}


@pytest.mark.parametrize("coercer_obs", sorted(COERCION_VERDICTS))
def test_each_coercion_helper_labels_once(coercer_obs, monkeypatch):
    calls = []
    real = mcheck.label_masks

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(mcheck, "label_masks", counting)
    m = gen_threeballot(coercer_obs)
    verdicts = []
    for literal in (False, True):
        calls.clear()
        verdicts.append(coercion_epistemic(m, literal))
        assert calls == [epistemic_coercion_property(literal)]
    readings = [(False, hartley_invariant_property()), (True, hartley_coercion_property())]
    for strategic, prop in readings:
        calls.clear()
        verdicts.append(coercion_hartley(m, strategic))
        assert calls == [prop]
    assert tuple(verdicts) == COERCION_VERDICTS[coercer_obs]


# sha256 of each variant's model file, pinned so the writer's output stays
# byte-for-byte the same
SAVED_THREEBALLOT_SHA256 = {
    "board": "93a46d7cef15264c0e45d9ec3031323030c408554b330939a9fc4a2e13608e35",
    "identity": "47ad76557a1f886720fa791059874825a53eeee21f8b863fb1150a11755a5453",
    "full": "385af41d87a64ccb1563df4cdb0de83c85aed8a635b9e7d1ad7ffff60ef533de",
}


@pytest.mark.parametrize("coercer_obs", sorted(SAVED_THREEBALLOT_SHA256))
def test_saved_threeballot_bytes_are_pinned(coercer_obs):
    text = save_model(gen_threeballot(coercer_obs))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == SAVED_THREEBALLOT_SHA256[coercer_obs]


def test_coercion_property_formulas_print():
    def conjuncts(template):
        return " & ".join(template.format(v) for v in ("ab", "Ab", "aB", "AB"))

    doubt = "H[c] = log(4) {{V_A, V_B}}"
    assert pretty_print(epistemic_coercion_property()) == conjuncts(
        "!<c, v> F (V1_eq_{0} & (V1_eq_V2 | K[c] V1_eq_{0}))"
    )
    assert pretty_print(epistemic_coercion_property(literal_antecedent=True)) == conjuncts(
        "!<c, v> F (V1_eq_{0} & (!V1_eq_V2 | K[c] V1_eq_{0}))"
    )
    assert pretty_print(hartley_coercion_property()) == conjuncts(
        "!<c, v> F (V1_eq_{0} & (V1_eq_V2 | " + doubt + "))"
    )
    assert pretty_print(hartley_invariant_property()) == conjuncts(
        "<> G !(V1_eq_{0} & !V1_eq_V2 & !" + doubt + ")"
    )


def test_checked_model_is_freed_without_the_cycle_collector():
    """Checking leaves no reference cycle through the model: coalition
    engines point at their model, so they must not be kept on it."""
    model = load_model(save_model(gen_threeballot()))
    ref = weakref.ref(model)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert check(model, "q0", parse_formula("<v, c> F V1_eq_ab"))
        assert find_witness(model, "q0", parse_formula("<v, c> F V1_eq_ab")) is not None
        assert coercion_epistemic(model)
        del model
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
