"""Model checker tests: labeling, knowledge, uncertainty, strategic operators."""

import ast
import decimal
import math
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest

from atlh import cli, formula, mcheck
from atlh.cegm import Cegm, load_model, save_model
from atlh.formula import (
    Atom,
    CoalFG,
    CoalG,
    CoalU,
    CoalX,
    Formula,
    Hartley,
    LogOfCount,
    Real,
    TrueF,
    parse_formula,
    subformula_rows,
    subformulas_by_length,
)
from atlh.mcheck import (
    CheckError,
    CheckOptions,
    _class_count,
    _CoalitionEngine,
    _hartley_mask,
    _knows_mask,
    _narrow,
    check,
    compare_log,
    enumerate_strategies,
    find_witness,
    hartley_classes,
    label,
)
from atlh.sampling import random_cegm, random_formula
from atlh.scenarios import (
    epistemic_coercion_property,
    gen_referendum_double,
    gen_referendum_single,
    gen_threeballot,
    hartley_coercion_property,
    hartley_invariant_property,
    referendum_double_property,
    referendum_hartley_property,
    referendum_single_property,
)
from atlh.translate import h_to_k

import bruteforce
from bruteforce import oracle_label, transitions
from conftest import within
from propsuites import oracle_first_winner

FIG1 = """\
agents: v c
states: s0 s1 s2
init: s0
actions v: voteA voteNA eps
actions c: eps
avail v s1: eps
avail v s2: eps
trans s0 (voteA, eps) -> s1
trans s0 (voteNA, eps) -> s2
trans s0 (eps, eps) -> s0
trans s1 (eps, eps) -> s1
trans s2 (eps, eps) -> s2
obs c: s1 ~ s2
prop Voted: s1 s2
prop V_A: s1
"""

_DOUBLE_BASE = """\
agents: v c
states: s0 s1 s2 s3 s4
init: s0
actions v: voteANB voteNAB voteAB voteNANB eps
actions c: eps
avail v s0: voteANB voteNAB voteAB voteNANB
avail v s1: eps
avail v s2: eps
avail v s3: eps
avail v s4: eps
trans s0 (voteANB, eps) -> s1
trans s0 (voteNAB, eps) -> s2
trans s0 (voteAB, eps) -> s3
trans s0 (voteNANB, eps) -> s4
trans s1 (eps, eps) -> s1
trans s2 (eps, eps) -> s2
trans s3 (eps, eps) -> s3
trans s4 (eps, eps) -> s4
prop Voted: s1 s2 s3 s4
prop V_A: s1 s3
prop V_B: s2 s3
"""

M1 = _DOUBLE_BASE + "obs c: s1 ~ s2\nobs c: s3 ~ s4\n"
M2 = _DOUBLE_BASE + "obs c: s1 ~ s2\nobs c: s2 ~ s3\nobs c: s3 ~ s4\n"

# the single-issue no-coercion property: vote either way while keeping the
# coercer in the dark forever
REFERENDUM_PROP = (
    "<v> F (Voted & V_A & G !(K[c] V_A | K[c] !V_A))"
    " & <v> F (Voted & !V_A & G !(K[c] V_A | K[c] !V_A))"
)

DOUBLE_PROP = " & ".join(
    f"<v> F (Voted & {pa}V_A & {pb}V_B & G !(K[c] V_A | K[c] !V_A | K[c] V_B | K[c] !V_B))"
    for pa in ("", "!")
    for pb in ("", "!")
)

# uniformity bites: a cannot tell s0 from s1 but needs different actions there
MICRO = """\
agents: a
states: s0 s1 b
init: s0
actions a: x y
trans s0 (x) -> s1
trans s0 (y) -> b
trans s1 (x) -> b
trans s1 (y) -> s1
trans b (x) -> b
trans b (y) -> b
obs a: s0 ~ s1
prop p: s0 s1
"""


@pytest.fixture
def fig1():
    return load_model(FIG1)


@pytest.fixture
def m1():
    return load_model(M1)


@pytest.fixture
def m2():
    return load_model(M2)


def test_label_atoms_and_knowledge(fig1):
    lab = label(fig1, parse_formula("K[c] Voted & K[c] V_A"))
    assert lab[parse_formula("Voted")] == {"s1", "s2"}
    assert lab[parse_formula("K[c] Voted")] == {"s1", "s2"}
    assert lab[parse_formula("K[c] V_A")] == set()


def test_label_covers_every_subformula(fig1):
    f = parse_formula(REFERENDUM_PROP)
    lab = label(fig1, f)
    from atlh.formula import subformulas_by_length

    assert set(lab) == set(subformulas_by_length(f))


def test_referendum_coercion_resistance(fig1):
    assert check(fig1, "s0", parse_formula(REFERENDUM_PROP))
    assert not check(fig1, "s0", parse_formula("<v> F (Voted & K[c] V_A)"))


def test_double_referendum_atlk_blind(m1, m2):
    f = parse_formula(DOUBLE_PROP)
    assert check(m1, "s0", f)
    assert check(m2, "s0", f)


def test_double_referendum_hartley_separates(m1, m2):
    h = parse_formula("H[c] >= 2 {V_A, V_B}")
    assert check(m2, "s1", h)
    assert not check(m1, "s1", h)
    f = parse_formula("<v> F (Voted & H[c] >= 2 {V_A, V_B})")
    assert check(m2, "s0", f)
    assert not check(m1, "s0", f)


def test_hartley_classes_counts(fig1, m1, m2):
    va = {"s1", "s3"}
    vb = {"s2", "s3"}
    assert hartley_classes(m2, "c", "s1", [va, vb]) == 4
    assert hartley_classes(m1, "c", "s1", [va, vb]) == 2
    assert hartley_classes(m1, "c", "s0", [va, vb]) == 1
    assert hartley_classes(fig1, "c", "s1", [{"s1"}]) == 2


def test_class_count_matches_per_state_patterns():
    # the cells of the class mask split by each member mask against the
    # distinct membership patterns of the class's states; members are drawn
    # empty, equal to the class, or at random
    rng = Random(4241)
    for _ in range(1000):
        n = rng.randint(1, 10)
        cls = rng.getrandbits(n) or 1
        members = [rng.choice((0, cls, rng.getrandbits(n))) for _ in range(rng.randint(0, 4))]
        patterns = {tuple(m >> i & 1 for m in members) for i in range(n) if cls >> i & 1}
        assert _class_count(cls, members) == len(patterns), (cls, members)


def test_compare_log_exact():
    assert compare_log(3, "=", LogOfCount(3))
    assert not compare_log(3, "=", LogOfCount(4))
    assert compare_log(4, ">=", Real(Fraction(2)))
    assert compare_log(3, "<", Real(Fraction(2)))  # 3^1 < 2^2... via 9 < 16
    assert compare_log(4, "=", Real(Fraction(2)))
    assert compare_log(8, "=", Real(Fraction(3)))
    assert not compare_log(3, "=", Real(Fraction(3, 2)))  # 9 != 8
    assert compare_log(2, ">", Real(Fraction(1, 2)))  # 4 > 2
    assert compare_log(1, "=", Real(0))
    assert compare_log(1, "=", LogOfCount(1))
    with pytest.raises(CheckError):
        compare_log(0, "=", Real(0))


def test_compare_log_on_both_sides_of_each_logarithm():
    # counts 1-9 against log(k) for k around the count, and rationals just
    # below, at and above log2(count), judged by the oracle's integer powers
    for count in range(1, 10):
        near = Fraction(math.log2(count)).limit_denominator(1000)
        steps = (-1, Fraction(-1, 1000), 0, Fraction(1, 1000), 1)
        thresholds = [LogOfCount(k) for k in range(max(1, count - 1), count + 2)]
        thresholds += [Real(near + d) for d in steps if near + d >= 0]
        for threshold in thresholds:
            for cmp in formula.CMPS:
                want = bruteforce._log_compares(count, cmp, threshold)
                assert compare_log(count, cmp, threshold) == want, (count, cmp, threshold)


@pytest.mark.parametrize("cmp", ["<>", "gt", None, ["<"]])
def test_compare_log_rejects_an_unknown_comparison(cmp):
    for threshold in (Real(1), LogOfCount(2)):
        with pytest.raises(CheckError) as exc:
            compare_log(4, cmp, threshold)
        assert str(exc.value) == f"unknown comparison {cmp!r}"


def test_compare_log_doubles_precision_near_an_irrational_logarithm():
    # thresholds within 10**-45 of log2(3) are closer than the first
    # 40-digit `decimal` pass can separate, so only a doubled precision
    # decides them
    ctx = decimal.Context(prec=100)
    log2 = ctx.divide(ctx.ln(3), ctx.ln(2))
    below = Fraction(int(log2.scaleb(46, ctx)), 10**46)
    above = below + Fraction(1, 10**46)
    assert 0 < Fraction(log2) - below < Fraction(1, 10**45)
    assert 0 < above - Fraction(log2) < Fraction(1, 10**45)
    assert within(2, compare_log, 3, ">", Real(below))
    assert not within(2, compare_log, 3, "<", Real(below))
    assert within(2, compare_log, 3, "<", Real(above))
    assert not within(2, compare_log, 3, ">", Real(above))


def test_check_options_reject_unknown_mode_and_scope():
    with pytest.raises(CheckError) as exc:
        CheckOptions(strategy_mode="IR")
    assert str(exc.value) == "unknown strategy mode 'IR'"
    with pytest.raises(CheckError) as exc:
        CheckOptions(success_scope="global")
    assert str(exc.value) == "unknown success scope 'global'"
    with pytest.raises(CheckError) as exc:
        CheckOptions()._replace(strategy_mode="IR")
    assert str(exc.value) == "unknown strategy mode 'IR'"


def test_compare_log_matches_integer_comparison():
    exact = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "=": lambda a, b: a == b,
    }
    for count in range(1, 70):
        for q in range(1, 7):
            for p in range(0, 8 * q + 1):
                for cmp, holds in exact.items():
                    want = holds(count**q, 2**p)
                    assert compare_log(count, cmp, Real(Fraction(p, q))) == want, (count, cmp, p, q)


def test_compare_log_near_threshold_matches_integer_comparison():
    # best rational approximations of log2(count), and their neighbours,
    # sit far inside [bl - 1, bl) and closer than any float can separate
    exact = {
        "<": lambda a, b: a < b,
        ">": lambda a, b: a > b,
        "=": lambda a, b: a == b,
    }
    for count in (3, 5, 6, 7, 12, 100, 1000, 12345):
        for digits in range(1, 6):
            near = Fraction(math.log2(count)).limit_denominator(10**digits)
            for value in (near, Fraction(2 * near.numerator + 1, 2 * near.denominator)):
                p, q = value.numerator, value.denominator
                for cmp, holds in exact.items():
                    want = holds(count**q, 2**p)
                    assert compare_log(count, cmp, Real(value)) == want, (count, cmp, value)


def test_long_denominator_threshold_decides_at_once():
    start = time.perf_counter()
    assert compare_log(3, ">", Real(Fraction(10000001, 10000000)))
    assert not compare_log(3, "<", Real(Fraction(10**40 + 1, 10**40)))
    # 5e-13 above log2(3), with a 66-digit denominator
    near = Fraction(301994, 190537) - Fraction(1, 10**60)
    assert compare_log(3, "<", Real(near))
    assert not compare_log(3, ">=", Real(near))
    assert time.perf_counter() - start < 0.1


def test_huge_thresholds_decide_at_once(fig1):
    start = time.perf_counter()
    below = parse_formula("H[c] < 100000000000 {V_A}")
    above = parse_formula("H[c] > 100000000000 {V_A}")
    for q in fig1.states:
        assert check(fig1, q, below)
        assert not check(fig1, q, above)
    assert compare_log(2**40, ">=", Real(Fraction(10**12 + 1, 10**12)))
    assert time.perf_counter() - start < 0.5


def test_enumerate_strategies_counts(fig1, m2):
    assert len(list(enumerate_strategies(fig1, ("v",)))) == 3
    assert len(list(enumerate_strategies(fig1, ("c",)))) == 1
    assert len(list(enumerate_strategies(fig1, ("v", "c")))) == 3
    assert len(list(enumerate_strategies(m2, ("v",)))) == 4
    assert len(list(enumerate_strategies(fig1, ()))) == 1
    with pytest.raises(CheckError) as exc:
        next(enumerate_strategies(fig1, ("zz",)))
    assert str(exc.value) == "unknown agent zz"


def test_enumerate_strategies_uniform_and_not():
    micro = load_model(MICRO)
    uniform = list(enumerate_strategies(micro, ("a",)))
    assert len(uniform) == 2 * 2  # one choice for {s0,s1}, one for {b}
    for s in uniform:
        assert s.action("a", "s0") == s.action("a", "s1")
    free = list(enumerate_strategies(micro, ("a",), CheckOptions(strategy_mode="Ir")))
    assert len(free) == 2 * 2 * 2
    assert any(s.action("a", "s0") != s.action("a", "s1") for s in free)


def test_strategic_basics(fig1):
    assert check(fig1, "s0", parse_formula("<v> G true"))
    assert check(fig1, "s0", parse_formula("<v> X V_A"))
    assert not check(fig1, "s0", parse_formula("<c> X Voted"))
    assert check(fig1, "s1", parse_formula("<> X V_A"))
    assert not check(fig1, "s0", parse_formula("<> X Voted"))


def test_uniformity_changes_verdict():
    micro = load_model(MICRO)
    f = parse_formula("<a> G p")
    assert not check(micro, "s0", f)
    assert check(micro, "s1", f)  # stay with y forever
    assert check(micro, "s0", f, CheckOptions(strategy_mode="Ir"))


def test_subjective_scope():
    fig1 = load_model(FIG1)
    f = parse_formula("<c> X V_A")
    assert check(fig1, "s1", f)
    assert not check(fig1, "s1", f, CheckOptions(success_scope="subjective"))
    # empty coalition has an empty start set: vacuously successful
    g = parse_formula("<> X false")
    assert not check(fig1, "s0", g)
    assert check(fig1, "s0", g, CheckOptions(success_scope="subjective"))


def test_mutual_knowledge(fig1):
    f = parse_formula("E[v, c] Voted")
    lab = label(fig1, f)
    assert lab[f] == {"s1", "s2"}


def test_nested_strategic(fig1):
    assert check(fig1, "s0", parse_formula("<v> F K[c] Voted"))
    assert not check(fig1, "s0", parse_formula("<v> G K[c] Voted"))


def test_until_supersets_goal():
    rng = Random(7)
    for _ in range(20):
        model = random_cegm(rng, max_states=5)
        hold = random_formula(rng, model.props, model.agents, depth=1, strategic_budget=0)
        goal = random_formula(rng, model.props, model.agents, depth=1, strategic_budget=0)
        f = parse_formula(f"<a0> ({hold} U {goal})")
        lab = label(model, f)
        assert lab[f] >= lab[goal]


def test_find_witness(fig1):
    f = parse_formula("<v> F (Voted & V_A & G !(K[c] V_A | K[c] !V_A))")
    witness = find_witness(fig1, "s0", f)
    assert witness is not None
    assert witness.action("v", "s0") == "voteA"
    assert find_witness(fig1, "s0", parse_formula("Voted")) is None
    assert find_witness(fig1, "s0", parse_formula("<v> F (Voted & K[c] V_A)")) is None


def test_coalition_without_choice_points_gets_a_full_witness(fig1):
    # c has one action at every state, so its strategy space is one strategy
    # with no choice point, and the witness plays that action everywhere
    f = parse_formula("<c> X true")
    for mode in ("ir", "Ir"):
        witness = find_witness(fig1, "s0", f, CheckOptions(strategy_mode=mode))
        assert str(witness) == "c: s0=eps s1=eps s2=eps"


def test_find_witness_reports_what_check_reports(fig1):
    # unknown names are errors whatever the formula's top operator
    for state, text, message in [
        ("zz", "Voted", "unknown state zz"),
        ("s0", "zz", "unknown atom zz"),
        ("zz", "<v> F Voted", "unknown state zz"),
        ("s0", "<v> F zz", "unknown atom zz"),
    ]:
        for query in (check, find_witness):
            with pytest.raises(CheckError) as exc:
                query(fig1, state, parse_formula(text))
            assert str(exc.value) == message


# Formulas with two or more unknown names, and the fault reported: the first
# faulty subformula in printed order (shortest first, ties by text), not the
# first one a children-first walk meets.
FIRST_FAULTS = [
    ("zz & aa", "unknown atom aa"),
    ("K[y] Voted & aa", "unknown atom aa"),
    ("<y> X aa | K[b] Voted", "unknown atom aa"),
    ("<y> X Voted | K[b] Voted", "unknown agent b"),
    ("<y> F zz | <b> X aa", "unknown atom aa"),
    ("E[c, y] Voted & <b> X Voted", "unknown agent b"),
    ("H[y] = 1 {Voted} | K[x] V_A", "unknown agent y"),
]


@pytest.mark.parametrize("text, message", FIRST_FAULTS)
def test_first_fault_in_printed_order(fig1, text, message):
    f = parse_formula(text)
    for run in (lambda: check(fig1, "s0", f), lambda: label(fig1, f)):
        with pytest.raises(CheckError) as exc:
            run()
        assert str(exc.value) == message


def test_first_fault_of_a_large_formula_prints_little(fig1):
    # a 356,719-node translation: printing every row would take about 900 MB
    f = h_to_k(parse_formula("H[c] = log(4) {V_A, Voted, zz, p2}"))
    tracemalloc.start()
    try:
        with pytest.raises(CheckError) as exc:
            check(fig1, "s0", f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "unknown atom p2"
    assert peak < 50 * 2**20


def test_unknown_atom_and_agent(fig1):
    with pytest.raises(CheckError, match="unknown atom"):
        check(fig1, "s0", parse_formula("nonsense"))
    with pytest.raises(CheckError, match="unknown agent"):
        check(fig1, "s0", parse_formula("K[zz] Voted"))
    with pytest.raises(CheckError, match="unknown agent"):
        check(fig1, "s0", parse_formula("<zz> X Voted"))
    with pytest.raises(CheckError, match="unknown state"):
        check(fig1, "zz", parse_formula("Voted"))


# one formula per node class, each on the bundled referendum models
ONE_PER_CLASS = {
    formula.Atom: "Voted",
    formula.TrueF: "true",
    formula.FalseF: "false",
    formula.Not: "!V_A",
    formula.And: "Voted & !V_A",
    formula.Or: "V_A | !Voted",
    CoalX: "<v> X V_A",
    CoalG: "<c> G !V_A",
    CoalU: "<v> (!Voted U V_A)",
    CoalFG: "<v> F (Voted & G !K[c] V_A)",
    formula.Knows: "K[c] Voted",
    formula.MutualKnows: "E[v, c] Voted",
    Hartley: "H[c] >= 1 {V_A}",
}


def test_every_formula_class_labels_as_the_oracle(fig1, m1, m2):
    assert set(ONE_PER_CLASS) == set(Formula.__args__)
    for cls, text in ONE_PER_CLASS.items():
        f = parse_formula(text)
        assert type(f) is cls
        for model in (fig1, m1, m2):
            for opts in COMBOS:
                _assert_matches_oracle(model, f, opts)


def test_a_node_outside_the_formula_classes_is_not_labelled(fig1):
    # a parse-time placeholder never reaches the checker from the parser;
    # built by hand it is a fault, not a strategic operator
    f = formula.And(formula._PathG(0, formula.Atom("Voted")), formula.Atom("Voted"))
    for run in (lambda: label(fig1, f), lambda: check(fig1, "s0", f)):
        with pytest.raises(CheckError) as exc:
            run()
        assert str(exc.value) == "cannot label _PathG('G Voted')"


def test_reach_then_maintain_matches_oracle(fig1, m1, m2):
    f = parse_formula("<v> F (Voted & V_A & G !(K[c] V_A | K[c] !V_A))")
    for model in (fig1, m1, m2):
        assert label(model, f)[f] == oracle_label(model, f)


def test_oracle_smoke():
    rng = Random(123)
    combos = [
        CheckOptions(),
        CheckOptions(strategy_mode="Ir"),
        CheckOptions(success_scope="subjective"),
    ]
    for i in range(30):
        model = random_cegm(rng, max_states=4, max_agents=2, max_actions=2)
        f = random_formula(rng, model.props, model.agents, depth=3, strategic_budget=1)
        opts = combos[i % len(combos)]
        got = label(model, f, opts)[f]
        want = oracle_label(model, f, opts.strategy_mode, opts.success_scope)
        assert got == want, f"disagreement on seed {i}: {f}"


def test_oracle_imports_only_the_formula_classes_from_atlh():
    # an arbiter that shared the checker's code would make its faults too
    with open(bruteforce.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "atlh":
            imported |= {f"atlh.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert {m for m in imported if m.split(".")[0] in ("atlh", "")} == {"atlh.formula"}


def _distinct_target_model(rng: Random) -> Cegm:
    """A random model where the four profiles at each state have pairwise
    distinct targets: two agents with actions x0 and x1 at every state, 4
    to 6 states and random partitions."""
    states = [f"s{i}" for i in range(rng.randint(4, 6))]
    agents, actions = ("a0", "a1"), ("x0", "x1")
    obs = []
    for a in agents:
        blocks: dict = {}
        for q in states:
            blocks.setdefault(rng.randrange(len(states)), []).append(q)
        obs += [(a, left, right) for cls in blocks.values() for left, right in zip(cls, cls[1:])]
    profiles = list(product(actions, actions))
    trans = {(q, x): t for q in states for x, t in zip(profiles, rng.sample(states, 4))}
    valuation = {p: [q for q in states if rng.random() < 0.5] for p in ("p", "r")}
    return Cegm(agents, states, "s0", dict.fromkeys(agents, actions), None, trans, obs, ["p", "r"], valuation)


COMBOS = [
    CheckOptions(strategy_mode=mode, success_scope=scope)
    for mode in ("ir", "Ir")
    for scope in ("objective", "subjective")
]


def _assert_matches_oracle(model, f, opts):
    holds = oracle_label(model, f, opts.strategy_mode, opts.success_scope)
    assert label(model, f, opts)[f] == holds, (f, opts)
    for q in model.states:
        assert check(model, q, f, opts) == (q in holds), (f, q, opts)
        if isinstance(f, (CoalX, CoalG, CoalU, CoalFG)):
            want = oracle_first_winner(model, q, f, opts)
            got = find_witness(model, q, f, opts)
            assert (got is None) == (want is None), (f, q, opts)
            if got is not None:
                assert got.actions == want.actions, (f, q, opts)


@pytest.mark.parametrize("text", ["<> X false", "<> G false", "<> F false"])
def test_the_empty_coalition_wins_vacuously_in_subjective_scope(text):
    # The empty coalition has no member to confuse states, so its start set
    # is empty in subjective scope and even an unsatisfiable goal holds at
    # every state; in objective scope it starts from the state and fails.
    model = gen_referendum_single()
    f = parse_formula(text)
    for opts in COMBOS:
        want = set(model.states) if opts.success_scope == "subjective" else set()
        assert oracle_label(model, f, opts.strategy_mode, opts.success_scope) == want, opts
        assert label(model, f, opts)[f] == want, opts
        assert {q for q in model.states if check(model, q, f, opts)} == want, opts


def test_oracle_reads_each_profile_target():
    # Criterion 12's random models often send several profiles of a state to
    # one target, where an oracle that pairs profiles with the wrong targets
    # can still agree with the checker. Here each profile has its own target.
    # Labels alone miss some misreadings: reversing a state's profile order
    # only renames each agent's actions there. First winners see the names.
    rng = Random(20261020)
    for _ in range(12):
        model = _distinct_target_model(rng)
        for a in model.agents:
            for text in (f"<{a}> X p", f"<{a}> (r U p)"):
                for opts in (CheckOptions(), CheckOptions(strategy_mode="Ir")):
                    _assert_matches_oracle(model, parse_formula(text), opts)


def test_uncertainty_thresholds_match_the_oracle():
    # The oracle compares class counts by integer powers, not with
    # `compare_log`, so a fault there shows as a disagreement. Classes of up
    # to 6 states give counts up to 6, and the thresholds p/q fall on both
    # sides of each count's logarithm.
    rng = Random(20261021)
    thresholds = [LogOfCount(k) for k in range(1, 7)]
    thresholds += [Real(Fraction(p, q)) for q in range(1, 5) for p in range(3 * q) if math.gcd(p, q) == 1]
    for _ in range(6):
        model = random_cegm(rng, max_states=6, max_agents=2, max_props=3)
        beta = [parse_formula(p) for p in model.props]
        for agent in model.agents:
            for threshold in thresholds:
                for cmp in ("<", "<=", ">", ">=", "="):
                    f = Hartley(agent, cmp, threshold, beta)
                    assert label(model, f)[f] == oracle_label(model, f), str(f)


def test_witness_is_first_winner_on_random_models():
    rng = Random(2303)
    kinds = (CoalX, CoalG, CoalU, CoalFG)
    for i in range(24):
        model = random_cegm(rng, max_states=4, max_agents=2, max_actions=2)
        coal = tuple(rng.sample(model.agents, rng.randint(0, min(2, len(model.agents)))))
        kind = kinds[i % len(kinds)]
        subs = [
            random_formula(rng, model.props, model.agents, depth=2, strategic_budget=1)
            for _ in range(1 if kind in (CoalX, CoalG) else 2)
        ]
        f = kind(coal, *subs)
        for opts in COMBOS:
            _assert_matches_oracle(model, f, opts)


def _per_state_sample(rng, i):
    """A random model, a per-state mode for it and a formula `<A> X`, `G`
    or `U` (by `i % 3`) whose operands may hold one more strategic operator,
    where the coalition's menus offer 3 or 4 actions at some choice point
    and its strategy space is at most 256. `Ir` keeps the model's links, so
    subjective start sets can be wider than the state; `ir` runs on the
    model with its links dropped, where every class is a single state."""
    while True:
        model = random_cegm(rng, max_states=4, max_agents=2, max_actions=4)
        mode = ("Ir", "ir")[i % 2]
        if mode == "ir":
            lines = save_model(model).splitlines(True)
            model = load_model("".join(line for line in lines if not line.startswith("obs")))
        coal = tuple(rng.sample(model.agents, rng.randint(1, len(model.agents))))
        points = _CoalitionEngine(model, coal, CheckOptions(mode)).choice_points
        widths = [len(options) for _, _, options, _ in points]
        if max(widths, default=0) >= 3 and math.prod(widths) <= 256:
            break
    kind = (CoalX, CoalG, CoalU)[i % 3]
    subs = [
        random_formula(rng, model.props, model.agents, depth=2, strategic_budget=1)
        for _ in range(1 if kind in (CoalX, CoalG) else 2)
    ]
    return model, mode, kind(coal, *subs)


def test_per_state_witness_is_first_winner_with_wide_menus():
    """With two actions per menu the per-state search accepts the second
    untested whenever the first fails, so these draws offer 3 or 4: an
    action is then accepted from the one recomputed region of its choice
    point, or because its state keeps a move into the target. Witnesses and
    verdicts at every state, in both scopes, against the oracle."""
    rng = Random(3815)
    for i in range(72):
        model, mode, f = _per_state_sample(rng, i)
        for scope in ("objective", "subjective"):
            opts = CheckOptions(mode, scope)
            assert _CoalitionEngine(model, f.coalition, opts).per_state
            _assert_matches_oracle(model, f, opts)


def test_per_state_witness_search_recomputes_one_region_per_choice_point(monkeypatch):
    """On ThreeBallot at q0, in all four mode/scope combinations, the
    witness search runs `_narrow` once for the bound and at most once per
    choice point inside the region: at each of w's 20 points for
    `<w> F V1_eq_V2` (the region with the point's state cut off is U's
    target there; a region per action tried made 81 calls), and at 3 of
    `<v, c>`'s 9 for `<v, c> F V1_eq_ab`. For G and X a region is
    recomputed only where an action drops the point's state: 5 times for
    `<w> G !V1_eq_V2`, never for `<v, c> X !Voted`. `<w> G !V1_eq_ab` and
    `<v, c> X Voted` are false at q0, so only the bound runs."""
    model = gen_threeballot()
    real = mcheck._narrow
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(mcheck, "_narrow", counting)
    for text, holds, want in (
        ("<w> F V1_eq_V2", True, 21),
        ("<v, c> F V1_eq_ab", True, 4),
        ("<w> G !V1_eq_V2", True, 6),
        ("<v, c> X !Voted", True, 1),
        ("<w> G !V1_eq_ab", False, 1),
        ("<v, c> X Voted", False, 1),
    ):
        f = parse_formula(text)
        for opts in COMBOS:
            calls = 0
            assert (find_witness(model, "q0", f, opts) is not None) == holds, (text, opts)
            assert calls == want, (text, opts, calls)


def test_single_state_classes_take_one_mask():
    """`_knows_mask` and `_hartley_mask` against a loop over every class, on
    a partition of single states (a0, no links), one of single states mixed
    with larger classes (a1) and one of a single class (a2), with
    thresholds on both sides of a single state's count, 1."""
    rng = Random(5120)
    agents = ("a0", "a1", "a2")
    thresholds = [LogOfCount(k) for k in (1, 2, 3)] + [Real(Fraction(p, 2)) for p in range(4)]
    for _ in range(20):
        n = rng.randint(1, 7)
        states = [f"s{i}" for i in range(n)]
        mixed: dict = {}
        for q in states:
            mixed.setdefault(rng.randrange(n), []).append(q)
        obs = [("a1", x, y) for cls in mixed.values() for x, y in zip(cls, cls[1:])]
        obs += [("a2", x, y) for x, y in zip(states, states[1:])]
        trans = {(q, ("x",) * 3): rng.choice(states) for q in states}
        model = Cegm(agents, states, "s0", dict.fromkeys(agents, ["x"]), None, trans, obs)
        assert model.class_masks["a0"] is model.singletons
        subs = [0, model.full_mask, *(rng.getrandbits(n) for _ in range(6))]
        for a in agents:
            classes = model.class_masks[a]
            for sub in subs:
                want = sum(cm for _, cm in classes if not cm & ~sub)
                assert _knows_mask(model, a, sub) == want, (a, sub)
            for beta in ([subs[2]], subs[2:5]):
                for threshold in thresholds:
                    for cmp in ("<", "<=", ">", ">=", "="):
                        g = Hartley(a, cmp, threshold, [Atom("p")])
                        want = sum(
                            cm for _, cm in classes
                            if compare_log(_class_count(cm, beta), cmp, threshold)
                        )
                        assert _hartley_mask(model, g, beta) == want, (a, str(g))


@pytest.mark.parametrize(
    "name, formula",
    [
        ("fig1", "<v> F (Voted & V_A & G !(K[c] V_A | K[c] !V_A))"),
        ("fig1", "<v> X V_A"),
        ("fig1", "<c> X V_A"),
        ("fig1", "<v, c> (!Voted U V_A)"),
        ("fig1", "<v> F Voted & K[c] <v> F Voted"),
        ("micro", "<a> G p"),
        ("micro", "<a> X p"),
        ("micro", "<a> F (!p & G !p)"),
        # the root's early stop must not reach the copy under K[a]: in Ir
        # mode the first strategy validates s0 only, but K[a] needs s1 too
        ("micro", "<a> X p & K[a] <a> X p"),
        ("micro", "<a> X K[a] <a> X p"),
    ],
)
def test_witness_and_verdict_match_oracle(name, formula):
    model = load_model({"fig1": FIG1, "micro": MICRO}[name])
    f = parse_formula(formula)
    for opts in COMBOS:
        _assert_matches_oracle(model, f, opts)


# `a` cannot tell s0 from s1 but must play x at s0 and y at s1 to reach g
# (or to stay on p); at g, `b` can push a y-playing `a` out to d
FORK = """\
agents: a b
states: s0 s1 g d
init: s0
actions a: x y
actions b: l r
trans s0 (x, l) -> s1
trans s0 (x, r) -> s1
trans s0 (y, l) -> d
trans s0 (y, r) -> d
trans s1 (x, l) -> d
trans s1 (x, r) -> d
trans s1 (y, l) -> g
trans s1 (y, r) -> g
trans g (x, l) -> g
trans g (x, r) -> g
trans g (y, l) -> g
trans g (y, r) -> d
trans d (x, l) -> d
trans d (x, r) -> d
trans d (y, l) -> d
trans d (y, r) -> d
obs a: s0 ~ s1
prop p: s0 s1 g
prop goal: g
"""


def test_uniform_and_per_state_verdicts_differ_and_match_oracle():
    model = load_model(FORK)
    free = CheckOptions(strategy_mode="Ir")
    for text, uniform, per_state in (
        ("<a> F goal", {"s1", "g"}, {"s0", "s1", "g"}),
        ("<a> G p", {"s1", "g"}, {"s0", "s1", "g"}),
    ):
        f = parse_formula(text)
        assert label(model, f)[f] == uniform
        assert label(model, f, free)[f] == per_state
    for text in (
        "<a> F goal",
        "<a, b> F goal",
        "<a> (p U goal)",
        "<a> G p",
        "<a, b> G p",
        "<a> X goal",
        "<b> X !p",
        "<a> F (p & G goal)",
        "<a, b> F (p & G goal)",
        "<a> X <a, b> F goal",
        "<b> G <a> F goal",
    ):
        f = parse_formula(text)
        for opts in COMBOS:
            _assert_matches_oracle(model, f, opts)


def _around_fork(states, lines) -> str:
    """FORK with `states` declared between its sinks (g, d) and its fork
    (s0, s1), and `lines` (their transitions and links) before FORK's."""
    head = [
        "agents: a b",
        "states: " + " ".join(["g", "d", *states, "s0", "s1"]),
        "init: s0",
        "actions a: x y",
        "actions b: l r",
    ]
    tail = [line for line in FORK.splitlines() if line.startswith(("trans", "obs", "prop"))]
    return "\n".join(head + lines + tail) + "\n"


def _fork_gadget(k: int) -> str:
    """FORK with k two-state classes of a's self-loops declared between its
    sinks (g, d) and its fork (s0, s1). No FORK state reaches a loop, and
    from g the search fixes the loops and the fork after its last test."""
    loops = [f"l{i}{side}" for i in range(k) for side in "ab"]
    lines = [f"trans {q} ({x}, {y}) -> {q}" for q in loops for x in "xy" for y in "lr"]
    lines += [f"obs a: l{i}a ~ l{i}b" for i in range(k)]
    return _around_fork(loops, lines)


def test_unreachable_choice_points_are_not_searched():
    """The loops' choices cannot change whether a strategy wins from s0, so
    they keep their first action untested: at k = 16 the search tries the
    fork a few times instead of once per loop prefix (2**16)."""
    model = load_model(_fork_gadget(16))
    f = parse_formula("<a> F goal")
    assert not within(2, check, model, "s0", f)
    assert within(2, find_witness, model, "s0", f) is None
    assert within(2, label, model, f)[f] == {"g", "s1"}


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_fork_gadget_matches_oracle(k):
    """Labels and witnesses against the oracle; searching from g fixes the
    unreachable fork last, so g's winner must not report s0 as validated.
    Beyond k = 2 only `<a> F goal` in `ir` runs: the oracle walks all
    2**(2k + 4) per-state strategies."""
    model = load_model(_fork_gadget(k))
    small = k <= 2
    for text in ("<a> F goal", "<a> G p", "<a> F (p & G p)")[: 3 if small else 1]:
        f = parse_formula(text)
        for opts in COMBOS if small else COMBOS[:2]:
            _assert_matches_oracle(model, f, opts)


def _chain_gadget(k: int) -> str:
    """FORK with a chain c0 … c(k-1) declared between its sinks (g, d) and
    its fork (s0, s1): each chain state leads, whatever is played, to the
    next, and the last to s0. From c0 every chain state is reachable, and
    its two actions leave the same rows."""
    chain = [f"c{i}" for i in range(k)]
    lines = [
        f"trans {q} ({x}, {y}) -> {nxt}"
        for q, nxt in zip(chain, chain[1:] + ["s0"])
        for x in "xy"
        for y in "lr"
    ]
    return _around_fork(chain, lines)


def test_actions_with_repeated_rows_are_not_searched():
    """An action whose rows equal an earlier, failed action's at every state
    of its choice point fails too, so it is skipped: at k = 16 the search
    does not try every one of the chain's 2**16 prefixes before the fork."""
    model = load_model(_chain_gadget(16))
    f = parse_formula("<a> F goal")
    assert not within(2, check, model, "c0", f)
    assert within(2, find_witness, model, "c0", f) is None
    assert within(2, label, model, f)[f] == {"g", "s1"}


@pytest.mark.parametrize("k", [0, 1, 2])
def test_chain_gadget_matches_oracle(k):
    model = load_model(_chain_gadget(k))
    for text in ("<a> F goal", "<a> G p", "<a> F (p & G p)"):
        f = parse_formula(text)
        for opts in COMBOS:
            _assert_matches_oracle(model, f, opts)


# a cannot tell s0 from u, but in Ir mode chooses at each separately; u,
# which s0 never reaches, must play y to stay on p
BLIND_START = """\
agents: a
states: s0 u b
init: s0
actions a: x y
avail a b: x
trans s0 (x) -> s0
trans s0 (y) -> b
trans u (x) -> b
trans u (y) -> u
trans b (x) -> b
obs a: s0 ~ u
prop p: s0 u
"""


def test_subjective_search_covers_the_start_set():
    """In subjective scope a choice point the queried state cannot reach
    still matters when its states lie in the start set."""
    model = load_model(BLIND_START)
    f = parse_formula("<a> F (p & G p)")
    opts = CheckOptions(strategy_mode="Ir", success_scope="subjective")
    assert check(model, "s0", f, opts)
    assert find_witness(model, "s0", f, opts).actions == {"a": {"s0": "x", "u": "y", "b": "x"}}
    for opts in COMBOS:
        _assert_matches_oracle(model, f, opts)


STRATEGIC = (CoalX, CoalG, CoalU, CoalFG)


def _nested_sample(rng, i):
    """A random model and a strategic formula of kind `i % 4` whose operands
    may hold `<A> F (x & G y)` and one more strategic operator."""
    model = random_cegm(rng, max_states=4, max_agents=2, max_actions=2)
    coal = tuple(rng.sample(model.agents, rng.randint(1, min(2, len(model.agents)))))
    kind = (CoalFG, CoalU, CoalG, CoalX)[i % 4]
    subs = [
        random_formula(rng, model.props, model.agents, depth=2, strategic_budget=1, coal_fg=True)
        for _ in range(1 if kind in (CoalX, CoalG) else 2)
    ]
    return model, kind(coal, *subs)


def _uniformity_binds(model, f) -> bool:
    return any(
        oracle_label(model, f, "ir", scope) != oracle_label(model, f, "Ir", scope)
        for scope in ("objective", "subjective")
    )


def test_fg_and_nested_strategies_match_oracle():
    """Verdicts at every state and witnesses against the oracle, with
    `<A> F (x & G y)` drawn and strategic operators nested two deep, in all
    four mode/scope combinations. Random models rarely make uniformity
    matter, so after a plain sample the draw keeps only (model, formula)
    pairs where `ir` and `Ir` labels differ: there both the fixpoints and
    the pruned search run."""
    rng = Random(4401)
    nested = fg = bound = 0
    for i in range(3000):
        model, f = _nested_sample(rng, i)
        binds = _uniformity_binds(model, f)
        if i >= 24 and not binds:
            continue
        for opts in COMBOS:
            _assert_matches_oracle(model, f, opts)
        *inner, _ = subformulas_by_length(f)
        nested += any(isinstance(g, STRATEGIC) for g in inner)
        fg += any(isinstance(g, CoalFG) for g in [f, *inner])
        bound += binds
        if bound == 6:
            break
    assert nested >= 8 and fg >= 8 and bound == 6, (nested, fg, bound)


# One agent, `<a> F (x & G y)`, memoryless strategies. With Z the G-region
# of y, the U-region of x & Z is an upper bound and the least fixpoint R
# from x & Z, where states in Z keep to moves into R & Z, a lower bound.
# On the first model the upper bound holds s, where a must play b to reach r
# and a to stay on y; on the second the lower bound misses s, where b wins.
FG_UPPER_TOO_HIGH = """\
agents: a
states: r s m
init: r
actions a: a b
avail a r: a
avail a m: a
trans r (a) -> s
trans s (a) -> s
trans s (b) -> m
trans m (a) -> r
prop x: r
prop y: r s
"""

FG_LOWER_TOO_LOW = """\
agents: a
states: s p t
init: s
actions a: a b
avail a p: a
avail a t: a
trans s (a) -> s
trans s (b) -> p
trans p (a) -> t
trans t (a) -> t
prop x: t
prop y: s t
"""


@pytest.mark.parametrize(
    "text, holds",
    [(FG_UPPER_TOO_HIGH, {"r", "m"}), (FG_LOWER_TOO_LOW, {"s", "p", "t"})],
    ids=["upper-too-high", "lower-too-low"],
)
def test_fg_bound_counterexamples_match_oracle(text, holds):
    model = load_model(text)
    f = parse_formula("<a> F (x & G y)")
    for opts in COMBOS:
        assert label(model, f, opts)[f] == holds, opts
        _assert_matches_oracle(model, f, opts)


def _timed_label(model, text, opts, seconds):
    """The label of `text` and its verdict at q0 by `check`, each within `seconds`."""
    f = parse_formula(text)
    return within(seconds, label, model, f, opts)[f], within(seconds, check, model, "q0", f, opts)


def test_threeballot_fg_queries_finish_with_pinned_verdicts():
    """Reach-then-maintain queries on ThreeBallot, each within 1 s in all
    four mode/scope combinations. The q0 verdicts follow from the model:
    - a vote cannot be `Ab` and back B, nor `ab` and back A, so the goals
      `V1_eq_Ab & V_B` and `V1_eq_ab & V_A` hold nowhere: empty labels;
    - `G true` holds everywhere, so `<v> F (V1_eq_aB & G true)` labels the
      states `<v> F V1_eq_aB` does, q0 among them: v votes `aB` there;
    - c has only `eps`, so v may vote `aB` at q0 and never reach `V_A`:
      `<c> F (V_A & G V1_eq_V2)` is false at q0."""
    model = gen_threeballot()
    for opts in COMBOS:
        for text in ("<v, w> F (V1_eq_Ab & G V_B)", "<v, c> F (V1_eq_ab & G V_A)"):
            assert _timed_label(model, text, opts, 1.0) == (set(), False), (text, opts)
        reach, holds = _timed_label(model, "<v> F (V1_eq_aB & G true)", opts, 1.0)
        assert holds and reach == _timed_label(model, "<v> F V1_eq_aB", opts, 1.0)[0], opts
        _, holds = _timed_label(model, "<c> F (V_A & G V1_eq_V2)", opts, 1.0)
        assert not holds, opts


def test_fg_with_invariant_true_labels_as_reachability():
    """`<A> F (x & G true)` and `<A> F x` label the same states on random
    models in all four mode/scope combinations: the first runs the strategy
    search, the second the fixpoint unless a uniformity constraint binds,
    and enough draws have one that binds."""
    rng = Random(9102)
    binding = 0
    for _ in range(300):
        model = random_cegm(rng, max_states=5, max_agents=2, max_actions=3)
        coal = tuple(rng.sample(model.agents, rng.randint(0, min(2, len(model.agents)))))
        x = random_formula(rng, model.props, model.agents, depth=2, strategic_budget=1)
        fg, reach = CoalFG(coal, x, TrueF()), CoalU(coal, TrueF(), x)
        for opts in COMBOS:
            assert label(model, fg, opts)[fg] == label(model, reach, opts)[reach], (fg, opts)
        binding += not _CoalitionEngine(model, coal, CheckOptions()).per_state
    assert binding >= 30, binding


def _binding_model(rng):
    """A random model in which coalition member `a0` has one class of two or
    more states offering two or more actions, so uniform strategies are a
    strict subset of per-state ones and `ir` queries take the enumeration
    path. Other classes, agents, availability and transitions are random."""
    n = rng.randint(2, 4)
    states = [f"s{i}" for i in range(n)]
    agents = ["a0", "a1"][: rng.randint(1, 2)]
    actions = {a: ["x", "y", "z"][: rng.randint(2, 3)] for a in agents}
    wide = rng.sample(states, rng.randint(2, n))
    partition = {"a0": [wide] + [[q] for q in states if q not in wide]}
    if "a1" in agents:
        blocks = {}
        for q in states:
            blocks.setdefault(rng.randrange(n), []).append(q)
        partition["a1"] = list(blocks.values())
    obs, avail = [], {}
    for a in agents:
        for cls in partition[a]:
            obs += [(a, left, right) for left, right in zip(cls, cls[1:])]
            if cls is wide:
                chosen = rng.sample(actions[a], rng.randint(2, len(actions[a])))
            else:
                chosen = [x for x in actions[a] if rng.random() < 0.7] or [actions[a][0]]
            avail.update(((a, q), chosen) for q in cls)
    trans = {
        (q, profile): rng.choice(states)
        for q in states
        for profile in product(*(sorted(avail[a, q], key=actions[a].index) for a in agents))
    }
    props = ["p", "q"]
    valuation = {p: [q for q in states if rng.random() < 0.5] for p in props}
    return Cegm(agents, states, "s0", actions, avail, trans, obs, props, valuation)


def test_uniformity_binding_models_match_oracle():
    """Labels and witnesses against the oracle on models where uniformity
    binds a coalition member, in all four mode/scope combinations: `ir`
    queries there run the pruned search over the engine's projected
    move table, which no bundled model reaches. Both single-state
    queries (`check`, `find_witness`) and whole labels are compared. After
    24 plain draws, only draws whose `ir` and `Ir` labels differ are
    compared, until there are 10 of them."""
    rng = Random(5507)
    literals = [parse_formula(t) for t in ("p", "q", "!p", "!q", "p | q", "p & !q")]
    binding = 0
    for i in range(2000):
        model = _binding_model(rng)
        coal = ("a0",) if len(model.agents) == 1 or i % 2 else ("a0", "a1")
        assert not _CoalitionEngine(model, coal, CheckOptions()).per_state
        kind = STRATEGIC[i % 4]
        f = kind(coal, *(rng.choice(literals) for _ in range(1 if kind in (CoalX, CoalG) else 2)))
        binds = _uniformity_binds(model, f)
        if i >= 24 and not binds:
            continue
        for opts in COMBOS:
            _assert_matches_oracle(model, f, opts)
            # all states at once: the search must cover the whole union
            want = oracle_label(model, f, opts.strategy_mode, opts.success_scope)
            assert label(model, f, opts)[f] == want, (f, opts)
        binding += binds
        if binding == 10:
            break
    assert binding == 10, binding


def _restricted_succs(engine, keyed, fixes):
    """Successor masks per state with each (choice point, action) in
    `fixes` played, the other choice points free: `keyed`, the reference's
    rows keyed by the coalition's actions, filtered by key."""
    slot = {a: j for j, a in enumerate(engine.coalition)}
    moves = list(keyed)
    for (agent, idx, _, _), picked in fixes:
        for i in idx:
            moves[i] = [m for m in moves[i] if m[0][slot[agent]] == picked]
    return [[m for _, m in items] for items in moves]


def _round_cpre(succs, z, cand):
    out = 0
    for i, row in enumerate(succs):
        if cand >> i & 1 and any(not m & ~z for m in row):
            out |= 1 << i
    return out


def _round_region(succs, kind, args):
    """Winning region by rounds that re-test every candidate state until
    nothing changes: X one step, G the greatest and U the least fixpoint."""
    if kind == "X":
        return _round_cpre(succs, args[0], (1 << len(succs)) - 1)
    if kind == "G":
        z = args[0]
        while (nz := _round_cpre(succs, z, z)) != z:
            z = nz
        return z
    hold, goal = args
    z = goal
    while (nz := z | _round_cpre(succs, z, hold & ~z)) != z:
        z = nz
    return z


def _from_scratch(engine, succs, kind, args, scope):
    """`_narrow`'s triple computed independently: the region, FG's G-part
    (the G-region of the invariant) and the states whose start set, the
    union of the members' classes, lies inside the region."""
    model = engine.model
    if kind == "FG":
        goal, inv = args
        g = _round_region(succs, "G", [inv])
        w = _round_region(succs, "U", [model.full_mask, goal & g])
    else:
        w, g = _round_region(succs, kind, args), 0
    if scope == "objective":
        return w, g, w
    valid = 0
    for i, q in enumerate(model.states):
        if all(not model.mask(model.epistemic_class(a, q)) & ~w for a in engine.coalition):
            valid |= 1 << i
    return w, g, valid


def test_local_recompute_matches_from_scratch():
    """`_narrow`, which recomputes a region only on the states a fixed
    choice point can change, against round-based fixpoints from scratch on
    the same restricted moves: X, G, U and FG, both modes and scopes,
    random and uniformity-binding models. The search's bound, `_narrow`
    from the all-states triple with every state fixed, is checked first.
    Along a random prefix every action of every choice point is tried from
    the prefix's state; about half the prefix's choices are left pending,
    so one recompute often covers several fixed choice points."""
    rng = Random(6113)
    kinds = ("X", "G", "U", "FG")
    tried = 0
    for i in range(600):
        if i % 2:
            model = _binding_model(rng)
        else:
            model = random_cegm(rng, max_states=6, max_agents=2, max_actions=3)
        coal = tuple(rng.sample(model.agents, rng.randint(1, len(model.agents))))
        masks = [rng.getrandbits(len(model.states)) for _ in range(2)]
        kind = kinds[i % 4]
        args = masks[:1] if kind in ("X", "G") else masks
        # the `Ir` reference's rows serve both modes: rows do not depend on it
        keyed = _reference_engine(model, coal, "Ir")[2]
        for mode, scope in product(("ir", "Ir"), ("objective", "subjective")):
            engine = _CoalitionEngine(model, coal, CheckOptions(mode, scope))
            fixes = []
            now = _from_scratch(engine, _restricted_succs(engine, keyed, []), kind, args, scope)
            full = model.full_mask
            assert _narrow(engine, engine.succs, kind, args, (full,) * 3, full) == now
            pending = []  # fixes made since `now` was computed
            for point in engine.choice_points:
                for picked in point[2]:
                    succs = _restricted_succs(engine, keyed, fixes + [(point, picked)])
                    fixed = point[3]
                    for p, _ in pending:
                        fixed |= p[3]
                    got = _narrow(engine, succs, kind, args, now, fixed)
                    assert got == _from_scratch(engine, succs, kind, args, scope), (kind, mode, scope)
                    tried += 1
                fix = (point, rng.choice(point[2]))
                fixes.append(fix)
                pending.append(fix)
                if rng.random() < 0.5:
                    succs = _restricted_succs(engine, keyed, fixes)
                    now = _from_scratch(engine, succs, kind, args, scope)
                    pending = []
    assert tried > 10000, tried


def _layered(n: int) -> Cegm:
    """States s0 … s(n-1), coalition agent a0 with actions x, y and opponent
    a1 with u, v everywhere, no epistemic links. Each joint action from s_i
    goes 1 to 5 states ahead (capped at the last state), and p1 holds in
    about one state in 20."""
    rng = Random(n)
    states = [f"s{i}" for i in range(n)]
    trans = {
        (q, profile): states[min(n - 1, i + rng.randint(1, 5))]
        for i, q in enumerate(states)
        for profile in product("xy", "uv")
    }
    valuation = {"p1": [q for q in states if rng.random() < 0.05]}
    actions = {"a0": ["x", "y"], "a1": ["u", "v"]}
    return Cegm(["a0", "a1"], states, "s0", actions, None, trans, (), ["p1"], valuation)


def test_fixpoint_work_is_linear_in_the_model(monkeypatch):
    """A fixpoint from scratch tests each state once, and again only after
    one of its successors changes: at most n plus the number of predecessor
    edges candidate tests per fixpoint. Rounds that re-test every candidate
    until nothing changes need about 33 n for F on this model."""
    n = 2000
    model = _layered(n)
    edges = sum(p.bit_count() for p in _CoalitionEngine(model, ("a0",), CheckOptions("Ir")).preds)
    real = mcheck._cpre
    tested = 0

    def counting(succs, z, cand):
        nonlocal tested
        tested += cand.bit_count()
        return real(succs, z, cand)

    monkeypatch.setattr(mcheck, "_cpre", counting)
    opts = CheckOptions(strategy_mode="Ir")
    for text in ("<a0> F p1", "<a0> G !p1", "<a0> X p1"):
        tested = 0
        label(model, parse_formula(text), opts)
        assert 0 < tested <= n + edges, (text, tested, n + edges)


def _reference_engine(model, coalition, mode):
    """What `_CoalitionEngine` holds, built from `transitions(model)`,
    `model.avail` and `model.mask` of each class, merging each state's joint
    actions one at a time in product order into a dict keyed by the
    coalition's actions. The keyed rows come third; the engine keeps only
    their masks."""
    index = model.state_index
    members = set(coalition)
    coal = [a for a in model.agents if a in members]
    points = []
    for a in coal:
        if mode == "ir":
            for cls in model.epistemic_classes(a):
                idx = tuple(sorted(map(index.__getitem__, cls)))
                points.append((a, idx, model.avail(a, model.states[idx[0]]), model.mask(cls)))
        else:
            for i, q in enumerate(model.states):
                points.append((a, (i,), model.avail(a, q), 1 << i))
    # a choice point is where a member has two or more actions
    points = [p for p in points if len(p[2]) > 1]
    per_state = all(len(p[1]) == 1 for p in points)
    cols = [j for j, a in enumerate(model.agents) if a in members]
    trans = transitions(model)
    moves, preds = [], [0] * len(model.states)
    for i, q in enumerate(model.states):
        merged = {}
        for profile in product(*(model.avail(a, q) for a in model.agents)):
            t = index[trans[q, profile]]
            key = tuple(profile[j] for j in cols)
            merged[key] = merged.get(key, 0) | 1 << t
            preds[t] |= 1 << i
        moves.append(tuple(merged.items()))
    starts = [
        model.mask(set().union(*(model.epistemic_class(a, q) for a in coal)))
        for q in model.states
    ]
    return points, per_state, moves, [tuple(m for _, m in row) for row in moves], preds, starts


def test_engine_matches_reference_projection(fig1, m1, m2):
    """Every coalition, the empty one included, in both modes, on 300
    random models (several choices on both sides of many states), the
    bundled referendum models and ThreeBallot: the engine's choice points,
    successor and predecessor masks and start sets equal those of the
    one-joint-action-at-a-time reference. The reference's rows hold the
    coalition's choices in the product order of the members' menus, which
    `_first_winner`'s slicing relies on. Start sets are built in subjective
    scope only. Each agent's class masks partition the states in
    `epistemic_classes` order, and `Cegm.singletons` holds each state's own
    class, the class masks of every agent without observation links."""
    rng = Random(9151)
    models = [random_cegm(rng, max_states=6, max_agents=3, max_actions=3) for _ in range(300)]
    models += [fig1, m1, m2, gen_threeballot(), _layered(40)]
    for model in models:
        assert model.singletons == tuple(((i,), 1 << i) for i in range(len(model.states)))
        for a in model.agents:
            classes = model.epistemic_classes(a)
            entries = model.class_masks[a]
            if all(len(cls) == 1 for cls in classes):
                assert entries == model.singletons
            assert [m for _, m in entries] == [model.mask(cls) for cls in classes]
            assert [idx for idx, _ in entries] == [
                tuple(sorted(map(model.state_index.__getitem__, cls))) for cls in classes
            ]
            union = 0
            for _, m in entries:
                assert not union & m
                union |= m
            assert union == model.full_mask
        for k in range(len(model.agents) + 1):
            for coalition in combinations(model.agents, k):
                for mode in ("ir", "Ir"):
                    engine = _CoalitionEngine(model, coalition, CheckOptions(mode, "subjective"))
                    got = (
                        engine.choice_points,
                        engine.per_state,
                        engine.succs,
                        list(engine.preds),
                        engine.starts,
                    )
                    points, per_state, keyed, *want = _reference_engine(model, coalition, mode)
                    assert got == (points, per_state, *want), (coalition, mode)
                    # objective scope: the same engine without start sets
                    objective = _CoalitionEngine(model, coalition, CheckOptions(mode))
                    assert objective.starts is None
                    assert objective.choice_points == points
                    assert objective.succs == engine.succs
                    members = [a for a in model.agents if a in coalition]
                    for q, row in zip(model.states, keyed):
                        menus = [model.avail(a, q) for a in members]
                        assert [key for key, _ in row] == list(product(*menus))


def test_choice_points_are_real_choices(fig1, m1, m2):
    """Every choice point offers two or more actions, and the choice points
    span the whole strategy space: the classes (`ir`) or states (`Ir`) with
    one action add a factor of 1. On ThreeBallot, 9 of `<v, c>`'s 306
    classes and 378 states are choices, and 20 of w's 189."""
    rng = Random(3306)
    models = [random_cegm(rng, max_states=6, max_agents=3, max_actions=3) for _ in range(100)]
    models += [fig1, m1, m2, gen_threeballot()]
    for model in models:
        for k in range(len(model.agents) + 1):
            for coalition in combinations(model.agents, k):
                for mode in ("ir", "Ir"):
                    points = _CoalitionEngine(model, coalition, CheckOptions(mode)).choice_points
                    assert all(len(options) > 1 for _, _, options, _ in points)
                    space = 1
                    for a in coalition:
                        if mode == "ir":
                            firsts = [next(iter(cls)) for cls in model.epistemic_classes(a)]
                        else:
                            firsts = model.states
                        space *= math.prod(len(model.avail(a, q)) for q in firsts)
                    assert math.prod(len(p[2]) for p in points) == space
    tb = gen_threeballot()
    counts = {
        (coalition, mode): len(_CoalitionEngine(tb, coalition, CheckOptions(mode)).choice_points)
        for coalition in (("v", "c"), ("w",))
        for mode in ("ir", "Ir")
    }
    assert counts == {
        (("v", "c"), "ir"): 9,
        (("v", "c"), "Ir"): 9,
        (("w",), "ir"): 20,
        (("w",), "Ir"): 20,
    }
    assert sum(1 for _ in enumerate_strategies(tb, ("v", "c"))) == 10368


def test_labelling_hashes_no_formula(monkeypatch, tmp_path, capsys):
    # label_masks reads each child's mask by its position in the subformula
    # table; a structural hash would walk the whole subtree on every lookup
    model = gen_threeballot()
    path = tmp_path / "threeballot.cegm"
    path.write_text(save_model(model), encoding="utf-8")
    formulas = [
        epistemic_coercion_property(),
        hartley_invariant_property(),
        hartley_coercion_property(),
        parse_formula(
            "<v, c> F (V1_eq_ab & K[c] V1_eq_ab) | E[v, c] !V1_eq_V2 | <w> X false"
            " | <c> (true U V1_eq_V2) | <v> F (V1_eq_ab & G true)"
        ),
    ]
    argv = ["check", "--model", str(path), "--dump-labels", "--output", "json-lines"]
    argv += ["--formula", str(formulas[-1])]
    verdicts = [check(model, model.initial, f) for f in formulas]
    code = cli.main(argv)
    dumped = capsys.readouterr().out
    real = mcheck.label_masks

    def no_hash(node):
        raise AssertionError(f"hashed {type(node).__name__}")

    def unhashed(*args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            for cls in (*Formula.__args__, LogOfCount, Real):
                patch.setattr(cls, "__hash__", no_hash)
            return real(*args, **kwargs)

    monkeypatch.setattr(mcheck, "label_masks", unhashed)
    monkeypatch.setattr(cli, "label_masks", unhashed)  # cli binds its own name
    assert [check(model, model.initial, f) for f in formulas] == verdicts
    assert cli.main(argv) == code
    assert capsys.readouterr().out == dumped
    assert dumped.count('"event": "label"') == 16


def test_checking_prints_no_formula(monkeypatch):
    # the labelling walk keys subformulas by structure; printing happens only
    # for output and on the fault path
    models = {
        "fig1": gen_referendum_single(),
        "m1": gen_referendum_double("M1"),
        "m2": gen_referendum_double("M2"),
        "tb": gen_threeballot(),
    }
    cases = [
        ("fig1", referendum_single_property()),
        ("m1", referendum_double_property()),
        ("m2", referendum_double_property()),
        ("m1", referendum_hartley_property()),
        ("m2", referendum_hartley_property()),
        ("m2", h_to_k(referendum_hartley_property())),
        ("tb", epistemic_coercion_property()),
        ("tb", hartley_coercion_property()),
        ("tb", hartley_invariant_property()),
    ]

    def results():
        out = []
        for name, f in cases:
            model = models[name]
            strategic = [g for g, _ in subformula_rows(f) if isinstance(g, STRATEGIC)]
            out.append((
                label(model, f),
                [check(model, q, f) for q in model.states],
                [str(find_witness(model, model.initial, g)) for g in strategic],
            ))
        return out

    expected = results()
    assert [verdicts[0] for _, verdicts, _ in expected] == [
        True, True, True, False, True, True, True, True, False
    ]

    class Unprintable(dict):
        def __getitem__(self, cls):
            raise AssertionError(f"printed a {cls.__name__}")

    monkeypatch.setattr(formula, "_TEMPLATES", Unprintable())
    with pytest.raises(AssertionError, match="printed a Atom"):
        str(parse_formula("p"))
    assert results() == expected
