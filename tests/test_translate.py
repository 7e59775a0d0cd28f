"""Knowledge/uncertainty translation tests."""

import hashlib
import re
import sys
from functools import reduce
from random import Random

import pytest
from conftest import node_objects, within

from atlh import translate
from atlh.cli import main
from atlh.formula import (
    And,
    Atom,
    CoalX,
    FalseF,
    Formula,
    Hartley,
    Knows,
    LogOfCount,
    MutualKnows,
    Not,
    Or,
    Real,
    TrueF,
    formula_length,
    parse_formula,
    pretty_print,
    rebuild,
    subformula_rows,
)
from atlh.mcheck import check, label
from atlh.scenarios import gen_referendum_single
from atlh.sampling import random_cegm, random_formula
from atlh.translate import (
    TranslateError,
    check_translation_equivalence,
    h_eq_to_k,
    h_to_k,
    k_to_h,
    phi_beta,
    t_nm,
)

p, q = Atom("p"), Atom("q")


def test_k_to_h_single():
    f = k_to_h(parse_formula("K[a] p"))
    assert f == And(p, Hartley("a", "=", LogOfCount(1), (p,)))
    assert str(f) == "p & H[a] = log(1) {p}"


def test_k_to_h_identity_without_k():
    # the formula itself, not an equal copy, also when a subformula occurs as
    # two distinct objects that share one subformula row
    built = (Or(Atom("p"), Atom("p")), And(Hartley("a", "=", LogOfCount(1), (Atom("p"),)), Atom("p")))
    for f in [*map(parse_formula, ("p", "p & !q", "<a> F (p & G q)", "H[a] = 1 {p}")), *built]:
        assert k_to_h(f) is f


def test_k_to_h_nested_innermost_first():
    f = k_to_h(parse_formula("K[a] K[b] p"))
    inner = And(p, Hartley("b", "=", LogOfCount(1), (p,)))
    assert f == And(inner, Hartley("a", "=", LogOfCount(1), (inner,)))


def test_k_to_h_mutual_expands():
    f = k_to_h(parse_formula("E[a, b] p"))
    ka = And(p, Hartley("a", "=", LogOfCount(1), (p,)))
    kb = And(p, Hartley("b", "=", LogOfCount(1), (p,)))
    assert f == And(ka, kb)


def test_k_to_h_rewrites_under_strategic():
    f = k_to_h(parse_formula("<a> X K[a] p"))
    assert f == parse_formula("<a> X (p & H[a] = log(1) {p})")


def test_k_to_h_merges_colliding_members():
    f = parse_formula("H[a] >= 1 {K[b] p, p & H[b] = log(1) {p}}")
    assert k_to_h(f) == parse_formula("H[a] >= 1 {p & H[b] = log(1) {p}}")


def test_k_to_h_merges_before_measuring_an_uncertainty_set():
    # the inner set's two members (4 nodes each) merge into one, so the
    # outer set's members total 6 nodes, not 10
    merged = k_to_h(parse_formula("H[c] = 1 {H[a] >= 1 {K[b] p, p & H[b] = log(1) {p}}, q}"))
    assert formula_length(merged) == 7


def test_member_equality_is_linear_in_the_dag():
    # two K nests 30 deep, built separately: each prints as 3 * 2^30 - 2
    # nodes, so comparing them as trees would never finish. No deep formula
    # is an argument or an asserted operand: pytest would print it.
    a, b = (k_to_h(parse_formula("K[a] " * 30 + "p")) for _ in range(2))

    def merge():
        return rebuild(Hartley("c", "=", Real(1), (p, q)), [a, b])

    def build():
        return Hartley("c", "=", Real(1), (a, And(a, p)))

    assert [m is a for m in within(2, merge).beta] == [True]
    assert [m is a for m in within(2, build).beta] == [True, False]


def test_equality_hash_and_label_are_linear_in_the_dag():
    # two K nests 40 deep, built separately: each translation prints as
    # 3 * 2^40 - 2 nodes, so `==`, `hash` and `label` (whose dict is keyed by
    # subformula) must walk the DAG, not the tree. No deep formula is an
    # asserted operand: pytest would print it.
    nest = parse_formula("K[v] " * 40 + "Voted")
    a, b = (k_to_h(nest) for _ in range(2))
    assert a is not b
    assert within(2, a.__eq__, b) is True and within(2, b.__eq__, a) is True
    assert within(2, hash, a) == within(2, hash, b)
    fig1 = gen_referendum_single()
    labels = within(2, label, fig1, a)
    assert within(2, labels.__getitem__, b) == label(fig1, nest)[nest]


def test_repr_of_a_deep_translation_names_its_length():
    # a 24-deep K nest translates to a DAG of a few nodes per level that
    # prints as 50,331,646 nodes; repr names that length instead
    f = k_to_h(parse_formula("K[a] " * 24 + "p"))
    text = within(2, repr, f)
    assert text == "And(<50331646 nodes>)"
    assert formula_length(f) == 50_331_646


def test_member_equality_hashes_no_formula():
    k_in = parse_formula("H[a] >= 1 {K[b] p, p & H[b] = log(1) {p}}")
    h_in = parse_formula("H[a] = log(1) {H[b] >= 0 {p}, H[b] <= 9 {q}}")
    two = Hartley("c", "=", Real(1), (p, q))
    equal = [And(p, Not(q)), And(Atom("p"), Not(Atom("q")))]
    expected = [k_to_h(k_in), h_to_k(h_in), rebuild(two, equal)]

    def refuse(node, *args):
        raise AssertionError(f"hashed or compared {type(node).__name__}")

    with pytest.MonkeyPatch.context() as patch:
        for cls in (*Formula.__args__, LogOfCount, Real):
            patch.setattr(cls, "__hash__", refuse)
            patch.setattr(cls, "__eq__", refuse)
        got = [k_to_h(k_in), h_to_k(h_in), rebuild(two, equal)]
    assert got == expected
    assert len(got[2].beta) == 1 and got[2].beta[0] is equal[0]


def test_h_to_k_merges_colliding_members():
    f = parse_formula("H[a] = log(1) {H[b] >= 0 {p}, H[b] <= 9 {q}}")
    assert h_to_k(f) == h_to_k(parse_formula("H[a] = log(1) {H[b] >= 0 {p}}"))


def test_phi_beta_single():
    assert phi_beta([p]) == [p, Not(p)]


def test_phi_beta_pair_order():
    assert phi_beta([p, q]) == [
        And(p, q),
        And(p, Not(q)),
        And(Not(p), q),
        And(Not(p), Not(q)),
    ]


def test_phi_beta_count_and_cap():
    beta = [Atom(f"x{i}") for i in range(4)]
    assert len(phi_beta(beta)) == 16
    with pytest.raises(TranslateError):
        phi_beta([Atom(f"x{i}") for i in range(5)])
    with pytest.raises(TranslateError) as exc:
        phi_beta([])
    assert str(exc.value) == "empty formula set"


def test_phi_beta_partitions_every_state():
    rng = Random(11)
    for _ in range(25):
        model = random_cegm(rng, max_states=5)
        beta = [Atom(x) for x in model.props[:2]]
        members = phi_beta(beta)
        for state in model.states:
            holds = [m for m in members if check(model, state, m)]
            assert len(holds) == 1


def test_t_nm_examples():
    assert t_nm(1, 1) == [(0, 1), (1, 0)]
    assert t_nm(1, 2) == [(0, 0)]
    assert len(t_nm(2, 3)) == 4
    with pytest.raises(TranslateError):
        t_nm(1, 0)
    with pytest.raises(TranslateError):
        t_nm(1, 3)


def test_h_eq_to_k_single_atom():
    f = h_eq_to_k("a", [p], 1)
    assert f == parse_formula("K[a] !p & !K[a] !!p | !K[a] !p & K[a] !!p")


def test_h_eq_to_k_pair_shape():
    f = h_eq_to_k("a", [p, q], 3)
    disjuncts = _flatten(f, Or)
    assert len(disjuncts) == 4
    # first disjunct: the all-positive combination is the known-impossible one
    first = _flatten(disjuncts[0], And)
    assert first[0] == Knows("a", Not(And(p, q)))
    assert first[1] == Not(Knows("a", Not(And(p, Not(q)))))


def test_h_eq_to_k_rejects_a_count_out_of_range():
    for m in (0, 3):
        with pytest.raises(TranslateError) as exc:
            h_eq_to_k("a", [p], m)
        assert str(exc.value) == f"m must be between 1 and 2, got {m}"


def _flatten(f, node):
    parts = []
    while isinstance(f, node):
        parts.insert(0, f.right)
        f = f.left
    parts.insert(0, f)
    return parts


def test_h_to_k_eq_log():
    assert h_to_k(parse_formula("H[a] = log(3) {p, q}")) == h_eq_to_k("a", [p, q], 3)


def test_h_to_k_threshold_normalization():
    # log|R| >= 2 with |R| <= 4 forces |R| = 4
    assert h_to_k(parse_formula("H[a] >= 2 {p, q}")) == h_eq_to_k("a", [p, q], 4)
    # real threshold between the counts: log c > 1/2 means c = 2 for n = 1
    assert h_to_k(parse_formula("H[a] > 0.5 {p}")) == h_eq_to_k("a", [p], 2)
    assert h_to_k(parse_formula("H[a] <= log(2) {p, q}")) == Or(
        h_eq_to_k("a", [p, q], 1), h_eq_to_k("a", [p, q], 2)
    )


def test_h_to_k_builds_each_literal_once():
    # one `!b` per member, and one `K[a] !alpha` and one `!K[a] !alpha` per
    # signed combination, shared by every tuple: 43 node objects, where a
    # fresh literal per tuple made 93
    f = h_to_k(parse_formula("H[a] = 1 {p, q}"))
    assert len(node_objects(f)) == 43
    assert len(subformula_rows(f)) == 41
    assert formula_length(f) == 179
    pos = {"p & q": "K[a] !(p & q)", "p & !q": "K[a] !(p & !q)",
           "!p & q": "K[a] !(!p & q)", "!p & !q": "K[a] !(!p & !q)"}
    rows = [
        [pos[alpha] if known else "!" + pos[alpha] for alpha, known in zip(pos, t)]
        for t in reversed(t_nm(2, 2))
    ]
    text = " | ".join(" & ".join(row) for row in rows)
    assert pretty_print(f) == text
    assert f == parse_formula(text)


def test_h_to_k_degenerate_cases():
    assert h_to_k(parse_formula("H[a] < log(1) {p}")) == FalseF()
    assert h_to_k(parse_formula("H[a] < log(5) {p}")) == TrueF()
    assert h_to_k(parse_formula("H[a] = log(5) {p}")) == FalseF()
    assert h_to_k(parse_formula("H[a] > log(4) {p, q}")) == FalseF()
    assert h_to_k(parse_formula("H[a] >= 0 {p}")) == TrueF()
    assert h_to_k(parse_formula("H[a] = 0 {p}")) == h_eq_to_k("a", [p], 1)


def test_h_to_k_caps():
    big = "H[a] = log(2) {p, q, r, s, t}"
    with pytest.raises(TranslateError, match="exceeds cap"):
        h_to_k(parse_formula(big))
    wide = parse_formula("H[a] = log(7) {p, q, r, s}")
    with pytest.raises(TranslateError, match="over the cap"):
        h_to_k(wide, node_cap=1000)
    # subformulas are translated left to right, so the left cap is hit first
    with pytest.raises(TranslateError, match="size 5 exceeds"):
        h_to_k(parse_formula(big + " & H[a] = log(7) {p, q, r, s}"))


def test_h_to_k_deep_member_meets_the_node_cap():
    # the inner H translates to a 1,820-deep disjunction; the outer H must
    # reach its node cap without hashing or comparing that member as a tree
    f = parse_formula("H[a] = 1 {H[b] = log(4) {p1, p2, p3, p4}, q}")
    with pytest.raises(TranslateError) as exc:
        within(3, h_to_k, f)
    assert str(exc.value) == "translation would have 8561411 nodes, over the cap 1000000"


def test_h_to_k_cap_is_the_exact_output_length():
    for text in ("H[a] = log(3) {p, q}", "H[a] = 1 {p, K[b] q}", "H[a] <= 1 {p, q | r, !s}"):
        f = parse_formula(text)
        size = formula_length(h_to_k(f))
        assert formula_length(h_to_k(f, node_cap=size)) == size
        with pytest.raises(TranslateError, match=f"would have {size} nodes"):
            h_to_k(f, node_cap=size - 1)


def test_h_to_k_identity_without_h():
    # as for k_to_h, the formula itself
    built = (Or(Atom("p"), Atom("p")), Or(Knows("a", Atom("p")), MutualKnows(("a", "b"), Atom("p"))))
    for f in [*map(parse_formula, ("p", "K[a] (p | q)", "<a, b> G !p")), *built]:
        assert h_to_k(f) is f


def test_h_to_k_nested_innermost_first():
    f = parse_formula("H[a] < log(1) {H[b] < log(1) {p}}")
    # inner H collapses to false, so the outer set becomes {false}
    assert h_to_k(f) == FalseF()


def test_translation_blowup_lower_bound():
    for n in range(1, 4):
        beta = [Atom(f"p_{i}") for i in range(1, n + 1)]
        f = Hartley("a", "=", LogOfCount(2**n), tuple(beta))
        assert formula_length(f) == n + 1
        assert formula_length(h_to_k(f)) >= 2**n


def test_h_eq_to_k_agrees_with_direct_check():
    rng = Random(42)
    for _ in range(40):
        model = random_cegm(rng, max_states=5, max_agents=2)
        beta = [Atom(x) for x in model.props[:2]]
        n = len(beta)
        for m in range(1, 2**n + 1):
            direct = Hartley("a0", "=", LogOfCount(m), tuple(beta))
            translated = h_eq_to_k("a0", beta, m)
            assert label(model, direct)[direct] == label(model, translated)[translated]


def test_k_to_h_agrees_with_direct_check():
    rng = Random(43)
    for _ in range(40):
        model = random_cegm(rng, max_states=5, max_agents=2)
        f = Knows("a0", Atom(model.props[0]))
        g = k_to_h(f)
        assert label(model, f)[f] == label(model, g)[g]


def test_check_translation_equivalence_clean():
    report = check_translation_equivalence(samples=25, seed=7)
    assert report.mismatches == 0
    assert len(report.lines) == 25
    pattern = re.compile(r"^seed=\d+ states=\d+ formula=.+ verdict=ok$")
    for line in report.lines:
        assert pattern.match(line), line


def test_mismatches_are_counted_and_reported(monkeypatch, capsys):
    # a translation that negates its result disagrees with the direct check
    # at the first state of every sample
    real = translate.h_to_k
    monkeypatch.setattr(translate, "h_to_k", lambda f, **kwargs: Not(real(f, **kwargs)))
    report = check_translation_equivalence(samples=3, seed=5)
    assert report.mismatches == 3
    assert len(report.lines) == 3
    assert all(line.endswith(" verdict=mismatch@s0") for line in report.lines)
    argv = ["experiment", "translation-equivalence", "--samples", "3", "--seed", "5"]
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines() == report.lines + ["mismatches: 3"]


def test_skipping_one_direction_still_checks_the_other(monkeypatch):
    # h_to_k's output is f itself, so only k_to_h's is checked, and it
    # negates f: every sample disagrees at its first state
    monkeypatch.setattr(translate, "h_to_k", lambda f, **kwargs: f)
    monkeypatch.setattr(translate, "k_to_h", Not)
    report = check_translation_equivalence(samples=3, seed=5)
    assert report.mismatches == 3
    assert all(line.endswith(" verdict=mismatch@s0") for line in report.lines)


def test_harness_checks_each_state_and_formula_once(monkeypatch):
    # f's verdicts are computed once per state, and a translation that is f
    # itself, as every translation that rewrites nothing is, is not checked
    calls = []
    real = translate.check

    def counted(model, q, f, opts):
        calls.append((model, q, f))  # holds the objects, so no id is reused
        return real(model, q, f, opts)

    monkeypatch.setattr(translate, "check", counted)
    report = check_translation_equivalence(samples=100, seed=20260815)
    assert report.mismatches == 0
    assert len(calls) == 784
    keys = {(id(model), q, id(f)) for model, q, f in calls}
    assert len(keys) == len(calls)


def test_criterion_7_report_bytes_are_pinned():
    # every sample line of the acceptance run: seeds, model sizes, printed
    # formulas and verdicts
    report = check_translation_equivalence(samples=1000, seed=20260815)
    digest = hashlib.sha256(str(report).encode("utf-8")).hexdigest()
    assert digest == "48b6b2d43fe292620a64d7a324d29ef2045e341a4580a33bc3610e8a986efee6"


def test_translations_of_seeded_draws_are_pinned():
    # printed k_to_h, printed h_to_k(beta_cap=3) or its error, and the
    # formula_length of each draw and of both outputs, over 500 seeded
    # random_formula draws; the digest was computed before translations that
    # rewrite nothing started returning the formula itself
    rng = Random(2)
    digest = hashlib.sha256()
    for i in range(500):
        f = random_formula(
            rng, "pqr", "abc", depth=1 + i % 5, strategic_budget=2, beta_max=3, coal_fg=i % 2 == 1
        )
        k = k_to_h(f)
        try:
            h = h_to_k(f, beta_cap=3)
            h_text = f"{pretty_print(h)} {formula_length(h)}"
        except TranslateError as e:
            h_text = f"error: {e}"
        digest.update(f"{formula_length(f)} {pretty_print(k)} {formula_length(k)} {h_text}\n".encode())
    assert digest.hexdigest() == "7dd4f6ee374d6d16d9a21dc49bfafb7bf9bdb5d5fa8f734a85bc45b5c41e2971"


def test_check_translation_equivalence_deterministic():
    a = check_translation_equivalence(samples=10, seed=99)
    b = check_translation_equivalence(samples=10, seed=99)
    assert a.lines == b.lines


def test_walkers_handle_formulas_deeper_than_the_recursion_limit():
    # the printer, the length fold and both translations keep their own stacks
    base = Or(Knows("a", p), Hartley("a", "=", LogOfCount(1), (p,)))
    base_k, base_h = pretty_print(k_to_h(base)), pretty_print(h_to_k(base))
    assert base_k == "p & H[a] = log(1) {p} | H[a] = log(1) {p}"
    assert base_h == "K[a] p | (K[a] !p & !K[a] !!p | !K[a] !p & K[a] !!p)"
    nots, nexts = base, base
    for _ in range(5000):
        nots, nexts = Not(nots), CoalX(("a",), nexts)
    chain = reduce(Or, [base] + [Atom(f"p{i}") for i in range(1, 3000)])
    tail = "".join(f" | p{i}" for i in range(1, 3000))
    assert 3000 > sys.getrecursionlimit()
    for f, size, wrap in (
        (nots, 5000 + 5, lambda text: "!" * 5000 + f"({text})"),
        (nexts, 2 * 5000 + 5, lambda text: "<a> X " * 5000 + f"({text})"),
        (chain, 5 + 2 * 2999, lambda text: text + tail),
    ):
        assert formula_length(f) == size
        assert pretty_print(f) == wrap(pretty_print(base))
        assert pretty_print(k_to_h(f)) == wrap(base_k)
        assert pretty_print(h_to_k(f)) == wrap(base_h)
        assert formula_length(h_to_k(f)) == size - 5 + formula_length(h_to_k(base))
