"""Tests for the succinctness model families and the two minimal-size engines."""

import hashlib
import random
from math import factorial

import pytest

from atlh.cegm import save_model
from atlh.formula import (
    Atom,
    Knows,
    Not,
    Or,
    formula_length,
    parse_formula,
    pretty_print,
)
from atlh.mcheck import CheckOptions, check, hartley_classes, label
from atlh.sampling import random_cegm
from atlh.succinct import (
    _INF,
    PointedModel,
    SuccinctError,
    _atom_symmetries,
    _bit_layout,
    _FsgSearch,
    fsg_min_win,
    gen_Mn,
    gen_Nnj,
    min_mel_formula,
    phi_n,
    separation_instance,
    succinctness_rows,
)
from bruteforce import reflexive_collapse
from conftest import within


def test_gen_mn_small():
    m = gen_Mn(1)
    assert m.states == ("q0", "q1")
    assert m.props == ("p_1",)
    assert m.valuation["p_1"] == frozenset({"q1"})
    assert m.epistemic_classes("a") == (frozenset({"q0", "q1"}),)
    assert set(m.moves[0]) == {0b1}
    assert m.initial == "q0"

    m2 = gen_Mn(2)
    assert m2.states == ("q0", "q1", "q2", "q3")
    assert m2.valuation["p_1"] == frozenset({"q1", "q3"})
    assert m2.valuation["p_2"] == frozenset({"q2", "q3"})
    assert len(m2.epistemic_classes("a")) == 1
    assert all(set(row) == {1 << i} for i, row in enumerate(m2.moves))


def test_gen_mn_scales_and_saves():
    m = gen_Mn(5)
    assert len(m.states) == 32
    assert len(m.props) == 5
    # every state has a distinct proposition pattern
    patterns = {
        tuple(q in m.valuation[p] for p in m.props) for q in m.states
    }
    assert len(patterns) == 32
    assert "states:" in save_model(m)


def test_gen_mn_range_errors():
    with pytest.raises(SuccinctError):
        gen_Mn(0)
    with pytest.raises(SuccinctError):
        gen_Mn(13)


def test_gen_nnj():
    n21 = gen_Nnj(2, 1)
    assert n21.states == ("q0", "q2", "q3")
    assert n21.valuation["p_1"] == frozenset({"q3"})
    assert n21.epistemic_classes("a") == (frozenset({"q0", "q2", "q3"}),)

    n11 = gen_Nnj(1, 1)
    assert n11.states == ("q0",)
    assert n11.valuation["p_1"] == frozenset()


def test_gen_nnj_range_errors():
    with pytest.raises(SuccinctError):
        gen_Nnj(2, 0)
    with pytest.raises(SuccinctError):
        gen_Nnj(2, 4)
    with pytest.raises(SuccinctError):
        gen_Nnj(0, 1)


def test_family_class_counts():
    for n in (1, 2, 3):
        m = gen_Mn(n)
        beta = [m.valuation[p] for p in m.props]
        assert hartley_classes(m, "a", "q0", beta) == 2**n
        nn = gen_Nnj(n, 2**n - 1)
        beta = [nn.valuation[p] for p in nn.props]
        assert hartley_classes(nn, "a", "q0", beta) == 2**n - 1


def test_phi_n():
    assert pretty_print(phi_n(2)) == "H[a] = 2 {p_1, p_2}"
    for n in range(1, 8):
        assert formula_length(phi_n(n)) == n + 1
    with pytest.raises(SuccinctError):
        phi_n(0)


def test_phi_n_separates_small():
    for n in (1, 2, 3):
        assert check(gen_Mn(n), "q0", phi_n(n))
        for j in range(1, 2**n):
            assert not check(gen_Nnj(n, j), "q0", phi_n(n))


def test_pointed_model():
    m = gen_Mn(1)
    pm = PointedModel(m, "q1")
    assert pm.state == "q1"
    assert PointedModel(m, "q1") == pm
    assert len({pm, PointedModel(m, "q1"), PointedModel(m, "q0")}) == 2
    with pytest.raises(SuccinctError):
        PointedModel(m, "nope")
    with pytest.raises(SuccinctError):
        pm._replace(state="nope")


def test_atomic_separation_is_one_node():
    m = gen_Mn(1)
    a = [PointedModel(m, "q1")]
    b = [PointedModel(m, "q0")]
    assert fsg_min_win(a, b, 5) == 1
    found = min_mel_formula(a, b, 5)
    assert found == (Atom("p_1"), 1)


def test_identical_sides_cannot_be_separated():
    m = gen_Mn(1)
    side = [PointedModel(m, "q0")]
    assert fsg_min_win(side, side, 6) is None
    assert min_mel_formula(side, side, 6) is None


def test_engines_agree_at_n1():
    a, b = separation_instance(1)
    found = min_mel_formula(a, b, 10)
    assert found is not None
    f, size = found
    assert size == 4
    assert f == Not(Knows("a", Not(Atom("p_1"))))
    assert formula_length(f) == 4
    assert fsg_min_win(a, b, 10) == 4
    # nothing shorter wins the game
    assert fsg_min_win(a, b, 3) is None


def test_mel_result_separates_semantically():
    a, b = separation_instance(1)
    f, _ = min_mel_formula(a, b, 10)
    assert all(check(pm.model, pm.state, f) for pm in a)
    assert not any(check(pm.model, pm.state, f) for pm in b)


def test_n2_lower_bound():
    a, b = separation_instance(2)
    assert fsg_min_win(a, b, 4) is None
    assert fsg_min_win(a, b, 18) is None


def test_n3_certified_lower_bound():
    # no knowledge-only formula of size 10 or less separates M_3 from its
    # deletions, so fsg_min(3) >= 11; the pruned game proves it quickly
    a, b = separation_instance(3)
    assert within(2.0, fsg_min_win, a, b, 10) is None


def test_mel_size_cap_returns_none():
    a, b = separation_instance(1)
    assert min_mel_formula(a, b, 3) is None


def test_mel_fingerprint_cap():
    a, b = separation_instance(3)
    with pytest.raises(SuccinctError):
        min_mel_formula(a, b, 10)


def test_empty_side_rejected():
    a, _ = separation_instance(1)
    with pytest.raises(SuccinctError):
        fsg_min_win(a, [], 3)
    with pytest.raises(SuccinctError):
        min_mel_formula([], a, 3)


def test_mel_on_handmade_split():
    # q1 and q3 of the four-state model carry p_1; separate them from q0, q2
    m = gen_Mn(2)
    a = [PointedModel(m, "q1"), PointedModel(m, "q3")]
    b = [PointedModel(m, "q0"), PointedModel(m, "q2")]
    f, size = min_mel_formula(a, b, 6)
    assert (f, size) == (Atom("p_1"), 1)
    assert fsg_min_win(a, b, 6) == 1
    # q1 and q2 against q0 takes p_1 | p_2; a cap equal to the size must
    # still find it
    a = [PointedModel(m, "q1"), PointedModel(m, "q2")]
    b = [PointedModel(m, "q0")]
    assert min_mel_formula(a, b, 6) == (Or(Atom("p_1"), Atom("p_2")), 3)
    assert fsg_min_win(a, b, 3) == 3


def _random_sides(rng):
    """Disjoint non-empty sides over one or two random models (at most 12
    states in total) with two or more common agents, one of which has a
    partition that is neither discrete nor a single class."""
    while True:
        models = [random_cegm(rng, max_states=6, max_props=2) for _ in range(rng.randint(1, 2))]
        pointed = [PointedModel(m, q) for m in models for q in m.states]
        agents = [a for a in models[0].agents if all(a in m.actions for m in models)]
        if len(agents) < 2:
            continue
        if not any(1 < len(m.epistemic_classes(a)) < len(m.states) for m in models for a in agents):
            continue
        while True:
            sides = [rng.randrange(3) for _ in pointed]
            a = [pm for pm, side in zip(pointed, sides) if side == 0]
            b = [pm for pm, side in zip(pointed, sides) if side == 1]
            if a and b:
                return a, b


def test_engines_agree_on_random_multi_agent_instances():
    rng = random.Random(20261018)
    sizes = []
    for _ in range(200):
        a, b = _random_sides(rng)
        found = min_mel_formula(a, b, 9)
        assert fsg_min_win(a, b, 9) == (None if found is None else found[1])
        if found is not None:
            f, size = found
            sizes.append(size)
            assert all(check(pm.model, pm.state, f) for pm in a)
            assert not any(check(pm.model, pm.state, f) for pm in b)
    assert len([s for s in sizes if s >= 4]) >= 20


def _sub_side(rng, side):
    kept = [pm for pm in side if rng.random() < 0.5]
    return kept or [rng.choice(side)]


def test_game_value_is_monotone_in_both_sides():
    # a win on (A, B) also wins on every (A' <= A, B' <= B) at no greater
    # size; the sub-sides get the whole sides' size as their cap, so a rule
    # that loses a win only at a tight budget shows here
    rng = random.Random(20261019)
    tight = shrunk = 0
    for _ in range(120):
        a, b = _random_sides(rng)
        whole = fsg_min_win(a, b, 9)
        for _ in range(2):
            a2, b2 = _sub_side(rng, a), _sub_side(rng, b)
            part = fsg_min_win(a2, b2, 9 if whole is None else whole)
            if whole is not None:
                assert part is not None and part <= whole
                tight += part == whole
            shrunk += part is not None and (whole is None or part < whole)
    assert tight >= 40 and shrunk >= 40


def _is_symmetry(image, atoms, classes):
    """`image` permutes the bits and maps the set of atom masks and each
    agent's partition onto themselves."""

    def apply(mask):
        return sum(1 << image[i] for i in range(len(image)) if mask >> i & 1)

    masks = set(atoms.values())
    return (
        sorted(image) == list(range(len(image)))
        and {apply(m) for m in masks} == masks
        and all({apply(c) for c in part} == set(part) for part in classes.values())
    )


def test_family_symmetries_are_the_atom_permutations():
    for n in (1, 2, 3):
        a, b = separation_instance(n)
        total, _, atoms, classes = _bit_layout(a + b)
        maps = _atom_symmetries(total, atoms, classes)
        assert len(maps) == factorial(n) - 1
        assert all(_is_symmetry(image, atoms, classes) for image in maps)


def test_symmetries_of_random_instances_keep_the_structure():
    rng = random.Random(20261020)
    kept = unequal = 0
    for _ in range(1000):
        a, b = _random_sides(rng)
        total, _, atoms, classes = _bit_layout(a + b)
        maps = _atom_symmetries(total, atoms, classes)
        assert all(_is_symmetry(image, atoms, classes) for image in maps)
        kept += bool(maps)
        # a map sends each atom mask to one as large, so atoms whose
        # supports all differ in size allow none
        if len({bin(m).count("1") for m in atoms.values()}) == len(atoms) > 1:
            assert maps == []
            unequal += 1
    assert kept >= 5 and unequal >= 100


class _Unindexed(_FsgSearch):
    """The search without rule (c): no failure answers another position."""

    def _subsumed(self, C, D, budget):
        return 0


@pytest.mark.parametrize("n, kmax", [(2, 19), (3, 10)])
def test_memo_entries_stored_under_images_hold(n, kmax):
    # every exact value and lower bound the search stored, under its own key
    # or an image's, and every failure it indexed, is what a search without
    # maps and without rule (c) finds on that key
    a, b = separation_instance(n)
    total, side, atoms, classes = _bit_layout(a + b)
    maps = _atom_symmetries(total, atoms, classes)
    search = _FsgSearch(list(atoms.values()), classes.values(), maps)
    found = [search.solve(side(a), side(b), k) for k in range(1, kmax + 1)]
    assert found[-1] == (19 if n == 2 else None)
    plain = _Unindexed(list(atoms.values()), classes.values())
    for (c, d), value in search.exact.items():
        if value != _INF:
            assert plain.solve(c, d, value) == value
            assert value == 1 or plain.solve(c, d, value - 1) is None
    for (c, d), bound in search.lb.items():
        assert plain.solve(c, d, bound - 1) is None
    # each row is an antichain in falling order of bound: no entry has a
    # subset mask and a bound as high as another's
    for row in [*search.failed_by_right.values(), *search.failed_by_left.values()]:
        bounds = [bound for _, bound in row]
        assert bounds == sorted(bounds, reverse=True)
        for i, (m, bound) in enumerate(row):
            assert not any(j != i and b >= bound and x & m == x for j, (x, b) in enumerate(row))
    indexed = [(c, d, bound) for d, row in search.failed_by_right.items() for c, bound in row]
    indexed += [(c, d, bound) for c, row in search.failed_by_left.items() for d, bound in row]
    assert len(indexed) > 100
    for c, d, bound in indexed:
        assert plain.solve(c, d, bound - 1) is None


@pytest.mark.parametrize(
    "n, kmax, digest",
    [
        (2, 19, "98882216a07107c062c7c77892dc7161732cfb86a78f28e6048db0cc09ce1735"),
        (3, 10, "d9426b277558ca01736b427b499ab5f550d0f9e269c247e552e301ac0d8ac188"),
    ],
)
def test_memo_tables_are_pinned(n, kmax, digest):
    # what the search stores, entry for entry and in insertion order: a
    # faster way to the same search must leave all four tables as they are
    a, b = separation_instance(n)
    total, side, atoms, classes = _bit_layout(a + b)
    search = _FsgSearch(list(atoms.values()), classes.values(), _atom_symmetries(total, atoms, classes))
    for k in range(1, kmax + 1):
        search.solve(side(a), side(b), k)
    h = hashlib.sha256()
    for table in (search.exact, search.lb, search.failed_by_right, search.failed_by_left):
        h.update(repr(list(table.items())).encode())
    assert h.hexdigest() == digest


def test_subsumption_cuts_the_n2_search(monkeypatch):
    # the count is deterministic; without rule (c) the search makes 14,460
    # calls
    calls = 0
    solve = _FsgSearch.solve

    def counted(self, C, D, budget):
        nonlocal calls
        calls += 1
        return solve(self, C, D, budget)

    monkeypatch.setattr(_FsgSearch, "solve", counted)
    assert fsg_min_win(*separation_instance(2), 19) == 19
    assert calls <= 5_484


def test_experiment_rows():
    rows = succinctness_rows(3)
    assert [r["n"] for r in rows] == [1, 2, 3]
    for r in rows:
        assert r["len_phi_n"] == r["n"] + 1
        assert r["len_translated"] >= 2 ** r["n"]
        assert r["wallclock_ms"] >= 0
    assert rows[0]["fsg_min"] == rows[0]["mel_min"] == 4
    assert rows[2]["fsg_min"] is None
    assert rows[2]["mel_min"] is None


def test_experiment_rows_cap_marks_absent():
    rows = succinctness_rows(5)
    assert rows[4]["len_translated"] is None
    assert rows[3]["len_translated"] is not None


def test_reflexive_collapse_matches_subjective_semantics():
    from atlh.sampling import random_formula

    rng = random.Random(20260815)
    opts = CheckOptions(success_scope="subjective")
    models = [gen_Mn(1), gen_Mn(2), gen_Nnj(2, 2), gen_Nnj(3, 4)]
    for _ in range(40):
        model = rng.choice(models)
        f = random_formula(rng, model.props, model.agents, depth=3, strategic_budget=2)
        g = reflexive_collapse(f)
        assert label(model, f, opts)[f] == label(model, g, opts)[g]


def test_collapse_rewrites_examples():
    f = parse_formula("<a> X p_1 & <a> G p_2 | <a> (p_1 U p_2)")
    g = reflexive_collapse(f)
    assert pretty_print(g) == "E[a] p_1 & E[a] p_2 | E[a] p_2"
    h = reflexive_collapse(parse_formula("<> X p_1"))
    assert pretty_print(h) == "true"
