"""Model loading, validation and query tests."""

from itertools import product
from random import Random

import pytest

from atlh.cegm import Cegm, ModelError, load_model, save_model
from atlh.mcheck import hartley_classes
from atlh.sampling import random_cegm
from bruteforce import transitions

FIG1 = """\
# single-issue referendum, one voter, one coercer
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


@pytest.fixture
def fig1():
    return load_model(FIG1)


def test_load_fig1(fig1):
    assert fig1.agents == ("v", "c")
    assert fig1.states == ("s0", "s1", "s2")
    assert fig1.initial == "s0"
    assert fig1.actions["v"] == ("voteA", "voteNA", "eps")
    assert fig1.avail("v", "s0") == ("voteA", "voteNA", "eps")
    assert fig1.avail("v", "s1") == ("eps",)
    assert fig1.valuation["Voted"] == {"s1", "s2"}
    assert fig1.valuation["V_A"] == {"s1"}


def test_epistemic_classes(fig1):
    assert fig1.epistemic_class("c", "s1") == {"s1", "s2"}
    assert fig1.epistemic_class("c", "s0") == {"s0"}
    assert fig1.epistemic_class("v", "s1") == {"s1"}
    assert fig1.epistemic_classes("c") == (frozenset({"s0"}), frozenset({"s1", "s2"}))


def test_classes_partition_states(fig1):
    for a in fig1.agents:
        classes = fig1.epistemic_classes(a)
        union = set().union(*classes)
        assert union == set(fig1.states)
        assert sum(len(c) for c in classes) == len(fig1.states)
        for q in fig1.states:
            assert q in fig1.epistemic_class(a, q)


def test_singletons_are_each_states_own_class(fig1):
    # entry i is state i's own class; v has no observation links, so they
    # are its classes, and c's unlinked state s0 keeps its own
    assert fig1.singletons == (((0,), 0b001), ((1,), 0b010), ((2,), 0b100))
    assert fig1.class_masks["v"] == fig1.singletons
    assert fig1.class_masks["c"] == (fig1.singletons[0], ((1, 2), 0b110))


def test_moves_rows(fig1):
    # per state, the bit of each available joint action's target, in the
    # product order of the agents' menus: an entry's position is its profile
    assert fig1.moves == ((0b010, 0b100, 0b001), (0b010,), (0b100,))
    for q, column, row in zip(fig1.states, fig1.menus, fig1.moves):
        targets = [FIG1_ARGS["trans"][q, profile] for profile in product(*column)]
        assert row == tuple(1 << fig1.state_index[t] for t in targets)
    assert list(product(*fig1.menus[0])) == [
        ("voteA", "eps"),
        ("voteNA", "eps"),
        ("eps", "eps"),
    ]


def test_moves_give_back_the_transitions_passed_in():
    """`moves` is a model's one record of its transitions: read through the
    pairing of `product(*menus[i])` with `moves[i]` (the oracle's
    `transitions`), every state's row gives back the entries the constructor
    was handed. The dicts are seeded draws over two or three agents with
    narrowed availability (in shuffled order), actions declared in reverse
    and entries given in reverse order."""
    rng = Random(3030)
    for _ in range(300):
        states = [f"s{i}" for i in range(rng.randint(1, 5))]
        agents = [f"a{i}" for i in range(rng.randint(2, 3))]
        actions = {a: [f"x{i}" for i in range(rng.randint(1, 3))][::-1] for a in agents}
        avail = {
            (a, q): rng.sample(actions[a], rng.randint(1, len(actions[a])))
            for a in agents
            for q in states
            if rng.random() < 0.5
        }
        trans = {
            (q, profile): rng.choice(states)
            for q in states
            for profile in product(*(avail.get((a, q), actions[a]) for a in agents))
        }
        given = dict(reversed(trans.items()))
        model = Cegm(agents, states, "s0", actions, avail, given)
        assert not hasattr(model, "trans")
        assert transitions(model) == given


def test_queries_reject_unknown_names(fig1):
    for query, args, message in [
        (fig1.avail, ("x", "s0"), "unknown agent/state pair (x, s0)"),
        (fig1.avail, ("v", "s9"), "unknown agent/state pair (v, s9)"),
        (fig1.epistemic_class, ("x", "s0"), "unknown agent x or state s0"),
        (fig1.epistemic_class, ("c", "s9"), "unknown agent c or state s9"),
        (fig1.epistemic_classes, ("x",), "unknown agent x"),
        (fig1.mask, (["s0", "zz"],), "unknown state zz"),
        (hartley_classes, (fig1, "c", "s0", [["zz"]]), "unknown state zz"),
    ]:
        with pytest.raises(ModelError) as exc:
            query(*args)
        assert str(exc.value) == message


def test_obs_closure_is_transitive():
    m = load_model(
        "agents: a\nstates: s0 s1 s2 s3\ninit: s0\nactions a: go\n"
        + "".join(f"trans s{i} (go) -> s{i}\n" for i in range(4))
        + "obs a: s1 ~ s2\nobs a: s2 ~ s3\n"
    )
    assert m.epistemic_class("a", "s3") == {"s1", "s2", "s3"}

    # random links (repeated, reversed and reflexive ones too) on 300 models,
    # three agents each with class-uniform menus; the expected partition is
    # the reflexive, symmetric, transitive closure of each agent's links
    rng = Random(1807)
    agents = ("a", "b", "c")
    for _ in range(300):
        n = rng.randint(1, 8)
        states = [f"s{i}" for i in range(n)]
        links = [
            (a, rng.choice(states), rng.choice(states))
            for a in agents
            if rng.random() < 0.7
            for _ in range(rng.randint(1, 2 * n))
        ]
        expected = {}
        for a in agents:
            same = {(q, q) for q in states}
            same |= {(q, q2) for b, q, q2 in links if b == a}
            same |= {(q2, q) for q, q2 in same}
            for k in states:
                same |= {(q, q2) for q in states for q2 in states if {(q, k), (k, q2)} <= same}
            expected[a] = {q: frozenset(q2 for q2 in states if (q, q2) in same) for q in states}
        avail = {}
        for a in agents:
            for cls in dict.fromkeys(expected[a].values()):
                menu = rng.choice([("x",), ("y",), ("x", "y")])
                avail.update(((a, q), menu) for q in cls)

        def build():
            trans = {
                (q, profile): rng.choice(states)
                for q in states
                for profile in product(*(avail[a, q] for a in agents))
            }
            actions = dict.fromkeys(agents, ("x", "y"))
            return Cegm(agents, states, "s0", actions, avail, trans, links)

        model = build()
        for a in agents:
            classes = tuple(dict.fromkeys(expected[a].values()))  # by first state
            assert model.epistemic_classes(a) == classes
            entries = []
            for cls in classes:
                idx = tuple(i for i, q in enumerate(states) if q in cls)
                entries.append((idx, sum(1 << i for i in idx)))
            assert model.class_masks[a] == tuple(entries)
            for q in states:
                assert model.epistemic_class(a, q) == expected[a][q]
                assert model.class_entry(a, q) == entries[classes.index(expected[a][q])]
        # the first class of more than one state, with its last state
        # offering a different menu, is rejected by name
        for a in agents:
            wide = [cls for cls in dict.fromkeys(expected[a].values()) if len(cls) > 1]
            if wide:
                names = [q for q in states if q in wide[0]]
                avail[a, names[-1]] = ("x", "y") if avail[a, names[0]] != ("x", "y") else ("y",)
                with pytest.raises(ModelError) as exc:
                    build()
                message = f"agent {a} has differing availability inside class {{{', '.join(names)}}}"
                assert str(exc.value) == message
                break


def test_missing_transition_rejected():
    text = FIG1.replace("trans s0 (voteNA, eps) -> s2\n", "")
    with pytest.raises(ModelError, match="missing transition"):
        load_model(text)


def test_unavailable_action_in_transition_rejected():
    text = FIG1 + "trans s1 (voteA, eps) -> s1\n"
    with pytest.raises(ModelError, match="unavailable"):
        load_model(text)


def test_non_uniform_availability_rejected():
    # c can tell s1 and s2 apart by its own menu: reject loudly
    text = FIG1.replace("actions c: eps", "actions c: eps nudge").replace(
        "obs c: s1 ~ s2",
        "avail c s0: eps\navail c s1: eps\navail c s2: eps nudge\nobs c: s1 ~ s2",
    )
    text = text.replace("trans s2 (eps, eps) -> s2\n", "trans s2 (eps, eps) -> s2\ntrans s2 (eps, nudge) -> s2\n")
    with pytest.raises(ModelError, match="differing availability"):
        load_model(text)


def test_duplicate_transition_rejected():
    text = FIG1 + "trans s1 (eps, eps) -> s1\n"
    with pytest.raises(ModelError, match="duplicate transition"):
        load_model(text)


def test_one_joint_action_given_twice_to_the_constructor_is_rejected():
    # a one-action frozenset names the same joint action as its tuple
    trans = {("s0", ("x",)): "s0", ("s0", frozenset({"x"})): "s1", ("s1", ("x",)): "s1"}
    with pytest.raises(ModelError) as exc:
        Cegm(["a"], ["s0", "s1"], "s0", {"a": ["x"]}, None, trans)
    assert str(exc.value) == "duplicate transition at s0 for (x)"


def test_a_profile_given_as_a_one_action_frozenset_is_accepted():
    # the move table misses it as given, and finds it once it is a tuple
    trans = {("s0", frozenset({"x"})): "s1", ("s1", ("x",)): "s1"}
    model = Cegm(["a"], ["s0", "s1"], "s0", {"a": ["x"]}, None, trans)
    assert model.moves == ((0b10,), (0b10,))


def test_empty_availability_rejected():
    with pytest.raises(ModelError, match="empty availability"):
        load_model(FIG1.replace("avail v s1: eps", "avail v s1:"))


def test_unknown_references_carry_line_numbers():
    with pytest.raises(ModelError) as exc:
        load_model("agents: a\nstates: s0\ninit: s1\n")
    assert exc.value.line == 3
    with pytest.raises(ModelError) as exc:
        load_model("agents: a\nstates: s0\ninit: s0\nactions b: go\n")
    assert exc.value.line == 4


def test_missing_headers_rejected():
    with pytest.raises(ModelError, match="missing init"):
        load_model("agents: a\nstates: s0\nactions a: go\ntrans s0 (go) -> s0\n")
    with pytest.raises(ModelError, match="missing agents"):
        load_model("states: s0\ninit: s0\n")


def test_unrecognized_line_rejected():
    with pytest.raises(ModelError, match="unrecognized"):
        load_model(FIG1 + "banana\n")


def test_empty_proposition_allowed():
    m = load_model(FIG1 + "prop Spoiled:\n")
    assert m.valuation["Spoiled"] == frozenset()


def test_save_load_round_trip(fig1):
    text = save_model(fig1)
    again = load_model(text)
    assert save_model(again) == text
    assert again.agents == fig1.agents
    assert again.states == fig1.states
    assert transitions(again) == transitions(fig1) == FIG1_ARGS["trans"]
    assert again.valuation == fig1.valuation
    assert again.epistemic_classes("c") == fig1.epistemic_classes("c")
    for a in fig1.agents:
        for q in fig1.states:
            assert again.avail(a, q) == fig1.avail(a, q)


# FIG1 as constructor arguments
FIG1_ARGS = dict(
    agents=["v", "c"],
    states=["s0", "s1", "s2"],
    initial="s0",
    actions={"v": ["voteA", "voteNA", "eps"], "c": ["eps"]},
    avail={("v", "s1"): ["eps"], ("v", "s2"): ["eps"]},
    trans={
        ("s0", ("voteA", "eps")): "s1",
        ("s0", ("voteNA", "eps")): "s2",
        ("s0", ("eps", "eps")): "s0",
        ("s1", ("eps", "eps")): "s1",
        ("s2", ("eps", "eps")): "s2",
    },
    obs=[("c", "s1", "s2")],
    props=["Voted", "V_A"],
    valuation={"Voted": ["s1", "s2"], "V_A": ["s1"]},
)


def test_constructor_matches_loader(fig1):
    assert save_model(Cegm(**FIG1_ARGS)) == save_model(fig1)


_WITHOUT_VOTE_NA = {
    key: target for key, target in FIG1_ARGS["trans"].items() if key[1][0] != "voteNA"
}

# (one changed constructor argument, the full ModelError message): faults
# that `load_model` reports first with its own messages, so that only a
# direct construction reaches these
CONSTRUCTOR_ERRORS = [
    ({"agents": []}, "a model needs at least one agent"),
    ({"agents": ["v", "c", "v"]}, "duplicate agent name"),
    ({"states": []}, "a model needs at least one state"),
    ({"states": ["s0", "s1", "s2", "s1"]}, "duplicate state name"),
    ({"initial": "s9"}, "initial state s9 is not a declared state"),
    (
        {"avail": {**FIG1_ARGS["avail"], ("x", "s0"): ["eps"]}},
        "availability for unknown agent/state pair (x, s0)",
    ),
    (
        {"trans": {**FIG1_ARGS["trans"], ("s9", ("eps", "eps")): "s0"}},
        "transition from unknown state s9",
    ),
    (
        {"trans": {**FIG1_ARGS["trans"], ("s1", ("eps", "eps")): "s9"}},
        "transition to unknown state s9",
    ),
    (
        {"trans": {**FIG1_ARGS["trans"], ("s1", ("eps",)): "s1"}},
        "transition at s1 has 1 actions for 2 agents",
    ),
    ({"obs": [("x", "s1", "s2")]}, "observation link for unknown agent x"),
    ({"obs": [("c", "s1", "s9")]}, "observation link s1 ~ s9 uses an unknown state"),
    ({"props": ["Voted", "V_A", "Voted"]}, "duplicate proposition name"),
    (
        {"valuation": {"Voted": ["s1", "s9"], "V_A": ["s1"]}},
        "proposition Voted declared at unknown state s9",
    ),
    # two faults each: a transition missing at s0 and a faulty entry at s1;
    # the faulty entry is reported, though its state comes later
    (
        {"trans": {**_WITHOUT_VOTE_NA, ("s1", ("eps", "eps")): "s9"}},
        "transition to unknown state s9",
    ),
    (
        {"trans": {**_WITHOUT_VOTE_NA, ("s1", ("voteA", "eps")): "s1"}},
        "transition at s1 uses action voteA unavailable to agent v",
    ),
    # a string is a sequence of one-character names, never one name
    ({"agents": "vc"}, "agents must be a collection of names, not the string 'vc'"),
    ({"states": "s0"}, "states must be a collection of names, not the string 's0'"),
    ({"props": "V"}, "propositions must be a collection of names, not the string 'V'"),
    (
        {"actions": {"v": ["voteA", "voteNA", "eps"], "c": "e"}},
        "actions of agent c must be a collection of names, not the string 'e'",
    ),
    (
        {"avail": {**FIG1_ARGS["avail"], ("c", "s0"): "e"}},
        "availability for agent c at state s0 must be a collection of names, not the string 'e'",
    ),
    (
        {"valuation": {"Voted": "s1", "V_A": ["s1"]}},
        "extension of proposition Voted must be a collection of names, not the string 's1'",
    ),
    (
        {"trans": {**FIG1_ARGS["trans"], ("s1", "ee"): "s1"}},
        "action profile at s1 must be a collection of names, not the string 'ee'",
    ),
    # an observation link is one agent and two states
    ({"obs": ["cs1"]}, "observation link must be a collection of names, not the string 'cs1'"),
    ({"obs": [("c", "s1")]}, "observation link ('c', 's1') must name an agent and two states"),
    (
        {"obs": [("c", "s1", "s2", "s0")]},
        "observation link ('c', 's1', 's2', 's0') must name an agent and two states",
    ),
]


@pytest.mark.parametrize("change, message", CONSTRUCTOR_ERRORS)
def test_constructor_errors_are_pinned(change, message):
    with pytest.raises(ModelError) as exc:
        Cegm(**{**FIG1_ARGS, **change})
    assert str(exc.value) == message


def test_mask_helpers(fig1):
    m = fig1.mask(["s0", "s2"])
    assert m == 0b101
    assert fig1.states_of(m) == ("s0", "s2")
    assert fig1.full_mask == 0b111


def test_states_of_matches_a_scan_of_every_state():
    """`states_of` against a scan of every state's bit, on 1 to 70 states:
    the empty and full masks, the top state alone, negative masks (read as
    `mask & full_mask`), masks with bits above the last state, and random
    masks of every density."""
    rng = Random(4112)
    for n in (1, 2, 7, 8, 9, 64, 65, 70):
        states = [f"q{i}" for i in range(n)]
        model = Cegm(["a"], states, "q0", {"a": ["x"]}, None, {(q, ("x",)): q for q in states})
        full = model.full_mask
        masks = [0, full, 1 << (n - 1), -1, -2, ~full, -(1 << (n - 1)), full << 3, 1 << n]
        masks += [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(20)]
        masks += [rng.getrandbits(n + 10) - (1 << (n + 5)) for _ in range(20)]
        for mask in masks:
            want = tuple(q for i, q in enumerate(states) if mask >> i & 1)
            assert model.states_of(mask) == want, (n, mask)


def test_mask_rejects_a_string(fig1):
    # a string would be read as its one-character names
    with pytest.raises(ModelError, match="^a state set must be a collection of names"):
        fig1.mask("s0")
    with pytest.raises(ModelError, match="^a state set must be a collection of names"):
        hartley_classes(fig1, "c", "s1", ["s1"])


def _edit(old: str, new: str) -> str:
    assert old in FIG1, old
    return FIG1.replace(old, new, 1)


_NUDGE = _edit("actions c: eps", "actions c: eps nudge").replace(
    "obs c: s1 ~ s2",
    "avail c s0: eps\navail c s1: eps\navail c s2: eps nudge\n"
    "trans s2 (eps, nudge) -> s2\nobs c: s1 ~ s2",
)

# (model text, the full ModelError message). Loader faults carry `line N:`;
# model-level faults found after parsing carry none. Each two-fault text pins
# which fault is reported first.
LOAD_ERRORS = [
    (FIG1 + "banana\n", "line 17: unrecognized line 'banana'"),
    (FIG1 + ": s0\n", "line 17: unrecognized line ': s0'"),
    (FIG1 + "trans s0 (eps, eps)\n", "line 17: unrecognized line 'trans s0 (eps, eps)'"),
    (FIG1 + "trans\ts0 (eps, eps) -> s0\n", "line 17: unrecognized line 'trans\\ts0 (eps, eps) -> s0'"),
    (_edit("states:", "agents: w\nstates:"), "line 3: duplicate agents declaration"),
    (_edit("agents: v c", "agents: v 1c"), "line 2: bad agent name '1c'"),
    (_edit("agents: v c", "agents: v ²c"), "line 2: bad agent name '²c'"),
    (_edit("agents: v c", "agents: v c·d"), "line 2: bad agent name 'c·d'"),
    (_edit("agents: v c", "agents: v c v"), "line 2: agents must be non-empty and distinct"),
    (_edit("states: s0 s1 s2", "states: s0 s1 s-2"), "line 3: bad state name 's-2'"),
    (_edit("states: s0 s1 s2", "states:"), "line 3: states must be non-empty and distinct"),
    (_edit("init: s0", "init: s0 s1"), "line 4: expected exactly one initial state"),
    (_edit("init: s0", "init: s9"), "line 4: unknown state s9"),
    ("agents: a\ninit: s0\n", "line 2: unknown state s0"),
    (_edit("actions c: eps", "actions c d: eps"), "line 6: expected `actions <agent>: ...`"),
    (_edit("actions c: eps", "actions x: eps"), "line 6: unknown agent x"),
    (_edit("actions c: eps", "actions c: eps\nactions c: eps"), "line 7: duplicate actions declaration for c"),
    (_edit("avail v s1: eps", "avail v: eps"), "line 7: expected `avail <agent> <state>: ...`"),
    (_edit("avail v s1: eps", "avail v s9: eps"), "line 7: unknown state s9"),
    (_edit("avail v s1: eps", "avail v s1: eps\navail v s1: eps"), "line 8: duplicate avail declaration for v at s1"),
    (_edit("obs c: s1 ~ s2", "obs c: s1 ~ s2 ~ s0"), "line 14: expected exactly one `~` in observation link"),
    (_edit("obs c: s1 ~ s2", "obs c: s1 s0 ~ s2"), "line 14: observation link needs one state on each side"),
    (_edit("obs c: s1 ~ s2", "obs x: s1 ~ s2"), "line 14: unknown agent x"),
    (_edit("obs c: s1 ~ s2", "obs c d: s1 ~ s2"), "line 14: expected `obs <agent>: <state> ~ <state>`"),
    (_edit("prop V_A: s1", "prop V A: s1"), "line 16: expected `prop <name>: <states>`"),
    (_edit("prop V_A: s1", "prop V_A: s1 s1x"), "line 16: unknown state s1x"),
    (_edit("prop V_A: s1", "prop 1x: s1"), "line 16: bad proposition name '1x'"),
    (_edit("prop V_A: s1", "prop V-A: s1"), "line 16: bad proposition name 'V-A'"),
    (_edit("prop V_A: s1", "prop true: s1"), "line 16: reserved proposition name 'true'"),
    (_edit("prop V_A: s1", "prop false: s1"), "line 16: reserved proposition name 'false'"),
    (_edit("(eps, eps) -> s1", "eps, eps -> s1"), "line 12: expected `trans <state> (<actions>) -> <state>`"),
    (_edit("(eps, eps) -> s1", "(eps, eps) s1 -> s1"), "line 12: expected `->` right after the action profile"),
    (_edit("(eps, eps) -> s1", "(eps) -> s1"), "line 12: action profile length differs from agent count"),
    (_edit("(eps, eps) -> s1", "(eps, eps) -> s9"), "line 12: unknown state s9"),
    (FIG1 + "trans s1 ( eps ,eps ) -> s1\n", "line 17: duplicate transition at s1 for (eps, eps)"),
    ("states: s0\ninit: s0\n", "missing agents declaration"),
    ("agents: a\nstates: s0\n", "missing init declaration"),
    ("agents: a\nactions a: go\n", "missing states declaration"),
    (_edit("actions c: eps\n", ""), "agent c has no actions"),
    (_edit("voteNA eps", "voteNA eps voteA"), "duplicate action for agent v"),
    (_edit("avail v s1: eps", "avail v s1:"), "empty availability for agent v at state s1"),
    (_edit("avail v s1: eps", "avail v s1: abstain"), "action abstain not declared for agent v"),
    (_edit("avail v s1: eps", "avail v s1: eps eps"), "duplicate available action for agent v at state s1"),
    (_edit("trans s0 (voteNA, eps) -> s2\n", ""), "missing transition at s0 for profile (voteNA, eps)"),
    (_NUDGE, "agent c has differing availability inside class {s1, s2}"),
    # two faults each
    (
        _edit("trans s0 (voteNA, eps) -> s2\n", "") + "trans s1 (voteA, eps) -> s1\n",
        "transition at s1 uses action voteA unavailable to agent v",
    ),
    (_edit("prop V_A: s1", "prop V_A: s9 1x"), "line 16: bad state name '1x'"),
    (_edit("trans s1 (eps, eps) -> s1", "trans s9 (eps) -> s1"), "line 12: unknown state s9"),
    (_NUDGE + "prop Voted: s1\n", "line 21: duplicate proposition Voted"),
]


@pytest.mark.parametrize("text, message", LOAD_ERRORS)
def test_load_errors_are_pinned(text, message):
    with pytest.raises(ModelError) as exc:
        load_model(text)
    assert str(exc.value) == message


# every separator `str.splitlines` breaks at besides LF, CRLF and CR
_NOT_NEWLINES = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", _NOT_NEWLINES, ids=lambda sep: f"U+{ord(sep):04X}")
def test_only_newlines_end_a_line(sep, fig1):
    # inside a comment the separator is skipped with it; between names it is
    # whitespace
    text = FIG1.replace("agents: v c", f"agents: v c # note{sep}more")
    text = text.replace("states: s0 s1", f"states: s0{sep}s1")
    assert save_model(load_model(text)) == save_model(fig1)


def test_line_numbers_count_newlines_only():
    text = "\f\n" + FIG1 + "bogus line\n"
    with pytest.raises(ModelError) as exc:
        load_model(text)
    last = text.count("\n")
    assert str(exc.value) == f"line {last}: unrecognized line 'bogus line'"
    last = FIG1.count("\n") + 1
    for newline in ("\r\n", "\r"):
        text = FIG1.replace("\n", newline)
        assert save_model(load_model(text)) == save_model(load_model(FIG1))
        with pytest.raises(ModelError) as exc:
            load_model(text + "bogus" + newline)
        assert str(exc.value) == f"line {last}: unrecognized line 'bogus'"


def test_unicode_names_follow_str_isalnum():
    # a name starts with a letter or `_` and continues with str.isalnum()
    # characters or `_`; superscript and non-Latin digits count as alnum
    text = FIG1.replace("v c\n", "v c²\n").replace(" c:", " c²:")
    text = text.replace("prop V_A", "prop V_٣").replace("s2", "ş2")
    m = load_model(text)
    assert m.agents == ("v", "c²")
    assert m.states == ("s0", "s1", "ş2")
    assert m.props == ("Voted", "V_٣")
    assert m.epistemic_class("c²", "s1") == {"s1", "ş2"}


def _sorted_trans_lines(model: Cegm, trans: dict) -> list[str]:
    """The `trans` lines written by sorting `trans`, the model's transitions,
    per state on each agent's declaration index of its action."""
    order = [{x: i for i, x in enumerate(model.actions[a])} for a in model.agents]
    lines = []
    for q in model.states:
        profiles = sorted(
            (p for (s, p) in trans if s == q),
            key=lambda p: tuple(order[i][x] for i, x in enumerate(p)),
        )
        for p in profiles:
            lines.append(f"trans {q} ({', '.join(p)}) -> {trans[q, p]}")
    return lines


def _redeclared(model: Cegm, trans: dict) -> Cegm:
    """The same model with every agent's actions declared in reverse order
    and `trans`, its transitions, given as they are."""
    obs = [
        (a, left, right)
        for a in model.agents
        for cls in model.epistemic_classes(a)
        for left, right in zip(sorted(cls), sorted(cls)[1:])
    ]
    return Cegm(
        model.agents,
        model.states,
        model.initial,
        {a: model.actions[a][::-1] for a in model.agents},
        {(a, q): model.avail(a, q) for a in model.agents for q in model.states},
        trans,
        obs,
        model.props,
        model.valuation,
    )


def test_save_model_writes_transitions_in_declaration_order():
    rng = Random(11)
    for _ in range(150):
        drawn = random_cegm(rng, max_states=5, max_agents=3, max_actions=3)
        trans = transitions(drawn)
        backwards = dict(reversed(trans.items()))
        for model, given in ((drawn, trans), (_redeclared(drawn, backwards), backwards)):
            lines = save_model(model).splitlines()
            assert [l for l in lines if l.startswith("trans ")] == _sorted_trans_lines(model, given)
