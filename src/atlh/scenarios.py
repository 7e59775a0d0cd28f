"""Voting case studies: referendum models and a two-voter ThreeBallot election.

The referendum generators produce the small coercion examples: a single
yes/no vote watched by a coercer, and two two-issue variants whose coercer
observations differ in a way that knowledge formulas cannot tell apart but
class counting can. The ThreeBallot generator builds the full two-voter,
two-issue election with receipts and a public bulletin board, from which the
coercer-information-set table and the two coercion-resistance verdicts are
computed.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, product

from .cegm import Cegm
from .formula import Formula, parse_formula, pretty_print
from .mcheck import check


class ScenarioError(ValueError):
    """Raised for unknown variant or option names."""


# ---------------------------------------------------------------------------
# Referendum models

_NEVER_KNOWS_A = "G !(K[c] V_A | K[c] !V_A)"
_NEVER_KNOWS_AB = "G !(K[c] V_A | K[c] !V_A | K[c] V_B | K[c] !V_B)"


def gen_referendum_single() -> Cegm:
    """One voter, one yes/no issue, a coercer who cannot tell the outcomes apart."""
    return Cegm(
        ["v", "c"],
        ["s0", "s1", "s2"],
        "s0",
        {"v": ["voteA", "voteNA", "eps"], "c": ["eps"]},
        {("v", "s1"): ["eps"], ("v", "s2"): ["eps"]},
        {
            ("s0", ("voteA", "eps")): "s1",
            ("s0", ("voteNA", "eps")): "s2",
            ("s0", ("eps", "eps")): "s0",
            ("s1", ("eps", "eps")): "s1",
            ("s2", ("eps", "eps")): "s2",
        },
        [("c", "s1", "s2")],
        ["Voted", "V_A"],
        {"Voted": ["s1", "s2"], "V_A": ["s1"]},
    )


def referendum_single_property() -> Formula:
    """The voter can cast either value and keep the coercer unaware forever."""
    return parse_formula(
        f"<v> F (Voted & V_A & {_NEVER_KNOWS_A})"
        f" & <v> F (Voted & !V_A & {_NEVER_KNOWS_A})"
    )


def gen_referendum_double(variant: str) -> Cegm:
    """Two-issue referendum; variant M1's coercer can halve the outcome space,
    variant M2's coercer cannot narrow it at all."""
    if variant == "M1":
        obs = [("c", "s1", "s2"), ("c", "s3", "s4")]
    elif variant == "M2":
        obs = [("c", "s1", "s2"), ("c", "s2", "s3"), ("c", "s3", "s4")]
    else:
        raise ScenarioError(f"unknown variant {variant!r}, expected M1 or M2")
    states = ["s0", "s1", "s2", "s3", "s4"]
    trans = {
        ("s0", ("voteANB", "eps")): "s1",
        ("s0", ("voteNAB", "eps")): "s2",
        ("s0", ("voteAB", "eps")): "s3",
        ("s0", ("voteNANB", "eps")): "s4",
    }
    for q in states[1:]:
        trans[q, ("eps", "eps")] = q
    return Cegm(
        ["v", "c"],
        states,
        "s0",
        {"v": ["voteANB", "voteNAB", "voteAB", "voteNANB", "eps"], "c": ["eps"]},
        {
            ("v", "s0"): ["voteANB", "voteNAB", "voteAB", "voteNANB"],
            **{("v", q): ["eps"] for q in states[1:]},
        },
        trans,
        obs,
        ["Voted", "V_A", "V_B"],
        {
            "Voted": ["s1", "s2", "s3", "s4"],
            "V_A": ["s1", "s3"],
            "V_B": ["s2", "s3"],
        },
    )


def referendum_double_property() -> Formula:
    """Per vote value: reachable while the coercer never learns either issue."""
    signs = [("", ""), ("", "!"), ("!", ""), ("!", "!")]
    parts = [
        f"<v> F (Voted & {sa}V_A & {sb}V_B & {_NEVER_KNOWS_AB})" for sa, sb in signs
    ]
    return parse_formula(" & ".join(parts))


def referendum_hartley_property() -> Formula:
    """The voter can vote while the coercer stays at two full bits of doubt."""
    return parse_formula("<v> F (Voted & H[c] >= 2 {V_A, V_B})")


# ---------------------------------------------------------------------------
# ThreeBallot election

VOTES = ("ab", "Ab", "aB", "AB")
BALLOTS = ("BB", "FB", "BF", "FF")
_BALLOT_RANK = {b: i for i, b in enumerate(BALLOTS)}
_VOTE_MEMBER_RANK = {"Ab": 0, "aB": 1, "AB": 2, "ab": 3}


def ballot_sets(vote: str) -> tuple[tuple[str, str, str], ...]:
    """Both ways to fill three ballots for the vote: two marks per row in a
    backed issue, one otherwise. The all-distinct set comes first."""
    if vote not in VOTES:
        raise ScenarioError(f"unknown vote {vote!r}")
    row_a = combinations(range(3), 2 if vote[0] == "A" else 1)
    row_b = list(combinations(range(3), 2 if vote[1] == "B" else 1))
    sets = set()
    for fill_a in row_a:
        for fill_b in row_b:
            ballots = tuple(
                ("F" if i in fill_a else "B") + ("F" if i in fill_b else "B")
                for i in range(3)
            )
            sets.add(tuple(sorted(ballots, key=_BALLOT_RANK.__getitem__)))
    return tuple(sorted(sets, key=lambda bs: (len(set(bs)) != 3, bs)))


def _vote_fill_action(vote, bs) -> str:
    return f"{vote}_{'_'.join(bs)}"


def _worlds():
    """Every (vote1, ballots1, receipt, vote2, ballots2) election outcome,
    in display order, with its terminal state name."""
    out = []
    for vote1 in VOTES:
        for bs1 in ballot_sets(vote1):
            stem = f"{vote1}_{'_'.join(bs1)}"
            for receipt in dict.fromkeys(bs1):
                for vote2 in VOTES:
                    for bs2 in ballot_sets(vote2):
                        name = f"t_{stem}_{receipt}__{vote2}_{'_'.join(bs2)}"
                        out.append((vote1, bs1, receipt, vote2, bs2, name))
    return out


def gen_threeballot(coercer_obs: str = "board") -> Cegm:
    """Two voters, two issues, receipts, public board of all six ballots.

    Voter v picks a vote-and-fill, then a receipt; the other voter w then
    picks their own vote-and-fill; the coercer c only watches. By default c
    cannot tell apart terminal outcomes that share v's receipt and the board
    multiset. `coercer_obs` widens that to "identity" (c sees everything) or
    "full" (c cannot tell any two outcomes apart) for contrast experiments.
    """
    if coercer_obs not in ("board", "identity", "full"):
        raise ScenarioError(f"unknown coercer_obs {coercer_obs!r}")

    fills = [(v, bs) for v in VOTES for bs in ballot_sets(v)]
    fill_actions = [_vote_fill_action(v, bs) for v, bs in fills]
    worlds = _worlds()

    states = ["q0"]
    avail = {("w", "q0"): ["eps"], ("c", "q0"): ["eps"]}
    trans = {}
    avail[("v", "q0")] = fill_actions
    for vote1, bs1 in fills:
        bstate = f"bs_{_vote_fill_action(vote1, bs1)}"
        states.append(bstate)
        trans["q0", (_vote_fill_action(vote1, bs1), "eps", "eps")] = bstate
        receipts = list(dict.fromkeys(bs1))
        avail[("v", bstate)] = receipts
        avail[("w", bstate)] = ["eps"]
        avail[("c", bstate)] = ["eps"]
        for receipt in receipts:
            rstate = f"r_{_vote_fill_action(vote1, bs1)}_{receipt}"
            states.append(rstate)
            trans[bstate, (receipt, "eps", "eps")] = rstate
            avail[("v", rstate)] = ["eps"]
            avail[("w", rstate)] = fill_actions
            avail[("c", rstate)] = ["eps"]

    for vote1, bs1, receipt, vote2, bs2, terminal in worlds:
        states.append(terminal)
        rstate = f"r_{_vote_fill_action(vote1, bs1)}_{receipt}"
        trans[rstate, ("eps", _vote_fill_action(vote2, bs2), "eps")] = terminal
        trans[terminal, ("eps", "eps", "eps")] = terminal
        for agent in ("v", "w", "c"):
            avail[agent, terminal] = ["eps"]

    obs = []
    if coercer_obs == "board":
        groups: dict = {}
        for vote1, bs1, receipt, vote2, bs2, terminal in worlds:
            board = tuple(sorted(bs1 + bs2, key=_BALLOT_RANK.__getitem__))
            groups.setdefault((receipt, board), []).append(terminal)
        for members in groups.values():
            obs.extend(("c", x, y) for x, y in zip(members, members[1:]))
    elif coercer_obs == "full":
        terminals = [w[5] for w in worlds]
        obs.extend(("c", x, y) for x, y in zip(terminals, terminals[1:]))

    valuation = {
        "Voted": [w[5] for w in worlds],
        "V_A": [w[5] for w in worlds if w[0][0] == "A"],
        "V_B": [w[5] for w in worlds if w[0][1] == "B"],
        "V1_eq_AB": [w[5] for w in worlds if w[0] == "AB"],
        "V1_eq_Ab": [w[5] for w in worlds if w[0] == "Ab"],
        "V1_eq_aB": [w[5] for w in worlds if w[0] == "aB"],
        "V1_eq_ab": [w[5] for w in worlds if w[0] == "ab"],
        "V1_eq_V2": [w[5] for w in worlds if w[0] == w[3]],
    }
    return Cegm(
        ["v", "w", "c"],
        states,
        "q0",
        {
            "v": fill_actions + list(BALLOTS) + ["eps"],
            "w": fill_actions + ["eps"],
            "c": ["eps"],
        },
        avail,
        trans,
        obs,
        list(valuation),
        valuation,
    )


# ---------------------------------------------------------------------------
# Coercer information sets


class InfosetRow(namedtuple("InfosetRow", "vote ballots receipt info_sets")):
    """One receipt row: which vote values the coercer may still consider
    possible, one set per way the other voter can act."""

    __slots__ = ()


def _info_set_key(info_set):
    return (len(info_set), tuple(_VOTE_MEMBER_RANK[v] for v in info_set))


def threeballot_infosets() -> tuple[InfosetRow, ...]:
    """The coercer's possible information sets per (vote, fill, receipt) row,
    computed from the generated model's epistemic classes."""
    model = gen_threeballot()
    vote_of = {w[5]: w[0] for w in _worlds()}
    rows = []
    grouped: dict = {}
    for vote1, bs1, receipt, _, _, terminal in _worlds():
        members = {vote_of[q] for q in model.epistemic_class("c", terminal)}
        ordered = tuple(sorted(members, key=_VOTE_MEMBER_RANK.__getitem__))
        grouped.setdefault((vote1, bs1, receipt), set()).add(ordered)
    for (vote1, bs1, receipt), sets in grouped.items():
        rows.append(
            InfosetRow(vote1, bs1, receipt, tuple(sorted(sets, key=_info_set_key)))
        )
    return tuple(rows)


def _show_set(info_set) -> str:
    return "{" + ", ".join(info_set) + "}"


def render_infoset_table(rows) -> str:
    """Text table: vote/ballot-set groups, one line per receipt."""
    left_width = max(
        len(f"Vote = {r.vote}, BS = {{{', '.join(r.ballots)}}}") for r in rows
    )
    header = (
        f"{'Vote and ballot set (BS)':<{left_width}} | Receipt | "
        "Possible information sets of the coercer"
    )
    rule = "-" * left_width + "-+---------+-" + "-" * 48
    lines = [header, rule]
    previous = None
    for row in rows:
        group = (row.vote, row.ballots)
        if group != previous and previous is not None:
            lines.append(rule)
        cell = (
            f"Vote = {row.vote}, BS = {{{', '.join(row.ballots)}}}"
            if group != previous
            else ""
        )
        sets = ", ".join(_show_set(s) for s in row.info_sets)
        lines.append(f"{cell:<{left_width}} | {row.receipt:<7} | {sets}")
        previous = group
    return "\n".join(lines)


def infoset_table_csv(rows) -> str:
    """CSV rendering: sets use spaces inside braces so cells stay comma-free."""
    lines = ["vote,ballots,receipt,info_sets"]
    for row in rows:
        sets = ";".join("{" + " ".join(s) + "}" for s in row.info_sets)
        lines.append(f"{row.vote},{' '.join(row.ballots)},{row.receipt},{sets}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Coercion resistance

_MAX_DOUBT = "H[c] = log(4) {V_A, V_B}"


def epistemic_coercion_property(literal_antecedent: bool = False) -> Formula:
    """No voter-coercer strategy makes the coercer learn the vote, for any
    vote value; differing votes are required before knowledge counts (set
    `literal_antecedent` to require matching votes instead)."""
    guard = "!V1_eq_V2" if literal_antecedent else "V1_eq_V2"
    parts = [
        f"!<v, c> F (V1_eq_{vote} & ({guard} | K[c] V1_eq_{vote}))" for vote in VOTES
    ]
    return parse_formula(" & ".join(parts))


def hartley_coercion_property() -> Formula:
    """Strategic reading: the voter-coercer pair can steer every play into an
    outcome with their chosen vote and maximal coercer uncertainty."""
    parts = [f"!<v, c> F (V1_eq_{vote} & (V1_eq_V2 | {_MAX_DOUBT}))" for vote in VOTES]
    return parse_formula(" & ".join(parts))


def hartley_invariant_property() -> Formula:
    """Invariant reading: on every play, once the votes differ the coercer's
    uncertainty about (V_A, V_B) must be maximal."""
    parts = [
        f"<> G !(V1_eq_{vote} & !V1_eq_V2 & !{_MAX_DOUBT})" for vote in VOTES
    ]
    return parse_formula(" & ".join(parts))


def coercion_epistemic(model: Cegm, literal_antecedent: bool = False) -> bool:
    """Does the model resist coercion in the knowledge sense?

    Checks `epistemic_coercion_property` at the initial state: for no vote
    value is there a voter-coercer strategy forcing an outcome with that
    vote where the coercer knows the vote (outcomes where both voters voted
    alike are excused, since the public board alone reveals such votes).
    """
    return check(model, model.initial, epistemic_coercion_property(literal_antecedent))


def coercion_hartley(model: Cegm, strategic: bool = False) -> bool:
    """Does the model resist coercion in the information-theoretic sense?

    Checks a property formula at the initial state. By default that is
    `hartley_invariant_property`: along every play, whenever voter 1 has
    cast a vote that differs from voter 2's, the coercer must be at maximal
    uncertainty about (V_A, V_B). The strategic reading (`strategic=True`,
    `hartley_coercion_property`) instead asks whether the voter-coercer pair
    has no joint strategy that forces plays into maximal-uncertainty
    outcomes; that is a much weaker demand, satisfied here because the other
    voter alone can always push the play into a revealing board.
    """
    prop = hartley_coercion_property() if strategic else hartley_invariant_property()
    return check(model, model.initial, prop)
