"""Translations between knowledge and uncertainty operators.

Knowledge reduces to uncertainty cheaply: knowing a fact means it holds and
carries zero uncertainty. The reverse direction is intentionally exponential:
an uncertainty comparison becomes a disjunction over exact class counts,
each expressed through knowledge of the signed combinations of the set
members.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import product
from math import comb
from random import Random

from .formula import (
    NODE_CAP,
    And,
    AtlhError,
    FalseF,
    Formula,
    Hartley,
    Knows,
    LogOfCount,
    MutualKnows,
    Not,
    Or,
    TrueF,
    _row_values,
    distinct_members,
    formula_length,
    pretty_print,
    rebuild,
    subformula_rows,
)
from .mcheck import CheckOptions, check, compare_log
from .sampling import random_cegm, random_formula


class TranslateError(AtlhError):
    """Raised when a translation exceeds its size caps or gets bad arguments."""


def _rewrite(f: Formula, classes, step):
    """`fold(f, step)`, or `f` itself if no subformula's class is in `classes`.

    One `subformula_rows` walk serves both the test and the fold.
    """
    rows = subformula_rows(f)
    if not any(type(g) in classes for g, _ in rows):
        return f
    return _row_values(rows, step)[-1]


def k_to_h(f: Formula) -> Formula:
    """Replace knowledge by uncertainty, innermost-first.

    `K[a] x` becomes `x & H[a] = log(1) {x}`; mutual knowledge expands to the
    conjunction of the members' rewritten knowledge. Each level of `K`
    doubles the printed length but adds only a few nodes to the result's
    DAG. Members of an uncertainty set are compared by one walk of that DAG
    (`member_rows`), never as printed trees, so a deep nest of `K` is
    rewritten in time linear in its depth however long it prints. A formula
    with no `K` or `E` is returned as itself, not as an equal copy.
    """

    def step(g: Formula, kids):
        if type(g) in (Knows, MutualKnows):
            agents = (g.agent,) if type(g) is Knows else g.coalition
            x = kids[0]
            return reduce(And, [And(x, Hartley(a, "=", LogOfCount(1), (x,))) for a in agents])
        return rebuild(g, kids)

    return _rewrite(f, (Knows, MutualKnows), step)


def phi_beta(beta, cap: int = 4) -> list[Formula]:
    """The 2^n signed conjunctions over `beta`, positive signs first.

    Ordering is lexicographic in the sign tuples with plain before negated,
    so `[x, y]` yields x&y, x&!y, !x&y, !x&!y.
    """
    members = list(beta)
    if not members:
        raise TranslateError("empty formula set")
    if len(members) > cap:
        raise TranslateError(f"formula set of size {len(members)} exceeds cap {cap}")
    signed = [(b, Not(b)) for b in members]  # each negation built once
    out = []
    for signs in product((0, 1), repeat=len(members)):
        out.append(reduce(And, [pair[s] for s, pair in zip(signs, signed)]))
    return out


def t_nm(n: int, m: int) -> list[tuple[int, ...]]:
    """All 0/1 tuples of length 2^n with exactly m zeros, ascending."""
    size = 2**n
    if not 1 <= m <= size:
        raise TranslateError(f"m must be between 1 and {size}, got {m}")
    return [t for t in product((0, 1), repeat=size) if sum(t) == size - m]


def _literals(agent: str, alphas) -> list[tuple[Formula, Formula]]:
    """Per signed combination, `(!K[agent] !alpha, K[agent] !alpha)`: it is
    possible, or known to be impossible. Each is built once and shared by
    every count formula over `alphas`."""
    out = []
    for alpha in alphas:
        known = Knows(agent, Not(alpha))
        out.append((Not(known), known))
    return out


def _count_formula(literals, m: int, n: int) -> Formula:
    """Exactly m of the 2^n signed combinations are epistemically possible.

    A combination is ruled out when the agent knows its negation; the tuples
    select which combinations are known-impossible (1) versus possible (0),
    and `literals` (from `_literals`) holds both readings of each.
    """
    disjuncts = []
    for t in reversed(t_nm(n, m)):
        disjuncts.append(reduce(And, [pair[tj] for tj, pair in zip(t, literals)]))
    return reduce(Or, disjuncts)


def h_eq_to_k(agent: str, beta, m: int) -> Formula:
    """Knowledge formula equivalent to `H[agent] = log(m) beta`, for 1 to 4 members."""
    members = list(beta)
    return _count_formula(_literals(agent, phi_beta(members)), m, len(members))


def _expansion_size(alpha_sizes, counts, n: int) -> int:
    """formula_length of the disjunction of count formulas, without building it."""
    size = 2**n
    base = sum(2 + s for s in alpha_sizes) + (size - 1)
    total = 0
    for m in counts:
        tuples = comb(size, m)
        total += tuples * (base + m) + (tuples - 1)
    return total + (len(counts) - 1)


def h_to_k(f: Formula, beta_cap: int = 4, node_cap: int = NODE_CAP) -> Formula:
    """Replace uncertainty by knowledge, innermost-first.

    Every threshold is first normalized to the set of class counts that
    satisfy it (counts range over 1..2^n); the result is false for an empty
    set, true for the full range, else the disjunction of count formulas.
    The construction is exponential by design, hence the caps. Equal members
    of a rewritten uncertainty set are merged by `distinct_members`, as
    `rebuild` does, and no new uncertainty node is built. A formula with no
    `H` is returned as itself, not as an equal copy.
    """

    def step(g: Formula, kids):
        if type(g) is not Hartley:
            return rebuild(g, kids)
        members = distinct_members(kids)
        n = len(members)
        if n > beta_cap:
            raise TranslateError(
                f"uncertainty set of size {n} exceeds cap {beta_cap}"
            )
        size = 2**n
        counts = [c for c in range(1, size + 1) if compare_log(c, g.cmp, g.threshold)]
        if not counts:
            return FalseF()
        if len(counts) == size:
            return TrueF()
        alphas = phi_beta(members, beta_cap)
        # a signed conjunction: every member, n - 1 &s, and one ! per minus sign
        plain = sum(map(formula_length, members)) + n - 1
        alpha_sizes = [plain + signs.count(0) for signs in product((1, 0), repeat=n)]
        nodes = _expansion_size(alpha_sizes, counts, n)
        if nodes > node_cap:
            raise TranslateError(
                f"translation would have {nodes} nodes, over the cap {node_cap}"
            )
        literals = _literals(g.agent, alphas)
        return reduce(Or, [_count_formula(literals, m, n) for m in counts])

    return _rewrite(f, (Hartley,), step)


# ---------------------------------------------------------------------------
# Random equivalence harness


class TranslationReport(namedtuple("TranslationReport", "lines mismatches")):
    """Per-sample verdict lines plus the mismatch count."""

    __slots__ = ()

    def __str__(self) -> str:
        return "\n".join(self.lines)


def check_translation_equivalence(
    samples: int = 100, seed: int = 0, opts: CheckOptions | None = None
) -> TranslationReport:
    """Compare direct checking against both translations on random models.

    Each sample draws a model (at most 6 states and 3 agents) and a formula
    (uncertainty sets of at most 2 members) from its own derived seed,
    translates the formula both ways, and verifies state-by-state agreement.
    The formula is checked once per state, and each translation's verdicts
    are compared with that list; a translation that is the formula itself
    (`h_to_k` of a formula with no `H`, `k_to_h` of one with no `K` or `E`)
    is not checked. A mismatch names the first differing state, `h_to_k`
    first.
    """
    opts = opts or CheckOptions()
    root = Random(seed)
    seeds = [root.getrandbits(64) for _ in range(samples)]
    lines = []
    mismatches = 0
    for s in seeds:
        rng = Random(s)
        model = random_cegm(rng, max_states=6, max_agents=3)
        f = random_formula(rng, model.props, model.agents, depth=3, strategic_budget=1, beta_max=2)
        verdict = "ok"
        translations = [t for t in (h_to_k(f, beta_cap=2), k_to_h(f)) if t is not f]
        direct = [check(model, q, f, opts) for q in model.states]
        for translated in translations:
            for q, holds in zip(model.states, direct):
                if holds != check(model, q, translated, opts):
                    verdict = f"mismatch@{q}"
                    break
            if verdict != "ok":
                break
        if verdict != "ok":
            mismatches += 1
        lines.append(
            f"seed={s} states={len(model.states)} formula={pretty_print(f)} verdict={verdict}"
        )
    return TranslationReport(lines, mismatches)
