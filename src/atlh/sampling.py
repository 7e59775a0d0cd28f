"""Seeded random models and formulas for equivalence harnesses and tests.

Everything is driven by a caller-supplied random.Random so identical seeds
reproduce identical samples.
"""

from __future__ import annotations

from itertools import product
from random import Random

from .cegm import Cegm
from .formula import (
    CMPS,
    And,
    Atom,
    CoalFG,
    CoalG,
    CoalU,
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
)


def random_cegm(
    rng: Random,
    max_states: int = 6,
    max_agents: int = 3,
    max_actions: int = 2,
    max_props: int = 3,
    reflexive: bool = False,
) -> Cegm:
    """A random valid model: random partitions, class-uniform availability,
    random transitions (self-loops only when `reflexive`)."""
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    agents = [f"a{i}" for i in range(rng.randint(1, max_agents))]

    obs = []
    classes_of = {}
    for a in agents:
        if rng.random() < 0.3:
            classes_of[a] = [[q] for q in states]
            continue
        block_count = rng.randint(1, n)
        blocks: dict[int, list[str]] = {}
        for q in states:
            blocks.setdefault(rng.randrange(block_count), []).append(q)
        classes_of[a] = list(blocks.values())
        for cls in blocks.values():
            for left, right in zip(cls, cls[1:]):
                obs.append((a, left, right))

    actions = {}
    avail = {}
    for a in agents:
        acts = [f"x{i}" for i in range(rng.randint(1, max_actions))]
        actions[a] = acts
        for cls in classes_of[a]:
            chosen = [x for x in acts if rng.random() < 0.7]
            if not chosen:
                chosen = [rng.choice(acts)]
            for q in cls:
                avail[a, q] = chosen

    trans = {}
    for q in states:
        for profile in product(*(avail[a, q] for a in agents)):
            trans[q, profile] = q if reflexive else rng.choice(states)

    props = [f"p{i}" for i in range(rng.randint(1, max_props))]
    valuation = {p: [q for q in states if rng.random() < 0.5] for p in props}
    return Cegm(agents, states, "s0", actions, avail, trans, obs, props, valuation)


def random_formula(
    rng: Random,
    atoms,
    agents,
    depth: int = 3,
    strategic_budget: int = 1,
    hartley: bool = True,
    beta_max: int = 2,
    coal_fg: bool = False,
) -> Formula:
    """A random formula over the given atoms and agents.

    `strategic_budget` bounds the number of coalition operators along any
    branch; `coal_fg` adds the reach-then-maintain pattern `<A> F (x & G y)`
    to the coalition operators (off by default, so existing seeded streams
    keep drawing the same formulas).
    """
    atoms = list(atoms)
    agents = list(agents)

    def leaf() -> Formula:
        r = rng.random()
        if r < 0.8:
            return Atom(rng.choice(atoms))
        return TrueF() if r < 0.9 else FalseF()

    def coalition():
        size = rng.randint(0, min(2, len(agents)))
        return tuple(rng.sample(agents, size))

    def threshold():
        if rng.random() < 0.5:
            return LogOfCount(rng.randint(1, 4))
        from fractions import Fraction

        return Real(Fraction(rng.randint(0, 6), rng.choice((1, 2, 4))))

    def build(d: int, budget: int) -> Formula:
        if d == 0:
            return leaf()
        choices = ["not", "and", "or", "leaf", "knows", "mutual"]
        if hartley:
            choices.append("hartley")
        if budget > 0:
            choices += ["coalx", "coalg", "coalu"]
            if coal_fg:
                choices.append("coalfg")
        pick = rng.choice(choices)
        if pick == "leaf":
            return leaf()
        if pick == "not":
            return Not(build(d - 1, budget))
        if pick == "and":
            return And(build(d - 1, budget), build(d - 1, budget))
        if pick == "or":
            return Or(build(d - 1, budget), build(d - 1, budget))
        if pick == "knows":
            return Knows(rng.choice(agents), build(d - 1, budget))
        if pick == "mutual":
            size = rng.randint(1, min(2, len(agents)))
            return MutualKnows(tuple(rng.sample(agents, size)), build(d - 1, budget))
        if pick == "hartley":
            want = rng.randint(1, beta_max)
            members: list[Formula] = []
            for _ in range(want * 3):
                candidate = build(min(d - 1, 1), 0)
                if candidate not in members:
                    members.append(candidate)
                if len(members) == want:
                    break
            cmp = rng.choice(CMPS)
            return Hartley(rng.choice(agents), cmp, threshold(), tuple(members))
        if pick == "coalx":
            return CoalX(coalition(), build(d - 1, budget - 1))
        if pick == "coalg":
            return CoalG(coalition(), build(d - 1, budget - 1))
        if pick == "coalfg":
            return CoalFG(coalition(), build(d - 1, budget - 1), build(d - 1, budget - 1))
        return CoalU(coalition(), build(d - 1, budget - 1), build(d - 1, budget - 1))

    return build(depth, strategic_budget)
