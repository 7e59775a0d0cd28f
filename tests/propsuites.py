"""Randomized invariant suites shared by the property and acceptance tests.

Each runner draws independent random models from a fixed seed and returns
the number of violations it found, so callers can assert zero at whatever
sample count they need.
"""

from fractions import Fraction
from random import Random

from atlh.formula import And, CoalFG, CoalG, CoalU, CoalX, Hartley, Knows, LogOfCount, Real
from atlh.mcheck import CheckOptions, enumerate_strategies, find_witness, hartley_classes, label
from atlh.sampling import random_cegm, random_formula

from bruteforce import oracle_label, reflexive_collapse, strategy_wins


def _members(rng: Random, model, count: int) -> tuple:
    """Distinct boolean member formulas for an uncertainty set."""
    out = []
    while len(out) < count:
        f = random_formula(
            rng, model.props, model.agents, depth=1, strategic_budget=0, hartley=False
        )
        if f not in out:
            out.append(f)
    return tuple(out)


def _threshold(rng: Random):
    if rng.random() < 0.5:
        return LogOfCount(rng.randint(1, 4))
    return Real(Fraction(rng.randint(0, 4), rng.choice((1, 2))))


def _nested_sets(rng: Random, model):
    """A member set and a superset of it, in stable order."""
    big = _members(rng, model, rng.randint(2, 3))
    small = tuple(f for f in big if rng.random() < 0.5) or big[:1]
    return small, big


def _implies(model, premise, conclusion) -> bool:
    return label(model, premise)[premise] <= label(model, conclusion)[conclusion]


def validity1_violations(samples: int, seed: int) -> int:
    """Growing the member set can only increase uncertainty: =m, >=m and >m
    on the smaller set each force >=m (resp. >m) on the larger one."""
    rng = Random(seed)
    bad = 0
    for _ in range(samples):
        model = random_cegm(rng)
        agent = rng.choice(model.agents)
        small, big = _nested_sets(rng, model)
        m = _threshold(rng)
        for cmp_small, cmp_big in (("=", ">="), (">=", ">="), (">", ">")):
            premise = Hartley(agent, cmp_small, m, small)
            conclusion = Hartley(agent, cmp_big, m, big)
            if not _implies(model, premise, conclusion):
                bad += 1
    return bad


def validity2_violations(samples: int, seed: int) -> int:
    """Dually, low uncertainty on the larger set bounds the smaller one:
    <m, <=m and =m on the superset force <m (resp. <=m) on the subset."""
    rng = Random(seed)
    bad = 0
    for _ in range(samples):
        model = random_cegm(rng)
        agent = rng.choice(model.agents)
        small, big = _nested_sets(rng, model)
        m = _threshold(rng)
        for cmp_big, cmp_small in (("<", "<"), ("<=", "<="), ("=", "<=")):
            premise = Hartley(agent, cmp_big, m, big)
            conclusion = Hartley(agent, cmp_small, m, small)
            if not _implies(model, premise, conclusion):
                bad += 1
    return bad


def hartley_bound_violations(samples: int, seed: int) -> int:
    """Pattern counts never exceed 2^|members|, the class size, or the
    state count."""
    rng = Random(seed)
    bad = 0
    for _ in range(samples):
        model = random_cegm(rng)
        agent = rng.choice(model.agents)
        members = _members(rng, model, rng.randint(1, 3))
        beta_labels = [label(model, f)[f] for f in members]
        for q in model.states:
            k = hartley_classes(model, agent, q, beta_labels)
            cap = min(2 ** len(members), len(model.epistemic_class(agent, q)))
            if not 1 <= k <= min(cap, len(model.states)):
                bad += 1
    return bad


def knowledge_bridge_violations(samples: int, seed: int) -> int:
    """K[a] f coincides with f & H[a] = log(1) {f} at every state."""
    rng = Random(seed)
    bad = 0
    for _ in range(samples):
        model = random_cegm(rng)
        agent = rng.choice(model.agents)
        f = random_formula(rng, model.props, model.agents, depth=2, strategic_budget=1)
        knows = Knows(agent, f)
        bridge = And(f, Hartley(agent, "=", LogOfCount(1), (f,)))
        if label(model, knows)[knows] != label(model, bridge)[bridge]:
            bad += 1
    return bad


def reflexive_collapse_violations(samples: int, seed: int) -> int:
    """On self-loop-only models, strategic operators reduce to mutual
    knowledge of their goals under subjective success."""
    rng = Random(seed)
    opts = CheckOptions(success_scope="subjective")
    bad = 0
    for _ in range(samples):
        model = random_cegm(rng, reflexive=True)
        f = random_formula(rng, model.props, model.agents, depth=3, strategic_budget=1)
        g = reflexive_collapse(f)
        if label(model, f, opts)[f] != label(model, g, opts)[g]:
            bad += 1
    return bad


def until_monotonicity_violations(samples: int, seed: int) -> int:
    """Every state satisfying the goal satisfies the until formula."""
    rng = Random(seed)
    bad = 0
    for _ in range(samples):
        model = random_cegm(rng)
        hold = random_formula(rng, model.props, model.agents, depth=2, strategic_budget=0)
        goal = random_formula(rng, model.props, model.agents, depth=2, strategic_budget=0)
        coalition = tuple(a for a in model.agents if rng.random() < 0.5)
        until = CoalU(coalition, hold, goal)
        if not label(model, goal)[goal] <= label(model, until)[until]:
            bad += 1
    return bad


_ORACLE_OPTS = (
    CheckOptions(),
    CheckOptions(strategy_mode="Ir"),
    CheckOptions(success_scope="subjective"),
    CheckOptions(strategy_mode="Ir", success_scope="subjective"),
)


def _path_condition(f):
    """The oracle's name for a strategic root's path condition, and its
    subformulas; None for any other formula."""
    match f:
        case CoalX(_, sub):
            return "X", [sub]
        case CoalG(_, sub):
            return "G", [sub]
        case CoalU(_, hold, goal):
            return "U", [hold, goal]
        case CoalFG(_, goal, inv):
            return "FG", [goal, inv]
    return None


def oracle_first_winner(model, state, f, opts):
    """First strategy in `enumerate_strategies` order that the oracle's walk
    judges winning for the strategic root `f` from `state`, or None."""
    kind, subs = _path_condition(f)
    args = [oracle_label(model, s, opts.strategy_mode, opts.success_scope) for s in subs]
    for strategy in enumerate_strategies(model, f.coalition, opts):
        if strategy_wins(model, state, strategy.actions, kind, args, opts.success_scope):
            return strategy
    return None


def _actions(strategy):
    return None if strategy is None else strategy.actions


def oracle_disagreements(samples: int, seed: int) -> int:
    """Bitmask strategy enumeration versus the brute-force set oracle: the
    labels, and for a strategic root the first winner at the initial state,
    which an oracle that pairs profiles with the wrong targets can miss
    even where the labels agree."""
    rng = Random(seed)
    bad = 0
    for i in range(samples):
        model = random_cegm(rng)
        f = random_formula(rng, model.props, model.agents, depth=3, strategic_budget=1)
        opts = _ORACLE_OPTS[i % len(_ORACLE_OPTS)]
        if label(model, f, opts)[f] != oracle_label(
            model, f, opts.strategy_mode, opts.success_scope
        ):
            bad += 1
        elif _path_condition(f):
            got = find_witness(model, model.initial, f, opts)
            want = oracle_first_winner(model, model.initial, f, opts)
            bad += _actions(got) != _actions(want)
    return bad
