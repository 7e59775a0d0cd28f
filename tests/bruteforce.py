"""Independent brute-force checker used as a test oracle.

Deliberately shares no evaluation code with atlh.mcheck: strategies are
enumerated per-state and filtered for uniformity, state sets are plain
frozensets, and path conditions are decided by walking the restricted graph
(memoized on state and remaining depth) instead of fixpoints on bitmasks.
Transitions are read from `model.moves`, a model's one record of them,
through the documented pairing with `product(*model.menus[i])`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from atlh import formula as fm
from atlh.mcheck import compare_log


def oracle_strategies(model, coalition, mode="ir"):
    """Every per-state action table for the coalition; uniform ones in ir mode."""
    agents = sorted(coalition)
    tables = []
    for a in agents:
        options = []
        for combo in product(*(model.avail(a, q) for q in model.states)):
            table = dict(zip(model.states, combo))
            if mode == "ir" and not _uniform(model, a, table):
                continue
            options.append(table)
        tables.append(options)
    for joint in product(*tables):
        yield dict(zip(agents, joint))


def _uniform(model, agent, table):
    for cls in model.epistemic_classes(agent):
        if len({table[q] for q in cls}) > 1:
            return False
    return True


@lru_cache(maxsize=8)
def transitions(model):
    """(state, profile) -> target state of every available joint action,
    read from `model.moves` through the documented pairing of
    `product(*model.menus[i])` with `model.moves[i]`."""
    return {
        (q, profile): model.states[bit.bit_length() - 1]
        for q, column, row in zip(model.states, model.menus, model.moves)
        for profile, bit in zip(product(*column), row)
    }


def _restricted_successors(model, strategy):
    """state -> frozenset of successors when the coalition plays `strategy`."""
    trans = transitions(model)
    succ = {}
    for q in model.states:
        targets = set()
        cols = []
        for a in model.agents:
            if a in strategy:
                cols.append((strategy[a][q],))
            else:
                cols.append(model.avail(a, q))
        for profile in product(*cols):
            targets.add(trans[q, profile])
        succ[q] = frozenset(targets)
    return succ


def _some_walk_escapes(succ, start, target, horizon):
    """Is there a walk from `start` that leaves `target` within `horizon` steps?"""
    memo = {}

    def go(q, depth):
        if q not in target:
            return True
        if depth == 0:
            return False
        key = (q, depth)
        if key not in memo:
            memo[key] = False  # guard against cycles while computing
            memo[key] = any(go(q2, depth - 1) for q2 in succ[q])
        return memo[key]

    return go(start, horizon)


def _some_walk_fails_until(succ, start, hold, goal, horizon):
    """Is there a walk from `start` that never certifies hold-until-goal?

    A walk certifies at the first goal state reached while every earlier
    state satisfied hold. Horizon |St|+1 suffices: any infinite failing path
    contains a failing walk of that length and vice versa.
    """
    memo = {}

    def go(q, depth):
        if q in goal:
            return False
        if q not in hold:
            return True
        if depth == 0:
            return True
        key = (q, depth)
        if key not in memo:
            memo[key] = True
            memo[key] = any(go(q2, depth - 1) for q2 in succ[q])
        return memo[key]

    return go(start, horizon)


def holds_strategically(model, state, coalition, kind, args, mode="ir", scope="objective"):
    """Oracle for one strategic operator: walk-based, all strategies tried."""
    return any(
        strategy_wins(model, state, strategy, kind, args, scope)
        for strategy in oracle_strategies(model, coalition, mode)
    )


def strategy_wins(model, state, strategy, kind, args, scope="objective"):
    """Does `strategy` (coalition agent -> state -> action) meet the condition
    on every path from each of `state`'s start states?"""
    if scope == "objective":
        starts = [state]
    else:
        starts = sorted(
            set().union(*(model.epistemic_class(a, state) for a in strategy))
            if strategy
            else set()
        )
    succ = _restricted_successors(model, strategy)
    horizon = len(model.states) + 1
    all_states = frozenset(model.states)
    return all(_start_ok(succ, q, kind, args, horizon, all_states) for q in starts)


def _start_ok(succ, start, kind, args, horizon, all_states):
    if kind == "X":
        return succ[start] <= args[0]
    if kind == "G":
        return not _some_walk_escapes(succ, start, args[0], horizon)
    if kind == "U":
        return not _some_walk_fails_until(succ, start, args[0], args[1], horizon)
    if kind == "FG":
        goal, invariant = args
        safe = {
            q
            for q in goal
            if not _some_walk_escapes(succ, q, invariant, horizon)
        }
        return not _some_walk_fails_until(succ, start, all_states, safe, horizon)
    raise ValueError(f"unknown kind {kind!r}")


def oracle_label(model, f, mode="ir", scope="objective"):
    """States satisfying `f`, by naive set-based recursion."""
    match f:
        case fm.Atom(name):
            return frozenset(model.valuation[name])
        case fm.TrueF():
            return frozenset(model.states)
        case fm.FalseF():
            return frozenset(model.states) - oracle_label(model, fm.TrueF(), mode, scope)
        case fm.Not(sub):
            return frozenset(model.states) - oracle_label(model, sub, mode, scope)
        case fm.And(left, right):
            return oracle_label(model, left, mode, scope) & oracle_label(model, right, mode, scope)
        case fm.Or(left, right):
            return oracle_label(model, left, mode, scope) | oracle_label(model, right, mode, scope)
        case fm.Knows(agent, sub):
            good = oracle_label(model, sub, mode, scope)
            return frozenset(
                q for q in model.states if model.epistemic_class(agent, q) <= good
            )
        case fm.MutualKnows(coal, sub):
            result = frozenset(model.states)
            for a in coal:
                result &= oracle_label(model, fm.Knows(a, sub), mode, scope)
            return result
        case fm.Hartley(agent, cmp, threshold, beta):
            labels = [oracle_label(model, b, mode, scope) for b in beta]
            out = set()
            for q in model.states:
                patterns = {
                    tuple(q2 in lab for lab in labels)
                    for q2 in model.epistemic_class(agent, q)
                }
                if compare_log(len(patterns), cmp, threshold):
                    out.add(q)
            return frozenset(out)
        case fm.CoalX(coal, sub):
            args = [oracle_label(model, sub, mode, scope)]
            return _strategic_set(model, coal, "X", args, mode, scope)
        case fm.CoalG(coal, sub):
            args = [oracle_label(model, sub, mode, scope)]
            return _strategic_set(model, coal, "G", args, mode, scope)
        case fm.CoalU(coal, hold, goal):
            args = [oracle_label(model, hold, mode, scope), oracle_label(model, goal, mode, scope)]
            return _strategic_set(model, coal, "U", args, mode, scope)
        case fm.CoalFG(coal, goal, inv):
            args = [oracle_label(model, goal, mode, scope), oracle_label(model, inv, mode, scope)]
            return _strategic_set(model, coal, "FG", args, mode, scope)
    raise ValueError(f"cannot label {f!r}")


def _strategic_set(model, coalition, kind, args, mode, scope):
    return frozenset(
        q
        for q in model.states
        if holds_strategically(model, q, coalition, kind, args, mode, scope)
    )


def reflexive_collapse(f):
    """Rewrite strategic operators for models whose transitions are all
    self-loops: under subjective success they reduce to mutual knowledge of
    the reachability goal (vacuous truth for the empty coalition)."""

    def goal_of(coalition, goal):
        if not coalition:
            return fm.TrueF()
        return fm.MutualKnows(coalition, goal)

    match f:
        case fm.CoalX(coal, sub) | fm.CoalG(coal, sub):
            return goal_of(coal, reflexive_collapse(sub))
        case fm.CoalU(coal, _, goal):
            return goal_of(coal, reflexive_collapse(goal))
        case fm.CoalFG(coal, goal, inv):
            return goal_of(
                coal, fm.And(reflexive_collapse(goal), reflexive_collapse(inv))
            )
        case fm.Not(sub):
            return fm.Not(reflexive_collapse(sub))
        case fm.And(left, right):
            return fm.And(reflexive_collapse(left), reflexive_collapse(right))
        case fm.Or(left, right):
            return fm.Or(reflexive_collapse(left), reflexive_collapse(right))
        case fm.Knows(agent, sub):
            return fm.Knows(agent, reflexive_collapse(sub))
        case fm.MutualKnows(coal, sub):
            return fm.MutualKnows(coal, reflexive_collapse(sub))
        case fm.Hartley():
            return f
        case _:
            return f
