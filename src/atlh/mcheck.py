"""Bottom-up labeling model checker for strategic-epistemic formulas.

Subformulas are evaluated children first, in the order of
`subformula_rows` (a post-order walk, each distinct subformula once), so
every operator sees its arguments as already-computed state sets (bitmasks
over the model's state order). A strategic operator's state set is the
union, over the coalition's memoryless strategies, of the states each
strategy validates; one search, `_search`, computes it for `label`,
`check`, `find_witness` and `atlh check`.

Its bound is the winning region of the game in which every state may use
any of its coalition moves: a controllable-predecessor fixpoint (X one
step, G greatest, U least; `F (x & G y)` is U towards the states of `x`
inside the G-region of `y`). For X, G and U on a per-state engine (all of
`Ir`, and `ir` wherever uniformity constrains nothing, as in every bundled
scenario) the bound is the union. Otherwise a depth-first search over the
choice points, pruned by the same region with the choices made so far
fixed, looks for a winner from each wanted state the winners found so far
miss. A choice point the queried state's start set cannot reach keeps its
first action untested, and an action whose rows repeat an earlier, failed
action's is skipped.

One routine, `_narrow`, computes every region, with worklist fixpoints
over the engine's predecessor masks (`_shrink` for G, `_grow` for U) that
test a state again only after one of its successors changes. From scratch
it starts from the all-states triple with every state marked fixed; after
a choice point is fixed, from the previous triple with only that point's
states (and any left pending) marked.

A witness is always the first strategy, in `enumerate_strategies` order,
that validates the queried state: the first one that search reaches. It
is searched for only when asked for (`find_witness`, `atlh check`), or
when the bound is not the union.

Each labelling pass builds one coalition engine per coalition, from what
the model built once: its choice points are the model's class masks
(`Cegm.class_masks`) in `ir` mode and single states in `Ir` mode, and its
predecessor masks are the model's (`Cegm.preds`). Its one table, the
successor masks per state, starts as the model's move table (`Cegm.moves`,
target bits in the product order of the agents' menus). Only the rows where
the opponents have several choices are merged, one group of rows with the
same menus (`Cegm.menus`) at a time. No row records an action: its position
in product order is the action. Every search reads that table by state
index. Engines point at their model and are never kept on it.
"""

from __future__ import annotations

import decimal
import math
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import compress, product, repeat
from operator import itemgetter, or_

from .cegm import Cegm
from .formula import (
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
    Threshold,
    TrueF,
    printed_order,
    row_texts,
    subformula_rows,
)


class CheckError(ValueError):
    """Raised when a formula does not fit the model (unknown atom or agent)."""


class CheckOptions(namedtuple("CheckOptions", "strategy_mode success_scope")):
    """Strategy mode (`ir` uniform / `Ir` unrestricted) and success scope.

    Objective scope requires the path condition from the queried state only;
    subjective scope requires it from every state some coalition member
    considers possible there.
    """

    __slots__ = ()

    def __new__(cls, strategy_mode: str = "ir", success_scope: str = "objective"):
        if strategy_mode not in ("ir", "Ir"):
            raise CheckError(f"unknown strategy mode {strategy_mode!r}")
        if success_scope not in ("objective", "subjective"):
            raise CheckError(f"unknown success scope {success_scope!r}")
        return super().__new__(cls, strategy_mode, success_scope)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through it
        return cls(*iterable)


class Strategy:
    """A memoryless collective strategy: one action per coalition agent and state."""

    def __init__(self, coalition: tuple[str, ...], actions: dict):
        self.coalition = coalition
        self.actions = actions  # agent -> {state -> action}

    def action(self, agent: str, state: str) -> str:
        return self.actions[agent][state]

    def __str__(self) -> str:
        if not self.coalition:
            return "(empty coalition)"
        parts = []
        for a in self.coalition:
            moves = " ".join(f"{q}={x}" for q, x in self.actions[a].items())
            parts.append(f"{a}: {moves}")
        return "; ".join(parts)


# ---------------------------------------------------------------------------
# Exact threshold comparison


def _cmp(value_cmp: str, left, right) -> bool:
    if value_cmp == "<":
        return left < right
    if value_cmp == "<=":
        return left <= right
    if value_cmp == ">":
        return left > right
    if value_cmp == ">=":
        return left >= right
    return left == right


def compare_log(count: int, cmp: str, threshold: Threshold) -> bool:
    """Decide log2(count) <cmp> threshold exactly.

    A `log(k)` threshold reduces to comparing count against k. A rational
    threshold is settled by bit lengths when it lies outside [bl - 1, bl),
    where bl is the bit length of count, and a power-of-two count has the
    exact logarithm bl - 1. Any other count has an irrational logarithm, so
    it differs from the threshold and `_log2_above` separates the two by
    rounding-error bounds, never by exponentiating.
    """
    if count < 1:
        raise CheckError(f"class count must be positive, got {count}")
    if isinstance(threshold, LogOfCount):
        return _cmp(cmp, count, threshold.count)
    value = threshold.value
    bl = count.bit_length()
    if count == 1 << (bl - 1):
        return _cmp(cmp, bl - 1, value)
    if value < bl - 1:
        return _cmp(cmp, 1, 0)
    if value >= bl:
        return _cmp(cmp, 0, 1)
    return _cmp(cmp, 1, 0) if _log2_above(count, value) else _cmp(cmp, 0, 1)


def _log2_above(count: int, value: Fraction) -> bool:
    """Is log2(count) > value, given that the two differ and value < bl?

    A float estimate decides when the gap exceeds its error many times over;
    otherwise `decimal` recomputes both sides, doubling the precision until
    the gap exceeds the rounding error bound (about 3 units in the last
    place of numbers below bl, so `bl * 10**(2 - prec)` has a wide margin).
    """
    bl = count.bit_length()
    gap = math.log2(count) - float(value)
    if abs(gap) > 1e-9 * bl:
        return gap > 0
    prec = 40
    while True:
        ctx = decimal.Context(prec=prec)
        log2 = ctx.divide(ctx.ln(count), ctx.ln(2))
        gap = ctx.subtract(log2, ctx.divide(value.numerator, value.denominator))
        if abs(gap) > bl * decimal.Decimal(10) ** (2 - prec):
            return gap > 0
        prec *= 2


# ---------------------------------------------------------------------------
# Epistemic and uncertainty evaluation on bitmasks


def _class_count(cls_mask: int, beta_masks) -> int:
    """Number of distinct valuation patterns of `beta_masks` on the states of
    `cls_mask`: the non-empty cells left after splitting it by each mask."""
    cells = [cls_mask]
    for m in beta_masks:
        cells = [c for x in cells for c in (x & m, x & ~m) if c]
    return len(cells)


def hartley_classes(model: Cegm, agent: str, state: str, beta_labels) -> int:
    """Number of distinct valuation patterns of `beta_labels` inside the
    agent's epistemic class at `state`."""
    masks = [model.mask(labels) for labels in beta_labels]
    return _class_count(model.class_entry(agent, state)[1], masks)


# ---------------------------------------------------------------------------
# Strategic operators


class _CoalitionEngine:
    """Choice points and the successor table for one coalition on one model.

    A strategy is a tuple of actions, one per choice point (an epistemic
    class in `ir` mode, a single state in `Ir` mode, per coalition agent). A
    choice point is `(agent, state indices ascending, actions, state mask)`;
    in `ir` mode the indices and mask are the model's (`Cegm.class_masks`);
    the points come in agent order. `succs[i]` holds, per coalition choice
    at state i in the product order of the members' menus, the states
    reachable under any opponent response: the model's row (`Cegm.moves`)
    where the opponents have one choice, else its targets merged by
    position, the same positions for all rows with the same menus
    (`Cegm.menus[i]`). `preds` is the model's (`Cegm.preds`). Both are
    built once; the searches read them and never rebuild them.
    """

    def __init__(self, model: Cegm, coalition, mode: str):
        self.model = model
        members = set(coalition)
        self.coalition = tuple(a for a in model.agents if a in members)
        cols = [j for j, a in enumerate(model.agents) if a in members]
        menus = model.menus
        n = len(menus)
        self.choice_points = points = []
        # strategies are free per state: no uniformity constraint binds
        self.per_state = True
        for j in cols:
            a = model.agents[j]
            if mode == "Ir":
                single = map((1).__lshift__, range(n))
                points += zip(repeat(a), zip(range(n)), map(itemgetter(j), menus), single)
                continue
            for idx, mask in model.class_masks[a]:
                options = menus[idx[0]][j]
                if len(idx) > 1 and len(options) > 1:
                    self.per_state = False
                points.append((a, idx, options, mask))
        rows = model.moves
        self.succs = succs = list(rows)
        # merge the rows where the opponents have several choices, one
        # group of rows with the same menus at a time
        groups = {}
        for i in compress(range(n), map((1).__lt__, map(len, rows))):
            groups.setdefault(menus[i], []).append(i)
        for column, idxs in groups.items():
            choices = math.prod(len(column[j]) for j in cols)
            if choices == len(rows[idxs[0]]):
                continue
            targets = list(map(rows.__getitem__, idxs))
            if choices == 1:
                merged = zip(map(reduce, repeat(or_), targets))
            else:
                # the positions of each choice's joint actions, two or more;
                # the choices first appear in their own product order
                pick = itemgetter(*cols)
                spots = {}
                for p, profile in enumerate(product(*column)):
                    spots.setdefault(pick(profile), []).append(p)
                gets = [itemgetter(*ps) for ps in spots.values()]
                merged = zip(*[map(reduce, repeat(or_), map(get, targets)) for get in gets])
            for i, masks in zip(idxs, merged):
                succs[i] = masks
        self.preds = model.preds
        self._start_masks = None

    def start_masks(self) -> list[int]:
        """Subjective start set per state: union of members' classes."""
        if self._start_masks is None:
            masks = [0] * len(self.model.states)
            for a in self.coalition:
                for idx, mask in self.model.class_masks[a]:
                    for i in idx:
                        masks[i] |= mask
            self._start_masks = masks
        return self._start_masks

    def strategy_from(self, choices) -> Strategy:
        states = self.model.states
        rows = {a: [None] * len(states) for a in self.coalition}
        for (agent, idx, _, _), chosen in zip(self.choice_points, choices):
            row = rows[agent]
            for i in idx:
                row[i] = chosen
        return Strategy(self.coalition, {a: dict(zip(states, rows[a])) for a in self.coalition})


def _gather(table, mask: int) -> int:
    """Union of `table[i]` over the set bits `i` of `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _cpre(succs, z: int, cand: int) -> int:
    """States in `cand` where some coalition move keeps every successor in `z`."""
    out = 0
    bad = ~z
    while cand:
        low = cand & -cand
        for m in succs[low.bit_length() - 1]:
            if not m & bad:
                out |= low
                break
        cand ^= low
    return out


def _shrink(succs, pred, z: int, dirty: int) -> int:
    """Greatest fixpoint of `_cpre` below `z`, where every state of `z`
    outside `dirty` keeps a move into `z` (as when `z` was the fixpoint
    before the states in `dirty` lost moves): only the states in `dirty`,
    and then the predecessors of the states dropped, are tested again.
    With `dirty` covering `z` it is the fixpoint from scratch."""
    dirty &= z
    while dirty:
        lost = dirty & ~_cpre(succs, z, dirty)
        z &= ~lost
        dirty = _gather(pred, lost) & z
    return z


def _grow(succs, pred, hold: int, goal: int, z: int, seeds: int) -> int:
    """Least U-fixpoint (`hold`, `goal`) inside `z`, which was the fixpoint
    before the states in `seeds` lost moves or left the goal. A state of `z`
    outside the backward closure of the seeds inside `z` wins as before: it
    keeps all its moves, and none of its successors lies in the closure. So
    the fixpoint restarts from those states and the goal, and tests only
    states in the closure. With `seeds` covering `z` it restarts from the
    goal alone: the fixpoint from scratch."""
    cut = frontier = seeds & z
    while frontier and cut != z:
        frontier = _gather(pred, frontier) & z & ~cut
        cut |= frontier
    z = (z & ~cut) | goal
    cand = cut & hold & ~z
    while cand:
        won = _cpre(succs, z, cand)
        z |= won
        cand = _gather(pred, won) & cut & hold & ~z
    return z


def _narrow(engine: _CoalitionEngine, succs, kind: str, args, scope: str, now, fixed: int):
    """`now` is `(region, gpart, valid)`: the winning region, for FG the
    G-region of the invariant whose goal states it reaches (0 for the other
    kinds), and the states whose start set lies inside the region, all for
    the moves before the states in `fixed` lost some of theirs. Returns the
    same triple for `succs`, recomputed only on the states whose membership
    the lost moves can change.

    This is the one routine that computes a region: from the all-states
    triple `(full, full, full)` with every state fixed it computes the
    triple from scratch, with the same worklist fixpoints."""
    region, gpart, valid = now
    pred = engine.preds
    if kind == "X":
        test = fixed & region
        w, g = region & ~(test & ~_cpre(succs, args[0], test)), 0
    elif kind == "G":
        w, g = _shrink(succs, pred, region & args[0], fixed), 0
    elif kind == "U":
        w, g = _grow(succs, pred, args[0], args[1], region, fixed), 0
    else:
        goal, inv = args
        g = _shrink(succs, pred, gpart & inv, fixed)
        seeds = fixed | goal & gpart & ~g
        w = _grow(succs, pred, (1 << len(succs)) - 1, goal & g, region, seeds)
    if scope == "objective":
        return w, g, w
    # start sets are unions of the members' classes, so i's holds j exactly
    # when j's holds i: the states whose start set lost a state are those
    # in the start sets of the states lost
    return w, g, valid & ~_gather(engine.start_masks(), region & ~w)


def _reachable(succs, start: int) -> int:
    """States some path under the moves in `succs` reaches from `start`."""
    seen = frontier = start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        for m in succs[low.bit_length() - 1]:
            new = m & ~seen
            seen |= new
            frontier |= new
    return seen


def _first_winner(
    engine: _CoalitionEngine, kind: str, args, scope: str, at: int, now, exact: bool
):
    """First choice tuple, in `enumerate_strategies` order, whose validated
    states include state index `at`, with those states, or None if there is
    none.
    `now` is `_narrow`'s triple with no choice fixed, the one `_search`
    computed from scratch; it must validate `at`.

    A depth-first search fixes one choice point at a time, trying actions in
    declaration order. A prefix is pruned when the region with its choices
    fixed, and every later choice point left free per state, does not
    validate `at`: a strategy extending the prefix keeps one of those moves
    per state, and every kind's region only shrinks as moves are removed.
    With every choice fixed the region is the strategy's own, so the first
    complete prefix is the winner. Only the fixed states' move lists change,
    and `_narrow`, the routine that computed `now`, recomputes the region
    only on the states whose membership that can change; every other state
    keeps the parent prefix's value.

    Choice points are fixed in agent order, and each row lists the choices
    in the product order of the members' menus, so at a member's choice
    point a row is the product of that member's menu and the menus of the
    members after it. Fixing the member to its `i`-th of `n` options keeps
    the contiguous block `row[i * B:(i + 1) * B]`, `B = len(row) // n`.

    An action is skipped, untested, when at every state of the choice point
    the block it leaves equals the block some earlier action left.
    Backtracking reached it, so that earlier action's subtree held no
    winner, and this one's subtree is the same search: both blocks are
    products of the later members' menus, so they line up row for row.

    With `exact` (a per-state engine, and X, G or U) the region of every
    prefix is exact, since one strategy wins on the whole region of a
    per-state game, so the search never backtracks. Two cases then need no
    test. The last action: one of the actions must keep a winner. A state
    outside the region: restricting its moves leaves the X, least-U and
    greatest-G regions as they are, so the first action keeps them. (Not so
    for FG: a state outside the U-region can lie inside the G-region that a
    goal state needs.) The states returned are then a superset of the
    winner's; without `exact` they are the winner's own.

    Without `exact` a choice point none of whose states the start set (`at`,
    or in subjective scope the states of its start set) reaches under the
    moves left keeps its first action, untested, and is never revisited:
    whether a strategy extending the prefix validates `at` does not depend
    on it, so the first winner, if any, plays its first action there.
    """
    # fixing a choice point replaces its states' rows; backtracking puts
    # the rows it replaced back
    succs = list(engine.succs)
    points = engine.choice_points
    pending = 0  # states fixed, untested, since `now` was computed
    reach = None
    if not exact:
        start = 1 << at if scope == "objective" else engine.start_masks()[at]
        reach = _reachable(succs, start)
    # per fixed choice point: action index, index to resume from on
    # backtrack, the rows it replaced, the search state before it, and the
    # rows each action tried there left before it
    stack = []
    i = 0
    tried = []
    while len(stack) < len(points):
        _, idx, options, fixed = points[len(stack)]
        n = len(options)
        saved = now, pending, reach
        if n == 1 and i == 0:
            stack.append((0, 1, (), saved, ()))
            continue
        if i < n:
            kept = [(q, succs[q]) for q in idx]
            # each row's block for the i-th option: i * B up to (i + 1) * B
            left = [row[i * len(row) // n : (i + 1) * len(row) // n] for _, row in kept]
            if left in tried:
                i += 1
                continue
            unreached = i == 0 and reach is not None and not fixed & reach
            stack.append((i, n if unreached else i + 1, kept, saved, tried))
            last, i, tried = i == n - 1, 0, []
            for q, row in zip(idx, left):
                succs[q] = row
            if unreached or exact and (last or not now[0] & fixed):
                pending |= fixed
                continue
            nxt = _narrow(engine, succs, kind, args, scope, now, pending | fixed)
            if nxt[2] >> at & 1:
                now, pending = nxt, 0
                if reach is not None and fixed & reach:
                    reach = _reachable(succs, start)
                continue
        # no action left here, or this one is pruned: undo the last choice
        if not stack:
            return None
        _, i, kept, (now, pending, reach), tried = stack.pop()
        tried = [*tried, [succs[q] for q, _ in kept]]
        for q, row in kept:
            succs[q] = row
    if pending and not exact:
        now = _narrow(engine, succs, kind, args, scope, now, pending)
    return tuple(points[k][2][frame[0]] for k, frame in enumerate(stack)), now[2]


def _search(engine: _CoalitionEngine, kind: str, args, scope: str, want: int, at):
    """Union of the states each strategy validates, exact on `want`, and the
    first strategy (a choice tuple, in `enumerate_strategies` order) whose
    validated states include state index `at`; `at=None` asks for no
    strategy.

    The bound is the region of the game in which each state may use any of
    its coalition moves: every strategy wins inside it. `_narrow` computes
    it from the all-states triple with every state fixed, the same routine
    that recomputes it after each fix in `_first_winner`. On a per-state
    engine with X, G or U it is the union, since one strategy then wins on
    the whole region. Otherwise `_first_winner` runs from each wanted state
    in the bound that no winner found so far validates, and the union is
    that of the winners found.
    """
    full = engine.model.full_mask
    now = _narrow(engine, engine.succs, kind, args, scope, (full, full, full), full)
    bound = now[2]
    exact = engine.per_state and kind != "FG"
    first = None
    union = 0
    todo = want & bound
    if at is not None and bound >> at & 1:
        found = _first_winner(engine, kind, args, scope, at, now, exact)
        if found is not None:
            first, union = found
        todo &= ~(1 << at)
    if exact:
        return bound, first
    todo &= ~union
    while todo:
        q = (todo & -todo).bit_length() - 1
        found = _first_winner(engine, kind, args, scope, q, now, False)
        if found is not None:
            union |= found[1]
        todo &= ~union & ~(1 << q)
    return union, first


def enumerate_strategies(model: Cegm, coalition, opts: CheckOptions | None = None):
    """Yield each collective strategy exactly once, in deterministic order."""
    opts = opts or CheckOptions()
    _require_agents(model, coalition)
    engine = _CoalitionEngine(model, coalition, opts.strategy_mode)
    for choices in product(*(options for (_, _, options, _) in engine.choice_points)):
        yield engine.strategy_from(choices)


# ---------------------------------------------------------------------------
# Labeling


def _require_agents(model: Cegm, agents) -> None:
    for a in agents:
        if a not in model.actions:
            raise CheckError(f"unknown agent {a}")


def _knows_mask(model: Cegm, agent: str, sub: int) -> int:
    out = 0
    for _, cm in model.class_masks[agent]:
        if cm & ~sub == 0:
            out |= cm
    return out


def _hartley_mask(model: Cegm, g: Hartley, beta_masks) -> int:
    out = 0
    for _, cm in model.class_masks[g.agent]:
        if compare_log(_class_count(cm, beta_masks), g.cmp, g.threshold):
            out |= cm
    return out


_KINDS = {CoalX: "X", CoalG: "G", CoalU: "U", CoalFG: "FG"}


def _fault(model: Cegm, nodes) -> str | None:
    """Why the first of `nodes` that cannot be labelled on `model`, its
    children aside, cannot be; None if every one can.

    One test of the node's class per node, the most frequent classes first.
    A class outside `Formula` is a fault, so labelling may take every class
    it does not name for a strategic operator.
    """
    valuation, actions = model.valuation, model.actions
    for g in nodes:
        t = type(g)
        if t is And or t is Not or t is Or:
            continue
        if t is Atom:
            if g.name not in valuation:
                return f"unknown atom {g.name}"
        elif t is Hartley or t is Knows:
            if g.agent not in actions:
                return f"unknown agent {g.agent}"
        elif t is MutualKnows or t in _KINDS:
            for a in g.coalition:
                if a not in actions:
                    return f"unknown agent {a}"
        elif t is not TrueF and t is not FalseF:
            return f"cannot label {g!r}"
    return None


def label_masks(
    model: Cegm, f: Formula, opts: CheckOptions, state=None, exact=True, witness=False
):
    """`subformula_rows(f)`, the bitmask of each row's subformula, and, with
    `witness`, the witness at `state`: the first strategy, in enumeration
    order, that validates a strategic root there (None if the root is not
    strategic or is false there, and always None without `witness`).

    A row is `(node, row numbers of its children)`, children before parents
    and `f` last, so the last mask is the root's. `row_texts` and
    `printed_order` give the rows' texts and the order atlh prints them in.

    With `exact=False` the root's search stops once it validates `state`,
    so the root's mask is exact at `state` only. Every other mask is exact.

    Every row is checked against the model (`_fault`) before any is
    labelled. A formula with several unknown names is reported by the first
    faulty subformula in printed order; the rows are printed only then.
    Each row is labelled after one test of its node's class, the most
    frequent classes first, and reads its children's masks by row number.
    """
    at = None
    if state is not None:
        if state not in model.state_index:
            raise CheckError(f"unknown state {state}")
        at = model.state_index[state]
    rows = subformula_rows(f)
    if _fault(model, map(itemgetter(0), rows)):
        order = printed_order(rows, row_texts(rows))
        raise CheckError(_fault(model, [rows[i][0] for i in order]))
    full = model.full_mask
    want = full if exact or at is None else 1 << at
    witness_at = at if witness else None
    engines: dict = {}
    masks: list[int] = []
    found = None
    for g, kids in rows:
        t = type(g)
        if t is And:
            mask = masks[kids[0]] & masks[kids[1]]
        elif t is Atom:
            mask = model.mask(model.valuation[g.name])
        elif t is Not:
            mask = full & ~masks[kids[0]]
        elif t is Or:
            mask = masks[kids[0]] | masks[kids[1]]
        elif t is Hartley:
            mask = _hartley_mask(model, g, [masks[k] for k in kids])
        elif t is Knows:
            mask = _knows_mask(model, g.agent, masks[kids[0]])
        elif t is MutualKnows:
            mask = full
            for a in g.coalition:
                mask &= _knows_mask(model, a, masks[kids[0]])
        elif t is TrueF:
            mask = full
        elif t is FalseF:
            mask = 0
        else:  # a strategic operator: `_fault` passed no other class
            coal = g.coalition
            engine = engines.get(coal)
            if engine is None:
                engine = engines[coal] = _CoalitionEngine(model, coal, opts.strategy_mode)
            root = g is f
            mask, choices = _search(
                engine, _KINDS[t], [masks[k] for k in kids], opts.success_scope,
                want if root else full, witness_at if root else None,
            )
            if choices is not None:
                found = engine.strategy_from(choices)
        masks.append(mask)
    return rows, masks, found


def label(model: Cegm, f: Formula, opts: CheckOptions | None = None) -> dict:
    """State sets for every subformula of `f`, keyed by subformula, in the
    order of `subformula_rows(f)`: children before parents, `f` last."""
    rows, masks, _ = label_masks(model, f, opts or CheckOptions())
    return {g: frozenset(model.states_of(m)) for (g, _), m in zip(rows, masks)}


def check(model: Cegm, state: str, f: Formula, opts: CheckOptions | None = None) -> bool:
    """Does `f` hold at `state`?"""
    _, masks, _ = label_masks(model, f, opts or CheckOptions(), state, exact=False)
    return bool(masks[-1] >> model.state_index[state] & 1)


def find_witness(model: Cegm, state: str, f: Formula, opts: CheckOptions | None = None):
    """First strategy, in `enumerate_strategies` order, validating a
    top-level strategic formula at `state`.

    Returns None when `f` is not strategic at top level or no strategy works.
    """
    *_, witness = label_masks(model, f, opts or CheckOptions(), state, exact=False, witness=True)
    return witness
