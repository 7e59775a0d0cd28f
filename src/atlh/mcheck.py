"""Bottom-up labeling model checker for strategic-epistemic formulas.

Subformulas are evaluated children first, in the order of
`subformula_rows` (a post-order walk, each distinct subformula once), so
every operator sees its arguments as already-computed state sets (bitmasks
over the model's state order). A strategic operator's state set is the
union, over the coalition's memoryless strategies, of the states each
strategy validates; one search, `_search`, computes it for `label`,
`check`, `find_witness` and `atlh check`.

A strategy mode is the partition a member's memoryless strategy is uniform
over: its epistemic classes (`ir`) or single states (`Ir`). A choice point
is a block of it where a member has two or more actions; a strategy picks
one action at each and plays the one available action elsewhere, so the
choice points span the strategy space. A success scope gives each state the
start set a strategy must win from: the state itself (objective), or the
states some member considers possible there (subjective).

The search's bound is the winning region of the game in which every state
may use any of its coalition moves: a controllable-predecessor fixpoint (X
one step, G greatest, U least; `F (x & G y)` is U towards the states of `x`
inside the G-region of `y`). For X, G and U on a per-state engine (no
choice point spans two states: all of `Ir`, and `ir` in every bundled
scenario) the bound is the union, and the witness search fixes the choice
points in order without backtracking: each point's actions are decided
from at most one recomputed region, that with the point's state cut off,
and a test of the state's moves against a target set. Otherwise a
depth-first search over the choice points, pruned by the same region with
the choices made so far fixed, looks for a winner from each wanted state
the winners found so far miss. A choice point the queried state's start
set cannot reach keeps its first action untested, and an action whose
rows repeat an earlier, failed action's is skipped.

One routine, `_narrow`, computes every region, with worklist fixpoints
over the engine's predecessor masks (`_shrink` for G, `_grow` for U) that
test a state again only after one of its successors changes. From scratch
it starts from the all-states triple with every state marked fixed; after
a choice point is fixed, or its state's row emptied, from the previous
triple with only that point's states (and, in the depth-first search, any
left pending) marked.

A witness is always the first strategy, in `enumerate_strategies` order,
that validates the queried state: the first one either search reaches. It
is searched for only when asked for (`find_witness`, `atlh check`), or
when the bound is not the union.

Each labelling pass builds one coalition engine per coalition from its
`CheckOptions`, the one place either option is read, and from what the
model built once. Its choice points are the blocks of the mode's partition
(`Cegm.class_masks` in `ir`, `Cegm.singletons` in `Ir`) where the member's
menu (`Cegm.menus`) has two or more actions; in subjective scope it carries
the start sets. Its predecessor masks are the model's (`Cegm.preds`). Its
one table, the successor masks per state, starts as the model's move table
(`Cegm.moves`, target bits in the product order of the agents' menus).
Only the rows where the opponents have several choices are merged, one
group of rows with the same menus (`Cegm.menus`) at a time. No row records
an action: its position in product order is the action. Engines point at
their model and are never kept on it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from itertools import compress, product, repeat
from operator import eq, ge, gt, itemgetter, le, lt, or_

from .cegm import Cegm
from .formula import (
    CMPS,
    And,
    AtlhError,
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
    Threshold,
    TrueF,
    _length,
    _row_values,
    pretty_print,
    subformula_rows,
)

TYPE_CHECKING = False  # `typing.TYPE_CHECKING` without importing `typing`
if TYPE_CHECKING:
    from fractions import Fraction


# The strategy modes and success scopes, in the order `--help` lists them.
STRATEGY_MODES = ("ir", "Ir")
SUCCESS_SCOPES = ("objective", "subjective")


class CheckError(AtlhError):
    """Raised when a formula does not fit the model (unknown atom or agent)."""


class CheckOptions(namedtuple("CheckOptions", "strategy_mode success_scope")):
    """Strategy mode (`ir` uniform / `Ir` unrestricted) and success scope.

    Objective scope requires the path condition from the queried state only;
    subjective scope requires it from every state some coalition member
    considers possible there.
    """

    __slots__ = ()

    def __new__(cls, strategy_mode: str = "ir", success_scope: str = "objective"):
        if strategy_mode not in STRATEGY_MODES:
            raise CheckError(f"unknown strategy mode {strategy_mode!r}")
        if success_scope not in SUCCESS_SCOPES:
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


_CMP = dict(zip(CMPS, (lt, le, gt, ge, eq)))  # each comparison's operator


def compare_log(count: int, cmp: str, threshold: Threshold) -> bool:
    """Decide log2(count) <cmp> threshold exactly, for `cmp` one of `CMPS`;
    any other `cmp` raises CheckError.

    A `log(k)` threshold reduces to comparing count against k. A rational
    threshold is settled by bit lengths when it lies outside [bl - 1, bl),
    where bl is the bit length of count, and a power-of-two count has the
    exact logarithm bl - 1. Any other count has an irrational logarithm, so
    it differs from the threshold and `_log2_above` separates the two by
    rounding-error bounds, never by exponentiating.
    """
    if count < 1:
        raise CheckError(f"class count must be positive, got {count}")
    try:
        op = _CMP[cmp]
    except (KeyError, TypeError):  # TypeError: an unhashable `cmp`
        raise CheckError(f"unknown comparison {cmp!r}") from None
    if isinstance(threshold, LogOfCount):
        return op(count, threshold.count)
    value = threshold.value
    bl = count.bit_length()
    if count == 1 << (bl - 1):
        return op(bl - 1, value)
    if value < bl - 1:
        return op(1, 0)
    if value >= bl:
        return op(0, 1)
    return op(1, 0) if _log2_above(count, value) else op(0, 1)


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
    import decimal

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
    """Choice points, start sets and the successor table for one coalition
    on one model under one `CheckOptions`.

    A strategy is a tuple of actions, one per choice point: a block of the
    mode's partition where a coalition agent has two or more actions. A
    choice point is `(agent, state indices ascending, actions, state mask)`,
    the model's entry for the block; the points come in agent order, and
    `per_state` says that none spans two states. `starts[i]`, in subjective
    scope, is the union of the members' classes at state i; `starts` is None
    in objective scope. `succs[i]` holds, per coalition choice at state i in
    the product order of the members' menus, the states reachable under any
    opponent response: the model's row (`Cegm.moves`) where the opponents
    have one choice, else its targets merged by position, the same positions
    for all rows with the same menus (`Cegm.menus[i]`). `preds` is the
    model's (`Cegm.preds`). All are built once and never rebuilt.
    """

    def __init__(self, model: Cegm, coalition, opts: CheckOptions):
        self.model = model
        members = set(coalition)
        self.coalition = tuple(a for a in model.agents if a in members)
        cols = [j for j, a in enumerate(model.agents) if a in members]
        menus = model.menus
        n = len(menus)
        ir = opts.strategy_mode == "ir"
        self.choice_points = points = []
        wide = False  # some choice point spans two states
        for j in cols:
            a = model.agents[j]
            for idx, mask in model.class_masks[a] if ir else model.singletons:
                options = menus[idx[0]][j]
                if len(options) > 1:
                    points.append((a, idx, options, mask))
                    wide = wide or len(idx) > 1
        self.per_state = not wide  # strategies are free per state
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
        self.starts = None
        if opts.success_scope == "subjective":
            # each state's own bit, which every member's class holds, and
            # the members' classes of two or more states; the empty
            # coalition has no member, so its start sets stay empty
            starts = [bit for _, bit in model.singletons] if self.coalition else [0] * n
            self.starts = starts
            for a in self.coalition:
                for idx, mask in model.class_masks[a]:
                    if len(idx) > 1:
                        for i in idx:
                            starts[i] |= mask

    def strategy_from(self, choices) -> Strategy:
        """The strategy playing `choices`, one per choice point in order,
        and each member's one available action at every other state."""
        model = self.model
        states = model.states
        rows = {}
        for a in self.coalition:
            j = model.agents.index(a)
            rows[a] = [column[j][0] for column in model.menus]
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


def _narrow(engine: _CoalitionEngine, succs, kind: str, args, now, fixed: int):
    """`now` is `(region, gpart, valid)`: the winning region, for FG the
    G-region of the invariant whose goal states it reaches (0 for the other
    kinds), and the states whose start set (`engine.starts`, or the state
    alone in objective scope) lies inside the region, all for the moves
    before the states in `fixed` lost some of theirs. Returns the same
    triple for `succs`, recomputed only on the states whose membership the
    lost moves can change.

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
    if engine.starts is None:
        return w, g, w
    # start sets are unions of the members' classes, so i's holds j exactly
    # when j's holds i: the states whose start set lost a state are those
    # in the start sets of the states lost
    return w, g, valid & ~_gather(engine.starts, region & ~w)


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


def _per_state_winner(engine: _CoalitionEngine, kind: str, args, at: int, now):
    """First choice tuple, in `enumerate_strategies` order, whose validated
    states include state index `at`, on a per-state engine for X, G or U.
    `now` is `_narrow`'s triple with no choice fixed; it must validate `at`.

    Choice points are fixed one at a time, in order, and the region R of
    the moves left is kept exact after each, so the search never backtracks:
    one strategy wins on the whole region of a per-state game, so some
    action at the next point keeps R, and `at` with it. An action is
    accepted exactly when R with it fixed validates `at`. Fixing the point's
    state s only removes s's moves, and two cases settle every action from
    at most one recomputed region, W-: R with s's row emptied, the region of
    the moves left in which s has none.

    - s outside R, or (U) in the goal: no state's membership reads s's
      moves, so R is the region whatever s plays. The first action is kept,
      untested.
    - Otherwise s *stays* under an action when some move of its block keeps
      every successor inside a target, and then R is unchanged; s is lost
      under any other action, and R becomes W-.
      - X, target the X argument: the one-step test of s alone changes.
      - G, target R: if s stays, every state of R keeps a move into R,
        and removing moves only shrinks the greatest fixpoint, so R is it.
        If not, s has no move into R, so none into the new region inside
        it; with s out its moves do not matter, so the region is W-.
      - U, target W-: the moves left include W-'s, so their least
        fixpoint holds W-, and if s stays, s. It then holds the old moves'
        U step of itself (only s lost moves), so it holds R. If s does not
        stay, the U step of the moves left adds nothing to W- (s, in the
        hold set as every state of R outside the goal is, has no move into
        W-), so the region is W-. Some action stays: the move by which s
        enters R in the attractor leads to states that entered earlier,
        which win without s (Alur, Henzinger & Kupferman, JACM 2002).

    So the first action under which s stays, or under which W- validates
    `at`, is accepted. For X and G, W- is computed only when an action
    drops s; for U it is the target. Some action keeps s, so the last one
    is accepted untested when no earlier one is.

    Choice points are fixed in agent order, and each row lists the choices
    in the product order of the members' menus, so at a member's choice
    point a row is the product of that member's menu and the menus of the
    members after it. Fixing the member to its `i`-th of `n` options keeps
    the contiguous block `row[i * B:(i + 1) * B]`, `B = len(row) // n`.
    """
    succs = list(engine.succs)
    choices = []
    for _, (q,), options, bit in engine.choice_points:
        row = succs[q]
        n = len(options)
        size = len(row) // n
        pick = 0
        if now[0] & bit and not (kind == "U" and args[1] & bit):
            lost = None  # W-, once some action needs it
            if kind == "U":
                succs[q] = ()
                lost = _narrow(engine, succs, kind, args, now, bit)
                target = lost[0]
            else:
                target = args[0] if kind == "X" else now[0]
            bad = ~target
            for pick in range(n - 1):
                if any(not m & bad for m in row[pick * size : (pick + 1) * size]):
                    break  # s stays: R is unchanged
                if lost is None:
                    succs[q] = ()
                    lost = _narrow(engine, succs, kind, args, now, bit)
                if lost[2] >> at & 1:
                    now = lost
                    break
            else:
                pick = n - 1
        succs[q] = row[pick * size : (pick + 1) * size]
        choices.append(options[pick])
    return tuple(choices)


def _first_winner(engine: _CoalitionEngine, kind: str, args, at: int, now):
    """First choice tuple, in `enumerate_strategies` order, whose validated
    states include state index `at`, with those states, or None if there is
    none.
    `now` is `_narrow`'s triple with no choice fixed, the one `_search`
    computed from scratch; it must validate `at`.

    A depth-first search fixes one choice point at a time, trying actions in
    declaration order. Every point offers two or more: fixing a member's one
    action would leave every row as it is. A prefix is pruned when the region
    with its choices fixed, and every later choice point left free per
    state, does not validate `at`: a strategy extending the prefix keeps one
    of those moves per state, and every kind's region only shrinks as moves
    are removed.
    With every choice fixed the region is the strategy's own, so the first
    complete prefix is the winner, and the states returned are its own.
    Only the fixed states' move lists change, and `_narrow`, the routine
    that computed `now`, recomputes the region only on the states whose
    membership that can change; every other state keeps the parent
    prefix's value.

    Rows are sliced per member as in `_per_state_winner`: fixing a member to
    its `i`-th of `n` options keeps `row[i * B:(i + 1) * B]`,
    `B = len(row) // n`.

    An action is skipped, untested, when at every state of the choice point
    the block it leaves equals the block some earlier action left.
    Backtracking reached it, so that earlier action's subtree held no
    winner, and this one's subtree is the same search: both blocks are
    products of the later members' menus, so they line up row for row.

    A choice point none of whose states `at`'s start set (`at` itself, or
    `engine.starts[at]` in subjective scope) reaches under the moves left
    keeps its first action, untested, and is never revisited: whether a
    strategy extending the prefix validates `at` does not depend on it, so
    the first winner, if any, plays its first action there. Its states are
    left pending, and the next recomputation covers them.
    """
    # fixing a choice point replaces its states' rows; backtracking puts
    # the rows it replaced back
    succs = list(engine.succs)
    points = engine.choice_points
    pending = 0  # unreached states fixed, untested, since `now` was computed
    start = 1 << at if engine.starts is None else engine.starts[at]
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
        if i < n:
            kept = [(q, succs[q]) for q in idx]
            # each row's block for the i-th option: i * B up to (i + 1) * B
            left = [row[i * len(row) // n : (i + 1) * len(row) // n] for _, row in kept]
            if left in tried:
                i += 1
                continue
            unreached = i == 0 and not fixed & reach
            stack.append((i, n if unreached else i + 1, kept, saved, tried))
            i, tried = 0, []
            for q, row in zip(idx, left):
                succs[q] = row
            if unreached:
                pending |= fixed
                continue
            nxt = _narrow(engine, succs, kind, args, now, pending | fixed)
            if nxt[2] >> at & 1:
                now, pending = nxt, 0
                reach = _reachable(succs, start)
                continue
        # no action left here, or this one is pruned: undo the last choice
        if not stack:
            return None
        _, i, kept, (now, pending, reach), tried = stack.pop()
        tried = [*tried, [succs[q] for q, _ in kept]]
        for q, row in kept:
            succs[q] = row
    if pending:
        now = _narrow(engine, succs, kind, args, now, pending)
    return tuple(points[k][2][frame[0]] for k, frame in enumerate(stack)), now[2]


def _search(engine: _CoalitionEngine, kind: str, args, want: int, at):
    """Union of the states each strategy validates, exact on `want`, and the
    first strategy (a choice tuple, in `enumerate_strategies` order) whose
    validated states include state index `at`; `at=None` asks for no
    strategy.

    The bound is the region of the game in which each state may use any of
    its coalition moves: every strategy wins inside it. `_narrow` computes
    it from the all-states triple with every state fixed, the same routine
    that recomputes it after each fix in the searches. On a per-state
    engine with X, G or U it is the union, since one strategy then wins on
    the whole region, and `_per_state_winner` finds the first winner with
    at most one recomputed region per choice point. Otherwise
    `_first_winner` runs from each wanted state in the bound that no winner
    found so far validates, and the union is that of the winners found.
    """
    full = engine.model.full_mask
    now = _narrow(engine, engine.succs, kind, args, (full, full, full), full)
    bound = now[2]
    wins = at is not None and bound >> at & 1
    if engine.per_state and kind != "FG":
        return bound, _per_state_winner(engine, kind, args, at, now) if wins else None
    first = None
    union = 0
    todo = want & bound
    if wins:
        found = _first_winner(engine, kind, args, at, now)
        if found is not None:
            first, union = found
        todo &= ~(1 << at)
    todo &= ~union
    while todo:
        q = (todo & -todo).bit_length() - 1
        found = _first_winner(engine, kind, args, q, now)
        if found is not None:
            union |= found[1]
        todo &= ~union & ~(1 << q)
    return union, first


def enumerate_strategies(model: Cegm, coalition, opts: CheckOptions | None = None):
    """Yield each collective strategy of the mode exactly once, in deterministic order."""
    opts = opts or CheckOptions()
    _require_agents(model, coalition)
    engine = _CoalitionEngine(model, coalition, CheckOptions(opts.strategy_mode))
    for choices in product(*(options for (_, _, options, _) in engine.choice_points)):
        yield engine.strategy_from(choices)


# ---------------------------------------------------------------------------
# Labeling


def _require_agents(model: Cegm, agents) -> None:
    for a in agents:
        if a not in model.actions:
            raise CheckError(f"unknown agent {a}")


def _knows_mask(model: Cegm, agent: str, sub: int) -> int:
    """The states whose class lies inside `sub`: a single-state class does
    exactly when its state is in `sub`, so only the classes of two or more
    states outside `sub` are taken out."""
    classes = model.class_masks[agent]
    if classes is model.singletons:
        return sub
    out = sub
    for idx, cm in classes:
        if len(idx) > 1 and cm & ~sub:
            out &= ~cm
    return out


def _hartley_mask(model: Cegm, g: Hartley, beta_masks) -> int:
    """The states whose class's pattern count passes `g`'s comparison: one
    `compare_log(1, ...)` decides every single-state class, and only a
    class of two or more states is counted, its bits flipped when its
    verdict differs."""
    single = compare_log(1, g.cmp, g.threshold)
    out = model.full_mask if single else 0
    for idx, cm in model.class_masks[g.agent]:
        if len(idx) > 1 and compare_log(_class_count(cm, beta_masks), g.cmp, g.threshold) != single:
            out ^= cm
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
    faulty subformula in printed order; only then are the faulty rows of
    least length printed, to break ties.
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
        lengths = _row_values(rows, _length)
        faulty = [i for i, (g, _) in enumerate(rows) if _fault(model, (g,))]
        least = min(lengths[i] for i in faulty)
        g = min((rows[i][0] for i in faulty if lengths[i] == least), key=pretty_print)
        raise CheckError(_fault(model, (g,)))
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
                engine = engines[coal] = _CoalitionEngine(model, coal, opts)
            root = g is f
            mask, choices = _search(
                engine, _KINDS[t], [masks[k] for k in kids],
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
