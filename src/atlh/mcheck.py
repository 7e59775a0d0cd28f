"""Bottom-up labeling model checker for strategic-epistemic formulas.

Subformulas are evaluated shortest-first, so every operator sees its
arguments as already-computed state sets (bitmasks over the model's state
order). A strategic operator's state set is the union, over the
coalition's memoryless strategies, of the states each strategy validates;
one search, `_search`, computes it for `label`, `check`, `find_witness`
and `atlh check`. It decides the union in one of two ways:

- Fixpoints, for X, G and U whenever every coalition choice point covers
  one state or offers one action: all of `Ir`, and `ir` on models where
  uniformity constrains nothing (every bundled scenario). Strategies are
  then free per state, so the union is the winning region of the
  controllable-predecessor fixpoint (X one step, G greatest, U least).
- Enumeration, for the reach-then-maintain pattern `F (x & G y)` and for
  `ir` queries with a choice point spanning several states and actions.
  There X, G and U first compute the per-state (`Ir`) region, which
  contains the uniform one, and enumerate only for queried states inside
  it. A query about a single state stops the enumeration at the
  formula's root as soon as that state is validated.

A witness is always the first strategy, in `enumerate_strategies` order,
that validates the queried state. The fixpoint path builds it one choice
point at a time, and only when a witness is asked for (`find_witness`,
`atlh check`), never for `check` or `label`.

Each labelling pass builds one coalition engine per coalition. An engine
projects the model's move table (`Cegm.moves`) onto the coalition's
columns, so building one costs one pass over the available joint actions.
Engines point at their model and are never kept on it.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import itemgetter

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
    subformulas_by_length,
)


class CheckError(ValueError):
    """Raised when a formula does not fit the model (unknown atom or agent)."""


@dataclass(frozen=True)
class CheckOptions:
    """Strategy mode (`ir` uniform / `Ir` unrestricted) and success scope.

    Objective scope requires the path condition from the queried state only;
    subjective scope requires it from every state some coalition member
    considers possible there.
    """

    strategy_mode: str = "ir"
    success_scope: str = "objective"

    def __post_init__(self):
        if self.strategy_mode not in ("ir", "Ir"):
            raise CheckError(f"unknown strategy mode {self.strategy_mode!r}")
        if self.success_scope not in ("objective", "subjective"):
            raise CheckError(f"unknown success scope {self.success_scope!r}")


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


def _class_count(class_states, beta_masks, state_index) -> int:
    vectors = set()
    for q in class_states:
        bit = 1 << state_index[q]
        vectors.add(tuple(1 if mask & bit else 0 for mask in beta_masks))
    return len(vectors)


def hartley_classes(model: Cegm, agent: str, state: str, beta_labels) -> int:
    """Number of distinct valuation patterns of `beta_labels` inside the
    agent's epistemic class at `state`."""
    masks = [model.mask(labels) for labels in beta_labels]
    cls = model.epistemic_class(agent, state)
    return _class_count(cls, masks, model.state_index)


# ---------------------------------------------------------------------------
# Strategic operators


class _CoalitionEngine:
    """Choice points and successor buckets for one coalition on one model.

    A strategy is a tuple of actions, one per choice point (an epistemic
    class in `ir` mode, a single state in `Ir` mode, per coalition agent).
    Buckets map each state and coalition-action tuple to the mask of states
    reachable under any opponent response; they are the model's move table
    with each profile projected onto the coalition's columns, in the
    table's profile order.
    """

    def __init__(self, model: Cegm, coalition, mode: str):
        self.model = model
        members = set(coalition)
        self.coalition = tuple(a for a in model.agents if a in members)
        index = model.state_index
        self.choice_points = []
        # strategies are free per state: no uniformity constraint binds
        self.per_state = True
        cp_at = []  # per coalition agent, each state's choice-point index
        for a in self.coalition:
            at = [0] * len(model.states)
            if mode == "ir":
                for cls in model.epistemic_classes(a):
                    states = tuple(cls)
                    if len(states) > 1:
                        states = tuple(sorted(states, key=index.__getitem__))
                    options = model.avail(a, states[0])
                    if len(states) > 1 and len(options) > 1:
                        self.per_state = False
                    for q in states:
                        at[index[q]] = len(self.choice_points)
                    self.choice_points.append((a, states, options))
            else:
                for i, q in enumerate(model.states):
                    at[i] = len(self.choice_points)
                    self.choice_points.append((a, (q,), model.avail(a, q)))
            cp_at.append(at)
        self.state_cps = list(zip(*cp_at)) if cp_at else [()] * len(model.states)
        cols = [i for i, a in enumerate(model.agents) if a in members]
        if len(cols) > 1:
            project = itemgetter(*cols)
        elif cols:
            (col,) = cols
            project = lambda profile: (profile[col],)
        else:
            project = lambda profile: ()
        self.buckets = []
        for moves in model.moves:
            bucket = {}
            for profile, bit in moves:
                key = project(profile)
                bucket[key] = bucket.get(key, 0) | bit
            self.buckets.append(bucket)
        self._start_masks = None

    def choice_tuples(self):
        """All strategies, in choice-point-order by action-declaration order."""
        return product(*(options for (_, _, options) in self.choice_points))

    def succ(self, choices) -> list[list[int]]:
        """Per state, the one successor mask the strategy `choices` allows."""
        return [
            [bucket[tuple(choices[j] for j in cps)]]
            for bucket, cps in zip(self.buckets, self.state_cps)
        ]

    def start_masks(self) -> list[int]:
        """Subjective start set per state: union of members' classes."""
        if self._start_masks is None:
            model = self.model
            masks = []
            for q in model.states:
                m = 0
                for a in self.coalition:
                    m |= model.mask(model.epistemic_class(a, q))
                masks.append(m)
            self._start_masks = masks
        return self._start_masks

    def strategy_from(self, choices) -> Strategy:
        actions: dict = {a: {} for a in self.coalition}
        for (agent, states, _), chosen in zip(self.choice_points, choices):
            for q in states:
                actions[agent][q] = chosen
        ordered = {
            a: dict(sorted(actions[a].items(), key=lambda kv: self.model.state_index[kv[0]]))
            for a in self.coalition
        }
        return Strategy(self.coalition, ordered)


def _condition(succs, kind: str, args) -> int:
    """States from which every path under one strategy (one move per state
    in `succs`) meets the condition."""
    if kind == "FG":
        goal, inv = args
        safe = goal & _region(succs, "G", [inv])
        return _region(succs, "U", [(1 << len(succs)) - 1, safe])
    return _region(succs, kind, args)


def _validated(engine: _CoalitionEngine, w: int, scope: str) -> int:
    """States whose whole start set lies inside the winning set `w`."""
    if scope == "objective":
        return w
    v = 0
    for i, sm in enumerate(engine.start_masks()):
        if sm & ~w == 0:
            v |= 1 << i
    return v


def _cpre(succs, z: int, cand: int) -> int:
    """States in `cand` where some coalition move keeps every successor in `z`."""
    out = 0
    bad = ~z
    for i, moves in enumerate(succs):
        if cand >> i & 1:
            for m in moves:
                if not m & bad:
                    out |= 1 << i
                    break
    return out


def _region(succs, kind: str, args) -> int:
    """Winning region of the game in which state i lets the coalition pick
    any successor mask in `succs[i]`: X is one controllable-predecessor step,
    G its greatest and U its least fixpoint."""
    if kind == "X":
        return _cpre(succs, args[0], (1 << len(succs)) - 1)
    if kind == "G":
        z = args[0]
        while True:
            nz = _cpre(succs, z, z)
            if nz == z:
                return z
            z = nz
    hold, goal = args
    z = goal
    while True:
        nz = z | _cpre(succs, z, hold & ~z)
        if nz == z:
            return z
        z = nz


def _first_winner(
    engine: _CoalitionEngine, kind: str, args, scope: str, at_bit: int, region: int
):
    """First choice tuple in `choice_tuples` order validating `at_bit`, built
    one choice point at a time on a per-state engine, given that some tuple
    validates it and that `region` is the winning region with no choice fixed.

    Each choice point keeps its first action for which the fixpoint, with the
    choices made so far fixed, still validates `at_bit`; that is the
    lexicographically first winner, since per-state choices are independent.
    Two cases need no test. The last action: one of the actions must keep a
    winner. A state outside the region: restricting its moves leaves the X,
    least-U and greatest-G regions as they are, so the first action keeps
    them. Fixing choices only shrinks the region, so the last region
    computed, or `region`, contains the current one.
    """
    moves = [list(bucket.items()) for bucket in engine.buckets]
    succs = [[m for _, m in items] for items in moves]
    slot = {a: j for j, a in enumerate(engine.coalition)}
    choices = []
    for agent, states, options in engine.choice_points:
        picked = options[0]
        if len(options) > 1:
            q = engine.model.state_index[states[0]]  # the only state
            j = slot[agent]
            kept = moves[q]
            for k, picked in enumerate(options, 1):
                moves[q] = [km for km in kept if km[0][j] == picked]
                succs[q] = [m for _, m in moves[q]]
                if k == len(options) or not region >> q & 1:
                    break
                w = _region(succs, kind, args)
                if _validated(engine, w, scope) & at_bit:
                    region = w
                    break
        choices.append(picked)
    return tuple(choices)


def _search(engine: _CoalitionEngine, kind: str, args, scope: str, want: int, at):
    """Union of the states each strategy validates, and the first strategy
    (a choice tuple, in `choice_tuples` order) whose validated states include
    state index `at`; `at=None` asks for no strategy.

    The union is exact on `want` only. When every choice point covers one
    state or offers one action, strategies are free per state, and X, G and
    U are decided by fixpoints over the coalition's moves: one strategy then
    wins on the whole region, so the region is the union. Otherwise (`ir`
    with a real uniformity constraint, or the FG pattern) strategies are
    enumerated, stopping once the union covers `want`; for X, G and U only
    the states the per-state region validates are searched, since uniform
    strategies are among the per-state ones.
    """
    at_bit = 0 if at is None else 1 << at
    if kind != "FG":
        succs = [list(set(bucket.values())) for bucket in engine.buckets]
        region = _region(succs, kind, args)
        bound = _validated(engine, region, scope)
        if engine.per_state:
            first = None
            if bound & at_bit:
                first = _first_winner(engine, kind, args, scope, at_bit, region)
            return bound, first
        want &= bound
        if not want:
            return 0, None
    union = 0
    first = None
    for choices in engine.choice_tuples():
        v = _validated(engine, _condition(engine.succ(choices), kind, args), scope)
        if v & at_bit and first is None:
            first = choices
        union |= v
        if union & want == want:
            break
    return union, first


def enumerate_strategies(model: Cegm, coalition, opts: CheckOptions | None = None):
    """Yield each collective strategy exactly once, in deterministic order."""
    opts = opts or CheckOptions()
    _require_agents(model, coalition)
    engine = _CoalitionEngine(model, coalition, opts.strategy_mode)
    for choices in engine.choice_tuples():
        yield engine.strategy_from(choices)


# ---------------------------------------------------------------------------
# Labeling


def _require_agents(model: Cegm, agents) -> None:
    for a in agents:
        if a not in model.actions:
            raise CheckError(f"unknown agent {a}")


def _validate(model: Cegm, subformulas) -> None:
    for g in subformulas:
        match g:
            case Atom(name):
                if name not in model.valuation:
                    raise CheckError(f"unknown atom {name}")
            case Knows(agent, _) | Hartley(agent, _, _, _):
                _require_agents(model, (agent,))
            case CoalX(coal, _) | CoalG(coal, _) | MutualKnows(coal, _):
                _require_agents(model, coal)
            case CoalU(coal, _, _) | CoalFG(coal, _, _):
                _require_agents(model, coal)


def _knows_mask(model: Cegm, agent: str, sub: int) -> int:
    out = 0
    for cls in model.epistemic_classes(agent):
        cm = model.mask(cls)
        if cm & ~sub == 0:
            out |= cm
    return out


def _hartley_mask(model: Cegm, g: Hartley, lab: dict) -> int:
    beta_masks = [lab[b] for b in g.beta]
    out = 0
    for cls in model.epistemic_classes(g.agent):
        count = _class_count(cls, beta_masks, model.state_index)
        if compare_log(count, g.cmp, g.threshold):
            out |= model.mask(cls)
    return out


def label_masks(
    model: Cegm, f: Formula, opts: CheckOptions, state=None, exact=True, witness=False
):
    """Bitmask of every subformula of `f` (keyed shortest-first), and, with
    `witness`, the witness at `state`: the first strategy, in enumeration
    order, that validates a strategic root there (None if the root is not
    strategic or is false there, and always None without `witness`).

    With `exact=False` the root's search stops once it validates `state`,
    so the root's mask is exact at `state` only. Every other mask is exact.
    """
    at = None
    if state is not None:
        if state not in model.state_index:
            raise CheckError(f"unknown state {state}")
        at = model.state_index[state]
    order = subformulas_by_length(f)
    _validate(model, order)
    full = model.full_mask
    want = full if exact or at is None else 1 << at
    witness_at = at if witness else None
    engines: dict = {}
    lab: dict = {}
    found = None
    for g in order:
        search = None
        match g:
            case Atom(name):
                mask = model.mask(model.valuation[name])
            case TrueF():
                mask = full
            case FalseF():
                mask = 0
            case Not(sub):
                mask = full & ~lab[sub]
            case And(left, right):
                mask = lab[left] & lab[right]
            case Or(left, right):
                mask = lab[left] | lab[right]
            case Knows(agent, sub):
                mask = _knows_mask(model, agent, lab[sub])
            case MutualKnows(coal, sub):
                mask = full
                for a in coal:
                    mask &= _knows_mask(model, a, lab[sub])
            case Hartley():
                mask = _hartley_mask(model, g, lab)
            case CoalX(coal, sub):
                search = coal, "X", [lab[sub]]
            case CoalG(coal, sub):
                search = coal, "G", [lab[sub]]
            case CoalU(coal, hold, goal):
                search = coal, "U", [lab[hold], lab[goal]]
            case CoalFG(coal, goal, inv):
                search = coal, "FG", [lab[goal], lab[inv]]
            case _:
                raise CheckError(f"cannot label {g!r}")
        if search is not None:
            coal, kind, args = search
            engine = engines.get(coal)
            if engine is None:
                engine = engines[coal] = _CoalitionEngine(model, coal, opts.strategy_mode)
            root = g is f
            mask, choices = _search(
                engine, kind, args, opts.success_scope, want if root else full,
                witness_at if root else None,
            )
            if choices is not None:
                found = engine.strategy_from(choices)
        lab[g] = mask
    return lab, found


def label(model: Cegm, f: Formula, opts: CheckOptions | None = None) -> dict:
    """State sets for every subformula of `f`, keyed by subformula."""
    masks, _ = label_masks(model, f, opts or CheckOptions())
    return {g: frozenset(model.states_of(m)) for g, m in masks.items()}


def check(model: Cegm, state: str, f: Formula, opts: CheckOptions | None = None) -> bool:
    """Does `f` hold at `state`?"""
    masks, _ = label_masks(model, f, opts or CheckOptions(), state, exact=False)
    return bool(masks[f] >> model.state_index[state] & 1)


def find_witness(model: Cegm, state: str, f: Formula, opts: CheckOptions | None = None):
    """First strategy, in `enumerate_strategies` order, validating a
    top-level strategic formula at `state`.

    Returns None when `f` is not strategic at top level or no strategy works.
    """
    if not isinstance(f, (CoalX, CoalG, CoalU, CoalFG)):
        return None
    _, witness = label_masks(model, f, opts or CheckOptions(), state, exact=False, witness=True)
    return witness
