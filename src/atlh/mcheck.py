"""Bottom-up labeling model checker for strategic-epistemic formulas.

Subformulas are evaluated shortest-first, so every operator sees its
arguments as already-computed state sets (bitmasks over the model's state
order). Strategic operators enumerate memoryless strategies for the
coalition, evaluate the universal path condition on the graph restricted
by each strategy, and take the union of the validated states. All of
`label`, `check` and `find_witness` go through that one search; a query
about a single state lets the search at the formula's root stop as soon
as that state is validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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
    """Decide log2(count) <cmp> threshold exactly, without floating point.

    A `log(k)` threshold reduces to comparing count against k. A rational
    threshold p/q reduces to comparing count**q against 2**p over integers;
    bit lengths settle it first whenever p/q lies outside [bl - 1, bl), where
    bl is the bit length of count, so a huge threshold costs no exponentiation.
    """
    if count < 1:
        raise CheckError(f"class count must be positive, got {count}")
    if isinstance(threshold, LogOfCount):
        return _cmp(cmp, count, threshold.count)
    p = threshold.value.numerator
    q = threshold.value.denominator
    if count == 1:
        return _cmp(cmp, 0, p)
    # q*(bl - 1) <= q*log2(count) < q*bl
    bl = count.bit_length()
    if p < q * (bl - 1):
        return _cmp(cmp, 1, 0)
    if p >= q * bl:
        return _cmp(cmp, 0, 1)
    return _cmp(cmp, count**q, 2**p)


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
    reachable under any opponent response.
    """

    def __init__(self, model: Cegm, coalition, mode: str):
        self.model = model
        self.coalition = tuple(a for a in model.agents if a in set(coalition))
        members = set(self.coalition)
        self.choice_points = []
        for a in self.coalition:
            if mode == "ir":
                for cls in model.epistemic_classes(a):
                    states = sorted(cls, key=model.state_index.__getitem__)
                    self.choice_points.append((a, tuple(states), model.avail(a, states[0])))
            else:
                for q in model.states:
                    self.choice_points.append((a, (q,), model.avail(a, q)))
        cp_of = {}
        for idx, (a, states, _) in enumerate(self.choice_points):
            for q in states:
                cp_of[a, q] = idx
        self.state_cps = [
            tuple(cp_of[a, q] for a in self.coalition) for q in model.states
        ]
        proj = [i for i, a in enumerate(model.agents) if a in members]
        self.buckets = []
        for q in model.states:
            bucket = {}
            cols = [model.avail(a, q) for a in model.agents]
            for profile in product(*cols):
                key = tuple(profile[i] for i in proj)
                target = 1 << model.state_index[model.trans[q, profile]]
                bucket[key] = bucket.get(key, 0) | target
            self.buckets.append(bucket)
        self._start_masks = None

    def choice_tuples(self):
        """All strategies, in choice-point-order by action-declaration order."""
        return product(*(options for (_, _, options) in self.choice_points))

    def succ(self, choices) -> list[int]:
        return [
            bucket[tuple(choices[j] for j in cps)]
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


def _pre_all(succ, n: int, target: int) -> int:
    out = 0
    for i in range(n):
        if succ[i] & ~target == 0:
            out |= 1 << i
    return out


def _ag(succ, n: int, target: int) -> int:
    z = target
    while True:
        nz = 0
        for i in range(n):
            if z >> i & 1 and succ[i] & ~z == 0:
                nz |= 1 << i
        if nz == z:
            return z
        z = nz


def _au(succ, n: int, hold: int, goal: int) -> int:
    z = goal
    while True:
        nz = z
        for i in range(n):
            if not z >> i & 1 and hold >> i & 1 and succ[i] & ~z == 0:
                nz |= 1 << i
        if nz == z:
            return z
        z = nz


def _condition(succ, n: int, full: int, kind: str, args) -> int:
    """States from which every path under the strategy meets the condition."""
    if kind == "X":
        return _pre_all(succ, n, args[0])
    if kind == "G":
        return _ag(succ, n, args[0])
    if kind == "U":
        return _au(succ, n, args[0], args[1])
    if kind == "FG":
        safe = args[0] & _ag(succ, n, args[1])
        return _au(succ, n, full, safe)
    raise CheckError(f"unknown temporal kind {kind!r}")


def _validated(engine: _CoalitionEngine, w: int, scope: str) -> int:
    """States whose whole start set lies inside the winning set `w`."""
    if scope == "objective":
        return w
    v = 0
    for i, sm in enumerate(engine.start_masks()):
        if sm & ~w == 0:
            v |= 1 << i
    return v


def _search(engine: _CoalitionEngine, kind: str, args, scope: str, want: int, at):
    """Union of the states each strategy validates, and the first strategy
    (a choice tuple) whose validated states include state index `at`.

    The walk stops as soon as the union covers `want`, so the union is exact
    on `want` only.
    """
    n = len(engine.model.states)
    full = engine.model.full_mask
    at_bit = 0 if at is None else 1 << at
    union = 0
    first = None
    for choices in engine.choice_tuples():
        v = _validated(engine, _condition(engine.succ(choices), n, full, kind, args), scope)
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


def label_masks(model: Cegm, f: Formula, opts: CheckOptions, state=None, exact=True):
    """Bitmask of every subformula of `f` (keyed shortest-first), and the
    witness at `state`: the first strategy, in enumeration order, that
    validates a strategic root there (None if the root is not strategic or
    is false there).

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
    engines: dict = {}
    lab: dict = {}
    witness = None
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
                engine, kind, args, opts.success_scope, want if root else full, at if root else None
            )
            if choices is not None:
                witness = engine.strategy_from(choices)
        lab[g] = mask
    return lab, witness


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
    _, witness = label_masks(model, f, opts or CheckOptions(), state, exact=False)
    return witness
