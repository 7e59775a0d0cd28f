"""Succinctness experiments: model families, the formula-size game engine,
and a minimal-formula oracle for the knowledge-only fragment.

The model family pairs one full binary-valuation model against the family
of its single-state deletions; separating the two sides with knowledge-only
formulas is provably expensive, while one uncertainty operator does it in
linear size. Two independent engines measure the knowledge-only cost: a
game-tree search whose minimal winning tree size equals the minimal formula
size, and a semantic-fingerprint enumeration that finds an actual minimal
formula.
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction
from itertools import islice, permutations, product
from math import factorial, prod

from .cegm import Cegm
from .formula import (
    Atom,
    Formula,
    Hartley,
    Knows,
    Not,
    Or,
    Real,
    formula_length,
)
from .translate import TranslateError, h_to_k


class SuccinctError(ValueError):
    """Raised for out-of-range family parameters or blown engine caps."""


# ---------------------------------------------------------------------------
# Model families


def gen_Mn(n: int) -> Cegm:
    """The 2^n-state model over p_1..p_n: state q<t> makes p_i true exactly
    when bit i-1 of t is set; one agent that cannot tell any states apart."""
    if not 1 <= n <= 12:
        raise SuccinctError(f"n must be between 1 and 12, got {n}")
    states = [f"q{t}" for t in range(2**n)]
    return _family_model(n, states)


def gen_Nnj(n: int, j: int) -> Cegm:
    """gen_Mn(n) with state q<j> removed; removing the initial q0 is not allowed."""
    if not 1 <= n <= 12:
        raise SuccinctError(f"n must be between 1 and 12, got {n}")
    if not 1 <= j <= 2**n - 1:
        raise SuccinctError(f"j must be between 1 and {2**n - 1}, got {j}")
    states = [f"q{t}" for t in range(2**n) if t != j]
    return _family_model(n, states)


def _family_model(n: int, states: list[str]) -> Cegm:
    obs = [("a", left, right) for left, right in zip(states, states[1:])]
    trans = {(q, ("eps",)): q for q in states}
    props = [f"p_{i}" for i in range(1, n + 1)]
    valuation = {
        f"p_{i}": [q for q in states if int(q[1:]) >> (i - 1) & 1]
        for i in range(1, n + 1)
    }
    return Cegm(["a"], states, "q0", {"a": ["eps"]}, None, trans, obs, props, valuation)


def phi_n(n: int) -> Formula:
    """Uncertainty formula of length n+1 that pins the class count at 2^n."""
    if n < 1:
        raise SuccinctError(f"n must be positive, got {n}")
    beta = tuple(Atom(f"p_{i}") for i in range(1, n + 1))
    return Hartley("a", "=", Real(Fraction(n)), beta)


class PointedModel(namedtuple("PointedModel", "model state")):
    """A model with a distinguished state."""

    __slots__ = ()

    def __new__(cls, model: Cegm, state: str):
        if state not in model.state_index:
            raise SuccinctError(f"state {state} not in model")
        return super().__new__(cls, model, state)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through it
        return cls(*iterable)


def separation_instance(n: int) -> tuple[list[PointedModel], list[PointedModel]]:
    """The experiment's two sides: the full model at q0 against every deletion."""
    left = [PointedModel(gen_Mn(n), "q0")]
    right = [PointedModel(gen_Nnj(n, j), "q0") for j in range(1, 2**n)]
    return left, right


# ---------------------------------------------------------------------------
# Shared vocabulary and state numbering of a pointed-model collection


def _vocabulary(pointed):
    """Models in first-appearance order, plus props/agents common to all."""
    models = []
    seen = set()
    for pm in pointed:
        if id(pm.model) not in seen:
            seen.add(id(pm.model))
            models.append(pm.model)
    props = [p for p in models[0].props if all(p in m.valuation for m in models)]
    agents = [a for a in models[0].agents if all(a in m.actions for m in models)]
    return models, props, agents


def _bit_layout(pointed):
    """One bit per state of every involved model: models in `_vocabulary`
    order, then each model's `state_index`. Both engines number states this
    way and compute their answers separately.

    Returns (total, side, atoms, classes): the number of bits, a function
    from pointed models to the mask of their states, the mask where each
    common prop holds and each common agent's class masks in index order.
    """
    models, props, agents = _vocabulary(pointed)
    offsets = {}
    total = 0
    for m in models:
        offsets[id(m)] = total
        total += len(m.states)

    def side(pms) -> int:
        mask = 0
        for pm in pms:
            mask |= 1 << (offsets[id(pm.model)] + pm.model.state_index[pm.state])
        return mask

    atoms = {p: sum(m.mask(m.valuation[p]) << offsets[id(m)] for m in models) for p in props}
    classes = {
        a: [mask << offsets[id(m)] for m in models for _, mask in m.class_masks[a]]
        for a in agents
    }
    return total, side, atoms, classes


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


_MAX_ATOM_PERMUTATIONS = 720


def _atom_symmetries(total, atoms, classes):
    """The permutations of the `total` state bits, other than the identity,
    that come from permuting the common atoms and keep the game's structure.

    `atoms` and `classes` are `_bit_layout`'s. A permutation of the distinct
    atom masks changes each state's valuation. Every class of the first
    agent goes to an unused class whose valuations are the changed ones,
    and each of its states to the state of that class with its changed
    valuation (equal valuations are paired in index order). A candidate is
    kept only if it maps the set of atom masks and every agent's class
    partition onto themselves, so any instance is safe.

    Masks are only exchanged with masks of as many states, and when that
    leaves more than `_MAX_ATOM_PERMUTATIONS` candidates none is tried, so
    deriving takes at most 720 candidates of O(total + classes) steps.
    Each map is a tuple whose entry i is the bit that bit i goes to.
    """
    if not classes:
        return []
    masks = list(dict.fromkeys(atoms.values()))
    same_size = {}
    for j, m in enumerate(masks):
        same_size.setdefault(m.bit_count(), []).append(j)
    groups = list(same_size.values())
    if not 1 < prod(factorial(len(g)) for g in groups) <= _MAX_ATOM_PERMUTATIONS:
        return []
    valuation = [0] * total
    for j, m in enumerate(masks):
        for i in _bits(m):
            valuation[i] |= 1 << j
    # the first agent's classes as states in valuation order, grouped by
    # their valuations
    first = [sorted(_bits(cls), key=valuation.__getitem__) for cls in next(iter(classes.values()))]
    with_valuations = {}
    for c, members in enumerate(first):
        with_valuations.setdefault(tuple(valuation[i] for i in members), []).append(c)
    structure = [set(masks)] + [set(part) for part in classes.values()]
    maps = []
    for images in islice(product(*(permutations(g) for g in groups)), 1, None):  # not the identity
        moved = [0] * len(masks)
        for g, img in zip(groups, images):
            for j, k in zip(g, img):
                moved[j] = 1 << k
        changed = {v: sum(moved[j] for j in _bits(v)) for v in set(valuation)}
        free = {vals: list(cs) for vals, cs in with_valuations.items()}
        image = list(range(total))
        for members in first:
            ordered = sorted(members, key=lambda i: changed[valuation[i]])
            targets = free.get(tuple(changed[valuation[i]] for i in ordered))
            if not targets:
                break
            for i, t in zip(ordered, first[targets.pop()]):
                image[i] = t
        else:
            if _keeps_structure(image, structure):
                maps.append(tuple(image))
    return maps


def _keeps_structure(image, structure) -> bool:
    """Whether the bit map `image` maps each set of masks in `structure`
    onto itself."""
    return all({sum(1 << image[i] for i in _bits(m)) for m in masks} == masks for masks in structure)


# ---------------------------------------------------------------------------
# Formula-size game

_INF = float("inf")
# Rule (c) indexes a failure only under a stored side of at most this many
# states: small sides are the ones later positions contain, and a cap keeps
# the rows that a lookup scans short. At n = 2 the cap 4 leaves 5,484
# `solve` calls (8,923 with 2, 5,511 with 3, 5,461 with 5, 5,460 with 6 or
# more, 14,460 with no index); caps of 4 and more run about as fast there,
# and at n = 3 the rows of cap 4 hold at most 621 entries (861 with 5)
# while with no cap the size-11 search runs over 200 s instead of about
# 43 s (2-core machine).
_SUBSUMED_SIDE = 4


class _FsgSearch:
    """Budgeted search for the smallest winning game tree.

    A node holds two sets of pointed states, each an int bitmask over the
    index of `_bit_layout`; a win is a tree where every leaf is closed by an
    atom true on its whole left side and false on its whole right side.
    Moves: close by atom (one node), negate (swap sides), split the left
    side over two children, or pick an epistemic successor for every right
    element while the left side expands to all successors. Results are
    memoized on (left, right) as exact costs or lower bounds. Every move
    probes its children's entries inline and calls `solve` only on a miss:
    most children are settled already.

    The game value is monotone: a win on (C, D) also wins on every
    non-empty (C' <= C, D' <= D) at the same cost or less, move by move
    (the same atom closes it, negation swaps the sides, a knowledge move
    keeps only the picks of the classes D' touches, a split intersects
    both halves with C'). Four exact pruning rules follow from it:

    (a) a move is tried only when its children's budget can hold a win:
        negation and knowledge need two nodes, a split three;
    (b) a knowledge pick m that loses as a singleton right side at the
        child budget loses in every combination, so picks are enumerated
        over the surviving members of each class, and not at all when a
        class keeps none;
    (b') every bit x of C lies in one half of a split, so the split can
        win only if solve(x, D, bound - 2) = s(x) wins for every x; with
        top = max s, the half holding a top bit costs at least top, the
        other half at most bound - 1 - top, and bits with a larger s
        ("heavy") must all go to the same half;
    (c) a failure answers every position that contains it: if no tree
        smaller than `bound` wins (C0, D0), v(C, D) >= v(C0, D0) >= bound
        for every (C >= C0, D >= D0). Failures whose other side has at
        most `_SUBSUMED_SIDE` states are kept in two antichains, one per
        exact side, and a position is looked up in them by a subset of its
        other side before it is expanded.

    The game value is also invariant: if a permutation s of the state bits
    maps the set of atom masks and every agent's class partition onto
    themselves, then v(sC, sD) = v(C, D). Each move on (C, D) maps to the
    matching move on (sC, sD) and back under the inverse: the same atoms
    close both, negation commutes with s, s carries the classes C touches
    to those sC touches (and picks to picks), and a split of C to the split
    of sC into the halves' images. So an exact value, and "no win <=
    budget", carries over to every image. An expansion's result is stored
    under the images of its key by the `maps` of `_atom_symmetries` too, a
    lower bound as the max with the image's own and indexed for rule (c)
    like the key's; probes stay plain lookups.
    """

    def __init__(self, atoms, classes, maps=()):
        self.atoms = atoms
        # per agent: single-bit mask -> (its class mask, the class's single bits)
        self.classes = []
        for masks in classes:
            class_of = {}
            for cls in masks:
                members = tuple(1 << i for i in range(cls.bit_length()) if cls >> i & 1)
                for bit in members:
                    class_of[bit] = (cls, members)
            self.classes.append(class_of)
        # per map and byte of a mask: the image of each byte value
        self.tables = [_byte_tables(image) for image in maps]
        self.exact: dict = {}
        self.lb: dict = {}
        # antichains of failures: right side D -> [(C0, bound)] and left
        # side C -> [(D0, bound)], each meaning v(C0, D) or v(C, D0) >= bound
        self.failed_by_right: dict = {}
        self.failed_by_left: dict = {}

    def _images(self, C: int, D: int) -> list:
        """The image of the key (C, D) under every map."""
        keys = []
        for tables in self.tables:
            c = d = 0
            x, y = C, D
            for table in tables:
                c |= table[x & 255]
                d |= table[y & 255]
                x >>= 8
                y >>= 8
            keys.append((c, d))
        return keys

    def solve(self, C: int, D: int, budget: int):
        """Exact minimal win size if it is <= budget, else None."""
        if budget < 1:
            return None
        key = (C, D)
        cached = self.exact.get(key)
        if cached is not None:
            return cached if cached <= budget else None
        if self.lb.get(key, 1) > budget:
            return None
        if C & D:
            self.exact[key] = _INF
            return None

        for p in self.atoms:
            if C & p == C and not D & p:
                self.exact[key] = 1
                return 1
        subsumed = self._subsumed(C, D, budget)
        if subsumed:
            self.lb[key] = subsumed
            return None

        best = None
        bound = budget
        exact, lb = self.exact, self.lb

        # negation: swap sides
        if bound >= 2:
            sub = exact.get((D, C))
            if sub is None:
                if lb.get((D, C), 1) <= bound - 1:
                    sub = self.solve(D, C, bound - 1)
            elif sub > bound - 1:
                sub = None
            if sub is not None:
                best = 1 + sub
                bound = best - 1

        # knowledge: left expands to whole classes, right picks one per class;
        # classes are disjoint, so no two picks give the same right side
        for class_of in self.classes:
            if bound < 2:
                break
            expanded = 0
            rest = C
            while rest:
                cls = class_of[rest & -rest][0]
                expanded |= cls
                rest &= ~cls
            groups = []
            rest = D
            while rest:
                cls, members = class_of[rest & -rest]
                alive = []
                for m in members:
                    sub = exact.get((expanded, m))
                    if sub is None:
                        if lb.get((expanded, m), 1) <= bound - 1:
                            sub = self.solve(expanded, m, bound - 1)
                    elif sub > bound - 1:
                        sub = None
                    if sub is not None:
                        alive.append(m)
                if not alive:
                    break
                groups.append(alive)
                rest &= ~cls
            if rest:
                continue
            groups.sort()
            for picks in product(*groups):
                right = sum(picks)
                sub = exact.get((expanded, right))
                if sub is None:
                    if lb.get((expanded, right), 1) <= bound - 1:
                        sub = self.solve(expanded, right, bound - 1)
                elif sub > bound - 1:
                    sub = None
                if sub is not None and (best is None or 1 + sub < best):
                    best = 1 + sub
                    bound = best - 1

        # disjunction: split the left side (right side copied to both children);
        # the lowest bit goes left, and the heavy bits stay together
        if C & (C - 1) and bound >= 3:
            costs = []
            bits = C
            while bits:
                bit = bits & -bits
                s = exact.get((bit, D))
                if s is None:
                    if lb.get((bit, D), 1) <= bound - 2:
                        s = self.solve(bit, D, bound - 2)
                elif s > bound - 2:
                    s = None
                if s is None:
                    break
                costs.append((bit, s))
                bits ^= bit
            if not bits:
                light = bound - 1 - max(s for _, s in costs)
                heavy = sum(bit for bit, s in costs if s > light)
                first = C & -C
                if heavy & first:
                    first |= heavy
                    heavy = 0
                rest = C ^ first
                free = rest ^ heavy
                for base in (0, heavy) if heavy else (0,):
                    picked = base
                    while bound >= 3:
                        if picked != rest:
                            left = first | picked
                            sub1 = exact.get((left, D))
                            if sub1 is None:
                                if lb.get((left, D), 1) <= bound - 2:
                                    sub1 = self.solve(left, D, bound - 2)
                            elif sub1 > bound - 2:
                                sub1 = None
                            if sub1 is not None:
                                other, cap = rest ^ picked, bound - 1 - sub1
                                sub2 = exact.get((other, D))
                                if sub2 is None:
                                    if lb.get((other, D), 1) <= cap:
                                        sub2 = self.solve(other, D, cap)
                                elif sub2 > cap:
                                    sub2 = None
                                if sub2 is not None and (best is None or 1 + sub1 + sub2 < best):
                                    best = 1 + sub1 + sub2
                                    bound = best - 1
                        if picked == base | free:
                            break
                        picked = base | ((picked - base - free) & free)

        if best is not None:
            exact[key] = best
            if self.tables:
                for k in self._images(C, D):
                    exact[k] = best
            return best
        self._record_failure(C, D, budget + 1)
        if self.tables:
            for image in self._images(C, D):
                if image != key:
                    self._record_failure(*image, budget + 1)
        return None

    def _subsumed(self, C: int, D: int, budget: int) -> int:
        """A stored lower bound above `budget` of some (C0 <= C, D) or
        (C, D0 <= D), else 0."""
        for c0, bound in self.failed_by_right.get(D, ()):
            if bound <= budget:
                break
            if c0 & C == c0:
                return bound
        for d0, bound in self.failed_by_left.get(C, ()):
            if bound <= budget:
                break
            if d0 & D == d0:
                return bound
        return 0

    def _record_failure(self, C: int, D: int, bound: int) -> None:
        """Raise the lower bound of (C, D) to at least `bound`, and index it."""
        key = (C, D)
        bound = max(self.lb.get(key, 1), bound)
        self.lb[key] = bound
        if C.bit_count() <= _SUBSUMED_SIDE:
            _antichain_add(self.failed_by_right.setdefault(D, []), C, bound)
        if D.bit_count() <= _SUBSUMED_SIDE:
            _antichain_add(self.failed_by_left.setdefault(C, []), D, bound)


def _antichain_add(row: list, mask: int, bound: int) -> None:
    """Add (mask, bound) to `row`, kept in falling order of bound, unless an
    entry with a subset mask and a bound as high is there; drop the entries
    it makes redundant."""
    higher = []
    lower = []
    for entry in row:
        m, b = entry
        if b >= bound and m & mask == m:
            return
        if b > bound:
            higher.append(entry)
        elif mask & m != mask:
            lower.append(entry)
    higher.append((mask, bound))
    row[:] = higher + lower


def _byte_tables(image) -> list[list[int]]:
    """For the bit map `image`, per byte of a mask: the image of each of
    the 256 byte values."""
    tables = []
    for start in range(0, len(image), 8):
        table = [0]
        for i in range(start, start + 8):
            bit = 1 << image[i] if i < len(image) else 0
            table += [t | bit for t in table]
        tables.append(table)
    return tables


def fsg_min_win(A, B, kmax: int):
    """Smallest winning tree size separating A from B, or None above kmax."""
    A, B = list(A), list(B)
    if not A or not B:
        raise SuccinctError("both sides must be non-empty")
    total, side, atoms, classes = _bit_layout(A + B)
    maps = _atom_symmetries(total, atoms, classes)
    search = _FsgSearch(list(atoms.values()), classes.values(), maps)
    C, D = side(A), side(B)
    for k in range(1, kmax + 1):
        found = search.solve(C, D, k)
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# Minimal-formula oracle (atoms, negation, disjunction, knowledge)


def min_mel_formula(A, B, size_cap: int):
    """Smallest knowledge-only formula true on all of A and false on all of B.

    Formulas are enumerated by size and deduplicated by their truth bit
    vector over every state of every involved model, so each semantic class
    is visited once, at its minimal size. Returns (formula, size) or None.
    """
    A, B = list(A), list(B)
    if not A or not B:
        raise SuccinctError("both sides must be non-empty")
    total, side, atoms, class_masks = _bit_layout(A + B)
    if total > 16:
        raise SuccinctError(f"fingerprint space 2^{total} exceeds the 2^16 cap")
    full = (1 << total) - 1
    need, forbid = side(A), side(B)
    if need & forbid:
        return None

    def separates(fp: int) -> bool:
        return fp & need == need and fp & forbid == 0

    seen: dict[int, Formula] = {}
    levels: dict[int, list[int]] = {}

    def register(fp: int, formula: Formula, size: int):
        if fp in seen:
            return None
        seen[fp] = formula
        levels.setdefault(size, []).append(fp)
        if separates(fp):
            return formula
        return None

    for size in range(1, size_cap + 1):
        found = None
        if size == 1:
            for p, fp in atoms.items():
                found = found or register(fp, Atom(p), size)
        prev = levels.get(size - 1, ())
        for fp in prev:
            found = found or register(full & ~fp, Not(seen[fp]), size)
        for a, masks in class_masks.items():
            for fp in prev:
                kfp = 0
                for cm in masks:
                    if fp & cm == cm:
                        kfp |= cm
                found = found or register(kfp, Knows(a, seen[fp]), size)
        for i in range(1, size - 1):
            j = size - 1 - i
            if j < i:
                break
            for x in levels.get(i, ()):
                fx = seen[x]
                for y in levels.get(j, ()):
                    z = x | y
                    if z not in seen:
                        found = found or register(z, Or(fx, seen[y]), size)
        if found is not None:
            return found, size
    return None


# ---------------------------------------------------------------------------
# Experiment rows


# the largest n whose row runs the two exact engines
EXACT_NMAX = 2


def succinctness_rows(nmax: int, node_cap: int = 10**6):
    """One experiment row per n: formula lengths plus (for n <= EXACT_NMAX)
    the two engines' minimal knowledge-only sizes, the enumerator searching up
    to size 40 and the game up to its answer. Values that blow a cap are None.
    n runs up to 12, as in `gen_Mn`."""
    if not 1 <= nmax <= 12:
        raise SuccinctError(f"nmax must be between 1 and 12, got {nmax}")
    rows = []
    for n in range(1, nmax + 1):
        started = time.perf_counter()
        f = phi_n(n)
        translated = None
        try:
            translated = formula_length(h_to_k(f, node_cap=node_cap))
        except TranslateError:
            pass
        fsg = mel = None
        if n <= EXACT_NMAX:
            A, B = separation_instance(n)
            found = min_mel_formula(A, B, 40)
            if found is not None:
                mel = found[1]
            fsg = fsg_min_win(A, B, mel if mel is not None else 2**n + 4)
        rows.append(
            {
                "n": n,
                "len_phi_n": formula_length(f),
                "len_translated": translated,
                "fsg_min": fsg,
                "mel_min": mel,
                "wallclock_ms": int((time.perf_counter() - started) * 1000),
            }
        )
    return rows
