"""Concurrent epistemic game models: validation, file format, class queries.

A model has a fixed agent/state ordering (declaration order), per-agent
action availability, a deterministic transition function that is total on
exactly the available joint actions, one epistemic equivalence relation per
agent, and a propositional valuation. Everything downstream (labeling,
strategy enumeration, serialization) iterates in declaration order, which
keeps runs deterministic.

`Cegm.moves` is the transition function as plain data, built while the
constructor checks that it is total: for each state, in state order, a tuple
of (profile, target bit) pairs, one per available joint action, in the order
of `itertools.product` over the agents' available actions (agents in
declaration order, each agent's actions in its declaration order). The
target bit is `1 << state_index[target]`. The checker projects its
coalition moves from this table; it holds no reference to the model.
"""

from __future__ import annotations

from itertools import product


class ModelError(ValueError):
    """Raised for malformed model text or inconsistent model data."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Cegm:
    """An explicit-state concurrent game model with epistemic relations.

    Immutable after construction; all queries are read-only. `moves[i]` lists
    the joint actions available at `states[i]` with their target bits (see
    the module docstring for the order).
    """

    def __init__(
        self,
        agents,
        states,
        initial,
        actions,
        avail=None,
        trans=None,
        obs=(),
        props=(),
        valuation=None,
    ):
        """Validate and normalize the model.

        `avail` maps (agent, state) to an action list; missing pairs default
        to all of the agent's declared actions. `obs` is an iterable of
        (agent, state, state) indistinguishability links; the reflexive,
        symmetric, transitive closure is computed. `valuation` maps each
        proposition in `props` to the states where it holds.
        """
        self.agents = agents = tuple(agents)
        self.states = states = tuple(states)
        self.initial = initial
        if not agents:
            raise ModelError("a model needs at least one agent")
        if len(set(agents)) != len(agents):
            raise ModelError("duplicate agent name")
        if not states:
            raise ModelError("a model needs at least one state")
        if len(set(states)) != len(states):
            raise ModelError("duplicate state name")
        self.state_index = index = {q: i for i, q in enumerate(states)}
        if initial not in index:
            raise ModelError(f"initial state {initial} is not a declared state")

        self.actions = {}
        for a in agents:
            acts = tuple(actions.get(a, ()))
            if not acts:
                raise ModelError(f"agent {a} has no actions")
            if len(set(acts)) != len(acts):
                raise ModelError(f"duplicate action for agent {a}")
            self.actions[a] = acts

        avail = dict(avail or {})
        self._avail = {}
        columns = [[] for _ in states]  # per state, each agent's available actions
        for a in agents:
            declared = self.actions[a]
            order = {x: i for i, x in enumerate(declared)}
            normal = {}  # each distinct availability list, validated once
            for q, column in zip(states, columns):
                chosen = avail.pop((a, q), None)
                if chosen is None:
                    self._avail[a, q] = declared
                    column.append(declared)
                    continue
                chosen = tuple(chosen)
                acts = normal.get(chosen)
                if acts is None:
                    if not chosen:
                        raise ModelError(f"empty availability for agent {a} at state {q}")
                    for x in chosen:
                        if x not in order:
                            raise ModelError(f"action {x} not declared for agent {a}")
                    if len(set(chosen)) != len(chosen):
                        raise ModelError(
                            f"duplicate available action for agent {a} at state {q}"
                        )
                    acts = normal[chosen] = tuple(sorted(chosen, key=order.__getitem__))
                self._avail[a, q] = acts
                column.append(acts)
        if avail:
            (a, q) = next(iter(avail))
            raise ModelError(f"availability for unknown agent/state pair ({a}, {q})")

        self.trans = {}
        for (q, profile), target in (trans or {}).items():
            profile = tuple(profile)
            if q not in index:
                raise ModelError(f"transition from unknown state {q}")
            if target not in index:
                raise ModelError(f"transition to unknown state {target}")
            if len(profile) != len(agents):
                raise ModelError(
                    f"transition at {q} has {len(profile)} actions for {len(agents)} agents"
                )
            for a, x, acts in zip(agents, profile, columns[index[q]]):
                if x not in acts:
                    raise ModelError(
                        f"transition at {q} uses action {x} unavailable to agent {a}"
                    )
            self.trans[q, profile] = target
        moves = []
        for q, column in zip(states, columns):
            row = []
            for profile in product(*column):
                target = self.trans.get((q, profile))
                if target is None:
                    raise ModelError(
                        f"missing transition at {q} for profile ({', '.join(profile)})"
                    )
                row.append((profile, 1 << index[target]))
            moves.append(tuple(row))
        self.moves = tuple(moves)

        # per agent, union-find over the states its links mention
        parents = {a: {} for a in agents}

        def find(parent, x):
            while parent.setdefault(x, x) != x:
                parent[x] = x = parent[parent[x]]
            return x

        for a, q, q2 in obs:
            if a not in parents:
                raise ModelError(f"observation link for unknown agent {a}")
            if q not in index or q2 not in index:
                raise ModelError(f"observation link {q} ~ {q2} uses an unknown state")
            parent = parents[a]
            parent[find(parent, q)] = find(parent, q2)

        self._class_of = {}
        self._classes = {}
        singletons = None  # the classes of every agent without links, shared
        for a in agents:
            parent = parents[a]
            if not parent:
                if singletons is None:
                    singletons = tuple(frozenset((q,)) for q in states)
                    singleton_of = dict(zip(states, singletons))
                self._classes[a] = singletons
                self._class_of[a] = singleton_of
                continue
            groups = {}  # in order of each class's first state
            for q in states:
                groups.setdefault(find(parent, q) if q in parent else q, []).append(q)
            self._classes[a] = classes = tuple(frozenset(c) for c in groups.values())
            self._class_of[a] = {q: cls for cls in classes for q in cls}
            for members in groups.values():
                if len(members) > 1 and len({self._avail[a, q] for q in members}) > 1:
                    raise ModelError(
                        f"agent {a} has differing availability inside class"
                        f" {{{', '.join(members)}}}"
                    )

        self.props = tuple(props)
        if len(set(self.props)) != len(self.props):
            raise ModelError("duplicate proposition name")
        self.valuation = {}
        for p in self.props:
            extension = tuple((valuation or {}).get(p, ()))
            for q in extension:
                if q not in index:
                    raise ModelError(f"proposition {p} declared at unknown state {q}")
            self.valuation[p] = frozenset(extension)

    # -- queries ------------------------------------------------------------

    def avail(self, agent: str, state: str) -> tuple[str, ...]:
        """Available actions, in the agent's declaration order."""
        try:
            return self._avail[agent, state]
        except KeyError:
            raise ModelError(f"unknown agent/state pair ({agent}, {state})") from None

    def epistemic_class(self, agent: str, state: str) -> frozenset:
        """All states the agent cannot tell apart from `state` (including it)."""
        try:
            return self._class_of[agent][state]
        except KeyError:
            raise ModelError(f"unknown agent {agent} or state {state}") from None

    def epistemic_classes(self, agent: str) -> tuple[frozenset, ...]:
        """The agent's partition of the state space, in state order."""
        try:
            return self._classes[agent]
        except KeyError:
            raise ModelError(f"unknown agent {agent}") from None

    # -- bitmask helpers (state sets are ints with bit i = states[i]) -------

    def mask(self, states) -> int:
        m = 0
        for q in states:
            m |= 1 << self.state_index[q]
        return m

    def states_of(self, mask: int) -> tuple[str, ...]:
        return tuple(q for i, q in enumerate(self.states) if mask >> i & 1)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.states)) - 1


# ---------------------------------------------------------------------------
# File format


def _names(text: str, line: int, what: str) -> list[str]:
    """Whitespace-separated names: a letter or `_`, then letters, digits or
    `_` (in the sense of `str.isalpha` and `str.isalnum`)."""
    names = text.split()
    for n in names:
        if not ((n[0].isalpha() or n[0] == "_") and n.replace("_", "a").isalnum()):
            raise ModelError(f"bad {what} name {n!r}", line)
    return names


def load_model(text: str) -> Cegm:
    """Parse the line-oriented model format and validate the result."""
    agents = None
    states = None
    initial = None
    actions = {}
    avail = {}
    trans = {}
    obs = []
    props = []
    valuation = {}
    known_agents: set = set()
    known_states: set = set()  # empty until the states line
    profiles = {}  # profile text -> action tuple; models repeat a few profiles
    menus = {}  # avail line tail -> its checked action names

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = (raw.partition("#")[0] if "#" in raw else raw).strip()
        if not line:
            continue
        if line.startswith("trans ") and ("->" in line or ":" in line):
            rest = line[6:]
            if "(" not in rest or ")" not in rest or "->" not in rest:
                raise ModelError("expected `trans <state> (<actions>) -> <state>`", lineno)
            src, _, rest = rest.partition("(")
            profile_text, _, rest = rest.partition(")")
            arrow, _, target = rest.partition("->")
            if arrow.strip():
                raise ModelError("expected `->` right after the action profile", lineno)
            src = src.strip()
            if src not in known_states:
                raise ModelError(f"unknown state {src}", lineno)
            target = target.strip()
            if target not in known_states:
                raise ModelError(f"unknown state {target}", lineno)
            profile = profiles.get(profile_text)
            if profile is None:
                profile = profiles[profile_text] = tuple(map(str.strip, profile_text.split(",")))
            if agents is None or len(profile) != len(agents):
                raise ModelError("action profile length differs from agent count", lineno)
            if (src, profile) in trans:
                raise ModelError(f"duplicate transition at {src} for ({', '.join(profile)})", lineno)
            trans[src, profile] = target
            continue
        head, colon, tail = line.partition(":")
        key = head.split()
        if not (colon or "->" in line) or not key:
            raise ModelError(f"unrecognized line {line!r}", lineno)
        word = key[0]
        if word == "avail":
            if len(key) != 3:
                raise ModelError("expected `avail <agent> <state>: ...`", lineno)
            agent, state = key[1], key[2]
            if agent not in known_agents:
                raise ModelError(f"unknown agent {agent}", lineno)
            if state not in known_states:
                raise ModelError(f"unknown state {state}", lineno)
            if (agent, state) in avail:
                raise ModelError(f"duplicate avail declaration for {agent} at {state}", lineno)
            menu = menus.get(tail)
            if menu is None:
                menu = menus[tail] = _names(tail, lineno, "action")
            avail[agent, state] = menu
        elif word == "obs":
            if len(key) != 2:
                raise ModelError("expected `obs <agent>: <state> ~ <state>`", lineno)
            if key[1] not in known_agents:
                raise ModelError(f"unknown agent {key[1]}", lineno)
            sides = tail.split("~")
            if len(sides) != 2:
                raise ModelError("expected exactly one `~` in observation link", lineno)
            left, right = sides[0].split(), sides[1].split()
            if not (
                len(left) == len(right) == 1
                and left[0] in known_states
                and right[0] in known_states
            ):
                # declared states passed the name check; any other name gets
                # the checks in this order
                _names(sides[0], lineno, "state")
                _names(sides[1], lineno, "state")
                if len(left) != 1 or len(right) != 1:
                    raise ModelError("observation link needs one state on each side", lineno)
                for q in (left[0], right[0]):
                    if q not in known_states:
                        raise ModelError(f"unknown state {q}", lineno)
            obs.append((key[1], left[0], right[0]))
        elif word == "prop":
            if len(key) != 2:
                raise ModelError("expected `prop <name>: <states>`", lineno)
            name = _names(key[1], lineno, "proposition")[0]
            if name in ("true", "false"):
                raise ModelError(f"reserved proposition name {name!r}", lineno)
            if name in valuation:
                raise ModelError(f"duplicate proposition {name}", lineno)
            extension = tail.split()
            if not known_states.issuperset(extension):
                _names(tail, lineno, "state")
                for q in extension:
                    if q not in known_states:
                        raise ModelError(f"unknown state {q}", lineno)
            props.append(name)
            valuation[name] = extension
        elif word == "actions":
            if len(key) != 2:
                raise ModelError("expected `actions <agent>: ...`", lineno)
            if key[1] not in known_agents:
                raise ModelError(f"unknown agent {key[1]}", lineno)
            if key[1] in actions:
                raise ModelError(f"duplicate actions declaration for {key[1]}", lineno)
            actions[key[1]] = _names(tail, lineno, "action")
        elif word == "agents" and len(key) == 1:
            if agents is not None:
                raise ModelError("duplicate agents declaration", lineno)
            agents = _names(tail, lineno, "agent")
            known_agents = set(agents)
            if not agents or len(known_agents) != len(agents):
                raise ModelError("agents must be non-empty and distinct", lineno)
        elif word == "states" and len(key) == 1:
            if states is not None:
                raise ModelError("duplicate states declaration", lineno)
            states = _names(tail, lineno, "state")
            known_states = set(states)
            if not states or len(known_states) != len(states):
                raise ModelError("states must be non-empty and distinct", lineno)
        elif word == "init" and len(key) == 1:
            if initial is not None:
                raise ModelError("duplicate init declaration", lineno)
            names = _names(tail, lineno, "state")
            if len(names) != 1:
                raise ModelError("expected exactly one initial state", lineno)
            if names[0] not in known_states:
                raise ModelError(f"unknown state {names[0]}", lineno)
            initial = names[0]
        else:
            raise ModelError(f"unrecognized line {line!r}", lineno)

    if agents is None:
        raise ModelError("missing agents declaration")
    if states is None:
        raise ModelError("missing states declaration")
    if initial is None:
        raise ModelError("missing init declaration")
    return Cegm(agents, states, initial, actions, avail, trans, obs, props, valuation)


def save_model(model: Cegm) -> str:
    """Serialize canonically; loading the result reproduces the model."""
    out = []
    out.append("agents: " + " ".join(model.agents))
    out.append("states: " + " ".join(model.states))
    out.append("init: " + model.initial)
    for a in model.agents:
        out.append(f"actions {a}: " + " ".join(model.actions[a]))
    for a in model.agents:
        for q in model.states:
            chosen = model.avail(a, q)
            if chosen != model.actions[a]:
                out.append(f"avail {a} {q}: " + " ".join(chosen))
    for q, row in zip(model.states, model.moves):
        for profile, bit in row:
            target = model.states[bit.bit_length() - 1]
            out.append(f"trans {q} ({', '.join(profile)}) -> {target}")
    for a in model.agents:
        for cls in model.epistemic_classes(a):
            members = sorted(cls, key=model.state_index.__getitem__)
            for left, right in zip(members, members[1:]):
                out.append(f"obs {a}: {left} ~ {right}")
    for p in model.props:
        members = sorted(model.valuation[p], key=model.state_index.__getitem__)
        out.append(f"prop {p}: " + " ".join(members))
    return "\n".join(out) + "\n"
