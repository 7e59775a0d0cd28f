"""Concurrent epistemic game models: validation, file format, class queries.

A model has a fixed agent/state ordering (declaration order), per-agent
action availability, a deterministic transition function that is total on
exactly the available joint actions, one epistemic equivalence relation per
agent, and a propositional valuation. Everything downstream (labeling,
strategy enumeration, serialization) iterates in declaration order, which
keeps runs deterministic.

The constructor builds, once, the tables the checker reads by state index
(bit i of a state mask stands for `states[i]`):

- `menus[i]`: the actions available at `states[i]`, one tuple per agent in
  agent order, each in the agent's declaration order.
- `moves[i]`: the transition function as plain data, built while the
  constructor checks that it is total: a tuple of target bits
  (`1 << state_index[target]`), one per available joint action, in the
  order of `itertools.product(*menus[i])`. An entry's position is the one
  record of its joint action; the constructor's `trans` dict is not kept.
- `preds[i]`: the mask of the states with a joint action leading to
  `states[i]`.
- `class_masks[agent]`: the agent's epistemic classes in class order (by
  first state), each as (state indices ascending, mask). This is the one
  stored form of the epistemic relation: `class_entry`, and the frozenset
  views `epistemic_class` and `epistemic_classes`, are read from it on each
  call, so equal calls return equal, not identical, values.
- `singletons`: the partition into single states, `((i,), 1 << i)` for
  state i; the `class_masks` entry of every agent without links.

Each `trans` entry is checked on its own (known states, one available
action per agent) only when the table cannot be built from the entries
given, so that the first faulty entry is the one reported. The checker
projects its coalition moves from these tables; they hold no reference to
the model.
"""

from __future__ import annotations

from itertools import compress, product

from .formula import AtlhError, _is_name


class ModelError(AtlhError):
    """Raised for malformed model text or inconsistent model data."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Cegm:
    """An explicit-state concurrent game model with epistemic relations.

    Immutable after construction; all queries are read-only. Its tables are
    described in the module docstring; `moves` is the only stored transition
    function and `class_masks` the only stored epistemic relation, read by
    the queries per call.
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
        proposition in `props` to the states where it holds. A string given
        where names are listed is a fault, not a list of its characters.
        """
        self.agents = agents = tuple(_not_string(agents, "agents"))
        self.states = states = tuple(_not_string(states, "states"))
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
            acts = tuple(_not_string(actions.get(a, ()), f"actions of agent {a}"))
            if not acts:
                raise ModelError(f"agent {a} has no actions")
            if len(set(acts)) != len(acts):
                raise ModelError(f"duplicate action for agent {a}")
            self.actions[a] = acts

        avail = dict(avail or {})
        rows = []  # per agent, each state's available actions
        for a in agents:
            declared = self.actions[a]
            if not avail:  # every pair given is used up
                rows.append([declared] * len(states))
                continue
            order = {x: i for i, x in enumerate(declared)}
            normal = {}  # each distinct availability list, validated once
            rows.append(row := [])
            for q in states:
                chosen = avail.pop((a, q), None)
                if chosen is None:
                    row.append(declared)
                    continue
                if isinstance(chosen, str):  # the message is built only for a fault
                    _not_string(chosen, f"availability for agent {a} at state {q}")
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
                row.append(acts)
        if avail:
            (a, q) = next(iter(avail))
            raise ModelError(f"availability for unknown agent/state pair ({a}, {q})")
        self.menus = menus = tuple(zip(*rows))

        bits = [1 << i for i in range(len(states))]
        trans = trans or {}
        moves, preds, gap = _move_table(states, menus, trans, index, bits)
        if gap or sum(map(len, moves)) != len(trans):
            # a faulty or surplus entry, or a missing one: check every entry
            # as given first, so that the first faulty entry is reported
            trans = _checked_trans(agents, index, menus, trans)
            moves, preds, gap = _move_table(states, menus, trans, index, bits)
            if gap:
                q, profile = gap
                raise ModelError(f"missing transition at {q} for profile ({', '.join(profile)})")
        self.moves = tuple(moves)
        self.preds = tuple(preds)

        # per agent, union-find over the states its links mention
        parents = {a: {} for a in agents}

        def find(parent, x):
            while parent.setdefault(x, x) != x:
                parent[x] = x = parent[parent[x]]
            return x

        for link in obs:
            link = tuple(_not_string(link, "observation link"))
            if len(link) != 3:
                raise ModelError(f"observation link {link} must name an agent and two states")
            a, q, q2 = link
            if a not in parents:
                raise ModelError(f"observation link for unknown agent {a}")
            if q not in index or q2 not in index:
                raise ModelError(f"observation link {q} ~ {q2} uses an unknown state")
            parent = parents[a]
            parent[find(parent, q)] = find(parent, q2)

        # every state's own class: each agent without links has only these,
        # and the others share them at their unlinked states
        self.singletons = singletons = tuple(zip(zip(range(len(states))), bits))
        self.class_masks = {}
        for a, row in zip(agents, rows):
            parent = parents[a]
            if not parent:
                self.class_masks[a] = singletons
                continue
            groups = {}  # each class's state indices, in order of its first state
            for i, q in enumerate(states):
                groups.setdefault(find(parent, q) if q in parent else q, []).append(i)
            masks = []
            for idx in groups.values():
                if len(idx) == 1:
                    masks.append(singletons[idx[0]])
                    continue
                if len(set(map(row.__getitem__, idx))) > 1:
                    raise ModelError(
                        f"agent {a} has differing availability inside class"
                        f" {{{', '.join(map(states.__getitem__, idx))}}}"
                    )
                # distinct bits: their sum is their union
                masks.append((tuple(idx), sum(map(bits.__getitem__, idx))))
            self.class_masks[a] = tuple(masks)

        self.props = tuple(_not_string(props, "propositions"))
        if len(set(self.props)) != len(self.props):
            raise ModelError("duplicate proposition name")
        self.valuation = {}
        for p in self.props:
            extension = (valuation or {}).get(p, ())
            extension = tuple(_not_string(extension, f"extension of proposition {p}"))
            self.valuation[p] = holds = frozenset(extension)
            if not index.keys() >= holds:
                q = next(q for q in extension if q not in index)
                raise ModelError(f"proposition {p} declared at unknown state {q}")

    # -- queries ------------------------------------------------------------

    def avail(self, agent: str, state: str) -> tuple[str, ...]:
        """Available actions, in the agent's declaration order."""
        try:
            return self.menus[self.state_index[state]][self.agents.index(agent)]
        except (KeyError, ValueError):
            raise ModelError(f"unknown agent/state pair ({agent}, {state})") from None

    def class_entry(self, agent: str, state: str) -> tuple[tuple[int, ...], int]:
        """The `class_masks` entry of the agent's class holding `state`."""
        try:
            i = self.state_index[state]
            return next(entry for entry in self.class_masks[agent] if i in entry[0])
        except KeyError:
            raise ModelError(f"unknown agent {agent} or state {state}") from None

    def epistemic_class(self, agent: str, state: str) -> frozenset:
        """All states the agent cannot tell apart from `state` (including it)."""
        return frozenset(map(self.states.__getitem__, self.class_entry(agent, state)[0]))

    def epistemic_classes(self, agent: str) -> tuple[frozenset, ...]:
        """The agent's partition of the state space, in state order."""
        try:
            entries = self.class_masks[agent]
        except KeyError:
            raise ModelError(f"unknown agent {agent}") from None
        name = self.states.__getitem__
        return tuple(frozenset(map(name, idx)) for idx, _ in entries)

    # -- bitmask helpers (state sets are ints with bit i = states[i]) -------

    def mask(self, states) -> int:
        index = self.state_index
        _not_string(states, "a state set")
        m = 0
        try:
            for q in states:
                m |= 1 << index[q]
        except KeyError:
            raise ModelError(f"unknown state {q}") from None
        return m

    def states_of(self, mask: int) -> tuple[str, ...]:
        """The states of `mask & full_mask`, in state order: its binary
        digits, lowest first, select them, so no state costs a Python step."""
        return tuple(compress(self.states, map("1".__eq__, bin(mask & self.full_mask)[:1:-1])))

    @property
    def full_mask(self) -> int:
        return (1 << len(self.states)) - 1


def _not_string(names, what: str):
    """`names`, a collection of names; a string would be read as its
    one-character names, so it is a fault."""
    if isinstance(names, str):
        raise ModelError(f"{what} must be a collection of names, not the string {names!r}")
    return names


def _move_table(states, menus, trans, index, bits):
    """The move table and the predecessor masks, and None; or, at the first
    joint action whose `trans` entry is missing or leads to an unknown
    state, the rows before it, unfinished predecessor masks, and that
    (state, profile)."""
    get = trans.get
    moves = []
    preds = [0] * len(states)
    for here, q, column in zip(bits, states, menus):
        row = []
        for profile in product(*column):
            t = index.get(get((q, profile)))
            if t is None:
                return moves, preds, (q, profile)
            row.append(bits[t])
            preds[t] |= here
        moves.append(tuple(row))
    return moves, preds, None


def _checked_trans(agents, index, menus, trans) -> dict:
    """`trans` with each profile a tuple, after checking each entry in the
    order given: a known source and target, one action per agent, each
    available to its agent at the source, and no joint action given twice
    (two keys, such as a tuple and a frozenset, can name one)."""
    out = {}
    for (q, profile), target in trans.items():
        profile = tuple(_not_string(profile, f"action profile at {q}"))
        if q not in index:
            raise ModelError(f"transition from unknown state {q}")
        if target not in index:
            raise ModelError(f"transition to unknown state {target}")
        if len(profile) != len(agents):
            raise ModelError(
                f"transition at {q} has {len(profile)} actions for {len(agents)} agents"
            )
        for a, x, acts in zip(agents, profile, menus[index[q]]):
            if x not in acts:
                raise ModelError(f"transition at {q} uses action {x} unavailable to agent {a}")
        if (q, profile) in out:
            raise ModelError(f"duplicate transition at {q} for ({', '.join(profile)})")
        out[q, profile] = target
    return out


# ---------------------------------------------------------------------------
# File format


def _names(text: str, line: int, what: str) -> list[str]:
    """Whitespace-separated names, each passing `_is_name`."""
    names = text.split()
    for n in names:
        if not _is_name(n):
            raise ModelError(f"bad {what} name {n!r}", line)
    return names


def load_model(text: str) -> Cegm:
    """Parse and validate the model format; only LF, CRLF and CR end a line."""
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
    # profile text -> action tuple, one per agent; models repeat a few profiles
    profiles = {}
    menus = {}  # avail line tail -> its checked action names

    if "\r" in text:  # CRLF and lone CR end a line too, as open() reads them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = (raw.partition("#")[0] if "#" in raw else raw).strip()
        if not line:
            continue
        if line.startswith("trans ") and ("->" in line or ":" in line):
            body = line[6:]
            src, _, rest = body.partition("(")
            profile_text, _, rest = rest.partition(")")
            arrow, found, target = rest.partition("->")
            if not found or arrow.strip():
                # the partitions found no `->` right after the profile
                if "(" not in body or ")" not in body or "->" not in body:
                    raise ModelError("expected `trans <state> (<actions>) -> <state>`", lineno)
                raise ModelError("expected `->` right after the action profile", lineno)
            src = src.strip()
            if src not in known_states:
                raise ModelError(f"unknown state {src}", lineno)
            target = target.strip()
            if target not in known_states:
                raise ModelError(f"unknown state {target}", lineno)
            profile = profiles.get(profile_text)
            if profile is None:
                profile = tuple(map(str.strip, profile_text.split(",")))
                if agents is None or len(profile) != len(agents):
                    raise ModelError("action profile length differs from agent count", lineno)
                profiles[profile_text] = profile
            size = len(trans)  # a duplicate key leaves the table's size as it was
            trans[src, profile] = target
            if len(trans) == size:
                raise ModelError(f"duplicate transition at {src} for ({', '.join(profile)})", lineno)
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
    for j, a in enumerate(model.agents):
        for q, column in zip(model.states, model.menus):
            if column[j] != model.actions[a]:
                out.append(f"avail {a} {q}: " + " ".join(column[j]))
    for q, column, row in zip(model.states, model.menus, model.moves):
        for profile, bit in zip(product(*column), row):
            target = model.states[bit.bit_length() - 1]
            out.append(f"trans {q} ({', '.join(profile)}) -> {target}")
    for a in model.agents:
        for idx, _ in model.class_masks[a]:
            for left, right in zip(idx, idx[1:]):
                out.append(f"obs {a}: {model.states[left]} ~ {model.states[right]}")
    for p in model.props:
        members = sorted(model.valuation[p], key=model.state_index.__getitem__)
        out.append(f"prop {p}: " + " ".join(members))
    return "\n".join(out) + "\n"
