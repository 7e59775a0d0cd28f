"""The four benchmark workloads: inputs, expected answers and input counts.

Every op's expected answer comes from a pinned acceptance or scenario value,
a reason written beside the op, or the brute-force oracle in
`tests/bruteforce.py`, evaluated before the timed loop. No expected answer is
read from the checker being measured.

The benchmark calls atlh only through public names, looked up on the module
at call time so the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, fields
from random import Random

from atlh import cegm, cli, formula, scenarios, succinct, translate

CLI_LIMIT_S = 10.0  # one `atlh check` op
LIBRARY_LIMIT_S = 30.0  # one library call (coercion verdict, succinctness rows, harness sample)
STRATEGIC_NODES = (formula.CoalX, formula.CoalG, formula.CoalU, formula.CoalFG)
FORMATS = ("text", "csv", "json-lines")


class Mismatch(Exception):
    """An op's output differs from its expected answer."""


@dataclass
class Op:
    """One timed call plus how to judge its result."""

    kind: str
    run: object  # () -> result
    verify: object  # (result) -> None, raises Mismatch
    limit_s: float


# ---------------------------------------------------------------------------
# Input counts, through the public model and formula API


def children(f):
    out = []
    for spec in fields(f):
        value = getattr(f, spec.name)
        if isinstance(value, formula.Formula):
            out.append(value)
        elif isinstance(value, tuple):
            out.extend(v for v in value if isinstance(v, formula.Formula))
    return out


def walk(f):
    """Every node of the formula tree, shared subtrees counted per occurrence."""
    stack, nodes = [f], []
    while stack:
        g = stack.pop()
        nodes.append(g)
        stack.extend(children(g))
    return nodes


def strategy_space(model, coalition, mode: str) -> int:
    """Product of the coalition's action counts over its choice points."""
    total = 1
    for agent in model.agents:
        if agent not in coalition:
            continue
        if mode == "ir":
            for cls in model.epistemic_classes(agent):
                total *= len(model.avail(agent, next(iter(cls))))
        else:
            for q in model.states:
                total *= len(model.avail(agent, q))
    return total


def formula_strategy_space(model, f, mode: str = "ir") -> int:
    """Summed strategy space of the distinct strategic subformulas of `f`."""
    strategic = {g for g in walk(f) if isinstance(g, STRATEGIC_NODES)}
    return sum(strategy_space(model, g.coalition, mode) for g in strategic)


def formula_counts(model, f, mode: str = "ir") -> dict:
    nodes = walk(f)
    return {
        "formula_nodes": len(nodes),
        "subformulas": len(set(nodes)),
        "strategy_space": formula_strategy_space(model, f, mode),
    }


def add_counts(total: dict, part: dict) -> dict:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value
    return total


class CallCounts:
    """Counts the tracer derives from a kept call's arguments and result."""

    @staticmethod
    def strategy_space(name: str, call) -> int:
        args, kwargs, _ = call

        def arg(index, key, default=None):
            return args[index] if len(args) > index else kwargs.get(key, default)

        model = arg(0, "model")
        if name == "mcheck.strategic_holds":
            opts = arg(5, "opts")
            return strategy_space(model, arg(2, "coalition"), getattr(opts, "strategy_mode", "ir"))
        if name == "mcheck.label":
            f, opts = arg(1, "f"), arg(2, "opts")
        else:
            f, opts = arg(2, "f"), arg(3, "opts")
        return formula_strategy_space(model, f, getattr(opts, "strategy_mode", "ir"))

    @staticmethod
    def formula_length(f) -> int:
        return formula.formula_length(f)


# ---------------------------------------------------------------------------
# CLI ops and their output parsers


def cli_run(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return run


def parse_witness_text(text: str) -> dict:
    actions = {}
    for part in text.split("; "):
        agent, _, moves = part.partition(": ")
        actions[agent] = dict(move.split("=", 1) for move in moves.split())
    return actions


def parse_check(fmt: str, out: str) -> dict:
    """Verdict, state, witness actions and labels from `atlh check` output."""
    got = {"result": None, "state": None, "witness": None, "labels": {}}
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["state", "formula", "result"] or len(rows) != 2:
            raise Mismatch(f"unexpected csv output {out!r}")
        got["state"], got["result"] = rows[1][0], rows[1][2]
    elif fmt == "json-lines":
        for line in out.splitlines():
            record = json.loads(line)
            if record["event"] == "verdict":
                got["state"] = record["state"]
                got["result"] = "true" if record["result"] else "false"
            elif record["event"] == "witness":
                got["witness"] = record["actions"]
            elif record["event"] == "label":
                got["labels"][record["formula"]] = frozenset(record["states"])
    else:
        for line in out.splitlines():
            if line.startswith("label "):
                text, _, states = line[len("label ") :].rpartition(":")
                got["labels"][text] = frozenset(states.split())
            else:
                key, _, value = line.partition(": ")
                if key in ("state", "result"):
                    got[key] = value
                elif key == "witness":
                    got["witness"] = parse_witness_text(value)
    return got


@dataclass
class CheckSpec:
    """An `atlh check` call with its expected answer and the reason for it."""

    model: str
    text: str
    verdict: bool
    reason: str
    state: str | None = None
    mode: str = "ir"
    scope: str = "objective"
    dump: bool = False
    witness: object = None  # (actions dict) -> bool, for true strategic formulas


def check_op(spec: CheckSpec, path: str, fmt: str, labels: dict | None) -> Op:
    argv = ["check", "--model", path, "--formula", spec.text, "--output", fmt]
    if spec.state:
        argv += ["--state", spec.state]
    if spec.mode != "ir":
        argv += ["--strategy-mode", spec.mode]
    if spec.scope != "objective":
        argv += ["--scope", spec.scope]
    if spec.dump:
        argv.append("--dump-labels")

    def verify(result):
        code, out, err = result
        want = "true" if spec.verdict else "false"
        if code != (0 if spec.verdict else 1) or err:
            raise Mismatch(f"exit {code}, stderr {err!r}, expected {want} ({spec.reason})")
        got = parse_check(fmt, out)
        if got["result"] != want or (spec.state and got["state"] != spec.state):
            raise Mismatch(f"got {got['result']} at {got['state']}, expected {want} ({spec.reason})")
        if spec.witness and fmt != "csv" and not (got["witness"] and spec.witness(got["witness"])):
            raise Mismatch(f"witness {got['witness']} fails its expectation ({spec.reason})")
        if labels is not None and fmt != "csv":
            printed = {formula.parse_formula(t): s for t, s in got["labels"].items()}
            if printed != labels:
                raise Mismatch("dumped labels differ from the brute-force oracle")

    kind = f"check {spec.model} {' '.join(argv[5:])} {spec.text}"
    return Op(kind, cli_run(argv), verify, CLI_LIMIT_S)


def oracle_labels(oracle, model, f) -> dict:
    """Oracle state set for every distinct subformula of `f`."""
    return {g: oracle.oracle_label(model, g) for g in set(walk(f))}


def expect(value, reason):
    def verify(result):
        if result is not value:
            raise Mismatch(f"got {result!r}, expected {value!r} ({reason})")

    return verify


def cold_import(root) -> None:
    """Start a fresh interpreter and import the CLI, as every `atlh` run does."""
    code = f"import sys; sys.path.insert(0, {str(root / 'src')!r}); import atlh.cli"
    subprocess.run([sys.executable, "-I", "-c", code], check=True, cwd=root)


def write_model(path, model) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(cegm.save_model(model))


def read_model(path):
    with open(path, encoding="utf-8") as handle:
        return cegm.load_model(handle.read())


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Set-up, expected answers and the op cycle of one workload.

    A run measures whole cycles; throughput is taken per cycle.
    """

    name = ""

    def __init__(self, root, out_dir, seed: int, oracle):
        self.root, self.out, self.seed, self.oracle = root, out_dir, seed, oracle
        self.rng = Random(seed)

    def setup(self) -> None:
        cold_import(self.root)

    def prepare(self) -> None:
        """Untimed: expected answers."""

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def input_counts(self) -> dict:
        raise NotImplementedError


VOTES = ("ab", "Ab", "aB", "AB")
COERCION = "<v, c> F (V1_eq_ab & (V1_eq_V2 | K[c] V1_eq_ab))"
NO_COERCION = (
    "the ir objective query is the ab conjunct of criterion 6's epistemic property, which"
    " holds; v has singleton classes and c one action, so Ir equals ir; subjective success"
    " implies objective success"
)


class ThreeBallotCli(Workload):
    name = "threeballot-cli"

    def setup(self) -> None:
        super().setup()
        self.path = str(self.out / "threeballot.cegm")
        write_model(self.path, scenarios.gen_threeballot())
        self.model = read_model(self.path)

    def prepare(self) -> None:
        vote = self.rng.choice(VOTES)
        self.dump_text = f"<> G !(V1_eq_{vote} & !V1_eq_V2 & !H[c] = log(4) {{V_A, V_B}})"
        self.specs = [
            CheckSpec("threeballot", COERCION, False, NO_COERCION, mode=mode, scope=scope)
            for mode in ("ir", "Ir")
            for scope in ("objective", "subjective")
        ]
        self.specs.append(
            CheckSpec(
                "threeballot",
                "<v, c> F V1_eq_ab",
                True,
                "v fixes its own vote at q0; every winning strategy picks an ab fill there",
                witness=lambda actions: actions["v"]["q0"].startswith("ab_"),
            )
        )
        dump_f = formula.parse_formula(self.dump_text)
        self.dump_labels = oracle_labels(self.oracle, self.model, dump_f)
        self.specs.append(
            CheckSpec(
                "threeballot",
                self.dump_text,
                self.model.initial in self.dump_labels[dump_f],
                "brute-force oracle",
                dump=True,
            )
        )
        self.specs.append(
            CheckSpec(
                "threeballot",
                "<w> F V1_eq_V2",
                True,
                "w sees every state and votes after v, so a perfect-information attractor"
                " puts q0 among the winning states",
            )
        )
        self.library = [
            ("coercion_epistemic", lambda m: scenarios.coercion_epistemic(m), True,
             "criterion 6", scenarios.epistemic_coercion_property()),
            ("coercion_hartley", lambda m: scenarios.coercion_hartley(m), False,
             "criterion 6", scenarios.hartley_invariant_property()),
            ("coercion_hartley_strategic", lambda m: scenarios.coercion_hartley(m, strategic=True),
             True, "scenario test of the strategic reading", scenarios.hartley_coercion_property()),
        ]

    def cycle(self) -> list[Op]:
        model = self.model
        ops = [
            Op(f"lib:{kind}", lambda call=call: call(model), expect(value, reason), LIBRARY_LIMIT_S)
            for kind, call, value, reason, _ in self.library
        ]
        for spec in self.specs:
            ops.append(check_op(spec, self.path, "text", self.dump_labels if spec.dump else None))
        self.rng.shuffle(ops)
        return ops

    def input_counts(self) -> dict:
        counts = {"model_states": len(self.model.states), "out_nodes": 0}
        for *_, prop in self.library:
            add_counts(counts, formula_counts(self.model, prop))
        for spec in self.specs:
            add_counts(counts, formula_counts(self.model, formula.parse_formula(spec.text), spec.mode))
        coalition = ("v", "c")
        pins = {
            "model states": (len(self.model.states), 189),
            "<v, c> ir strategies": (strategy_space(self.model, coalition, "ir"), 10368),
            "<v, c> Ir strategies": (strategy_space(self.model, coalition, "Ir"), 10368),
            "<w> ir strategies": (strategy_space(self.model, ("w",), "ir"), 2**60),
        }
        for what, (got, want) in pins.items():
            if got != want:
                raise Mismatch(f"{what}: {got}, pinned {want}")
        return counts


FIG1_WITNESS = "<v> F (Voted & V_A & G !(K[c] V_A | K[c] !V_A))"
SINGLE = f"{FIG1_WITNESS} & <v> F (Voted & !V_A & G !(K[c] V_A | K[c] !V_A))"
NEVER_KNOWS_AB = "G !(K[c] V_A | K[c] !V_A | K[c] V_B | K[c] !V_B)"
DOUBLE = " & ".join(
    f"<v> F (Voted & {sa}V_A & {sb}V_B & {NEVER_KNOWS_AB})"
    for sa, sb in (("", ""), ("", "!"), ("!", ""), ("!", "!"))
)
DOUBT = "<v> F (Voted & H[c] >= 2 {V_A, V_B})"
DOUBT_AT = "H[c] >= 2 {V_A, V_B}"


class ReferendumCli(Workload):
    name = "referendum-cli"

    SPECS = (
        CheckSpec("fig1", FIG1_WITNESS, True, "README example",
                  witness=lambda a: a == {"v": {"s0": "voteA", "s1": "eps", "s2": "eps"}}),
        CheckSpec("fig1", SINGLE, True, "criterion 1"),
        CheckSpec("m1", DOUBLE, True, "criterion 2"),
        CheckSpec("m2", DOUBLE, True, "criterion 2"),
        CheckSpec("m2", DOUBT, True,
                  "criterion 3; every vote leaves the M2 coercer two bits of doubt, so the"
                  " first vote action in declaration order wins",
                  witness=lambda a: a == {"v": {"s0": "voteANB", **{f"s{i}": "eps" for i in range(1, 5)}}}),
        CheckSpec("m1", DOUBT, False, "criterion 3"),
        CheckSpec("m2", DOUBT_AT, True, "criterion 3", state="s1", dump=True),
        CheckSpec("m1", DOUBT_AT, False, "criterion 3", state="s1", dump=True),
    )

    def setup(self) -> None:
        super().setup()
        generated = {
            "fig1": scenarios.gen_referendum_single(),
            "m1": scenarios.gen_referendum_double("M1"),
            "m2": scenarios.gen_referendum_double("M2"),
        }
        self.paths, self.models = {}, {}
        for name, model in generated.items():
            self.paths[name] = str(self.out / f"{name}.cegm")
            write_model(self.paths[name], model)
            self.models[name] = read_model(self.paths[name])

    def prepare(self) -> None:
        self.labels = {
            (spec.model, spec.text): oracle_labels(
                self.oracle, self.models[spec.model], formula.parse_formula(spec.text)
            )
            for spec in self.SPECS
            if spec.dump
        }

    def cycle(self) -> list[Op]:
        ops = [
            check_op(spec, self.paths[spec.model], self.rng.choice(FORMATS),
                     self.labels.get((spec.model, spec.text)))
            for spec in self.SPECS
        ]
        self.rng.shuffle(ops)
        return ops

    def input_counts(self) -> dict:
        counts = {"model_states": sum(len(m.states) for m in self.models.values()), "out_nodes": 0}
        if counts["model_states"] != 13:
            raise Mismatch(f"referendum models have {counts['model_states']} states, pinned 3 + 5 + 5")
        for spec in self.SPECS:
            f = formula.parse_formula(spec.text)
            add_counts(counts, formula_counts(self.models[spec.model], f, spec.mode))
        return counts


class Translation(Workload):
    """A fixed pool of harness samples, in an order drawn from the seed.

    The pool is fixed because 0.6% of samples take 40% of the time: a pool
    drawn per seed made throughput differ by a third from seed to seed.
    """

    name = "translation"
    POOL = 640
    POOL_SEED = 20260815  # criterion 7's seed
    COUNTED = 32  # leading pool samples whose input counts are recorded

    def setup(self) -> None:
        super().setup()
        rng = Random(self.POOL_SEED)
        self.seeds = [rng.getrandbits(64) for _ in range(self.POOL)]
        self.lines = {}

    def cycle(self) -> list[Op]:
        ops = [
            Op("harness", lambda s=s: translate.check_translation_equivalence(samples=1, seed=s),
               lambda report, index=index: self._verify(index, report), LIBRARY_LIMIT_S)
            for index, s in enumerate(self.seeds)
        ]
        self.rng.shuffle(ops)
        return ops

    def _verify(self, index: int, report) -> None:
        # Both translations are equivalences, so no state may disagree
        # (criterion 7 pins 0 mismatches over 1000 samples).
        if report.mismatches != 0 or len(report.lines) != 1 or not report.lines[0].endswith("verdict=ok"):
            raise Mismatch(f"translation mismatch: {report.lines}")
        if index < self.COUNTED:
            self.lines[index] = report.lines[0]

    def input_counts(self) -> dict:
        """Counts for the leading samples, redrawn the way the harness documents
        (one derived seed per sample, then a model and a formula from it) and
        matched against the sample line the harness printed."""
        from atlh import sampling

        counts = {"model_states": 0, "formula_nodes": 0, "subformulas": 0, "strategy_space": 0, "out_nodes": 0}
        for index, s in enumerate(self.seeds[: self.COUNTED]):
            rng = Random(Random(s).getrandbits(64))
            model = sampling.random_cegm(rng, max_states=6, max_agents=3)
            f = sampling.random_formula(rng, model.props, model.agents, depth=3, strategic_budget=1, beta_max=2)
            line = self.lines.get(index, "")
            if f" states={len(model.states)} formula={formula.pretty_print(f)} " not in line:
                raise Mismatch(f"sample {s} is not the one the harness drew: {line!r}")
            counts["model_states"] += len(model.states)
            add_counts(counts, formula_counts(model, f))
            for out in (translate.h_to_k(f, beta_cap=2), translate.k_to_h(f)):
                counts["out_nodes"] += formula.formula_length(out)
        return counts


SUCCINCT_ROWS = ((1, 2, 10, 4, 4), (2, 3, 31, 19, 19))
SUCCINCT_KEYS = ("n", "len_phi_n", "len_translated", "fsg_min", "mel_min")


class Succinctness(Workload):
    """No random input: `succinctness_rows(nmax=2)` is fixed, the seed only names the run."""

    name = "succinctness"

    def setup(self) -> None:
        super().setup()
        self.instances = [succinct.separation_instance(n) for n in (1, 2)]

    def cycle(self) -> list[Op]:
        def verify(rows):
            # README table and criterion 10: both engines find 4 and 19.
            got = tuple(tuple(row[k] for k in SUCCINCT_KEYS) for row in rows)
            if got != SUCCINCT_ROWS or any(not isinstance(row["wallclock_ms"], int) for row in rows):
                raise Mismatch(f"succinctness rows {got}, pinned {SUCCINCT_ROWS}")

        return [Op("rows", lambda: succinct.succinctness_rows(2), verify, LIBRARY_LIMIT_S)]

    def input_counts(self) -> dict:
        counts = {"model_states": 0, "formula_nodes": 0, "subformulas": 0, "strategy_space": 0, "out_nodes": 0}
        for n, (left, right) in zip((1, 2), self.instances):
            models = {id(pm.model): pm.model for pm in left + right}
            counts["model_states"] += sum(len(m.states) for m in models.values())
            f = succinct.phi_n(n)
            add_counts(counts, formula_counts(left[0].model, f))
            counts["out_nodes"] += formula.formula_length(translate.h_to_k(f))
        if counts["model_states"] != 3 + 13 or counts["out_nodes"] != 10 + 31:
            raise Mismatch(f"succinctness inputs {counts} differ from the pinned family sizes")
        return counts


WORKLOADS = {w.name: w for w in (ThreeBallotCli, Translation, Succinctness, ReferendumCli)}
