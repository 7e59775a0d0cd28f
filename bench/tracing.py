"""In-memory span tracer for the benchmark's traced runs.

Spans wrap public atlh functions at the names under which callers look them
up: every atlh module (and the package root) that binds the same function
object gets a wrapper. A module's own binding is wrapped only outside
`formula`, whose walkers call `formula_length` and `pretty_print` about 750k
times per translation run; those internal calls stay untraced and count as
self time of the walker that makes them. Home-module wrappers swap the plain
function back in while they run, so a recursive function (`k_to_h`) recurses
through no wrapper, and a re-entrant call of an already open span name runs
unwrapped. A hooked name that no longer exists is reported as absent.

Spans live in a list until the run ends; `summary` derives the per-layer
metrics from them and `dump` writes them out.
"""

from __future__ import annotations

import importlib
import json
import time

MODULES = ("cli", "cegm", "formula", "mcheck", "translate", "sampling", "scenarios", "succinct")

# (module, function) pairs; span names are "<module>.<function>".
HOOKS = (
    ("cli", "main"),
    ("cegm", "load_model"),
    ("cegm", "save_model"),
    ("formula", "parse_formula"),
    ("formula", "subformulas_by_length"),
    ("formula", "pretty_print"),
    ("formula", "formula_length"),
    ("mcheck", "check"),
    ("mcheck", "label"),
    ("mcheck", "find_witness"),
    ("mcheck", "strategic_holds"),
    ("translate", "check_translation_equivalence"),
    ("translate", "h_to_k"),
    ("translate", "k_to_h"),
    ("sampling", "random_cegm"),
    ("sampling", "random_formula"),
    ("scenarios", "gen_threeballot"),
    ("scenarios", "coercion_epistemic"),
    ("scenarios", "coercion_hartley"),
    ("succinct", "succinctness_rows"),
    ("succinct", "fsg_min_win"),
    ("succinct", "min_mel_formula"),
    ("succinct", "separation_instance"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in HOOKS)
NO_HOME_PATCH = ("formula",)

LABEL_PASSES = ("mcheck.check", "mcheck.label", "mcheck.find_witness")
STRATEGIC = LABEL_PASSES + ("mcheck.strategic_holds",)
TRANSLATIONS = ("translate.h_to_k", "translate.k_to_h")
# Spans whose arguments or result a derived count needs after the op.
KEEP_CALL = STRATEGIC + TRANSLATIONS

DERIVED = (
    "cli.label_passes",
    "mcheck.strategy_space",
    "translate.check_calls",
    "translate.out_nodes",
)

# Span record fields.
NAME, OP, PARENT, START, END, ERROR, CALL = range(7)


class Tracer:
    """Records spans while installed; `op` tags spans with the current op."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open: set[str] = set()
        self.op = -1
        self.ops = 0
        self.absent: list[str] = []
        self.derived = {name: 0 for name in DERIVED}
        self._patches: list[tuple] = []  # (module, attr, original, wrapper)
        self._plan()

    def _plan(self) -> None:
        mods = {name: importlib.import_module(f"atlh.{name}") for name in MODULES}
        mods["atlh"] = importlib.import_module("atlh")
        for home, fn_name in HOOKS:
            span = f"{home}.{fn_name}"
            original = getattr(mods[home], fn_name, None)
            if not callable(original):
                self.absent.append(span)
                continue
            for mod_name, mod in mods.items():
                if mod_name == home and home in NO_HOME_PATCH:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        wrapper = self._wrap(span, original, mod, attr, mod_name == home)
                        self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, span_name, fn, mod, attr, swap):
        tracer = self

        def traced(*args, **kwargs):
            if span_name in tracer.open:
                return fn(*args, **kwargs)
            if swap:
                setattr(mod, attr, fn)
            spans = tracer.spans
            call = (args, kwargs, None) if span_name in KEEP_CALL else None
            record = [span_name, tracer.op, tracer.stack[-1] if tracer.stack else -1, 0.0, 0.0, False, call]
            spans.append(record)
            tracer.stack.append(len(spans) - 1)
            tracer.open.add(span_name)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[ERROR] = True
                raise
            finally:
                record[END] = time.perf_counter()
                tracer.stack.pop()
                tracer.open.discard(span_name)
                if swap:
                    setattr(mod, attr, traced)
            if call:
                record[CALL] = (args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)
        self.stack.clear()
        self.open.clear()

    def begin_op(self, op_id: int) -> int:
        self.op = op_id
        self.ops += 1
        return len(self.spans)

    def settle_op(self, first: int, counts) -> None:
        """Fold the op's kept calls into the derived counts and drop them.

        `counts` supplies the two counts computed through the public API:
        `strategy_space(name, call)` and `formula_length(formula)`.
        """
        spans = self.spans
        for i in range(first, len(spans)):
            record = spans[i]
            call = record[CALL]
            if call is None:
                continue
            record[CALL] = None
            name = record[NAME]
            if name in STRATEGIC:
                self.derived["mcheck.strategy_space"] += counts.strategy_space(name, call)
                if name in LABEL_PASSES and self._under(i, "cli.main"):
                    self.derived["cli.label_passes"] += 1
                if name == "mcheck.check" and self._under(i, "translate.check_translation_equivalence"):
                    self.derived["translate.check_calls"] += 1
            elif self._under(i, "translate.check_translation_equivalence") and call[2] is not None:
                self.derived["translate.out_nodes"] += counts.formula_length(call[2])

    def _under(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == ancestor:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def summary(self) -> dict:
        """Per-op calls, self seconds and errors for every hook, plus derived counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for record in spans:
            if record[PARENT] >= 0:
                child_time[record[PARENT]] += record[END] - record[START]
        ops = max(self.ops, 1)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.errors"] = 0
        for i, record in enumerate(spans):
            name = record[NAME]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += record[END] - record[START] - child_time[i]
            out[f"{name}.errors"] += record[ERROR]
        for key in out:
            out[key] /= ops
        cli_ops = out["cli.main.calls"] * ops
        harness_ops = out["translate.check_translation_equivalence.calls"] * ops
        out["cli.label_passes"] = self.derived["cli.label_passes"] / cli_ops if cli_ops else 0.0
        out["mcheck.strategy_space"] = self.derived["mcheck.strategy_space"] / ops
        for key in ("translate.check_calls", "translate.out_nodes"):
            out[key] = self.derived[key] / harness_ops if harness_ops else 0.0
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "op", "parent", "start", "end", "error"],
                    "absent": self.absent,
                    "spans": [record[:CALL] for record in self.spans],
                },
                handle,
                separators=(",", ":"),
            )
