"""Command-line front end: check formulas, translate, generate models, run
the bundled experiments.

Exit codes: 0 for a true verdict (or plain success), 1 for a false verdict
(or a harness that found mismatches), 2 for any usage, parse, validation or
cap error. Output is deterministic for a fixed command line and seed, except
for wallclock columns.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .cegm import ModelError, load_model, save_model
from .formula import FormulaError, formula_length, parse_formula, pretty_print
from .mcheck import CheckError, CheckOptions, label_masks
from .scenarios import (
    ScenarioError,
    gen_referendum_double,
    gen_referendum_single,
    gen_threeballot,
    infoset_table_csv,
    render_infoset_table,
    threeballot_infosets,
)
from .succinct import SuccinctError, gen_Mn, gen_Nnj, succinctness_rows
from .translate import (
    TranslateError,
    check_translation_equivalence,
    h_to_k,
    k_to_h,
)

_ERRORS = (
    FormulaError,
    ModelError,
    CheckError,
    TranslateError,
    SuccinctError,
    ScenarioError,
    OSError,
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _options(args) -> CheckOptions:
    return CheckOptions(strategy_mode=args.strategy_mode, success_scope=args.scope)


def _formula_text(args) -> str:
    if args.formula is not None and args.formula_file is not None:
        raise FormulaError("both --formula and --formula-file given; pick one")
    if args.formula is not None:
        return args.formula
    if args.formula_file is not None:
        return _read(args.formula_file)
    raise FormulaError("no formula given; use --formula or --formula-file")


def _csv_quote(cell: str) -> str:
    if any(ch in cell for ch in ",\"\n"):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def cmd_check(args) -> int:
    model = load_model(_read(args.model))
    f = parse_formula(_formula_text(args))
    state = args.state if args.state is not None else model.initial
    table, masks, witness = label_masks(
        model, f, _options(args), state, exact=args.dump_labels, witness=True
    )
    verdict = bool(masks[-1] >> model.state_index[state] & 1)
    text = table[-1][1]
    labels = zip(table, masks) if args.dump_labels else ()

    if args.output == "json-lines":
        out = [
            json.dumps(
                {"event": "verdict", "state": state, "formula": text, "result": verdict},
                sort_keys=True,
            )
        ]
        if witness is not None:
            out.append(
                json.dumps(
                    {
                        "event": "witness",
                        "coalition": list(witness.coalition),
                        "actions": {
                            a: dict(sorted(witness.actions[a].items()))
                            for a in witness.coalition
                        },
                    },
                    sort_keys=True,
                )
            )
        for (_, sub, _), mask in labels:
            states = list(model.states_of(mask))
            out.append(
                json.dumps({"event": "label", "formula": sub, "states": states}, sort_keys=True)
            )
    elif args.output == "csv":
        out = ["state,formula,result", f"{state},{_csv_quote(text)},{str(verdict).lower()}"]
    else:
        out = [f"formula: {text}", f"state: {state}", f"result: {str(verdict).lower()}"]
        if witness is not None:
            out.append(f"witness: {witness}")
        for (_, sub, _), mask in labels:
            out.append(f"label {sub}: {' '.join(model.states_of(mask))}")
    print("\n".join(out))
    return 0 if verdict else 1


def cmd_translate(args) -> int:
    f = parse_formula(_formula_text(args))
    if args.dir == "h2k":
        result = h_to_k(f, node_cap=args.cap_nodes)
    else:
        result = k_to_h(f, node_cap=args.cap_nodes)
    sizes = (formula_length(f), formula_length(result))
    if sizes[1] > args.cap_nodes:
        raise TranslateError(f"translation has {sizes[1]} nodes, over the cap {args.cap_nodes}")
    text = pretty_print(result)
    if args.output == "json-lines":
        print(
            json.dumps(
                {
                    "event": "translation",
                    "direction": args.dir,
                    "output": text,
                    "input_length": sizes[0],
                    "output_length": sizes[1],
                },
                sort_keys=True,
            )
        )
    elif args.output == "csv":
        print("direction,output,input_length,output_length")
        print(f"{args.dir},{_csv_quote(text)},{sizes[0]},{sizes[1]}")
    else:
        print(text)
        print(f"input length: {sizes[0]}")
        print(f"output length: {sizes[1]}")
    return 0


def _gen(build):
    """The `run` of one `gen` target: build its model, write it out."""

    def run(args) -> int:
        text = save_model(build(args))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            print(text, end="")
        return 0

    return run


def _gen_Mn(args):
    if args.n is None:
        raise SuccinctError("gen Mn needs --n")
    return gen_Mn(args.n)


def _gen_Nnj(args):
    if args.n is None or args.j is None:
        raise SuccinctError("gen Nnj needs --n and --j")
    return gen_Nnj(args.n, args.j)


def cmd_succinctness(args) -> int:
    header = "n,len_phi_n,len_translated,fsg_min,mel_min,wallclock_ms"
    out = [header]
    for row in succinctness_rows(args.nmax, node_cap=args.cap_nodes):
        out.append(",".join("" if row[k] is None else str(row[k]) for k in header.split(",")))
    print("\n".join(out))
    return 0


def cmd_translation_equivalence(args) -> int:
    report = check_translation_equivalence(
        samples=args.samples, seed=args.seed, opts=_options(args)
    )
    print(report)
    print(f"mismatches: {report.mismatches}")
    return 0 if report.mismatches == 0 else 1


def cmd_threeballot_table(args) -> int:
    rows = threeballot_infosets()
    if args.output == "csv":
        print(infoset_table_csv(rows))
    else:
        print(render_infoset_table(rows))
    return 0


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _add_check_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy-mode", choices=("ir", "Ir"), default="ir")
    p.add_argument("--scope", choices=("objective", "subjective"), default="objective")


def _add_formula_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--formula", help="formula text")
    p.add_argument("--formula-file", help="file containing the formula")


_OUTPUTS = ("text", "csv", "json-lines")
_CAP_NODES = 10**6
# Count flags that must be at least 1; each is checked only where declared.
_POSITIVE = ("cap_nodes", "nmax", "samples")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; parsing leaves it unchanged.

    Every leaf command declares exactly the flags it reads and sets its
    own `run`.
    """
    parser = argparse.ArgumentParser(
        prog="atlh",
        description="Model checking for strategic logics with knowledge and uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate a formula on a model")
    p_check.add_argument("--model", required=True, help="model file path")
    _add_formula_source(p_check)
    p_check.add_argument("--state", help="state to check (default: initial state)")
    p_check.add_argument(
        "--dump-labels", action="store_true", help="print every subformula's states"
    )
    _add_check_options(p_check)
    p_check.add_argument("--output", choices=_OUTPUTS, default="text")
    p_check.set_defaults(run=cmd_check)

    p_tr = sub.add_parser("translate", help="rewrite between the two logics")
    p_tr.add_argument("--dir", choices=("h2k", "k2h"), required=True)
    _add_formula_source(p_tr)
    p_tr.add_argument("--cap-nodes", type=int, default=_CAP_NODES)
    p_tr.add_argument("--output", choices=_OUTPUTS, default="text")
    p_tr.set_defaults(run=cmd_translate)

    gen = sub.add_parser("gen", help="generate a bundled model")
    targets = gen.add_subparsers(dest="target", required=True)
    for name, build, sizes in (
        ("fig1", lambda args: gen_referendum_single(), ()),
        ("m1", lambda args: gen_referendum_double("M1"), ()),
        ("m2", lambda args: gen_referendum_double("M2"), ()),
        ("threeballot", lambda args: gen_threeballot(), ()),
        ("Mn", _gen_Mn, ("--n",)),
        ("Nnj", _gen_Nnj, ("--n", "--j")),
    ):
        p = targets.add_parser(name)
        for flag in sizes:
            p.add_argument(flag, type=int)
        p.add_argument("--out", help="write the model here instead of stdout")
        p.set_defaults(run=_gen(build))

    exp = sub.add_parser("experiment", help="run a bundled experiment")
    names = exp.add_subparsers(dest="name", required=True)
    p = names.add_parser("succinctness")
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--cap-nodes", type=int, default=_CAP_NODES)
    p.set_defaults(run=cmd_succinctness)
    p = names.add_parser("translation-equivalence")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_check_options(p)
    p.set_defaults(run=cmd_translation_equivalence)
    p = names.add_parser("threeballot-table")
    p.add_argument("--output", choices=("text", "csv"), default="text")
    p.set_defaults(run=cmd_threeballot_table)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    for name in _POSITIVE:
        if getattr(args, name, 1) < 1:
            return _fail(f"--{name.replace('_', '-')} must be positive")
    try:
        return args.run(args)
    except _ERRORS as exc:
        return _fail(str(exc))
    except RecursionError:
        return _fail("formula or its translation nested too deeply to process")


if __name__ == "__main__":
    sys.exit(main())
