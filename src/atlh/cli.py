"""Command-line front end: check formulas, translate, generate models, run
the bundled experiments.

Start-up loads only what every `atlh check` runs: argparse and the
`formula`, `cegm` and `mcheck` modules. A command imports anything else it
runs (the other modules, `json` for json-lines output) when it runs.

Each command maps its parsed arguments to its exit code and stdout text, and
`main` alone writes stdout: so a fault leaves it empty, and a reader that
closes it early (`| head`) ends the run quietly with the command's own code.

Exit codes: 0 for a true verdict (or plain success), 1 for a false verdict
(or a harness that found mismatches), 2 for an `AtlhError` (any usage, parse,
validation or cap error) or an `OSError` (a file that is missing, unreadable
or not UTF-8 text). Output is deterministic for a fixed command line and
seed, except for wallclock columns.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .cegm import load_model, save_model
from .formula import (
    NODE_CAP,
    AtlhError,
    formula_length,
    parse_formula,
    pretty_print,
    printed_order,
    row_texts,
)
from .mcheck import STRATEGY_MODES, SUCCESS_SCOPES, CheckOptions, label_masks


def _options(args) -> CheckOptions:
    return CheckOptions(strategy_mode=args.strategy_mode, success_scope=args.scope)


def _formula_text(args) -> str:
    if args.formula is not None and args.formula_file is not None:
        raise AtlhError("both --formula and --formula-file given; pick one")
    if args.formula is not None:
        return args.formula
    if args.formula_file is not None:
        return _read(args.formula_file)
    raise AtlhError("no formula given; use --formula or --formula-file")


def _text(*lines) -> str:
    """The lines as `print` writes them, one after another."""
    return "".join(f"{line}\n" for line in lines)


def _csv_quote(cell: str) -> str:
    if any(ch in cell for ch in ",\"\n"):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def cmd_check(args) -> tuple[int, str]:
    model = load_model(_read(args.model))
    f = parse_formula(_formula_text(args))
    state = args.state if args.state is not None else model.initial
    dump = args.dump_labels and args.output != "csv"  # csv prints no labels
    rows, masks, witness = label_masks(model, f, _options(args), state, exact=dump, witness=True)
    verdict = bool(masks[-1] >> model.state_index[state] & 1)
    texts = row_texts(rows)
    text = texts[-1]
    labels = [(texts[i], masks[i]) for i in printed_order(rows, texts)] if dump else ()

    if args.output == "json-lines":
        import json

        events = [{"event": "verdict", "state": state, "formula": text, "result": verdict}]
        if witness is not None:
            coalition = witness.coalition
            actions = {a: dict(sorted(witness.actions[a].items())) for a in coalition}
            events.append({"event": "witness", "coalition": list(coalition), "actions": actions})
        for sub, mask in labels:
            states = list(model.states_of(mask))
            events.append({"event": "label", "formula": sub, "states": states})
        out = [json.dumps(event, sort_keys=True) for event in events]
    elif args.output == "csv":
        out = ["state,formula,result", f"{state},{_csv_quote(text)},{str(verdict).lower()}"]
    else:
        out = [f"formula: {text}", f"state: {state}", f"result: {str(verdict).lower()}"]
        if witness is not None:
            out.append(f"witness: {witness}")
        for sub, mask in labels:
            out.append(f"label {sub}: {' '.join(model.states_of(mask))}")
    return (0 if verdict else 1), _text(*out)


def cmd_translate(args) -> tuple[int, str]:
    from .translate import h_to_k, k_to_h

    f = parse_formula(_formula_text(args))
    result = h_to_k(f, node_cap=args.cap_nodes) if args.dir == "h2k" else k_to_h(f)
    sizes = (formula_length(f), formula_length(result))
    if sizes[1] > args.cap_nodes:
        raise AtlhError(f"translation has {sizes[1]} nodes, over the cap {args.cap_nodes}")
    text = pretty_print(result)
    if args.output == "json-lines":
        import json

        event = {
            "event": "translation",
            "direction": args.dir,
            "output": text,
            "input_length": sizes[0],
            "output_length": sizes[1],
        }
        return 0, _text(json.dumps(event, sort_keys=True))
    if args.output == "csv":
        return 0, _text(
            "direction,output,input_length,output_length",
            f"{args.dir},{_csv_quote(text)},{sizes[0]},{sizes[1]}",
        )
    return 0, _text(text, f"input length: {sizes[0]}", f"output length: {sizes[1]}")


def cmd_gen(args) -> tuple[int, str]:
    """Build the `gen` target's model (`args.build`); write it to `--out`, or
    return its text."""
    text = save_model(args.build(args))
    if not args.out:
        return 0, text
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    return 0, ""


def _gen_scenario(args):
    from . import scenarios

    if args.target == "fig1":
        return scenarios.gen_referendum_single()
    if args.target == "threeballot":
        return scenarios.gen_threeballot()
    return scenarios.gen_referendum_double(args.target.upper())


def _gen_Mn(args):
    from .succinct import gen_Mn

    if args.n is None:
        raise AtlhError("gen Mn needs --n")
    return gen_Mn(args.n)


def _gen_Nnj(args):
    from .succinct import gen_Nnj

    if args.n is None or args.j is None:
        raise AtlhError("gen Nnj needs --n and --j")
    return gen_Nnj(args.n, args.j)


def cmd_succinctness(args) -> tuple[int, str]:
    from .succinct import succinctness_rows

    header = "n,len_phi_n,len_translated,fsg_min,mel_min,wallclock_ms"
    out = [header]
    for row in succinctness_rows(args.nmax, node_cap=args.cap_nodes):
        out.append(",".join("" if row[k] is None else str(row[k]) for k in header.split(",")))
    return 0, _text(*out)


def cmd_translation_equivalence(args) -> tuple[int, str]:
    from .translate import check_translation_equivalence

    report = check_translation_equivalence(
        samples=args.samples, seed=args.seed, opts=_options(args)
    )
    return (0 if report.mismatches == 0 else 1), _text(report, f"mismatches: {report.mismatches}")


def cmd_threeballot_table(args) -> tuple[int, str]:
    from .scenarios import infoset_table_csv, render_infoset_table, threeballot_infosets

    rows = threeballot_infosets()
    render = infoset_table_csv if args.output == "csv" else render_infoset_table
    return 0, _text(render(rows))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _add_check_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy-mode", choices=STRATEGY_MODES, default="ir")
    p.add_argument("--scope", choices=SUCCESS_SCOPES, default="objective")


def _add_formula_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--formula", help="formula text")
    p.add_argument("--formula-file", help="file containing the formula")


_OUTPUTS = ("text", "csv", "json-lines")
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
    p_tr.add_argument("--cap-nodes", type=int, default=NODE_CAP)
    p_tr.add_argument("--output", choices=_OUTPUTS, default="text")
    p_tr.set_defaults(run=cmd_translate)

    gen = sub.add_parser("gen", help="generate a bundled model")
    targets = gen.add_subparsers(dest="target", required=True)
    for name, build, sizes in (
        ("fig1", _gen_scenario, ()),
        ("m1", _gen_scenario, ()),
        ("m2", _gen_scenario, ()),
        ("threeballot", _gen_scenario, ()),
        ("Mn", _gen_Mn, ("--n",)),
        ("Nnj", _gen_Nnj, ("--n", "--j")),
    ):
        p = targets.add_parser(name)
        for flag in sizes:
            p.add_argument(flag, type=int)
        p.add_argument("--out", help="write the model here instead of stdout")
        p.set_defaults(run=cmd_gen, build=build)

    exp = sub.add_parser("experiment", help="run a bundled experiment")
    names = exp.add_subparsers(dest="name", required=True)
    p = names.add_parser("succinctness")
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--cap-nodes", type=int, default=NODE_CAP)
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
    """Run one command line, write its text to stdout, return its exit code;
    a fault writes one `error:` line to stderr instead, and returns 2."""
    args = _build_parser().parse_args(argv)
    try:
        for name in _POSITIVE:
            if getattr(args, name, 1) < 1:
                raise AtlhError(f"--{name.replace('_', '-')} must be positive")
        code, text = args.run(args)
    except (AtlhError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(text, end="", flush=True)
    except BrokenPipeError:
        # the reader has gone: send what is left, and the flush at exit, nowhere
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    return code


if __name__ == "__main__":
    sys.exit(main())
