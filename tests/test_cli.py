"""End-to-end tests for the command-line interface."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import atlh
from atlh import cli
from atlh.cegm import load_model
from atlh.formula import parse_formula
from atlh.cli import main
from atlh.mcheck import CheckOptions
from atlh.scenarios import (
    gen_referendum_double,
    gen_referendum_single,
    gen_threeballot,
    infoset_table_csv,
    threeballot_infosets,
)
from atlh.cegm import save_model
from atlh.translate import TranslationReport

from conftest import within

MICRO = """
agents: a
states: s0 s1 b
init: s0
actions a: x y
obs a: s0 ~ s1
trans s0 (x) -> s1
trans s0 (y) -> b
trans s1 (x) -> b
trans s1 (y) -> s1
trans b (x) -> b
trans b (y) -> b
prop p: s0 s1
"""


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.cegm"
    path.write_text(save_model(gen_referendum_single()), encoding="utf-8")
    return str(path)


@pytest.fixture
def micro_path(tmp_path):
    path = tmp_path / "micro.cegm"
    path.write_text(MICRO, encoding="utf-8")
    return str(path)


def test_gen_fig1_round_trips(capsys):
    assert main(["gen", "fig1"]) == 0
    text = capsys.readouterr().out
    model = load_model(text)
    assert model.states == ("s0", "s1", "s2")
    assert text == save_model(gen_referendum_single())


def test_gen_to_file(tmp_path, capsys):
    out = tmp_path / "m.cegm"
    assert main(["gen", "Mn", "--n", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert len(load_model(out.read_text(encoding="utf-8")).states) == 8


def test_gen_errors(capsys):
    assert main(["gen", "Mn"]) == 2
    assert main(["gen", "Nnj", "--n", "2", "--j", "0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "j must be between 1 and 3" in err
    assert main(["gen", "Nnj", "--n", "2"]) == 2
    assert capsys.readouterr().err == "error: gen Nnj needs --n and --j\n"


def test_check_verdict_and_witness(fig1_path, capsys):
    code = main(
        [
            "check",
            "--model",
            fig1_path,
            "--formula",
            "<v> F (Voted & V_A & G !(K[c] V_A | K[c] !V_A))",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "result: true" in out
    assert "witness: v: s0=voteA" in out


def test_check_false_exit_code(tmp_path, capsys):
    m1 = tmp_path / "m1.cegm"
    main(["gen", "m1", "--out", str(m1)])
    code = main(
        ["check", "--model", str(m1), "--state", "s1", "--formula", "H[c] >= 2 {V_A, V_B}"]
    )
    assert code == 1
    assert "result: false" in capsys.readouterr().out


def test_check_trivial_true(fig1_path, capsys):
    assert main(["check", "--model", fig1_path, "--formula", "true"]) == 0
    out = capsys.readouterr().out
    assert "result: true" in out
    assert "witness" not in out


def test_check_state_default_is_initial(fig1_path, capsys):
    assert main(["check", "--model", fig1_path, "--formula", "!Voted"]) == 0
    assert "state: s0" in capsys.readouterr().out


def test_check_formula_source_ambiguity(fig1_path, tmp_path, capsys):
    ffile = tmp_path / "f.atlh"
    ffile.write_text("true", encoding="utf-8")
    code = main(
        ["check", "--model", fig1_path, "--formula", "true", "--formula-file", str(ffile)]
    )
    assert code == 2
    assert "pick one" in capsys.readouterr().err
    assert main(["check", "--model", fig1_path]) == 2
    code = main(["check", "--model", fig1_path, "--formula-file", str(ffile)])
    assert code == 0


def test_check_error_paths(fig1_path, capsys):
    assert main(["check", "--model", "/nonexistent.cegm", "--formula", "true"]) == 2
    assert main(["check", "--model", fig1_path, "--formula", "p &"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert main(["check", "--model", fig1_path, "--formula", "true", "--state", "zz"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--model", "{bad}", "--formula", "true"],
        ["check", "--model", "{model}", "--formula-file", "{bad}"],
        ["translate", "--dir", "k2h", "--formula-file", "{bad}"],
    ],
)
def test_non_utf8_input_is_a_usage_error(argv, fig1_path, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\x9f")
    assert main([arg.format(bad=bad, model=fig1_path) for arg in argv]) == 2
    err = f"error: {bad}: not UTF-8 text (byte 0: invalid start byte)\n"
    assert capsys.readouterr() == ("", err)


def test_check_dump_labels(fig1_path, capsys):
    code = main(
        ["check", "--model", fig1_path, "--formula", "Voted | V_A", "--dump-labels"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "label V_A: s1" in out
    assert "label Voted: s1 s2" in out
    assert "label Voted | V_A: s1 s2" in out


def test_check_dump_labels_keeps_witness(fig1_path, capsys):
    formula = "<v> F (Voted & V_A & G !(K[c] V_A | K[c] !V_A))"
    assert main(["check", "--model", fig1_path, "--formula", formula]) == 0
    plain = capsys.readouterr().out.splitlines()
    assert main(["check", "--model", fig1_path, "--formula", formula, "--dump-labels"]) == 0
    dumped = capsys.readouterr().out.splitlines()
    assert plain[3] == "witness: v: s0=voteA s1=eps s2=eps"
    assert dumped[:4] == plain
    assert dumped[-1] == f"label {formula}: s0 s1"


# The full --dump-labels stdout of two formulas, byte for byte: labels print
# shortest first, ties by printed text, whatever order the checker labels in.
NEVER_KNOWS = "G !(K[c] V_A | K[c] !V_A | K[c] V_B | K[c] !V_B)"
# criterion 2's clauses: a, b, c and d for the four vote pairs
A, B, C, D = (
    f"<v> F (Voted & {sa}V_A & {sb}V_B & {NEVER_KNOWS})"
    for sa, sb in (("", ""), ("", "!"), ("!", ""), ("!", "!"))
)
DOUBLE = f"{A} & {B} & {C} & {D}"
DOUBLE_LABELS = [
    ("V_A", "s1 s3"),
    ("V_B", "s2 s3"),
    ("Voted", "s1 s2 s3 s4"),
    ("!V_A", "s0 s2 s4"),
    ("!V_B", "s0 s1 s4"),
    ("K[c] V_A", ""),
    ("K[c] V_B", ""),
    ("K[c] !V_A", "s0"),
    ("K[c] !V_B", "s0"),
    ("Voted & V_A", "s1 s3"),
    ("Voted & !V_A", "s2 s4"),
    ("Voted & V_A & V_B", "s3"),
    ("K[c] V_A | K[c] !V_A", "s0"),
    ("Voted & !V_A & V_B", "s2"),
    ("Voted & V_A & !V_B", "s1"),
    ("Voted & !V_A & !V_B", "s4"),
    ("K[c] V_A | K[c] !V_A | K[c] V_B", "s0"),
    ("K[c] V_A | K[c] !V_A | K[c] V_B | K[c] !V_B", "s0"),
    ("!(K[c] V_A | K[c] !V_A | K[c] V_B | K[c] !V_B)", "s1 s2 s3 s4"),
    (A, "s0 s3"),
    (C, "s0 s2"),
    (B, "s0 s1"),
    (D, "s0 s4"),
    (f"{A} & {B}", "s0"),
    (f"{A} & {B} & {C}", "s0"),
    (DOUBLE, "s0"),
]
# length ties among the atoms, and between the two uncertainty operators
TIES = "H[c] = log(4) {V_A, V_B} & !V1_eq_V2 | H[c] >= 2 {V_A, V_B} & V1_eq_ab"
TIES_ORDER = [
    "V1_eq_V2",
    "V1_eq_ab",
    "V_A",
    "V_B",
    "!V1_eq_V2",
    "H[c] = log(4) {V_A, V_B}",
    "H[c] >= 2 {V_A, V_B}",
    "H[c] >= 2 {V_A, V_B} & V1_eq_ab",
    "H[c] = log(4) {V_A, V_B} & !V1_eq_V2",
    TIES,
]
DUMP_DIGESTS = {
    ("m1", DOUBLE, "text"): "acdc6aa3eac955edec9af0664e4922f9b8760eeed19e87554bc436393266897d",
    ("m1", DOUBLE, "json-lines"): "f68e969101f553eb6031c976648b957c1ec5cac0774c84cb563bc2f6b64b32b0",
    ("tb", TIES, "text"): "13722b91aaaefe9c109cb7bf820fd022ed5024bc2e2d9869644a61e8120b9aeb",
    ("tb", TIES, "json-lines"): "33355c879fefbb3433cb065792c9220fd47451eb4a4b1f1abffaadc225e6e288",
}


def test_check_dump_labels_bytes(tmp_path, capsys):
    paths = {}
    for name, model in (("m1", gen_referendum_double("M1")), ("tb", gen_threeballot())):
        paths[name] = tmp_path / f"{name}.cegm"
        paths[name].write_text(save_model(model), encoding="utf-8")
    argv = ["check", "--model", str(paths["m1"]), "--formula", DOUBLE, "--dump-labels"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    head = [f"formula: {DOUBLE}", "state: s0", "result: true"]
    assert text.splitlines() == head + [f"label {f}: {states}" for f, states in DOUBLE_LABELS]
    assert main(argv + ["--output", "json-lines"]) == 0
    events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(e["formula"], " ".join(e["states"])) for e in events[1:]] == DOUBLE_LABELS
    for (name, formula, output), digest in DUMP_DIGESTS.items():
        argv = ["check", "--model", str(paths[name]), "--formula", formula, "--dump-labels"]
        assert main(argv + ["--output", output]) == (0 if name == "m1" else 1)
        out = capsys.readouterr().out
        if name == "tb" and output == "text":
            labels = [line for line in out.splitlines() if line.startswith("label ")]
            assert [line[6:].rpartition(":")[0] for line in labels] == TIES_ORDER
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, output)


@pytest.mark.parametrize(
    "text, message",
    [
        ("zz & aa", "unknown atom aa"),
        ("K[y] Voted & aa", "unknown atom aa"),
        ("<y> X Voted | K[b] Voted", "unknown agent b"),
        ("<y> F zz | <b> X aa", "unknown atom aa"),
        ("E[c, y] Voted & <b> X Voted", "unknown agent b"),
    ],
)
def test_check_reports_first_fault_in_printed_order(fig1_path, capsys, text, message):
    for output in ("text", "csv", "json-lines"):
        argv = ["check", "--model", fig1_path, "--formula", text, "--dump-labels"]
        assert main(argv + ["--output", output]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_check_json_lines(fig1_path, capsys):
    code = main(
        [
            "check",
            "--model",
            fig1_path,
            "--formula",
            "<v> X Voted",
            "--dump-labels",
            "--output",
            "json-lines",
        ]
    )
    assert code == 0
    events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    kinds = [e["event"] for e in events]
    assert kinds[0] == "verdict"
    assert events[0]["result"] is True
    assert events[0]["state"] == "s0"
    assert "witness" in kinds
    witness = events[kinds.index("witness")]
    assert witness["coalition"] == ["v"]
    assert witness["actions"]["v"]["s0"] == "voteA"
    labels = [e for e in events if e["event"] == "label"]
    assert {"event": "label", "formula": "Voted", "states": ["s1", "s2"]} in labels


def test_check_csv_output(fig1_path, capsys, monkeypatch):
    code = main(
        ["check", "--model", fig1_path, "--formula", "Voted", "--output", "csv"]
    )
    assert code == 1
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "state,formula,result"
    assert lines[1] == "s0,Voted,false"
    # csv prints no labels, so --dump-labels asks for no whole-model labels
    exact, label_masks = [], cli.label_masks

    def recording(*args, **kwargs):
        exact.append(kwargs["exact"])
        return label_masks(*args, **kwargs)

    monkeypatch.setattr(cli, "label_masks", recording)
    argv = ["check", "--model", fig1_path, "--formula", "Voted", "--dump-labels"]
    assert main(argv + ["--output", "csv"]) == 1
    assert capsys.readouterr().out == out
    assert main(argv) == 1
    assert exact == [False, True]


def test_check_strategy_flags(micro_path):
    assert main(["check", "--model", micro_path, "--formula", "<a> G p"]) == 1
    assert (
        main(
            ["check", "--model", micro_path, "--formula", "<a> G p", "--strategy-mode", "Ir"]
        )
        == 0
    )
    assert (
        main(
            [
                "check",
                "--model",
                micro_path,
                "--state",
                "s1",
                "--formula",
                "<> X !p",
                "--scope",
                "subjective",
            ]
        )
        == 0
    )


def test_threeballot_witness_output_is_pinned(tmp_path, capsys):
    # the first winning strategy in enumeration order, as strategy
    # enumeration printed it; the fixpoint search must reproduce every byte
    path = tmp_path / "threeballot.cegm"
    path.write_text(save_model(gen_threeballot()), encoding="utf-8")
    assert main(["check", "--model", str(path), "--formula", "<v, c> F V1_eq_ab"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(
        "formula: <c, v> F V1_eq_ab\nstate: q0\nresult: true\n"
        "witness: v: q0=ab_BB_FB_BF bs_ab_BB_FB_BF=BB r_ab_BB_FB_BF_BB=eps "
    )
    assert len(out) == 12104
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "73f74d6a79bf6f7fe0fe66adfbba4dc5fd1c8c3be7be647ac5232123a37a4bb7"


@pytest.mark.parametrize("mode", ["ir", "Ir"])
@pytest.mark.parametrize("scope", ["objective", "subjective"])
def test_threeballot_attractor_output_is_pinned(tmp_path, capsys, mode, scope):
    # w sees every state, so all four combinations print the same witness:
    # the first winning strategy in enumeration order, fixed one choice
    # point at a time with the region recomputed only where it can change
    path = tmp_path / "threeballot.cegm"
    path.write_text(save_model(gen_threeballot()), encoding="utf-8")
    argv = ["check", "--model", str(path), "--formula", "<w> F V1_eq_V2"]
    assert within(1, main, [*argv, "--strategy-mode", mode, "--scope", scope]) == 0
    out = capsys.readouterr().out
    assert out.startswith(
        "formula: <w> F V1_eq_V2\nstate: q0\nresult: true\n"
        "witness: w: q0=eps bs_ab_BB_FB_BF=eps r_ab_BB_FB_BF_BB=ab_BB_FB_BF "
    )
    assert len(out) == 6238
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "51213a0277470b8e5061ac2e627b8725717115ad2da7258bc2fece29704ee87c"


def _run_cli(*argv):
    """`atlh` in a fresh interpreter, so a crash shows as a traceback on stderr."""
    src = str(Path(atlh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "atlh.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_cli_imports_neither_dataclasses_nor_inspect():
    # both cost start-up time in every `atlh` process; `-I` keeps the
    # environment and the user's site-packages out of the fresh interpreter
    src = str(Path(atlh.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import atlh.cli;"
        " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    run = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "text",
    ["!" * 5000 + "Voted", "<v> X " * 400 + "Voted", " & ".join(["Voted"] * 3000)],
    ids=["5000-nots", "400-coalition-next", "3000-conjuncts"],
)
def test_deeply_nested_formula_is_a_clean_error(fig1_path, tmp_path, text):
    formula = tmp_path / "deep.atlh"
    formula.write_text(text, encoding="utf-8")
    run = _run_cli("check", "--model", fig1_path, "--formula-file", str(formula))
    assert run.returncode == 2
    assert run.stderr.startswith("error: 1:")
    assert "nested deeper than" in run.stderr
    assert "Traceback" not in run.stderr
    assert run.stdout == ""


def test_deep_translation_within_the_cap_prints():
    # a 1,820-term disjunction, far deeper than the recursion limit
    run = _run_cli("translate", "--dir", "h2k", "--formula", "H[a] = log(4) {p1, p2, p3, p4}")
    assert run.returncode == 0
    assert "Traceback" not in run.stderr
    assert run.stdout.splitlines()[-2:] == ["input length: 5", "output length: 356719"]


def test_translation_too_deep_to_hash_is_a_clean_error():
    # the outer H's member is the inner H's 1,820-deep translation
    run = _run_cli(
        "translate", "--dir", "h2k", "--formula", "H[a] = 1 {H[b] = log(4) {p1, p2, p3, p4}, q}"
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("error: ")
    assert "Traceback" not in run.stderr
    assert run.stderr == "error: translation would have 8561411 nodes, over the cap 1000000\n"


_NINES = "9" * 4301  # one digit over `int`'s default string-conversion limit
_INT_LIMIT = hasattr(sys, "get_int_max_str_digits")  # 3.10 before 3.10.7 has none


def _too_long(formula, col, numeral):
    """A numeral over the limit is an error at its token; with no limit, it parses."""
    if _INT_LIMIT:
        return formula, 2, f"error: 1:{col}: numeral too long: {len(numeral)} characters\n", None
    return formula, 1, "", None


@pytest.mark.parametrize(
    "formula, code, stderr, printed",
    [
        ("H[c] > log(²) {V_A}", 2, "error: 1:12: unexpected character '²'\n", None),
        ("H[c] > ² {V_A}", 2, "error: 1:8: unexpected character '²'\n", None),
        ("H[c] > 1/² {V_A}", 2, "error: 1:10: unexpected character '²'\n", None),
        ("H[c] > log(١) {V_A}", 1, "", "H[c] > log(1) {V_A}"),
        ("H[c] > 1/0 {V_A}", 2,
         "error: 1:10: fraction threshold needs a positive integer denominator\n", None),
        ("H[c] > foo {V_A}", 2, "error: 1:8: expected a threshold, found 'foo'\n", None),
        _too_long(f"H[c] > log({_NINES}) {{V_A}}", 12, _NINES),
        _too_long(f"H[c] > {_NINES} {{V_A}}", 8, _NINES),
        _too_long(f"H[c] > 1/{_NINES} {{V_A}}", 10, _NINES),
        _too_long(f"H[c] > 0.{_NINES} {{V_A}}", 8, "0." + _NINES),
        # 2^-13000 has a 13,000-digit decimal expansion
        (f"H[c] > 1/{2**13000} {{V_A}}", 1, "", f"H[c] > 1/{2**13000} {{V_A}}" if _INT_LIMIT else None),
    ],
    ids=["log-superscript", "superscript", "denominator-superscript", "arabic-indic-one",
         "zero-denominator", "word",
         "long-log", "long-integer", "long-denominator", "long-decimal", "fraction-2^-13000"],
)
def test_threshold_numerals(fig1_path, formula, code, stderr, printed):
    run = _run_cli("check", "--model", fig1_path, "--formula", formula)
    assert (run.returncode, run.stderr) == (code, stderr)
    if code != 2:
        first = run.stdout.splitlines()[0]
        assert first.startswith("formula: ")
        assert parse_formula(first[len("formula: "):]) == parse_formula(formula)
        if printed is not None:
            assert first == f"formula: {printed}"


@pytest.mark.parametrize(
    "direction, text, size, seconds",
    [
        # the output is a DAG of 40 levels that prints as a tree of 3 * 2^40 nodes
        ("k2h", "K[a] " * 40 + "p", 3 * 2**40 - 2, 2),
        ("k2h", "K[a] " * 19 + "p", 1572862, 60),
        # each expansion is under the cap, the three together are not
        ("h2k", " & ".join(["H[a] = log(4) {p1, p2, p3, p4}"] * 3), 1070159, 60),
        # the set is built in time linear in its DAG, then measured
        ("k2h", "H[b] = 1 {" + "K[a] " * 40 + "p, q}", 3 * 2**40, 2),
    ],
    ids=["k2h-40", "k2h-19", "h2k-3x", "k2h-set-40"],
)
def test_cap_nodes_bounds_the_output_in_both_directions(direction, text, size, seconds):
    start = time.perf_counter()
    run = _run_cli("translate", "--dir", direction, "--formula", text)
    assert time.perf_counter() - start < seconds
    assert run.returncode == 2
    assert run.stderr == f"error: translation has {size} nodes, over the cap 1000000\n"
    assert run.stdout == ""


def test_k2h_cap_bounds_the_whole_output(capsys):
    # K nested 6 deep rewrites to 3 * 2^6 - 2 nodes, so the set prints as 192
    argv = ["translate", "--dir", "k2h", "--formula", "H[b] = 1 {" + "K[a] " * 6 + "p, q}"]
    assert main([*argv, "--cap-nodes", "192"]) == 0
    assert capsys.readouterr().out.endswith("output length: 192\n")
    assert main([*argv, "--cap-nodes", "190"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: translation has 192 nodes, over the cap 190\n"
    argv = ["translate", "--dir", "k2h", "--formula", "H[b] = 1 {" + "K[a] " * 40 + "p, q}"]
    assert within(2, main, argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: translation has 3298534883328 nodes, over the cap 1000000\n"


def test_k2h_cap_counts_merged_members_once(capsys):
    # the members rewrite to one formula (8 nodes together, 4 merged), so
    # the output fits a cap below their total
    argv = ["translate", "--dir", "k2h", "--cap-nodes", "7"]
    assert main([*argv, "--formula", "H[a] >= 1 {K[b] p, p & H[b] = log(1) {p}}"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "H[a] >= 1 {p & H[b] = log(1) {p}}", "input length: 7", "output length: 5"
    ]
    assert err == ""


def test_back_to_back_calls_match_single_calls(fig1_path, capsys):
    calls = [
        ["check", "--model", fig1_path, "--formula", "<v> F Voted", "--output", "json-lines"],
        ["check", "--model", fig1_path, "--output", "xml"],
        ["translate", "--dir", "k2h", "--formula", "K[a] p"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    in_a_row = [run(argv) for argv in calls]
    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(run(argv))
    assert in_a_row == alone
    assert [code for code, _ in in_a_row] == [0, 2, 0]
    assert "invalid choice: 'xml'" in in_a_row[1][1].err


def test_translate_k2h(capsys):
    assert main(["translate", "--dir", "k2h", "--formula", "K[a] p"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "p & H[a] = log(1) {p}"
    assert out[1] == "input length: 2"
    assert out[2] == "output length: 4"


def test_translate_h2k_and_identity(capsys):
    assert main(["translate", "--dir", "h2k", "--formula", "H[a] = log(3) {p, q}"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "input length: 3"
    assert out[2].startswith("output length:")

    assert main(["translate", "--dir", "h2k", "--formula", "<v> F (p | !q)"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "<v> F (p | !q)"


def test_translate_cap_error(capsys):
    code = main(
        [
            "translate",
            "--dir",
            "h2k",
            "--formula",
            "H[a] = log(7) {p, q, r, s}",
            "--cap-nodes",
            "100",
        ]
    )
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_translate_json_output(capsys):
    assert (
        main(
            ["translate", "--dir", "k2h", "--formula", "K[a] p", "--output", "json-lines"]
        )
        == 0
    )
    event = json.loads(capsys.readouterr().out)
    assert event["event"] == "translation"
    assert event["output"] == "p & H[a] = log(1) {p}"
    assert event["input_length"] == 2
    assert event["output_length"] == 4


def test_experiment_succinctness(capsys):
    assert main(["experiment", "succinctness", "--nmax", "3"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert first[0] == "n,len_phi_n,len_translated,fsg_min,mel_min,wallclock_ms"
    assert len(first) == 4
    for line in first[1:]:
        n, len_phi, len_tr, *_ = line.split(",")
        assert int(len_phi) == int(n) + 1
        assert int(len_tr) >= 2 ** int(n)
    row3 = first[3].split(",")
    assert row3[3] == "" and row3[4] == ""

    assert main(["experiment", "succinctness", "--nmax", "3"]) == 0
    second = capsys.readouterr().out.splitlines()
    strip = lambda lines: [l.rsplit(",", 1)[0] for l in lines]
    assert strip(first) == strip(second)


def test_experiment_threeballot_table(capsys):
    assert main(["experiment", "threeballot-table"]) == 0
    text = capsys.readouterr().out
    assert "Vote = ab, BS = {BB, FB, BF}" in text
    assert len([l for l in text.splitlines() if " | " in l]) == 21

    assert main(["experiment", "threeballot-table", "--output", "csv"]) == 0
    assert capsys.readouterr().out.strip() == infoset_table_csv(threeballot_infosets())


def test_experiment_translation_equivalence(capsys):
    assert main(["experiment", "translation-equivalence", "--samples", "5", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert first.strip().endswith("mismatches: 0")
    assert len(first.splitlines()) == 6

    main(["experiment", "translation-equivalence", "--samples", "5", "--seed", "7"])
    assert capsys.readouterr().out == first

    main(["experiment", "translation-equivalence", "--samples", "5", "--seed", "8"])
    assert capsys.readouterr().out != first


def test_experiment_translation_equivalence_passes_check_options(monkeypatch):
    seen = []

    def fake(samples, seed, opts):
        seen.append((samples, seed, opts))
        return TranslationReport(lines=[], mismatches=0)

    monkeypatch.setattr(cli, "check_translation_equivalence", fake)
    argv = ["experiment", "translation-equivalence", "--samples", "3", "--seed", "5"]
    assert main(argv + ["--strategy-mode", "Ir", "--scope", "subjective"]) == 0
    assert main(argv) == 0
    assert seen == [
        (3, 5, CheckOptions("Ir", "subjective")),
        (3, 5, CheckOptions("ir", "objective")),
    ]


def test_flag_validation(capsys):
    assert main(["translate", "--dir", "k2h", "--formula", "p", "--cap-nodes", "0"]) == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["experiment", "translation-equivalence", "--samples", "-3"], "--samples"),
        (["experiment", "translation-equivalence", "--samples", "0"], "--samples"),
        (["experiment", "succinctness", "--nmax", "0"], "--nmax"),
        (["experiment", "succinctness", "--cap-nodes", "0"], "--cap-nodes"),
        (["translate", "--dir", "k2h", "--formula", "p", "--cap-nodes", "-1"], "--cap-nodes"),
    ],
)
def test_counts_below_one_are_rejected(argv, flag, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {flag} must be positive\n")


def test_nmax_above_twelve_is_rejected(capsys):
    assert main(["experiment", "succinctness", "--nmax", "13"]) == 2
    assert capsys.readouterr() == ("", "error: nmax must be between 1 and 12, got 13\n")


# The flags that every command used to accept, with a value each would take.
FORMER_COMMON = {
    "--strategy-mode": "Ir",
    "--scope": "subjective",
    "--seed": "1",
    "--cap-nodes": "5",
    "--output": "csv",
}

# Every leaf command, an argv giving it every flag it reads (`{model}`,
# `{formula}` and `{out}` are filled in per test), and the flags it reads
# that the argv cannot also give: `--formula` excludes `--formula-file`.
LEAVES = [
    (
        "check",
        ["--model", "{model}", "--formula-file", "{formula}", "--state", "s0", "--dump-labels",
         "--strategy-mode", "Ir", "--scope", "subjective", "--output", "json-lines"],
        ["--formula"],
    ),
    (
        "translate",
        ["--dir", "k2h", "--formula-file", "{formula}", "--cap-nodes", "100", "--output", "csv"],
        ["--formula"],
    ),
    ("gen fig1", ["--out", "{out}"], []),
    ("gen m1", ["--out", "{out}"], []),
    ("gen m2", ["--out", "{out}"], []),
    ("gen threeballot", ["--out", "{out}"], []),
    ("gen Mn", ["--n", "2", "--out", "{out}"], []),
    ("gen Nnj", ["--n", "2", "--j", "1", "--out", "{out}"], []),
    ("experiment succinctness", ["--nmax", "1", "--cap-nodes", "100"], []),
    (
        "experiment translation-equivalence",
        ["--samples", "1", "--seed", "3", "--strategy-mode", "Ir", "--scope", "subjective"],
        [],
    ),
    ("experiment threeballot-table", ["--output", "csv"], []),
]


def _leaf_flags(parser, words=()):
    """(leaf command words, the long flags its parser declares), recursively."""
    nested = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not nested:
        yield " ".join(words), {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        return
    for name, sub in nested[0].choices.items():
        yield from _leaf_flags(sub, (*words, name))


class _Reads:
    """Forwards attribute reads to a parsed namespace and records their names."""

    def __init__(self, args):
        self._args = args
        self.seen = set()

    def __getattr__(self, name):
        self.seen.add(name)
        return getattr(self._args, name)


def _flags(argv, extra):
    return {a for a in argv if a.startswith("--")} | set(extra)


def test_leaf_table_lists_every_declared_flag():
    declared = dict(_leaf_flags(cli._build_parser()))
    assert declared == {leaf: _flags(argv, extra) for leaf, argv, extra in LEAVES}
    assert sum(len(flags) for flags in declared.values()) == 29


@pytest.mark.parametrize("leaf, argv, extra", LEAVES, ids=[row[0] for row in LEAVES])
def test_each_command_reads_every_flag_it_accepts(tmp_path, capsys, fig1_path, leaf, argv, extra):
    formula = tmp_path / "f.atlh"
    formula.write_text("<v> X Voted", encoding="utf-8")
    fill = {"{model}": fig1_path, "{formula}": str(formula), "{out}": str(tmp_path / "out.cegm")}
    full = leaf.split() + [fill.get(a, a) for a in argv]
    args = cli._build_parser().parse_args(full)
    reads = _Reads(args)
    assert args.run(reads) in (0, 1)
    assert {f[2:].replace("-", "_") for f in _flags(argv, extra)} <= reads.seen
    capsys.readouterr()

    for flag in sorted(set(FORMER_COMMON) - _flags(argv, extra)):
        with pytest.raises(SystemExit) as exc:
            main(full + [flag, FORMER_COMMON[flag]])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert f"error: unrecognized arguments: {flag} {FORMER_COMMON[flag]}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["experiment", "threeballot-table", "--csv"], "unrecognized arguments: --csv"),
        (["experiment", "threeballot-table", "--output", "json-lines"], "invalid choice: 'json-lines'"),
        (["gen", "--out", "m.cegm", "fig1"], "invalid choice: 'm.cegm'"),
    ],
)
def test_removed_and_misplaced_flags_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err and "Traceback" not in err
