"""Seeded fuzzing of `atlh check` with mutated model text and random formulas.

Whatever the input, the CLI must end with exit 0 or 1 and a verdict, or
exit 2 and an `error:` line on stderr: never a traceback, and within a time
bound per case, which `within` enforces while the case runs.
"""

import time
from random import Random

import pytest

from atlh.cli import main
from atlh.cegm import save_model
from atlh.formula import pretty_print
from atlh.sampling import random_formula
from atlh.scenarios import gen_referendum_single, gen_threeballot

from conftest import TimeLimitExceeded, within

CASE_LIMIT_S = 2.0
JUNK = [
    "", "x", "1a", "s9", "q0", "v", "c", "eps", "(", ")", "->", "~", ":", ",", "#",
    "é", "²", "a·b", "trans", "avail", "obs", "prop", "init", "\t",
]
FORMULA_TOKENS = [
    "<", ">", "<>", ",", "(", ")", "!", "&", "|", "X", "F", "G", "U", "K[", "E[", "H[",
    "]", "{", "}", "=", "<=", ">=", "log(", "1.5", "3", "-1", "true", "false", "zz",
]


def _mutate(rng: Random, text: str) -> str:
    """One line dropped, duplicated or swapped, one token corrupted, or the
    text truncated."""
    lines = text.splitlines(keepends=True)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.randrange(5)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(j, lines[i])
    elif kind == 2:
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 3:
        tokens = lines[i].split(" ")
        tokens[rng.randrange(len(tokens))] = rng.choice(JUNK)
        lines[i] = " ".join(tokens)
    else:
        return text[: rng.randrange(len(text))]
    return "".join(lines)


def _formula_text(rng: Random, atoms, agents, coal_fg: bool) -> str:
    """A printed random formula or a token soup, sometimes with one character
    dropped or inserted."""
    if rng.random() < 0.7:
        f = random_formula(
            rng, atoms, agents, depth=rng.randint(0, 3),
            strategic_budget=rng.randint(0, 2), coal_fg=coal_fg,
        )
        text = pretty_print(f)
    else:
        pool = FORMULA_TOKENS + list(atoms) + list(agents)
        text = " ".join(rng.choice(pool) for _ in range(rng.randint(1, 12)))
    if text and rng.random() < 0.2:
        k = rng.randrange(len(text))
        text = text[:k] + rng.choice(["", "(", ")", "<", "!", "{", "#"]) + text[k + 1:]
    return text


@pytest.mark.parametrize(
    "name, cases, modes, coal_fg",
    [("fig1", 600, ("ir", "Ir"), True), ("threeballot", 120, ("ir", "Ir"), True)],
)
def test_cli_survives_mutated_models_and_random_formulas(
    name, cases, modes, coal_fg, tmp_path, capsys
):
    base = gen_referendum_single() if name == "fig1" else gen_threeballot()
    text = save_model(base)
    rng = Random(f"cli-fuzz-{name}")
    path = tmp_path / "model.cegm"
    exits = {0: 0, 1: 0, 2: 0}
    for case in range(cases):
        path.write_text(_mutate(rng, text) if rng.random() < 0.5 else text, encoding="utf-8")
        formula = _formula_text(rng, base.props, base.agents, coal_fg)
        argv = [
            "check", "--model", str(path), f"--formula={formula}",
            "--strategy-mode", rng.choice(modes),
            "--scope", rng.choice(("objective", "subjective")),
            "--output", rng.choice(("text", "csv", "json-lines")),
        ]
        if rng.random() < 0.3:
            argv.append("--dump-labels")
        if rng.random() < 0.3:
            argv.append("--state=" + rng.choice(base.states[:4] + ("nowhere",)))
        code = within(CASE_LIMIT_S, main, argv)
        out, err = capsys.readouterr()
        where = f"case {case}: {argv}"
        assert code in exits, where
        assert "Traceback" not in err, where
        if code == 2:
            assert err.startswith("error: "), where
            assert out == "", where
        else:
            assert err == "" and out, where
        exits[code] += 1
    # the draws reach the checker as well as the error paths
    assert exits[2] >= cases // 10 and exits[0] + exits[1] >= cases // 10, exits


def test_time_bound_interrupts_a_call_that_swallows_exceptions():
    def swallow():
        try:
            time.sleep(5)
        except Exception:
            return "swallowed"

    started = time.perf_counter()
    with pytest.raises(TimeLimitExceeded):
        within(0.05, swallow)
    assert time.perf_counter() - started < 1.0
