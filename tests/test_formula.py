"""Parser, printer and length-metric tests."""

import copy
import pickle
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from atlh import scenarios
from atlh.formula import (
    And,
    Atom,
    CoalFG,
    CoalG,
    CoalU,
    CoalX,
    FalseF,
    Formula,
    MAX_DEPTH,
    FormulaError,
    Hartley,
    Knows,
    LogOfCount,
    MutualKnows,
    Not,
    Or,
    Real,
    TrueF,
    _position,
    _tokenize,
    distinct_members,
    fold,
    formula_length,
    member_rows,
    parse_formula,
    pretty_print,
    printed_order,
    row_texts,
    subformula_rows,
    subformulas_by_length,
)
from atlh.sampling import random_cegm, random_formula
from atlh.succinct import gen_Mn, gen_Nnj, phi_n
from conftest import node_objects
from reftokenize import reference_tokenize


def test_parse_atom():
    assert parse_formula("p") == Atom("p")
    assert parse_formula("true") == TrueF()
    assert parse_formula("false") == FalseF()


def test_parse_precedence():
    assert parse_formula("p & q | r") == Or(And(Atom("p"), Atom("q")), Atom("r"))
    assert parse_formula("p | q & r") == Or(Atom("p"), And(Atom("q"), Atom("r")))
    assert parse_formula("!p & q") == And(Not(Atom("p")), Atom("q"))
    assert parse_formula("!(p & q)") == Not(And(Atom("p"), Atom("q")))
    assert parse_formula("!!p") == Not(Not(Atom("p")))


def test_parse_left_associative():
    assert parse_formula("p & q & r") == And(And(Atom("p"), Atom("q")), Atom("r"))
    assert parse_formula("p | q | r") == Or(Or(Atom("p"), Atom("q")), Atom("r"))


def test_parse_coalition_operators():
    assert parse_formula("<a> X p") == CoalX(("a",), Atom("p"))
    assert parse_formula("<a, b> G p") == CoalG(("a", "b"), Atom("p"))
    assert parse_formula("<a> (p U q)") == CoalU(("a",), Atom("p"), Atom("q"))
    assert parse_formula("<a> F p") == CoalU(("a",), TrueF(), Atom("p"))
    assert parse_formula("<> X p") == CoalX((), Atom("p"))


def test_coalitions_are_sorted_and_deduped():
    assert parse_formula("<b, a, b> X p") == CoalX(("a", "b"), Atom("p"))
    p, q = Atom("p"), Atom("q")
    for make, text in (
        (lambda c: CoalX(c, p), "<a, b> X p"),
        (lambda c: CoalG(c, p), "<a, b> G p"),
        (lambda c: CoalU(c, p, q), "<a, b> (p U q)"),
        (lambda c: CoalFG(c, p, q), "<a, b> F (p & G q)"),
        (lambda c: MutualKnows(c, p), "E[a, b] p"),
    ):
        node = make(["b", "a", "b"])
        assert node.coalition == ("a", "b")
        assert node == make(("a", "b")) and hash(node) == hash(make(("a", "b")))
        assert pretty_print(node) == text


def test_parse_knowledge():
    assert parse_formula("K[a] p") == Knows("a", Atom("p"))
    assert parse_formula("K[a] !p") == Knows("a", Not(Atom("p")))
    assert parse_formula("E[a, b] p") == MutualKnows(("a", "b"), Atom("p"))


def test_mutual_knowledge_requires_agents():
    with pytest.raises(FormulaError):
        MutualKnows((), Atom("p"))


def test_parse_coercion_doubt_property():
    f = parse_formula("<v> F (Voted & H[c] >= 2 {V_A, V_B})")
    expected = CoalU(
        ("v",),
        TrueF(),
        And(Atom("Voted"), Hartley("c", ">=", Real(Fraction(2)), (Atom("V_A"), Atom("V_B")))),
    )
    assert f == expected


def test_parse_hartley_log_threshold():
    f = parse_formula("H[a] = log(3) {p, q}")
    assert f == Hartley("a", "=", LogOfCount(3), (Atom("p"), Atom("q")))


def test_parse_hartley_fraction_threshold():
    f = parse_formula("H[a] < 3/2 {p}")
    assert f == Hartley("a", "<", Real(Fraction(3, 2)), (Atom("p"),))


def test_parse_hartley_decimal_threshold():
    f = parse_formula("H[a] <= 1.5 {p}")
    assert f == Hartley("a", "<=", Real(Fraction(3, 2)), (Atom("p"),))


def test_hartley_empty_set_is_error():
    with pytest.raises(FormulaError):
        parse_formula("H[a] = 1 {}")


def test_hartley_constructor_rejects_bad_comparison_and_empty_set():
    for args, message in [
        (("!=", Real(1), (Atom("p"),)), "unknown comparison '!='"),
        (("=", Real(1), ()), "empty formula set in uncertainty operator"),
        # a threshold of another type would fail only when printed or checked
        (("=", 1, (Atom("p"),)), "threshold must be LogOfCount or Real, got int"),
        (("=", Fraction(1), (Atom("p"),)), "threshold must be LogOfCount or Real, got Fraction"),
        (("=", "log(2)", (Atom("p"),)), "threshold must be LogOfCount or Real, got str"),
    ]:
        with pytest.raises(FormulaError) as exc:
            Hartley("a", *args)
        assert str(exc.value) == message


def test_constructors_reject_string_coalitions_and_non_string_atoms():
    # a string coalition would split into one-letter agents, and an atom
    # name that is not a string would fail in the name check
    p = Atom("p")
    for make in (
        lambda c: CoalX(c, p),
        lambda c: CoalG(c, p),
        lambda c: CoalU(c, p, p),
        lambda c: CoalFG(c, p, p),
        lambda c: MutualKnows(c, p),
    ):
        for coalition in ("ab", "a"):
            with pytest.raises(FormulaError) as exc:
                make(coalition)
            assert str(exc.value) == (
                f"a coalition is a collection of agent names, not the string {coalition!r}"
            )
        assert make(["b", "a"]).coalition == ("a", "b")
    for name in (3, None, b"p", ("p",)):
        with pytest.raises(FormulaError) as exc:
            Atom(name)
        assert str(exc.value) == f"bad atom name {name!r}"


def test_hartley_duplicate_member_is_error():
    with pytest.raises(FormulaError):
        parse_formula("H[a] = 1 {p, p}")
    with pytest.raises(FormulaError):
        Hartley("a", "=", Real(1), (Atom("p"), Atom("p")))


def test_hartley_walks_members_only_when_two_share_a_top(monkeypatch):
    # equal members share class and own fields, so members whose top nodes
    # all differ are not walked; a member that is not a formula is refused
    from atlh import formula as fm

    walks = []
    real = fm.subformula_rows

    def counted(f):
        walks.append(f)
        return real(f)

    monkeypatch.setattr(fm, "subformula_rows", counted)
    p, q = Atom("p"), Atom("q")
    for beta in [(p, q), (p, Not(p), And(p, q)), (Knows("a", p), Knows("b", p))]:
        Hartley("a", "=", Real(1), beta)
    assert walks == []
    Hartley("a", "=", Real(1), (And(p, q), And(q, p)))
    assert len(walks) == 1
    with pytest.raises(FormulaError, match="^duplicate formula in uncertainty set: !p$"):
        Hartley("a", "=", Real(1), (q, Not(Atom("p")), p, Not(p)))
    for beta in [(p, "q"), ("q", p), (Not(p), p, "q")]:
        with pytest.raises(TypeError) as exc:
            Hartley("a", "=", Real(1), beta)
        assert str(exc.value) == "not a formula: 'q'"


def test_hartley_bad_comparison_reports_position():
    with pytest.raises(FormulaError) as exc:
        parse_formula("H[a] ! 1 {p}")
    assert exc.value.line == 1
    assert exc.value.col == 6


def test_nesting_up_to_the_bound_parses():
    f = parse_formula("!" * (MAX_DEPTH - 1) + "p")
    assert formula_length(f) == MAX_DEPTH
    assert parse_formula(pretty_print(f)) == f
    g = parse_formula("<a> X " * (MAX_DEPTH - 1) + "p")
    assert parse_formula(pretty_print(g)) == g
    h = parse_formula(" | ".join(["p"] * MAX_DEPTH))
    assert parse_formula(pretty_print(h)) == h
    # the printer writes `<a> F G x` as `<a> F (G x)`, which nests no deeper
    chain = parse_formula("<a> F G " * 49 + "!p")
    assert pretty_print(chain) == "<a> F (G " * 49 + "!p" + ")" * 49
    assert parse_formula(pretty_print(chain)) == chain
    # the constructs the parser recurses deepest on, four frames per level
    # for H and U and three for parentheses: 99 levels stay within the limit
    k = MAX_DEPTH - 1
    assert parse_formula("(" * k + "p" + ")" * k) == parse_formula("p")
    for text in ("H[a] = 1 {" * k + "p" + "}" * k, "<a> (" * k + "p" + " U q)" * k):
        deep = parse_formula(text)
        assert formula_length(deep) > k
        assert parse_formula(pretty_print(deep)) == deep
    # every construct, nested to the bound on one line, one level per line,
    # and with a comment between levels: the same formula each time
    for opening, closing, per, _ in _NESTS:
        f = parse_formula(_nest(opening, closing, per, MAX_DEPTH, ""))
        for sep in _NEST_SEPS[1:]:
            assert parse_formula(_nest(opening, closing, per, MAX_DEPTH, sep)) == f


# Each construct the parser nests: its text before and after the inner
# formula, the tree levels one repetition adds (0 for parentheses, which
# count toward the bound only as nesting), and where a formula one level
# past the bound is reported when written with each of `_NEST_SEPS`
# between repetitions.
_NESTS = [
    ("!", "", 1, [(1, 1), (1, 1), (1, 1)]),
    ("<a> X ", "", 1, [(1, 601), (101, 2), (101, 2)]),
    ("<> X ", "", 1, [(1, 501), (101, 2), (101, 2)]),
    ("<a> G ", "", 1, [(1, 601), (101, 2), (101, 2)]),
    ("<a> F ", "", 1, [(1, 601), (101, 2), (101, 2)]),
    ("K[a] ", "", 1, [(1, 501), (101, 2), (101, 2)]),
    ("E[a, b] ", "", 1, [(1, 801), (101, 2), (101, 2)]),
    ("H[a] = 1 {", "}", 1, [(1, 1001), (101, 2), (101, 2)]),
    ("<a> (", " U q)", 1, [(1, 501), (101, 2), (101, 2)]),
    # a G conjunct under F: the F, the `&` and the G are three levels
    ("<a> F (x & G ", ")", 3, [(1, 5), (1, 5), (1, 5)]),
    ("<a> F (G ", " & x)", 3, [(1, 5), (1, 5), (1, 5)]),
    ("<a> F G ", "", 2, [(1, 401), (51, 2), (51, 2)]),
    # the parenthesized body of an F is one level with the F, not two:
    # `<a> F (G x)` is how the printer writes `<a> F G x`
    ("<a> F (", ")", 1, [(1, 701), (101, 2), (101, 2)]),
    ("<a> F (G ", ")", 2, [(1, 451), (51, 2), (51, 2)]),
    ("(", ")", 0, [(1, 101), (101, 2), (101, 2)]),
    ("p & ", "", 1, [(1, 399), (100, 4), (100, 4)]),
    ("p | ", "", 1, [(1, 399), (100, 4), (100, 4)]),
]
_NEST_SEPS = ["", "\n ", "  # a level\n\t"]


def _nest(opening, closing, per, levels, sep):
    """`opening` repeated around `p` to `levels` levels, negations making up
    what whole repetitions cannot, with `sep` between repetitions."""
    reps = levels - 1 if per <= 1 else (levels - 1) // per
    pad = 0 if per <= 1 else (levels - 1) % per
    return sep.join([opening] * reps + ["!" * pad + "p"]) + closing * reps


@pytest.mark.parametrize("opening, closing, per, positions", _NESTS)
def test_nesting_past_the_bound_in_each_construct_is_a_positioned_error(
    opening, closing, per, positions
):
    for sep, position in zip(_NEST_SEPS, positions):
        text = _nest(opening, closing, per, MAX_DEPTH + 1, sep)
        with pytest.raises(FormulaError) as exc:
            parse_formula(text)
        assert str(exc.value) == "{}:{}: formula nested deeper than {} levels".format(
            *position, MAX_DEPTH
        ), repr(text)


@pytest.mark.parametrize(
    "text, col",
    [
        ("!" * 5000 + "p", 5000 - MAX_DEPTH + 1),
        ("<a> X " * 400 + "p", 6 * MAX_DEPTH + 1),
        ("(" * 3000 + "p" + ")" * 3000, MAX_DEPTH + 1),
        (" & ".join(["p"] * 3000), 4 * MAX_DEPTH - 1),
        # p and 60 negations make 61 levels; the 40th K from the inside is the 101st
        ("K[a] " * 60 + "!" * 60 + "p", 5 * 20 + 1),
        ("H[a] = 1 {" * 120 + "p" + "}" * 120, 10 * MAX_DEPTH + 1),
    ],
)
def test_nesting_past_the_bound_is_a_positioned_error(text, col):
    with pytest.raises(FormulaError, match="nested deeper than") as exc:
        parse_formula(text)
    assert (exc.value.line, exc.value.col) == (1, col)


def test_log_threshold_must_be_positive():
    with pytest.raises(FormulaError):
        parse_formula("H[a] = log(0) {p}")
    # a count that is not an `int` would print as text the parser rejects
    for count in (0, 2.5, 3.0, True):
        with pytest.raises(FormulaError, match="log threshold needs a positive int count"):
            LogOfCount(count)
    f = Hartley("a", "=", LogOfCount(3), (Atom("p"), Atom("q")))
    assert parse_formula(pretty_print(f)) == f


def test_negative_threshold_rejected():
    with pytest.raises(FormulaError):
        Real(Fraction(-1, 2))


def test_threshold_errors_are_positioned():
    for text, message in (
        ("H[a] >= 1/0 {p}", "1:11: fraction threshold needs a positive integer denominator"),
        ("H[a] >= x {p}", "1:9: expected a threshold, found 'x'"),
    ):
        with pytest.raises(FormulaError) as exc:
            parse_formula(text)
        assert str(exc.value) == message, text


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_threshold_too_long_for_str_is_rejected():
    # `str` of an int over the limit raises ValueError: a threshold holding
    # one is refused when it is built, so no formula's str or repr fails
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, whatever the environment set
    try:
        too_long = "threshold has an integer of more than 4300 digits"
        with pytest.raises(FormulaError, match=too_long):
            Hartley("a", ">=", LogOfCount(10**5000), (Atom("p"),))
        with pytest.raises(FormulaError, match=too_long):
            Real(Fraction(1, 2**20000))  # neither the decimal nor p/q prints
        for value in (Fraction(1, 10**5000), Fraction(-1, 10**5000)):
            with pytest.raises(FormulaError, match=too_long):
                Real(value)  # its repr needs 10**5000 in full
        # the decimal has 6,990 digits, so p/q is printed
        assert str(Real(Fraction(1, 2**10000))) == f"1/{2**10000}"
        with pytest.raises(FormulaError) as exc:
            parse_formula(f"H[a] >= {'9' * 5000} {{p}}")
        assert str(exc.value) == "1:9: numeral too long: 5000 characters"
    finally:
        sys.set_int_max_str_digits(limit)


def test_thresholds_print_as_decimals_where_exact():
    # a denominator of twos and fives prints as a decimal with as many
    # places as the larger count
    for value, text in (
        (Fraction(1, 5), "0.2"),
        (Fraction(3, 10), "0.3"),
        (Fraction(3, 8), "0.375"),
    ):
        assert str(Real(value)) == text
        assert pretty_print(parse_formula(f"H[a] = {text} {{p}}")) == f"H[a] = {text} {{p}}"


def test_parse_reach_then_maintain():
    f = parse_formula("<v> F (Voted & G !p)")
    assert f == CoalFG(("v",), Atom("Voted"), Not(Atom("p")))
    f = parse_formula("<v> F (G p)")
    assert f == CoalFG(("v",), TrueF(), Atom("p"))
    f = parse_formula("<v> F G p")
    assert f == CoalFG(("v",), TrueF(), Atom("p"))
    f = parse_formula("<v> F (a & b & G p)")
    assert f == CoalFG(("v",), And(Atom("a"), Atom("b")), Atom("p"))


def test_bare_g_outside_f_is_error():
    with pytest.raises(FormulaError):
        parse_formula("G p")
    with pytest.raises(FormulaError):
        parse_formula("p & G q")
    with pytest.raises(FormulaError):
        parse_formula("<a> X (G p)")
    with pytest.raises(FormulaError):
        parse_formula("<a> F (p | G q)")


def test_g_as_plain_atom_still_works():
    assert parse_formula("G & p") == And(Atom("G"), Atom("p"))
    assert parse_formula("G") == Atom("G")


def test_two_g_conjuncts_rejected():
    with pytest.raises(FormulaError):
        parse_formula("<a> F (G p & G q)")


def test_parse_error_positions():
    with pytest.raises(FormulaError) as exc:
        parse_formula("p &")
    assert exc.value.line == 1
    with pytest.raises(FormulaError) as exc:
        parse_formula("p\n& $")
    assert exc.value.line == 2
    assert exc.value.col == 3
    # the first bare G in printed order is reported
    for text, col in (
        ("G p & G q", 1),
        ("<a> F (G (G p & G q))", 11),
        ("H[a] = 1 {q, G p}", 14),
        ("<a> F (p & !G q) & r", 13),  # under a negation, not a conjunct of F
        ("<a> F (p & G q) & G r", 19),  # the first G is absorbed, the second is not
    ):
        with pytest.raises(FormulaError, match="bare G") as exc:
            parse_formula(text)
        assert (exc.value.line, exc.value.col) == (1, col), text
    # a syntax error wins over a bare G before it
    with pytest.raises(FormulaError) as exc:
        parse_formula("G p &")
    assert str(exc.value) == "1:6: expected a formula, found 'end of input'"


def test_atom_name_must_print_back_as_itself():
    # `true` would parse as the constant, the others not at all
    for name in ("true", "false", "", "p q", "1x", "V-A", "²p"):
        with pytest.raises(FormulaError, match="bad atom name"):
            Atom(name)
    for name in ("p", "_x", "V1_eq_ab", "p²", "ş2", "True"):
        assert parse_formula(pretty_print(Atom(name))) == Atom(name)
    # the bundled models' propositions, the family formula and random draws
    models = [scenarios.gen_referendum_single(), scenarios.gen_referendum_double("M1"),
              scenarios.gen_threeballot(), gen_Mn(3), gen_Nnj(3, 2)]
    for model in models:
        for p in model.props:
            assert parse_formula(p) == Atom(p)
    assert parse_formula(pretty_print(phi_n(3))) == phi_n(3)
    rng = Random(7)
    for _ in range(100):
        model = random_cegm(rng, max_states=6, max_agents=3)
        g = random_formula(rng, model.props, model.agents, depth=3, beta_max=2)
        assert parse_formula(pretty_print(g)) == g


def test_parse_error_precedence():
    deep = "!" * (MAX_DEPTH - 1) + "p"  # MAX_DEPTH levels: a set of it is one level too deep
    for text, message in (
        # the duplicate is found before the uncertainty node's depth is checked
        (f"H[a] = 1 {{{deep}, {deep}}}", f"1:1: duplicate formula in uncertainty set: {deep}"),
        ("H[a] = 1 {p & q, (p & q)}", "1:1: duplicate formula in uncertainty set: p & q"),
        # of two equal bare Gs, the first in the text is reported
        ("G p & G p", "1:1: bare G is only supported as a conjunct inside <A> F (...)"),
        ("<a> F (G p) & G p", "1:15: bare G is only supported as a conjunct inside <A> F (...)"),
    ):
        with pytest.raises(FormulaError) as exc:
            parse_formula(text)
        assert str(exc.value) == message, text


def test_depth_counts_each_f_as_parsed():
    # An F is one level above its body as written, so `<a> F (true & G x)`
    # is one level deeper than the equal `<a> F G x`.
    def outcome(text):
        try:
            return pretty_print(parse_formula(text))
        except FormulaError as exc:
            return str(exc)

    too_deep = f"formula nested deeper than {MAX_DEPTH} levels"
    x96, x97 = "!" * 96 + "p", "!" * 97 + "p"
    assert outcome(f"<a> F G {x97}") == f"<a> F (G {x97})"
    assert outcome(f"<a> F (true & G {x97})") == f"1:5: {too_deep}"
    assert outcome(f"<a> F G {x97} & <a> F (true & G {x97})") == f"1:114: {too_deep}"
    assert outcome(f"!<a> F G {x96} & !<a> F (true & G {x96})") == f"1:110: {too_deep}"
    assert outcome(f"!<a> F (true & G {x96}) & !<a> F G {x96}") == f"1:1: {too_deep}"
    # the F's depth is kept per occurrence: the equal `<a> F G x95` after
    # `<a> F (true & G x95)` is one level shallower, whichever comes first
    x95 = "!" * 95 + "p"
    fg = f"<a> F (G {x95})"
    assert outcome(f"<a> F (true & G {x95}) & !<a> F G {x95}") == f"{fg} & !{fg}"
    assert outcome(f"!<a> F G {x95} & <a> F (true & G {x95})") == f"!{fg} & {fg}"
    assert outcome(f"<a> F (true & G {x95}) & !!<a> F G {x95}") == f"1:115: {too_deep}"


def test_bare_g_walk_runs_only_when_a_g_is_left(monkeypatch):
    from atlh import formula as fm

    visited = []
    step = fm._first_bare_g
    monkeypatch.setattr(fm, "_first_bare_g", lambda g, kids: visited.append(g) or step(g, kids))
    assert parse_formula("<a> F (p & G q) & <b> F G r & <c> G s") is not None
    assert visited == []
    with pytest.raises(FormulaError, match="^1:19: bare G"):
        parse_formula("<a> F (p & G q) & G r")
    assert visited


def test_comments_are_skipped():
    assert parse_formula("p # trailing\n& q") == And(Atom("p"), Atom("q"))


def test_trailing_garbage_rejected():
    with pytest.raises(FormulaError):
        parse_formula("p q")


def test_length_examples():
    assert formula_length(Atom("p")) == 1
    assert formula_length(parse_formula("p & q")) == 3
    assert formula_length(parse_formula("!p")) == 2
    assert formula_length(parse_formula("H[a] = 1 {p, q}")) == 3
    assert formula_length(parse_formula("<a, b> G p")) == 4
    assert formula_length(parse_formula("<a> F p")) == 4  # true U p
    assert formula_length(parse_formula("<a> (p U q)")) == 4
    assert formula_length(parse_formula("K[a] p")) == 2
    assert formula_length(parse_formula("E[a, b] p")) == 3
    assert formula_length(parse_formula("<> X p")) == 2


def test_length_reach_then_maintain():
    # counted as <A> (true U (goal & G inv))
    assert formula_length(parse_formula("<a> F (p & G q)")) == 7
    assert formula_length(parse_formula("<a> F (G q)")) == 5


def test_subformula_order():
    assert subformulas_by_length(Atom("p")) == [Atom("p")]
    f = parse_formula("p & !p")
    assert subformulas_by_length(f) == [Atom("p"), Not(Atom("p")), f]
    h = parse_formula("H[a] = 1 {q, p}")
    assert subformulas_by_length(h) == [Atom("p"), Atom("q"), h]


def test_subformulas_parent_sorts_after_children():
    f = parse_formula("<v> F (Voted & G !(K[c] V_A | K[c] !V_A))")
    subs = subformulas_by_length(f)
    assert subs[-1] == f
    index = {g: i for i, g in enumerate(subs)}
    for g in subs:
        for child in _children(g):
            assert index[child] < index[g]


def _children(f):
    from atlh import formula as fm

    match f:
        case fm.Not(sub) | fm.CoalX(_, sub) | fm.CoalG(_, sub) | fm.Knows(_, sub) | fm.MutualKnows(_, sub):
            return [sub]
        case fm.And(left, right) | fm.Or(left, right):
            return [left, right]
        case fm.CoalU(_, hold, goal):
            return [hold, goal]
        case fm.CoalFG(_, goal, invariant):
            return [goal, invariant]
        case fm.Hartley(_, _, _, beta):
            return list(beta)
        case _:
            return []


def test_pretty_print_examples():
    cases = [
        "p",
        "p & q | r",
        "p | q & r",
        "!p",
        "!(p & q)",
        "<a> X p",
        "<a, b> G !p",
        "<a> (p U q)",
        "<a> F p",
        "<> G p",
        "K[a] p",
        "E[a, b] (p | q)",
        "H[a] = log(3) {p, q}",
        "H[c] >= 2 {V_A, V_B}",
        "H[a] < 1/3 {p}",
        "H[a] <= 1.5 {p}",
        "<v> F (Voted & G !(K[c] V_A | K[c] !V_A))",
        "<v> F (G p)",
    ]
    for text in cases:
        assert pretty_print(parse_formula(text)) == text


def test_round_trip_structural():
    texts = [
        "p & (q & r)",
        "(p | q) & r",
        "!(p | q) & !!r",
        "<a> F (p & q & G !r)",
        "<a> (p & q U r | s)",
        "H[a] > 0.25 {p & q, !r, <b> X s}",
        "E[b, a] K[a] !<a, c> F p",
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(pretty_print(f)) == f


def test_until_hold_ending_in_atom_g_round_trips():
    # unwrapped, `G U` would parse as a bare G over the atom `U`
    g = Atom("G")
    cases = [
        (g, "<a> ((G) U q)"),
        (And(Atom("p"), g), "<a> ((p & G) U q)"),
        (Not(g), "<a> ((!G) U q)"),
    ]
    for hold, text in cases:
        f = CoalU(("a",), hold, Atom("q"))
        assert pretty_print(f) == text
        assert parse_formula(text) == f
        assert row_texts(subformula_rows(f))[-1] == text
    # G elsewhere in the hold, or closed off, needs no parentheses
    for text in ("<a> (G & p U q)", "<a> (!(p & G) U q)", "<a> (p U G)"):
        assert pretty_print(parse_formula(text)) == text


_names = st.sampled_from(["p", "q", "r", "V_A", "G"])
_agents = st.sampled_from(["a", "b", "c"])


def _formulas(depth):
    if depth == 0:
        return st.one_of(
            _names.map(Atom),
            st.just(TrueF()),
            st.just(FalseF()),
        )
    sub = _formulas(depth - 1)
    coalitions = st.lists(_agents, max_size=2).map(tuple)
    thresholds = st.one_of(
        st.integers(min_value=1, max_value=4).map(LogOfCount),
        st.fractions(min_value=0, max_value=3).map(Real),
    )
    betas = st.lists(sub, min_size=1, max_size=3, unique=True).map(tuple)
    return st.one_of(
        sub,
        sub.map(Not),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        st.tuples(coalitions, sub).map(lambda t: CoalX(*t)),
        st.tuples(coalitions, sub).map(lambda t: CoalG(*t)),
        st.tuples(coalitions, sub, sub).map(lambda t: CoalU(*t)),
        st.tuples(coalitions, sub, sub).map(lambda t: CoalFG(*t)),
        st.tuples(_agents, sub).map(lambda t: Knows(*t)),
        st.tuples(st.lists(_agents, min_size=1, max_size=2).map(tuple), sub).map(
            lambda t: MutualKnows(*t)
        ),
        st.tuples(_agents, st.sampled_from(["<", "<=", ">", ">=", "="]), thresholds, betas).map(
            lambda t: Hartley(*t)
        ),
    )


@given(_formulas(3))
def test_round_trip_random(f):
    assert parse_formula(pretty_print(f)) == f


@given(_formulas(3))
def test_equal_formulas_hash_equal(f):
    g = parse_formula(pretty_print(f))
    assert g == f and hash(g) == hash(f)
    assert Not(f) != f and f != Not(f)


def test_formulas_and_thresholds_differ_from_other_types():
    assert (Atom("p") == 3, Atom("p") != 3) == (False, True)
    assert (Real(1) == 1, LogOfCount(2) == "log(2)") == (False, False)


@given(_formulas(3))
def test_subformulas_include_self_last(f):
    subs = subformulas_by_length(f)
    assert subs[-1] == f
    assert len(set(subs)) == len(subs)


@given(_formulas(3))
def test_subformulas_by_length_is_printed_order(f):
    nodes = subformulas_by_length(f)
    walked, todo = [], [f]
    while todo:
        walked.append(todo.pop())
        todo += _children(walked[-1])
    distinct = {pretty_print(g): g for g in walked}
    assert nodes == [distinct[t] for t in sorted(distinct, key=lambda t: (formula_length(distinct[t]), t))]
    at = {pretty_print(g): i for i, g in enumerate(nodes)}
    for i, g in enumerate(nodes):
        assert all(at[pretty_print(k)] < i for k in _children(g))


@given(_formulas(3))
def test_subformula_rows_walk_children_first(f):
    rows = subformula_rows(f)
    nodes = [g for g, _ in rows]
    assert nodes[-1] is f
    assert len(set(nodes)) == len(nodes)
    assert set(nodes) == set(subformulas_by_length(f))
    for i, (g, kids) in enumerate(rows):
        assert [nodes[k] for k in kids] == list(_children(g))
        assert all(k < i for k in kids)
    texts = row_texts(rows)
    assert texts == [pretty_print(g) for g in nodes]
    assert [(nodes[i], texts[i]) for i in printed_order(rows, texts)] == [
        (g, pretty_print(g)) for g in subformulas_by_length(f)
    ]


def test_subformula_rows_key_by_structure():
    # equal nodes share a row, objects or not; a threshold is keyed by its
    # type and value, so `log(2)` and `1` and `2` are three rows
    left, right = And(Atom("p"), Atom("q")), And(Atom("p"), Atom("q"))
    rows = subformula_rows(Or(left, right))
    assert [(g, kids) for g, kids in rows] == [
        (Atom("p"), ()), (Atom("q"), ()), (left, (0, 1)), (Or(left, right), (2, 2))
    ]
    assert rows[0][0] is left.left and rows[2][0] is left
    p = Atom("p")
    h = [
        Hartley("a", "=", LogOfCount(2), (p,)),
        Hartley("a", "=", Real(1), (p,)),
        Hartley("a", "=", Real(2), (p,)),
        Hartley("a", "=", Real(Fraction(2, 2)), (Atom("p"),)),
        Hartley("a", "=", LogOfCount(2), (Atom("p"),)),
    ]
    coalitions = [CoalX(("a", "b"), p), CoalX(("b", "a"), p), CoalX(("a",), p)]
    rows = subformula_rows(And(Or(Or(Or(h[0], h[1]), h[2]), Or(h[3], h[4])),
                               And(And(*coalitions[:2]), coalitions[2])))
    nodes = [g for g, _ in rows]
    assert nodes[:4] == [p, h[0], h[1], Or(h[0], h[1])]
    assert all(any(g is x for g in nodes) for x in (h[0], h[1], h[2]))
    assert not any(g is x for g in nodes for x in (h[3], h[4], coalitions[1]))
    assert len(nodes) == 13
    # member_rows: one walk over several formulas, one row per equal group
    assert member_rows([left, right, left.left, Atom("p"), left.right]) == (2, 2, 0, 0, 1)
    assert member_rows(h) == (1, 2, 3, 2, 1)
    assert member_rows(coalitions) == (1, 1, 2)
    assert distinct_members(h) == h[:3]
    assert [g is x for g, x in zip(distinct_members(h), h)] == [True] * 3
    assert distinct_members([h[3], h[1]]) == [h[3]]
    assert distinct_members([h[3], h[1]])[0] is h[3]
    with pytest.raises(FormulaError, match="duplicate formula in uncertainty set: p & q"):
        Hartley("a", "=", Real(1), (left, Atom("r"), right))


def test_fold_calls_step_once_per_distinct_subformula():
    # two equal `Atom` objects share one row: `p`, then the `And`
    left, right = Atom("p"), Atom("p")
    f = And(left, right)
    calls = []
    fold(f, lambda g, kids: calls.append((g, kids)) or len(calls))
    assert calls == [(left, []), (f, [1, 1])]
    assert calls[0][0] is left
    assert formula_length(f) == 3  # still per occurrence


def test_parse_shares_equal_subformulas():
    f = parse_formula("p & p")
    assert f.left is f.right
    f = parse_formula("<a, b> X p & <b, a, b> X p")  # coalitions are sets
    assert f.left is f.right
    f = parse_formula("<a> F (G q) & <a> F G q | <a> F (r & G q) & <a> F (r & G q)")
    assert f.left.left is f.left.right
    assert f.right.left is f.right.right
    assert f.left.left.invariant is f.right.left.invariant
    # criterion 2's property writes its never-knows clause four times: 87 nodes
    assert len(node_objects(scenarios.referendum_double_property())) == 26


@pytest.mark.parametrize(
    "build",
    [
        scenarios.referendum_single_property,
        scenarios.referendum_double_property,
        scenarios.referendum_hartley_property,
        scenarios.epistemic_coercion_property,
        scenarios.hartley_coercion_property,
        scenarios.hartley_invariant_property,
    ],
)
def test_parse_builds_each_distinct_subformula_once(build):
    f = build()
    assert len(node_objects(f)) == len(subformula_rows(f))


def test_shared_parse_matches_the_unshared_draw():
    rng = Random(20261019)
    for i in range(2000):
        g = random_formula(
            rng, ["p", "q", "r"], ["a", "b", "c"], depth=rng.randint(1, 5),
            strategic_budget=2, beta_max=3, coal_fg=i % 2 == 1,
        )
        f = parse_formula(pretty_print(g))
        assert f == g
        tables = []
        for x in (f, g):
            rows = subformula_rows(x)
            texts = row_texts(rows)
            tables.append(([kids for _, kids in rows], texts, printed_order(rows, texts)))
        assert tables[0] == tables[1]
        assert len(node_objects(f)) == len(tables[0][0])


def test_repr_prints_the_formula_up_to_a_length_cap():
    # up to the cap: the class name and the printed text
    assert repr(Not(Not(Atom("p")))) == "Not('!!p')"
    f = parse_formula("<a, b> F (p & H[c] >= log(2) {p, q})")
    assert repr(f) == "CoalU('<a, b> F (p & H[c] >= log(2) {p, q})')"
    rng = Random(20261019)
    for _ in range(300):
        g = random_formula(rng, ["p", "q"], ["a", "b"], depth=rng.randint(1, 5), strategic_budget=2, beta_max=3)
        assert repr(g) == f"{type(g).__name__}({pretty_print(g)!r})"
    # length 10,000 prints in full, 10,001 as its length
    g = Atom("p")
    for _ in range(9_999):
        g = Not(g)
    assert repr(g) == f"Not('{'!' * 9_999}p')"
    assert repr(Not(g)) == "Not(<10001 nodes>)"


def test_pickle_and_deepcopy_rebuild_every_node_class():
    f = parse_formula(
        "<a, b> X p & <a> G !q | <> (p U false) & <b> F (p & G q)"
        " | K[a] E[a, b] true & H[a] >= log(2) {p, q} & H[b] < 1/3 {p, <a> F (G p)}"
    )
    assert {type(g) for g in node_objects(f)} == set(Formula.__args__)
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert g is not f and g == f and hash(g) == hash(f)
        assert pretty_print(g) == pretty_print(f)
        assert len(node_objects(g)) == len(node_objects(f))  # shared nodes stay shared
    for t in (LogOfCount(3), Real(Fraction(3, 2))):
        assert pickle.loads(pickle.dumps(t)) == t == copy.deepcopy(t)


def test_dataclasses_fields_reads_node_fields():
    # bench/workloads.py walks nodes with `dataclasses.fields`
    import dataclasses

    f = parse_formula("H[a] >= log(2) {p, <a> X q}")
    assert [x.name for x in dataclasses.fields(f)] == ["agent", "cmp", "threshold", "beta"]
    assert [x.name for x in dataclasses.fields(f.beta[1])] == ["coalition", "sub"]
    assert dataclasses.fields(TrueF()) == ()
    assert not dataclasses.is_dataclass(f) and not dataclasses.is_dataclass(Hartley)


def test_nodes_and_thresholds_are_immutable():
    f = parse_formula("H[a] >= log(2) {p, <a> X q}")
    fields = [(f, "agent"), (f, "beta"), (f.beta[0], "name"), (f.beta[1], "coalition"),
              (f.beta[1], "sub"), (f.threshold, "count"), (Real(1), "value"), (TrueF(), "sub")]
    for node, name in fields:
        with pytest.raises(AttributeError):
            setattr(node, name, Atom("r"))
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert pretty_print(f) == "H[a] >= log(2) {p, <a> X q}"


def test_walkers_reject_a_non_formula():
    # the non-formula at the root, or below a formula node
    cases = [(formula_length, "p", "p"), (pretty_print, 3, 3), (subformula_rows, None, None)]
    cases += [(formula_length, Not("q"), "q"), (subformula_rows, And(Atom("p"), "q"), "q")]
    for walk, value, bad in cases:
        with pytest.raises(TypeError) as exc:
            walk(value)
        assert str(exc.value) == f"not a formula: {bad!r}"


def test_numerals_are_decimal_digits():
    assert parse_formula("p²") == Atom("p²")
    assert parse_formula("H[a] = ١/٢ {p}").threshold == Real(Fraction(1, 2))
    for text, col in (("H[a] = ² {p}", 8), ("H[a] = 1² {p}", 9), ("H[a] = 0.5² {p}", 11)):
        with pytest.raises(FormulaError, match=f"1:{col}: unexpected character '²'"):
            parse_formula(text)


def _kind(tok):
    """The kind of one of `_tokenize`'s tokens, as the reference loop names it."""
    if not tok:
        return "eof"
    if tok[0].isdecimal():
        return "number"
    return "ident" if tok[0].isalpha() or tok[0] == "_" else "punct"


def _tokens_or_error(tokenize, text):
    """Each token as `(kind, text, line, col)`, up to the end of input, or
    the error's text, line and column."""
    try:
        tokens = tokenize(text)
    except FormulaError as exc:
        return str(exc), exc.line, exc.col
    if tokenize is _tokenize:  # texts, positioned by `_position`
        tokens = tokens[: tokens.index("") + 1]
        return [(_kind(tok), tok, *_position(text, i)) for i, tok in enumerate(tokens)]
    return [(t.kind, t.text, t.line, t.col) for t in tokens]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("p\t&\tq", [("ident", "p", 1, 1), ("punct", "&", 1, 3), ("ident", "q", 1, 5), ("eof", "", 1, 6)]),
        ("p\r\n&\r\nq", [("ident", "p", 1, 1), ("punct", "&", 2, 1), ("ident", "q", 3, 1), ("eof", "", 3, 2)]),
        ("p &\n  q |\n\tr", [
            ("ident", "p", 1, 1), ("punct", "&", 1, 3), ("ident", "q", 2, 3), ("punct", "|", 2, 5),
            ("ident", "r", 3, 2), ("eof", "", 3, 3),
        ]),
        ("  \n  ", [("eof", "", 2, 3)]),
        ("", [("eof", "", 1, 1)]),
        # a comment does not advance the column: end of input after it is at the '#'
        ("p # c", [("ident", "p", 1, 1), ("eof", "", 1, 3)]),
        ("p & # c", [("ident", "p", 1, 1), ("punct", "&", 1, 3), ("eof", "", 1, 5)]),
        ("p # c\n", [("ident", "p", 1, 1), ("eof", "", 2, 1)]),
        ("p # c\n& q", [("ident", "p", 1, 1), ("punct", "&", 2, 1), ("ident", "q", 2, 3), ("eof", "", 2, 4)]),
        ("p&#c\nq", [("ident", "p", 1, 1), ("punct", "&", 1, 2), ("ident", "q", 2, 1), ("eof", "", 2, 2)]),
        ("p²", [("ident", "p²", 1, 1), ("eof", "", 1, 3)]),
        ("V_٣", [("ident", "V_٣", 1, 1), ("eof", "", 1, 4)]),
        ("ş2", [("ident", "ş2", 1, 1), ("eof", "", 1, 3)]),
        ("3abc", [("number", "3", 1, 1), ("ident", "abc", 1, 2), ("eof", "", 1, 5)]),
        ("١٢", [("number", "١٢", 1, 1), ("eof", "", 1, 3)]),
        ("0.25/3", [("number", "0.25", 1, 1), ("punct", "/", 1, 5), ("number", "3", 1, 6), ("eof", "", 1, 7)]),
        ("<=", [("punct", "<=", 1, 1), ("eof", "", 1, 3)]),
        ("=<", [("punct", "=", 1, 1), ("punct", "<", 1, 2), ("eof", "", 1, 3)]),
        (">=>", [("punct", ">=", 1, 1), ("punct", ">", 1, 3), ("eof", "", 1, 4)]),
        ("1.", ("1:2: unexpected character '.'", 1, 2)),
        ("1.5.2", ("1:4: unexpected character '.'", 1, 4)),
        ("²x", ("1:1: unexpected character '²'", 1, 1)),
        ("½", ("1:1: unexpected character '½'", 1, 1)),
        ("Ⅻ", ("1:1: unexpected character 'Ⅻ'", 1, 1)),
        ("p\xa0q", ("1:2: unexpected character '\\xa0'", 1, 2)),
        ("p\u3000q", ("1:2: unexpected character '\\u3000'", 1, 2)),
        ("p\x0bq", ("1:2: unexpected character '\\x0b'", 1, 2)),
        ("p\n \x0cq", ("2:2: unexpected character '\\x0c'", 2, 2)),
    ],
)
def test_tokens_are_pinned(text, expected):
    assert _tokens_or_error(_tokenize, text) == expected


# one character of each class the tokenizer tells apart
_ALPHABET = " \t\r\n#pqK_GHE09.١٣ş²½Ⅻ\xa0\u3000\x0b\x0c<>=!&|()[]{},/$"


def test_tokenizer_matches_the_reference_loop():
    rng = Random(20260419)
    texts = []
    for _ in range(1500):
        f = random_formula(rng, ["p", "V_A", "ş2", "x٣"], ["a", "b"], depth=rng.randint(1, 4), beta_max=3)
        chars = list(pretty_print(f))
        for _ in range(rng.randint(0, 3)):
            chars.insert(rng.randint(0, len(chars)), rng.choice(_ALPHABET))
        texts.append("".join(chars))
    texts += ["".join(rng.choices(_ALPHABET, k=rng.randint(0, 20))) for _ in range(1500)]
    errors = 0
    for text in texts:
        expected = _tokens_or_error(reference_tokenize, text)
        assert _tokens_or_error(_tokenize, text) == expected, repr(text)
        errors += type(expected) is tuple
    assert 300 < errors < len(texts) - 300  # both outcomes are well covered
