"""Expression language: tokens, parse trees, printing, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import GAUSS, HAMILTON, RATIONALS

from orefield.catalog import scenario_catalog
from orefield.errors import ExprEvalError, ExprSyntaxError
from orefield.exprs import (
    Bin,
    Call,
    Coords,
    EvalContext,
    Neg,
    Num,
    Pow,
    Var,
    evaluate_text,
    ground_symbols,
    parse_expr,
    print_expr,
    tokenize,
)
from orefield.extend import TensorElement, ext_tau
from orefield.laurent import embed_fraction
from orefield.skewfrac import SkewFraction


CUBIC = scenario_catalog("T3L1")


def gauss_ctx(**kw) -> EvalContext:
    return EvalContext(GAUSS, **kw)


# -- tokens ------------------------------------------------------------------


def test_tokens_carry_one_based_columns():
    tokens = tokenize("t*i + 12")
    assert [(tok.kind, tok.column) for tok in tokens] == [
        ("name", 1),
        ("*", 2),
        ("name", 3),
        ("+", 5),
        ("num", 7),
        ("end", 9),
    ]


def test_unexpected_character_is_rejected():
    with pytest.raises(ExprSyntaxError) as err:
        tokenize("1 ? 2")
    assert err.value.column == 3


# -- parse errors point at the right column -----------------------------------


def test_dangling_open_paren_points_at_the_paren():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("t*(")
    assert err.value.column == 3


def test_empty_input_points_at_the_start():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("")
    assert err.value.column == 1


def test_trailing_operator_points_at_it():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("1 +")
    assert err.value.column == 3


def test_unexpected_token_after_a_complete_expression():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("1 2")
    assert err.value.column == 3


def test_unknown_function_heads_fail_at_parse_time():
    with pytest.raises(ExprSyntaxError, match="unknown function 'frob'"):
        parse_expr("frob(1)")


def test_exponent_must_be_an_integer_literal():
    with pytest.raises(ExprSyntaxError, match="integer exponent"):
        parse_expr("t^x")
    with pytest.raises(ExprSyntaxError, match="integer exponent"):
        parse_expr("2^(3)")


def test_coordinate_lists_take_signed_rationals_only():
    assert parse_expr("[1/2,-3]") == Coords((Fraction(1, 2), Fraction(-3)))
    with pytest.raises(ExprSyntaxError, match="rational"):
        parse_expr("[1,]")
    with pytest.raises(ExprSyntaxError, match="denominator"):
        parse_expr("[1/0]")
    with pytest.raises(ExprSyntaxError):
        parse_expr("[1,2")


# -- parse trees ---------------------------------------------------------------


def test_subtraction_associates_to_the_left():
    assert parse_expr("1 - 2 - 3") == Bin(
        "-", Bin("-", Num(Fraction(1)), Num(Fraction(2))), Num(Fraction(3))
    )


def test_power_binds_tighter_than_negation():
    assert parse_expr("-t^2") == Neg(Pow(Var("t"), 2))


def test_negative_exponents_parse():
    assert parse_expr("t^-2") == Pow(Var("t"), -2)


def test_slash_outside_brackets_is_division():
    assert parse_expr("1/2") == Bin("/", Num(Fraction(1)), Num(Fraction(2)))


def test_call_arguments_are_full_expressions():
    assert parse_expr("sigma(i, 2)") == Call("sigma", (Var("i"), Num(Fraction(2))))
    assert parse_expr("tau(x*x)") == Call("tau", (Bin("*", Var("x"), Var("x")),))


# -- printing ------------------------------------------------------------------


CANONICAL = [
    "[0,-1]*t",
    "([-1,0] + [1,0]*t)^-1*([-1,0])",
    "sigma(i, 2)",
    "tau(x)",
    "1/2",
    "[1/2,-3]",
    "t^-1",
    "-(t*i)",
    "1 - 2 - 3",
    "embed(1 - t, 8)",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_print_then_parse_is_the_identity_on_trees(text):
    tree = parse_expr(text)
    printed = print_expr(tree)
    assert parse_expr(printed) == tree
    # and printing is already a fixpoint
    assert print_expr(parse_expr(printed)) == printed


def test_printer_parenthesizes_negated_products():
    assert print_expr(Neg(Bin("*", Var("t"), Var("i")))) == "-(t*i)"


def test_printer_writes_rationals_past_the_digit_limit():
    big = 10**5000
    assert print_expr(Num(Fraction(-7, big))) == "-7/1" + "0" * 5000
    assert print_expr(Coords((Fraction(big), Fraction(1, 3)))) == "[1" + "0" * 5000 + ",1/3]"


@given(st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4))
def test_rational_literals_round_trip(q):
    # Non-unit denominators print as divisions, so compare by value: the
    # reparsed tree must evaluate to the same rational.
    node = Num(q) if q >= 0 else Neg(Num(-q))
    reparsed = parse_expr(print_expr(node))
    ctx = EvalContext(RATIONALS)
    assert evaluate_text(print_expr(reparsed), ctx) == SkewFraction.from_rational(RATIONALS, q)
    if q.denominator == 1:
        assert reparsed == node


@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=50), min_size=1, max_size=4))
def test_coordinate_literals_round_trip(entries):
    node = Coords(tuple(entries))
    assert parse_expr(print_expr(node)) == node


# -- evaluation ----------------------------------------------------------------


def test_twist_rule_makes_the_commutator_vanish():
    assert evaluate_text("t*i + i*t", gauss_ctx()).is_zero()


def test_twisted_product_prints_with_bracketed_coordinates():
    assert str(evaluate_text("t*i", gauss_ctx())) == "[0,-1]*t"


def test_quaternion_multiplication_table():
    ctx = EvalContext(HAMILTON)
    assert evaluate_text("i*j - k", ctx).is_zero()
    assert evaluate_text("j*i + k", ctx).is_zero()
    assert evaluate_text("i*i + 1", ctx).is_zero()


def test_rational_division_is_exact():
    assert evaluate_text("2/4", gauss_ctx()) == SkewFraction.from_rational(GAUSS, Fraction(1, 2))


def test_ground_symbols_per_field():
    assert ground_symbols(RATIONALS) == {}
    gauss_syms = ground_symbols(GAUSS)
    assert set(gauss_syms) == {"w", "i"} and gauss_syms["w"] == gauss_syms["i"]
    assert set(ground_symbols(HAMILTON)) == {"i", "j", "k"}


def test_sigma_head_applies_the_automorphism():
    assert evaluate_text("sigma(i)", gauss_ctx()) == evaluate_text("-i", gauss_ctx())
    assert evaluate_text("sigma(i, 2)", gauss_ctx()) == evaluate_text("i", gauss_ctx())
    assert evaluate_text("sigma(1 - i*t)", gauss_ctx()) == evaluate_text(
        "1 + i*t", gauss_ctx()
    )


def test_embed_head_matches_the_canonical_embedding():
    frac = evaluate_text("(1-t)^-1", gauss_ctx())
    assert evaluate_text("embed((1-t)^-1, 8)", gauss_ctx()) == embed_fraction(frac, 8)


def test_fractions_promote_to_series_on_contact():
    lhs = evaluate_text("embed(1, 4) + t", gauss_ctx())
    assert lhs == embed_fraction(evaluate_text("1 + t", gauss_ctx()), 4)


def test_negative_power_inverts():
    value = evaluate_text("(1+t)^-1 * (1+t)", gauss_ctx())
    assert value == SkewFraction.one(GAUSS)


def test_x_requires_a_scenario_context():
    with pytest.raises(ExprEvalError, match="extension scenario"):
        evaluate_text("x", gauss_ctx())


def test_unknown_names_are_reported():
    with pytest.raises(ExprEvalError, match="unknown name 'y'"):
        evaluate_text("y", gauss_ctx())


def test_coordinate_count_must_match_the_field():
    with pytest.raises(ExprEvalError, match="coordinates"):
        evaluate_text("[1,2]", EvalContext(HAMILTON))


def test_tensor_and_series_do_not_mix():
    ctx = EvalContext(CUBIC.field, scenario=CUBIC, precision=8)
    with pytest.raises(ExprEvalError, match="mix"):
        evaluate_text("tau(x, 4) * x", ctx)


def test_tau_without_a_scenario_is_the_embedding():
    frac = evaluate_text("1 - t", gauss_ctx())
    assert evaluate_text("tau(1 - t, 6)", gauss_ctx()) == embed_fraction(frac, 6)


def test_tau_with_a_scenario_evaluates_at_the_root():
    ctx = EvalContext(CUBIC.field, scenario=CUBIC, precision=12)
    assert evaluate_text("tau(x, 12)", ctx) == ext_tau(TensorElement.x(CUBIC), 12)
    lhs = evaluate_text("tau(x, 12) * tau(x, 12)", ctx)
    rhs = ext_tau(TensorElement.x(CUBIC) * TensorElement.x(CUBIC), 12)
    prec = min(lhs.prec, rhs.prec)
    assert lhs.truncate(prec) == rhs.truncate(prec)


def test_scenario_expressions_build_tensor_elements():
    ctx = EvalContext(CUBIC.field, scenario=CUBIC)
    value = evaluate_text("(x + 1)*(x - 1) - x^2 + 1", ctx)
    assert isinstance(value, TensorElement) and value.is_zero()


def test_head_options_must_be_integer_literals():
    with pytest.raises(ExprEvalError, match="integer literal"):
        evaluate_text("sigma(i, i)", gauss_ctx())
    with pytest.raises(ExprEvalError, match="integer literal"):
        evaluate_text("embed(1, 2/3)", gauss_ctx())


def test_head_arity_is_checked():
    with pytest.raises(ExprEvalError, match="sigma takes"):
        evaluate_text("sigma(1, 2, 3)", gauss_ctx())


def test_sigma_rejects_non_fractions():
    ctx = EvalContext(CUBIC.field, scenario=CUBIC)
    with pytest.raises(ExprEvalError, match="ground fractions"):
        evaluate_text("sigma(x)", ctx)
