import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sensapprox.parsing import (
    BinOp,
    Compare,
    Conditional,
    DomainError,
    EvaluationError,
    MeasureSpecError,
    Num,
    ParseError,
    Var,
    eval_target,
    eval_target_array,
    parse_measure,
    parse_target,
    thresholds,
)
from sensapprox.approx import Certificate
from sensapprox.cli import read_certificate, write_certificate
from sensapprox.funcspace import StepFunction


CORPUS = [
    "x^2",
    "if(x < 0, -1, 1)",
    "0",
    "x",
    "1 + 2*x - x^3",
    "sin(x) + cos(x)",
    "exp(-x^2)",
    "abs(x - 0.5)",
    "min(x, 0.5) * max(x, 0)",
    "if(x <= 0.25, x, if(x >= 0.75, 1 - x, 0.5))",
    "sqrt(abs(x))",
    "log(x + 2)",
    "-x",
    "2^x",
    "(x + 1) / (x^2 + 1)",
    "3",
    "if(x < 0, 1, 2)",
    "if(1 < 2, x, 0)",
]


class TestParseTarget:
    def test_power_base_case(self):
        t = parse_target("x^2")
        assert t.root == BinOp("^", Var(), Num(Fraction(2)))

    def test_conditional_base_case(self):
        t = parse_target("if(x < 0, -1, 1)")
        assert isinstance(t.root, Conditional)
        assert t.root.test == Compare("<", Var(), Num(Fraction(0)))

    def test_incomplete_expression_offset(self):
        with pytest.raises(ParseError) as e:
            parse_target("x +")
        assert e.value.offset == 3

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_target("foo(x)")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="argument"):
            parse_target("sin(x, 1)")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_target("   ")

    def test_comparison_only_inside_if(self):
        with pytest.raises(ParseError):
            parse_target("x < 1")

    @pytest.mark.parametrize("text", CORPUS)
    def test_round_trip(self, text, tmp_path):
        """The target text that a certificate stores reads back as the same
        tree, and neither parentheses nor whitespace carry structure."""
        t = parse_target(text)
        cert = Certificate(
            target_text=t.source_text, measure_text="uniform(0,1)", p=1.0,
            eps=Fraction(1, 10), M=Fraction(1), b=40, scale=Fraction(1, 20),
            phi0=StepFunction(terms=[]), error_bound=0.05,
            error_method="triangle-chain", min_abs_slope=Fraction(2),
            sup_bound=Fraction(1), nondiff_count_in_window=0,
            window=(Fraction(-1), Fraction(1)), quadrature_tolerance=0.001,
        )
        path = tmp_path / "cert.json"
        write_certificate(cert, path)
        assert parse_target(read_certificate(path)["request"]["target"]).root == t.root
        assert parse_target(f"({text})").root == t.root
        assert parse_target("".join(text.split())).root == t.root

    def test_unary_minus_binds_looser_than_power(self):
        t = parse_target("-x^2")
        assert eval_target(t, 2) == -4
        assert eval_target(parse_target("exp(-x^2)"), 3) == pytest.approx(
            math.exp(-9))
        # a negated exponent is still admitted
        assert eval_target(parse_target("2^-x"), 2) == Fraction(1, 4)

    def test_exact_decimal_literals(self):
        t = parse_target("0.1")
        assert t.root == Num(Fraction(1, 10))


class TestEvalTarget:
    def test_square(self):
        assert eval_target(parse_target("x^2"), 3) == 9

    def test_conditional(self):
        assert eval_target(parse_target("if(x < 0, -1, 1)"), -2) == -1

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            eval_target(parse_target("log(x)"), -1)

    def test_sqrt_domain_error(self):
        with pytest.raises(DomainError):
            eval_target(parse_target("sqrt(x)"), -4)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_target(parse_target("1/x"), 0)

    def test_purity_bit_identical(self):
        t = parse_target("sin(x) * exp(x) + x^3")
        for x in (0.1, -2.7, 3.14159):
            assert eval_target(t, x) == eval_target(t, x)

    def test_exact_rational_result(self):
        v = eval_target(parse_target("x^2 + 0.5"), Fraction(1, 3))
        assert v == Fraction(1, 9) + Fraction(1, 2)

    @pytest.mark.parametrize("text", CORPUS)
    def test_array_matches_scalar(self, text):
        t = parse_target(text)
        xs = [-1.5, -0.3, 0.2, 0.9, 2.5]
        out = eval_target_array(t, xs)
        assert out.shape == (len(xs),)
        for x, v in zip(xs, out):
            assert float(eval_target(t, x)) == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("text, want", [
        # a value past the float range is ±inf, which an if() test compares
        ("if(x < sqrt(2)^1000000, 1, 0)", 1),
        ("if(x < 2^(1/2)*10^400, 1, 0)", 1),
        ("if(x > -(2^(1/2)*10^400), 1, 0)", 1),
        ("if(x < (0-1.5)^(10^7+1), 1, 0)", 0),
        ("1/exp(1000)", 0),
        ("if(sin(exp(1000)) < 0, 1, 2)", 2),
    ])
    def test_overflow_is_infinite_as_in_the_array_path(self, text, want):
        t = parse_target(text)
        assert eval_target(t, Fraction(1, 2)) == want
        assert eval_target_array(t, [0.5]).tolist() == [want]

    @pytest.mark.parametrize("text", ["exp(1000)", "exp(x)", "sqrt(2)^1000000",
                                      "2^(1/2)*10^400", "2^(1/2)*10^400 - 2^(1/2)*10^400"])
    def test_non_finite_result_raises(self, text):
        with pytest.raises(EvaluationError):
            eval_target(parse_target(text), 1000)
        with pytest.raises(EvaluationError):
            eval_target_array(parse_target(text), [1000.0])

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_abs_nonnegative(self, x):
        assert eval_target(parse_target("abs(x)"), x) >= 0


class TestThresholds:
    def test_every_test_of_the_bare_variable(self):
        for text, want in (
            ("if(x<0.5, if(x>0, 1, 0), 0)", [0, Fraction(1, 2)]),
            ("if(x < if(1 < 2, 1, 2), 1, 0)", [1]),
            ("if(1 < 2, if(x > 3, 1, 0), 0)", [3]),
            # a kinked target, which is not piecewise constant
            ("if(x <= 0.25, x, if(x >= 0.75, 1 - x, 0.5))",
             [Fraction(1, 4), Fraction(3, 4)]),
            # a test inside a test, and one inside a call
            ("if(x < if(x < 1, 2, 3), 1, 0)", [1]),
            ("sin(if(2/3 >= x, x, 0)) + x^2", [Fraction(2, 3)]),
        ):
            assert thresholds(parse_target(text)) == want, text

    def test_undefined_or_x_dependent_c_gives_nothing(self):
        for text in ("x^2", "3", "if(x < log(0-1), 1, 0)", "if(x < x, 1, 0)",
                     "if(x < 2*x, 1, 0)", "if(x^2 < 1, 1, 0)",
                     # c past the float range
                     "if(x < sqrt(2)^1000000, 1, 0)", "if(x < 2^(1/2)*10^400, 1, 0)"):
            assert thresholds(parse_target(text)) == [], text


class TestParseMeasure:
    def test_single_component(self):
        spec = parse_measure("normal(0,1)")
        assert len(spec.components) == 1
        assert spec.components[0][0] == 1
        assert spec.declared_total_mass == 1

    def test_mixture(self):
        spec = parse_measure("mix(0.5*atom(0), 0.5*uniform(0,1))")
        assert len(spec.components) == 2
        assert spec.declared_total_mass == 1

    def test_invalid_uniform(self):
        with pytest.raises(MeasureSpecError, match="a < b"):
            parse_measure("uniform(1,0)")

    def test_negative_weight(self):
        with pytest.raises(MeasureSpecError, match="negative weight"):
            parse_measure("mix(-0.5*atom(0), 1.5*uniform(0,1))")

    def test_mass_mismatch(self):
        with pytest.raises(MeasureSpecError, match="declared mass"):
            parse_measure("mix(0.5*atom(0), 0.25*uniform(0,1), mass=1)")

    def test_declared_mass_ok(self):
        spec = parse_measure("mix(1*atom(0), 3*uniform(0,1), mass=4)")
        assert spec.declared_total_mass == 4

    def test_invalid_normal(self):
        with pytest.raises(MeasureSpecError, match="stddev"):
            parse_measure("normal(0,0)")

    def test_invalid_exponential(self):
        with pytest.raises(MeasureSpecError, match="rate"):
            parse_measure("exponential(-1)")

    def test_pwd(self):
        spec = parse_measure("pwd(breaks(0,1), poly(1))")
        assert len(spec.components) == 1

    def test_pwd_bad_integral(self):
        with pytest.raises(MeasureSpecError, match="integrates"):
            parse_measure("pwd(breaks(0,2), poly(1))")

    def test_pwd_negative_piece(self):
        with pytest.raises(MeasureSpecError, match="negative"):
            parse_measure("pwd(breaks(-1,1), poly(0.5,1))")

    def test_pwd_negative_between_grid_points(self):
        # 3x^2 - 0.03x + 0.0000375 < 0 on about (0.0018, 0.0082), between
        # the points of a 101-point grid on (0, 1)
        with pytest.raises(MeasureSpecError, match="negative at x="):
            parse_measure("pwd(breaks(0,1,2), poly(0.0000375, -0.03, 3), poly(0.0149625))")

    @pytest.mark.parametrize("text", [
        "pwd(breaks(0,1), poly(0,0,3))",
        "pwd(breaks(0, 0.5, 1), poly(1), poly(3, -12, 12))",
        "pwd(breaks(0,1), poly(3,-12,12))",  # a double root at the halving point
    ])
    def test_pwd_double_root_at_a_cell_end_or_midpoint(self, text):
        assert len(parse_measure(text).components) == 1

    def test_pwd_root_inside_no_halving_reaches_is_undecided(self):
        # 9 (x - 1/3)^2: nonnegative, but 1/3 is no dyadic point of (0, 1)
        with pytest.raises(MeasureSpecError, match="not shown nonnegative"):
            parse_measure("pwd(breaks(0,1), poly(1,-6,9))")

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            parse_measure("uniform(0,")
