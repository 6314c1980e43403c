import math
import re
from fractions import Fraction
from time import perf_counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sensapprox.parsing import (
    CMP_OPS,
    DomainError,
    EvaluationError,
    If,
    MeasureSpecError,
    Num,
    Op,
    ParseError,
    Var,
    _BITS,
    _to_float,
    _tokenize,
    eval_target,
    eval_target_array,
    parse_measure,
    parse_target,
    thresholds,
)
from sensapprox.approx import ApproxRequest, Certificate
from sensapprox.cli import read_certificate, write_certificate
from sensapprox.funcspace import SensitiveApproximant, StepFunction, TriangleWave
from sensapprox.measures import BorelMeasure


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
        assert t.root == Op("^", (Var(), Num(Fraction(2))))

    def test_conditional_base_case(self):
        t = parse_target("if(x < 0, -1, 1)")
        assert t.root == If("<", Var(), Num(Fraction(0)), Op("neg", (Num(Fraction(1)),)),
                            Num(Fraction(1)))

    def test_incomplete_expression_offset(self):
        with pytest.raises(ParseError) as e:
            parse_target("x +")
        assert e.value.offset == 3

    def test_semicolon_is_no_token(self):
        with pytest.raises(ParseError, match=r"unexpected character ';' \(offset 1\)"):
            parse_target("x;1")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_target("foo(x)")

    @pytest.mark.parametrize("parse, text, message, offset", [
        (parse_target, "\u00b2", "unexpected character '\u00b2'", 0),
        (parse_target, "x+1.\u00b2", "malformed number", 2),
        (parse_measure, "uniform(0,\u00b2)", "unexpected character '\u00b2'", 10),
    ])
    def test_a_digit_that_is_not_decimal_is_a_parse_error(self, parse, text, message, offset):
        """str.isdigit() takes a superscript two, which Fraction does not
        read; the tokenizer reads the decimal digits only, in both grammars."""
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == f"{message} (offset {offset})" and e.value.offset == offset

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
        req = ApproxRequest(target=t, mu=BorelMeasure.from_spec(parse_measure("uniform(0,1)")),
                            p=1.0, eps=Fraction(1, 10), M=Fraction(1))
        Y = SensitiveApproximant(phi0=StepFunction(terms=[]), scale=Fraction(1, 20),
                                 wave=TriangleWave(b=40))
        cert = Certificate(request=req, approximant=Y, error_bound=0.05,
                           error_method="triangle-chain")
        path = tmp_path / "cert.json"
        write_certificate(cert, path)
        assert read_certificate(path).request.target.root == t.root
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


# What each grammar says of a malformed input, and where: the exact message
# and byte offset of the ParseError
_NO_E = "the grammar takes no e notation: write the number as a decimal or as n/d"
_MALFORMED = [
    (parse_target, "x +", "expected expression", 3),
    (parse_target, "x^", "expected expression", 2),
    (parse_target, "2**x", "expected expression", 2),
    (parse_target, ")", "expected expression", 0),
    (parse_target, "sin()", "expected expression", 4),
    (parse_target, "max(x)", "max expects 2 argument(s), got 1", 0),
    (parse_target, "sin(x,1)", "sin expects 1 argument(s), got 2", 0),
    (parse_target, "x(1)", "'x' is not callable", 1),
    (parse_target, "sin x", "expected '('", 4),
    (parse_target, "min(x 1)", "expected ')'", 6),
    (parse_target, "(x", "expected ')'", 2),
    (parse_target, "foo(x)", "unknown identifier 'foo'", 0),
    (parse_target, "if(x<1,2)", "expected ','", 8),
    (parse_target, "if(x=1,1,2)", "expected comparison operator in if(...)", 4),
    (parse_target, "if(1<2<3,1,2)", "expected ','", 6),
    (parse_target, "x < 1", "trailing input", 2),
    (parse_target, "1e5", _NO_E, 1),
    (parse_target, "2.5E+3", _NO_E, 3),
    (parse_target, "x^1e-8", _NO_E, 3),
    (parse_target, "1e", "trailing input", 1),
    (parse_target, "1e+x", "trailing input", 1),
    (parse_target, "1 2", "trailing input", 2),
    (parse_target, "0.", "malformed number", 0),
    (parse_target, "1.5.5", "unexpected character '.'", 3),
    (parse_target, "", "empty expression", 0),
    (parse_measure, "mix()", "expected number", 4),
    (parse_measure, "mix(mass=1)", "mix requires at least one component", 0),
    (parse_measure, "mix(0.5*uniform(0,1),)", "expected number", 21),
    (parse_measure, "mix(1*uniform(0,1) mass=1)", "expected ')'", 19),
    (parse_measure, "mix(0.5 uniform(0,1))", "expected '*'", 8),
    (parse_measure, "mix(0.5*uniform(0,1), mass 1)", "expected '='", 27),
    (parse_measure, "mix(0.5*mix(1*atom(0)))", "unknown distribution 'mix'", 8),
    (parse_measure, "mix", "expected '('", 3),
    (parse_measure, "pwd(poly(1))", "pwd expects breaks(...) first", 4),
    (parse_measure, "pwd(breaks(0,1), poly())", "expected number", 22),
    (parse_measure, "pwd(breaks(0,1), 1)", "expected poly(...)", 17),
    (parse_measure, "pwd(breaks(0,1) poly(1))", "expected ')'", 16),
    (parse_measure, "uniform(0,1", "expected ')'", 11),
    (parse_measure, "uniform(0)", "uniform expects 2 arguments", 0),
    (parse_measure, "atom(0,1)", "atom expects 1 argument", 0),
    (parse_measure, "uniform(--1,1)", "expected number", 9),
    (parse_measure, "foo(1)", "unknown distribution 'foo'", 0),
    (parse_measure, "1", "expected distribution name", 0),
    (parse_measure, "uniform(0,1) x", "trailing input", 13),
    (parse_measure, "normal(0,1E3)", _NO_E, 10),
    (parse_measure, "", "empty measure specification", 0),
]


class TestGrammar:
    @pytest.mark.parametrize("parse, text, message, offset", _MALFORMED)
    def test_a_malformed_input_is_a_parse_error_at_its_offset(self, parse, text, message,
                                                               offset):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == f"{message} (offset {offset})" and e.value.offset == offset

    @pytest.mark.parametrize("parse, text, offset", [
        (parse_target, "x+" + "1" * 4400, 2),
        (parse_target, "0." + "0" * 4400 + "1", 0),
        (parse_measure, "uniform(0," + "1" * 4400 + ")", 10),
        (parse_measure, "mix(" + "1" * 4400 + "*uniform(0,1))", 4),
    ], ids=["target", "decimal", "measure", "weight"])
    def test_a_literal_with_more_digits_than_python_converts(self, parse, text, offset):
        """Fraction refuses a decimal of more than 4300 digits with a bare
        ValueError; each grammar reads a literal through one reader, which
        makes it a ParseError at the literal."""
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == f"number has too many digits (offset {offset})"
        assert e.value.offset == offset

    @pytest.mark.parametrize("text, want", [
        ("1-2-3", -4), ("2/2/2", Fraction(1, 2)), ("2^3^2", 512), ("-2^2", -4),
        ("2^-1^-1", Fraction(1, 2)),
    ])
    def test_precedence_and_associativity(self, text, want):
        """+ - * / group to the left, ^ to the right, and a unary minus binds
        looser than ^ but may start an exponent."""
        assert eval_target(parse_target(text), 0) == want


# The lexer as a character loop: the oracle of the one-pattern lexer
_PUNCT = ("<=", ">=", "==", "+", "-", "*", "/", "^", "(", ")", ",", "<", ">", "=")


def _loop_tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or not text[j].isdecimal():
                    raise ParseError("malformed number", i)
                while j < n and text[j].isdecimal():
                    j += 1
            if re.match(r"[eE][+-]?\d", text[j:j + 3]):
                raise ParseError("the grammar takes no e notation: write the number "
                                 "as a decimal or as n/d", j)
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(("op", p, i))
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _lexed(tokenize, text):
    """The token list, or the ParseError's message and offset."""
    try:
        return tokenize(text)
    except ParseError as e:
        return str(e), e.offset


# an Arabic-Indic three (a decimal digit, Nd), a superscript two and a
# vulgar half (digits that are not decimal), a Roman twelve (a number
# letter, Nl), a combining acute, a no-break space and a zero-width space
_ODD = ["\u0663", "\u00b2", "\u00bd", "\u216b", "\u0301", "\u00a0", "\u200b"]


class TestLexer:
    @pytest.mark.parametrize("c", _ODD)
    @pytest.mark.parametrize("context", ["{}", "x{}", "{}1", "1{}", "1.{}", "1{}5", "_{}e",
                                         "1{}e5", "sin({})", "x {} <= 1"])
    def test_a_character_lexes_as_the_loop_lexes_it(self, c, context):
        text = context.format(c)
        assert _lexed(_tokenize, text) == _lexed(_loop_tokenize, text)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(list("0123456789.eE+-*/^(),<>=xy_ \t\n;!\u00e9")
                                    + ["sin", "1.5", "2e3"] + _ODD), max_size=24).map("".join))
    def test_a_text_lexes_as_the_loop_lexes_it(self, text):
        assert _lexed(_tokenize, text) == _lexed(_loop_tokenize, text)


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

    def test_an_exact_power_past_the_size_limit_is_its_float(self):
        # a power is sized before it is computed, as |e| times the larger bit
        # length of the base's numerator and denominator: 2048 * 2 is the limit
        assert eval_target(parse_target("x^2048"), Fraction(1, 2)) == Fraction(1, 2**2048)
        v = eval_target(parse_target("x^2049"), Fraction(1, 2))
        assert type(v) is float and v == 0.0
        assert type(eval_target(parse_target("1^5000"), 0)) is float

    def test_an_exact_product_past_the_size_limit_is_its_float(self):
        # each factor is within the limit, their product is not
        v = eval_target(parse_target("x^1000*x^1000*x^1000*x^1000*x^1000"), Fraction(3, 10))
        assert type(v) is float and math.isfinite(v)


# ---------------------------------------------------------------------------
# The plan that parse_target compiles against the tree walk it replaced,
# kept here as the oracle: the same bits, or the same error


def _walk(node, xs):
    if isinstance(node, Num):
        return _to_float(node.value)
    if isinstance(node, Var):
        return xs
    if isinstance(node, Op) and node.name == "neg":
        return -_walk(node.args[0], xs)
    if isinstance(node, Op) and node.name in ("+", "-", "*", "/", "^"):
        a, b = _walk(node.args[0], xs), _walk(node.args[1], xs)
        if node.name == "+":
            return a + b
        if node.name == "-":
            return a - b
        if node.name == "*":
            return a * b
        if node.name == "/":
            if np.any(b == 0):
                raise DomainError("division by zero")
            return a / b
        if np.any((a < 0) & (b != np.floor(b))):
            raise DomainError("negative base with non-integer exponent")
        if np.any((a == 0) & (b < 0)):
            raise DomainError("zero raised to a negative power")
        return np.power(a, b)
    if isinstance(node, If):
        mask = CMP_OPS[node.cmp](_walk(node.left, xs), _walk(node.right, xs))
        mask = np.broadcast_to(mask, xs.shape)
        out = np.empty(xs.shape)
        if mask.any():
            out[mask] = _walk(node.if_true, xs[mask])
        if (~mask).any():
            out[~mask] = _walk(node.if_false, xs[~mask])
        return out
    v = [_walk(a, xs) for a in node.args]
    if node.name in ("min", "max"):
        return (np.minimum if node.name == "min" else np.maximum)(*v)
    if node.name == "log" and np.any(v[0] <= 0):
        raise DomainError("log of non-positive value")
    if node.name == "sqrt" and np.any(v[0] < 0):
        raise DomainError("sqrt of negative value")
    return getattr(np, node.name)(v[0])


def _walk_target(f, xs):
    xs = np.asarray(xs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _walk(f.root, xs)
    if np.shape(out) != xs.shape:
        out = np.full(xs.shape, out)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("overflow to non-finite value")
    return out


def _outcome(evaluate, f, xs):
    try:
        return evaluate(f, xs).tobytes()
    except EvaluationError as exc:
        return type(exc), str(exc)


# literal and x-free compound constants: integral, negative, fractional and
# zero; only a literal or its negation drops a check
_CONSTANTS = ["0", "1", "2", "3", "0.5", "2.5", "-1", "-2", "-0.5", "(1-1)", "(2-1)",
              "(0-2)", "(1/2)", "(0-1/2)", "(4/2)", "(3-0.5)", "sqrt(4)", "log(1)", "0^0"]
_POINTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 1e-300]),
                    st.floats(-4, 4), st.floats(allow_nan=False, allow_infinity=False))


def _extend(e):
    c = st.sampled_from(_CONSTANTS)
    return st.one_of(
        st.builds("({}) {} ({})".format, e, st.sampled_from("+-*"), e),
        st.builds("-({})".format, e),
        st.builds("({})^{}".format, e, c),
        st.builds("({})^({})".format, e, e),
        st.builds("({})/{}".format, e, c),
        st.builds("({})/({})".format, e, e),
        st.builds("{}({})".format, st.sampled_from(["log", "sqrt", "sin", "exp", "abs"]), e),
        st.builds("{}({}, {})".format, st.sampled_from(["min", "max"]), e, e),
        st.builds("if({} {} {}, {}, {})".format, e, st.sampled_from(sorted(CMP_OPS)), e, e, e),
    )


_TARGETS = st.recursive(st.one_of(st.just("x"), st.sampled_from(_CONSTANTS)), _extend,
                        max_leaves=8)


class TestCompiledPlan:
    @settings(max_examples=400, deadline=None)
    @given(_TARGETS, st.lists(_POINTS, max_size=6))
    def test_plan_gives_the_bits_and_errors_of_the_tree_walk(self, text, xs):
        f = parse_target(text)
        assert _outcome(eval_target_array, f, xs) == _outcome(_walk_target, f, xs)

    @pytest.mark.parametrize("text", ["(x-1)^0.5", "x^-0.5", "x/(1-1)", "0^(0-1)+x",
                                      "x^(1-1/2)", "if(x < 2, 1/(2-2), 0)", "log(0)+x",
                                      "sqrt(-1)+x"])
    def test_a_constant_operand_keeps_the_checks_it_can_fire(self, text):
        with pytest.raises(DomainError):
            eval_target_array(parse_target(text), [-0.5])

    def test_an_undefined_branch_that_is_not_taken_does_not_raise(self):
        f = parse_target("if(x < 2, x, 0^(0-1))")
        assert eval_target_array(f, [0.5, 1.0]).tolist() == [0.5, 1.0]


# ---------------------------------------------------------------------------
# The exact plan against the Fraction-keeping tree walk it replaced, kept here
# as the oracle: the same type and value, or the same error class. The walk
# has no size rule: a draw in which it makes an exact value past the plan's
# size limit, where the plan takes the float, is not compared

_EXP_LIMIT = 10**6


class _Unbounded(Exception):
    pass


def _bits(v):
    return max(v.numerator.bit_length(), v.denominator.bit_length())


def _as_number(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return float(x)


def _ev(node, x):
    v = _ev_unbounded(node, x)
    if isinstance(v, Fraction) and _bits(v) > _BITS:
        raise _Unbounded
    return v


def _ev_unbounded(node, x):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if x is None:
            raise EvaluationError("free variable in constant context")
        return x
    if isinstance(node, Op) and node.name == "neg":
        return -_ev(node.args[0], x)
    if isinstance(node, Op) and node.name in ("+", "-", "*", "/", "^"):
        a = _ev(node.args[0], x)
        b = _ev(node.args[1], x)
        return _apply_binop(node.name, a, b)
    if isinstance(node, If):
        return _ev(node.if_true if _ev_test(node, x) else node.if_false, x)
    args = [_ev(a, x) for a in node.args]
    return _apply_call(node.name, args)


def _apply_binop(op, a, b):
    if op == "^":
        return _apply_pow(a, b)
    if isinstance(a, float) or isinstance(b, float):
        a, b = _to_float(a), _to_float(b)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0:
        raise DomainError("division by zero")
    return a / b


def _apply_pow(a, b):
    if isinstance(b, Fraction) and b.denominator == 1 and abs(b) <= _EXP_LIMIT:
        e = int(b)
        if a == 0 and e < 0:
            raise DomainError("zero raised to a negative power")
        if isinstance(a, Fraction):
            if abs(e) * _bits(a) > _BITS:
                raise _Unbounded
            return a**e
        b = e
    a, b = _to_float(a), _to_float(b)
    if a < 0 and b != np.floor(b):
        raise DomainError("negative base with non-integer exponent")
    if a == 0 and b < 0:
        raise DomainError("zero raised to a negative power")
    try:
        return math.pow(a, b)
    except OverflowError:
        return -math.inf if a < 0 and b % 2 == 1 else math.inf


def _apply_call(name, args):
    if name == "abs":
        return abs(args[0])
    if name == "min":
        return min(args)
    if name == "max":
        return max(args)
    v = _to_float(args[0])
    if name == "log":
        if v <= 0:
            raise DomainError(f"log of non-positive value {v}")
        return math.log(v)
    if name == "sqrt":
        if v < 0:
            raise DomainError(f"sqrt of negative value {v}")
        return math.sqrt(v)
    try:
        return getattr(math, name)(v)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


def _ev_test(node, x):
    return CMP_OPS[node.cmp](_ev(node.left, x), _ev(node.right, x))


def _walk_eval(f, x):
    v = _ev(f.root, _as_number(x))
    if isinstance(v, float) and not math.isfinite(v):
        raise EvaluationError("overflow to non-finite value")
    return v


def _exact_outcome(evaluate, f, x):
    try:
        v = evaluate(f, x)
    except EvaluationError as exc:
        return type(exc)
    return type(v), repr(v)


class TestExactPlan:
    @settings(max_examples=400, deadline=None)
    @given(_TARGETS, st.one_of(_POINTS, _POINTS.map(Fraction),
                               st.fractions(-4, 4, max_denominator=64)))
    def test_plan_gives_the_type_and_value_or_error_of_the_tree_walk(self, text, x):
        f = parse_target(text)
        try:
            want = _exact_outcome(_walk_eval, f, x)
        except _Unbounded:
            assume(False)
        assert _exact_outcome(eval_target, f, x) == want


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

    def test_an_exact_c_past_the_float_range_gives_nothing(self):
        # 2^1024 and 10^400 are exact Fractions whose float would overflow;
        # they lie past every float, so no knot or cell end is at them
        for text in ("if(x < 2^1024, 1, 0)", "if(x > 0-10^400, 1, 0)",
                     "if(10^400 <= x, 1, 0)"):
            assert thresholds(parse_target(text)) == [], text
        assert thresholds(parse_target("if(x < 2^1023, if(x < 1, 1, 0), 0)")) == [1, 2**1023]

    def test_a_c_past_the_size_limit_takes_bounded_time(self):
        # 3^(10^8) is the float inf, not an exact integer of 10^8 digits
        start = perf_counter()
        assert thresholds(parse_target("if(x < (3^10000)^10000, 1, 0)")) == []
        assert perf_counter() - start < 1


class TestParseMeasure:
    def test_single_component(self):
        spec = parse_measure("normal(0,1)")
        assert len(spec.components) == 1
        assert spec.components[0][0] == 1
        assert spec.declared_total_mass is None

    def test_mixture(self):
        spec = parse_measure("mix(0.5*atom(0), 0.5*uniform(0,1))")
        assert len(spec.components) == 2
        assert spec.declared_total_mass is None

    def test_invalid_uniform(self):
        with pytest.raises(MeasureSpecError, match="a < b"):
            parse_measure("uniform(1,0)")

    def test_negative_weight(self):
        with pytest.raises(MeasureSpecError, match="negative weight"):
            BorelMeasure.from_spec(parse_measure("mix(-0.5*atom(0), 1.5*uniform(0,1))"))

    def test_mass_mismatch(self):
        with pytest.raises(MeasureSpecError, match="declared mass"):
            BorelMeasure.from_spec(parse_measure("mix(0.5*atom(0), 0.25*uniform(0,1), mass=1)"))

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
