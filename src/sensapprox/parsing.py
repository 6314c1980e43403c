"""Text formats for target functions and measure specifications.

Two small recursive-descent parsers share one tokenizer:

* target expressions over a single free variable ``x``, with the usual
  arithmetic operators, a closed set of named functions, and 3-argument
  conditionals ``if(cmp, then, else)``;
* measure specifications: a single distribution component or a weighted
  mixture ``mix(w1*K1, w2*K2, ...)``. The grammar checks only the
  syntax and the arity of a component; each kind in ``measures`` checks
  its own parameters, and ``BorelMeasure`` the weights and the mass,
  with the ``MeasureSpecError`` that is re-exported here.

Numeric literals are exact decimals, kept as ``Fraction`` values in the
tree. One compiler makes of a target two plans over two arithmetic tables
that share one table of domain rules: the float plan of eval_target_array
over an array of points, and the exact plan of eval_target over one point,
which keeps ``Fraction`` values of at most 4096 bits and floats past that.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .intervals import as_rational
from .measures import (
    AtomKind,
    Exponential,
    MeasureSpec,
    MeasureSpecError,
    Normal,
    PiecewisePoly,
    Uniform,
)


class ParseError(ValueError):
    """Syntax or validation failure, with a byte offset into the input."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvaluationError(ValueError):
    """Evaluation produced a non-finite value or otherwise failed."""


class DomainError(EvaluationError):
    """Evaluation at a point outside a subterm's domain (log(-1) etc.)."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


@dataclass(frozen=True)
class Compare:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Conditional:
    test: Compare
    if_true: object
    if_false: object


@dataclass(frozen=True)
class TargetFunction:
    root: object
    source_text: str
    plan: object = field(init=False, repr=False, compare=False)
    exact: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the float function of an array of points that eval_target_array
        # runs, and the exact function of one point that eval_target runs
        object.__setattr__(self, "plan", _compile(self.root, _FLOAT))
        object.__setattr__(self, "exact", _compile(self.root, _EXACT))


FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "abs": 1,
    "sqrt": 1,
    "min": 2,
    "max": 2,
}

# comparison operators of if(...) tests, applied to scalars and arrays alike
CMP_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
           ">=": operator.ge, "==": operator.eq}


# ---------------------------------------------------------------------------
# Tokenizer

_PUNCT = ("<=", ">=", "==", "+", "-", "*", "/", "^", "(", ")", ",", "<", ">", "=")


def _tokenize(text):
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


class _TokenStream:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        kind, text, off = self.peek()
        if text != value or kind == "end":
            raise ParseError(f"expected {value!r}", off)
        return self.next()

    def at_end(self):
        return self.peek()[0] == "end"


# ---------------------------------------------------------------------------
# Target-function grammar
#
#   expr   := term (('+' | '-') term)*
#   term   := factor (('*' | '/') factor)*
#   factor := '-' factor | atom ('^' factor)?
#   atom   := number | 'x' | ident '(' args ')' | '(' expr ')'
#
# Unary minus binds looser than '^' (so "-x^2" is -(x^2), the usual
# mathematical convention), while '^' may still take a negated
# exponent ("2^-x").
#
# Comparisons are only admitted as the first argument of if(...).


class _ExprParser:
    def __init__(self, stream):
        self.s = stream

    def parse_expr(self):
        node = self.parse_term()
        while self.s.peek()[1] in ("+", "-") and self.s.peek()[0] == "op":
            op = self.s.next()[1]
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.s.peek()[1] in ("*", "/") and self.s.peek()[0] == "op":
            op = self.s.next()[1]
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self):
        if self.s.peek()[1] == "-" and self.s.peek()[0] == "op":
            self.s.next()
            return Neg(self.parse_factor())
        node = self.parse_atom()
        if self.s.peek()[1] == "^":
            self.s.next()
            node = BinOp("^", node, self.parse_factor())
        return node

    def parse_atom(self):
        kind, text, off = self.s.peek()
        if kind == "num":
            self.s.next()
            return Num(Fraction(text))
        if text == "(":
            self.s.next()
            node = self.parse_expr()
            self.s.expect(")")
            return node
        if kind == "ident":
            self.s.next()
            if text == "x":
                if self.s.peek()[1] == "(":
                    raise ParseError("'x' is not callable", self.s.peek()[2])
                return Var()
            if text == "if":
                return self._parse_if(off)
            if text not in FUNCTIONS:
                raise ParseError(f"unknown identifier {text!r}", off)
            self.s.expect("(")
            args = [self.parse_expr()]
            while self.s.peek()[1] == ",":
                self.s.next()
                args.append(self.parse_expr())
            self.s.expect(")")
            if len(args) != FUNCTIONS[text]:
                raise ParseError(
                    f"{text} expects {FUNCTIONS[text]} argument(s), got {len(args)}",
                    off,
                )
            return Call(text, tuple(args))
        raise ParseError("expected expression", off)

    def _parse_if(self, off):
        self.s.expect("(")
        left = self.parse_expr()
        kind, text, coff = self.s.peek()
        if text not in CMP_OPS:
            raise ParseError("expected comparison operator in if(...)", coff)
        self.s.next()
        right = self.parse_expr()
        test = Compare(text, left, right)
        self.s.expect(",")
        if_true = self.parse_expr()
        self.s.expect(",")
        if_false = self.parse_expr()
        self.s.expect(")")
        return Conditional(test, if_true, if_false)


def parse_target(text: str) -> TargetFunction:
    """Parse an expression over x into a validated tree."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    stream = _TokenStream(text)
    root = _ExprParser(stream).parse_expr()
    if not stream.at_end():
        raise ParseError("trailing input", stream.peek()[2])
    return TargetFunction(root=root, source_text=text)


# ---------------------------------------------------------------------------
# The target compiler: one walk of the tree into nested closures over an
# arithmetic table. The float table's closures run a float array of points,
# in which branch masking keeps untaken if() branches unevaluated and a
# literal is a float once, which numpy broadcasts; the exact table's run one
# point. In both, a float past the float range is ±inf.

# the most bits of an exact value's numerator or denominator; an exact
# result past it is its float, which bounds each exact operation's cost and
# keeps each exact value within the 4300 digits that Python prints
_BITS = 4096

# name -> the operation's domain checks, which both tables run on its
# operands: (test that the value is undefined, message, test of a literal
# last operand that proves the first test idle, so that the check is dropped)
_CHECKS = {
    "/": [(lambda a, b: b == 0, "division by zero", lambda c: c != 0)],
    "^": [(lambda a, b: (a < 0) & (b != np.floor(b)),
           "negative base with non-integer exponent", lambda c: c == np.floor(c)),
          (lambda a, b: (a == 0) & (b < 0), "zero raised to a negative power",
           lambda c: c >= 0)],
    "log": [(lambda a: a <= 0, "log of non-positive value", lambda c: False)],
    "sqrt": [(lambda a: a < 0, "sqrt of negative value", lambda c: False)],
}


def _to_float(v):
    """v as a float; a rational past the float range is ±inf."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _float_node(op, fs, checks):
    def fn(xs):
        vals = [f(xs) for f in fs]
        for bad, message in checks:
            if np.any(bad(*vals)):
                raise DomainError(message)
        return op(*vals)
    return fn


def _masked_if(cmp, left, right, if_true, if_false):
    def masked(xs):
        mask = np.broadcast_to(cmp(left(xs), right(xs)), xs.shape)
        out = np.empty(xs.shape)
        if mask.any():
            out[mask] = if_true(xs[mask])
        inv = ~mask
        if inv.any():
            out[inv] = if_false(xs[inv])
        return out
    return masked


def _bits(v):
    return max(v.numerator.bit_length(), v.denominator.bit_length())


def _exact_node(entry, fs, checks):
    # the checks see the operands as the operation takes them; where math
    # raises, the value is numpy's
    operands, op = entry

    def fn(x):
        vals = [f(x) for f in fs]
        if operands:
            vals = operands(*vals)
        for bad, message in checks:
            if bad(*vals):
                raise DomainError(message)
        try:
            v = op(*vals)
        except OverflowError:  # exp past the float range
            return math.inf
        except ValueError:  # sin or cos of ±inf
            return math.nan
        return _to_float(v) if isinstance(v, Fraction) and _bits(v) > _BITS else v
    return fn


def _picked_if(cmp, left, right, if_true, if_false):
    return lambda x: (if_true if cmp(left(x), right(x)) else if_false)(x)


def _point(x):
    if x is None:
        raise EvaluationError("free variable in constant context")
    return x


def _floats(*vals):
    return [_to_float(v) for v in vals]


def _mixed(*vals):
    """Floats where one operand is a float, as Fraction makes them but with a
    huge rational ±inf, else the operands as they are."""
    return _floats(*vals) if any(isinstance(v, float) for v in vals) else vals


def _pow_operands(a, b):
    """Fractions where a^b is an exact rational within _BITS, else floats."""
    if (isinstance(a, Fraction) and isinstance(b, Fraction) and b.denominator == 1
            and abs(b.numerator) * _bits(a) <= _BITS):
        return a, b
    return _floats(a, b)


def _pow(a, b):
    try:
        return a**b
    except OverflowError:  # ±inf past the float range, as numpy's power
        return -math.inf if a < 0 and b % 2 == 1 else math.inf


class _Arithmetic(NamedTuple):
    literal: object  # the value of a literal's Fraction
    var: object  # the closure of x
    ops: dict  # operation name -> what node takes of it
    node: object  # (operation, operand closures, live checks) -> closure
    cond: object  # (comparison, test operand closures, branch closures) -> closure


_FLOAT = _Arithmetic(
    _to_float, lambda xs: xs,
    {"neg": operator.neg, "+": operator.add, "-": operator.sub, "*": operator.mul,
     "/": operator.truediv, "^": np.power, "min": np.minimum, "max": np.maximum,
     "abs": np.abs, "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
     "sqrt": np.sqrt},
    _float_node, _masked_if)

_EXACT = _Arithmetic(
    lambda v: v, _point,
    {"neg": (None, operator.neg), "+": (_mixed, operator.add), "-": (_mixed, operator.sub),
     "*": (_mixed, operator.mul), "/": (_mixed, operator.truediv), "^": (_pow_operands, _pow),
     "min": (None, min), "max": (None, max), "abs": (None, abs),
     **{name: (_floats, getattr(math, name)) for name in ("sin", "cos", "exp", "log", "sqrt")}},
    _exact_node, _picked_if)


def _literal(node):
    """The float of a literal or of its negation, else None."""
    if isinstance(node, Num):
        return _to_float(node.value)
    if isinstance(node, Neg) and isinstance(node.operand, Num):
        return -_to_float(node.operand.value)
    return None


def _operation(node):
    """An operation node's name in the tables and its operands."""
    if isinstance(node, Neg):
        return "neg", (node.operand,)
    if isinstance(node, BinOp):
        return node.op, (node.left, node.right)
    if isinstance(node, Call):
        return node.name, node.args
    raise TypeError(f"not an expression node: {node!r}")


def _compile(node, arith):
    """The node's value over the arithmetic table arith, as a function of the
    points: _FLOAT's of a float array, run under the errstate that
    eval_target_array sets, and _EXACT's of one point."""
    if isinstance(node, Num):
        c = arith.literal(node.value)
        return lambda xs: c
    if isinstance(node, Var):
        return arith.var
    if isinstance(node, Conditional):
        test = node.test
        return arith.cond(CMP_OPS[test.op], *(
            _compile(n, arith) for n in (test.left, test.right, node.if_true, node.if_false)))
    name, args = _operation(node)
    fs = [_compile(a, arith) for a in args]
    c = _literal(args[-1])
    checks = [(bad, message) for bad, message, idle in _CHECKS.get(name, ())
              if c is None or not idle(c)]
    return arith.node(arith.ops[name], fs, checks)


def eval_target(f: TargetFunction, x):
    """Value of the expression at x; a Fraction where the operations are exact
    and each value has at most _BITS bits, else a float."""
    v = f.exact(x if isinstance(x, Fraction) else Fraction(x) if isinstance(x, int) else float(x))
    if isinstance(v, float) and not math.isfinite(v):
        raise EvaluationError("overflow to non-finite value")
    return v


def eval_target_array(f: TargetFunction, xs) -> np.ndarray:
    """Evaluate at a float array of points; raises on non-finite results.
    A value past the float range is ±inf, and inf - inf or sin(inf) is NaN,
    without a warning: only the result is checked."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = f.plan(xs)
    if np.shape(out) != xs.shape:  # an x-free target
        out = np.full(xs.shape, out)
    if not np.isfinite(out).all():
        raise EvaluationError("overflow to non-finite value")
    return out


def target_evaluator(f: TargetFunction):
    """Array-callable view of the target."""
    return lambda xs: eval_target_array(f, xs)


# ---------------------------------------------------------------------------
# Thresholds of if() tests


def thresholds(f: TargetFunction):
    """Sorted distinct exact c of every if() test ``x cmp c`` or ``c cmp x``
    in f whose c is free of x, defined and within the float range: the
    points where a test of the bare variable can change its outcome,
    wherever the test sits. A c that evaluates to a float, such as sqrt(2),
    is its exact binary value."""
    out = set()
    stack = [f.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Conditional):
            test = node.test
            for var, c in ((test.left, test.right), (test.right, test.left)):
                if isinstance(var, Var):
                    # the exact plan raises at x=None on x in c and where c
                    # is undefined, and as_rational on a c past the float
                    # range (±inf), which lies past every cell end
                    try:
                        out.add(as_rational(_compile(c, _EXACT)(None)))
                    except ValueError:
                        pass
            stack += (test.left, test.right, node.if_true, node.if_false)
        elif not isinstance(node, (Num, Var)):
            stack += _operation(node)[1]
    return sorted(out)


# ---------------------------------------------------------------------------
# Measure-specification grammar
#
#   measure  := component | 'mix' '(' weighted (',' weighted)* [',' 'mass' '=' number] ')'
#   weighted := number '*' component
#   component:= 'atom(c)' | 'uniform(a,b)' | 'normal(m,s)' | 'exponential(r)'
#              | 'pwd(breaks(b0,...,bn), poly(c0,...), ...)'
#
# Each kind checks its own parameters. The kinds whose arguments are one
# list of numbers, as name -> (kind, arity); pwd is parsed on its own:
_KINDS = {"atom": (AtomKind, 1), "uniform": (Uniform, 2), "normal": (Normal, 2),
          "exponential": (Exponential, 1)}


def _parse_signed_number(stream) -> Fraction:
    negate = False
    if stream.peek()[1] == "-":
        stream.next()
        negate = True
    kind, text, off = stream.peek()
    if kind != "num":
        raise ParseError("expected number", off)
    stream.next()
    v = Fraction(text)
    return -v if negate else v


def _parse_number_list(stream):
    stream.expect("(")
    vals = [_parse_signed_number(stream)]
    while stream.peek()[1] == ",":
        stream.next()
        vals.append(_parse_signed_number(stream))
    stream.expect(")")
    return vals


def _parse_component(stream):
    kind, name, off = stream.peek()
    if kind != "ident":
        raise ParseError("expected distribution name", off)
    stream.next()
    if name == "pwd":
        return _parse_pwd(stream)
    if name not in _KINDS:
        raise ParseError(f"unknown distribution {name!r}", off)
    cls, arity = _KINDS[name]
    args = _parse_number_list(stream)
    if len(args) != arity:
        raise ParseError(f"{name} expects {arity} argument{'s' * (arity > 1)}", off)
    return cls(*args)


def _parse_pwd(stream):
    stream.expect("(")
    kind, name, boff = stream.peek()
    if name != "breaks":
        raise ParseError("pwd expects breaks(...) first", boff)
    stream.next()
    breaks = _parse_number_list(stream)
    pieces = []
    while stream.peek()[1] == ",":
        stream.next()
        kind, name, poff = stream.peek()
        if name != "poly":
            raise ParseError("expected poly(...)", poff)
        stream.next()
        pieces.append(tuple(_parse_number_list(stream)))
    stream.expect(")")
    return PiecewisePoly(tuple(breaks), tuple(pieces))


def parse_measure(text: str):
    """Parse a measure specification into a MeasureSpec. Only the syntax
    is checked here: each kind checks its parameters as it is built, and
    BorelMeasure.from_spec checks the weights and the mass."""
    if not text.strip():
        raise ParseError("empty measure specification", 0)
    stream = _TokenStream(text)
    kind, name, off = stream.peek()
    components = []
    declared_mass = None
    if name == "mix" and kind == "ident":
        stream.next()
        stream.expect("(")
        while True:
            kind, tok, toff = stream.peek()
            if tok == "mass":
                stream.next()
                stream.expect("=")
                declared_mass = _parse_signed_number(stream)
                break
            w = _parse_signed_number(stream)
            stream.expect("*")
            components.append((w, _parse_component(stream)))
            if stream.peek()[1] != ",":
                break
            stream.next()
        stream.expect(")")
        if not components:
            raise ParseError("mix requires at least one component", off)
    else:
        components.append((Fraction(1), _parse_component(stream)))
    if not stream.at_end():
        raise ParseError("trailing input", stream.peek()[2])
    return MeasureSpec(
        components=tuple(components),
        declared_total_mass=declared_mass,
        source_text=text,
    )
