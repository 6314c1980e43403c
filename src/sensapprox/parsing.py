"""Text formats for target functions and measure specifications.

Two small recursive-descent grammars, each a set of functions, read one
token stream, whose ``accept`` takes an optional token:

* target expressions over a single free variable ``x``, with the usual
  arithmetic operators, a closed set of named functions, and 3-argument
  conditionals ``if(cmp, then, else)``;
* measure specifications: a single distribution component or a weighted
  mixture ``mix(w1*K1, w2*K2, ...)``. The grammar checks only the
  syntax and the arity of a component; each kind in ``measures`` checks
  its own parameters, and ``BorelMeasure`` the weights and the mass,
  with the ``MeasureSpecError`` that is re-exported here.

A target is a tree of four node kinds: ``Num``, a literal; ``Var``, the
variable x; ``Op``, an operation named by its key in the arithmetic tables
(``"neg"``, + - * / ^ or a function); and ``If``, a conditional with its
comparison. Numeric literals are exact decimals, kept as ``Fraction`` values
in the tree. One compiler makes of a target two plans over two arithmetic
tables that share one table of domain rules: the float plan of
eval_target_array over an array of points, and the exact plan of eval_target
over one point, which keeps ``Fraction`` values of at most 4096 bits and
floats past that.
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
class Op:
    name: str  # its key in the arithmetic tables: "neg", + - * / ^ or a function
    args: tuple


@dataclass(frozen=True)
class If:
    cmp: str
    left: object
    right: object
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


def _fraction(text, off):
    """The exact value of the decimal literal text at offset off: the one
    reader of a number of either grammar."""
    try:
        return Fraction(text)
    except ValueError:  # more digits than Python converts to an int
        raise ParseError("number has too many digits", off) from None


class _TokenStream:
    """The tokens of one text, which both grammars read left to right."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, *texts):
        """The next token's text, consumed, where it is one of texts; else
        None. A number, a name and an operator never share a text, and the
        end's text is empty, so a text names its token."""
        text = self.peek()[1]
        if text in texts:
            self.pos += 1
            return text
        return None

    def expect(self, text):
        if self.accept(text) is None:
            raise ParseError(f"expected {text!r}", self.peek()[2])

    def finish(self):
        kind, _, off = self.peek()
        if kind != "end":
            raise ParseError("trailing input", off)


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


def _expr(s):
    node = _term(s)
    while op := s.accept("+", "-"):
        node = Op(op, (node, _term(s)))
    return node


def _term(s):
    node = _factor(s)
    while op := s.accept("*", "/"):
        node = Op(op, (node, _factor(s)))
    return node


def _factor(s):
    if s.accept("-"):
        return Op("neg", (_factor(s),))
    node = _atom(s)
    if s.accept("^"):
        node = Op("^", (node, _factor(s)))
    return node


def _atom(s):
    kind, text, off = s.next()
    if kind == "num":
        return Num(_fraction(text, off))
    if text == "(":
        node = _expr(s)
        s.expect(")")
        return node
    if kind != "ident":
        raise ParseError("expected expression", off)
    if text == "x":
        if s.peek()[1] == "(":
            raise ParseError("'x' is not callable", s.peek()[2])
        return Var()
    if text != "if" and text not in FUNCTIONS:
        raise ParseError(f"unknown identifier {text!r}", off)
    s.expect("(")
    if text == "if":
        left = _expr(s)
        cmp = s.accept(*CMP_OPS)
        if cmp is None:
            raise ParseError("expected comparison operator in if(...)", s.peek()[2])
        right = _expr(s)
        s.expect(",")
        if_true = _expr(s)
        s.expect(",")
        if_false = _expr(s)
        s.expect(")")
        return If(cmp, left, right, if_true, if_false)
    args = [_expr(s)]
    while s.accept(","):
        args.append(_expr(s))
    s.expect(")")
    if len(args) != FUNCTIONS[text]:
        raise ParseError(
            f"{text} expects {FUNCTIONS[text]} argument(s), got {len(args)}",
            off,
        )
    return Op(text, tuple(args))


def parse_target(text: str) -> TargetFunction:
    """Parse an expression over x into a validated tree."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    s = _TokenStream(text)
    root = _expr(s)
    s.finish()
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
    if isinstance(node, Op) and node.name == "neg" and isinstance(node.args[0], Num):
        return -_to_float(node.args[0].value)
    return None


def _compile(node, arith):
    """The node's value over the arithmetic table arith, as a function of the
    points: _FLOAT's of a float array, run under the errstate that
    eval_target_array sets, and _EXACT's of one point."""
    if isinstance(node, Num):
        c = arith.literal(node.value)
        return lambda xs: c
    if isinstance(node, Var):
        return arith.var
    if isinstance(node, If):
        return arith.cond(CMP_OPS[node.cmp], *(
            _compile(n, arith) for n in (node.left, node.right, node.if_true, node.if_false)))
    fs = [_compile(a, arith) for a in node.args]
    c = _literal(node.args[-1])
    checks = [(bad, message) for bad, message, idle in _CHECKS.get(node.name, ())
              if c is None or not idle(c)]
    return arith.node(arith.ops[node.name], fs, checks)


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
        if isinstance(node, If):
            for var, c in ((node.left, node.right), (node.right, node.left)):
                if isinstance(var, Var):
                    # the exact plan raises at x=None on x in c and where c
                    # is undefined, and as_rational on a float ±inf; a c
                    # whose float is ±inf, such as 2^1024 held as a
                    # Fraction, lies past every cell end and has no knot
                    try:
                        t = as_rational(_compile(c, _EXACT)(None))
                    except ValueError:
                        continue
                    if math.isfinite(_to_float(t)):
                        out.add(t)
            stack += (node.left, node.right, node.if_true, node.if_false)
        elif isinstance(node, Op):
            stack += node.args
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


def _signed(s):
    negate = s.accept("-")
    kind, text, off = s.next()
    if kind != "num":
        raise ParseError("expected number", off)
    v = _fraction(text, off)
    return -v if negate else v


def _numbers(s):
    s.expect("(")
    vals = [_signed(s)]
    while s.accept(","):
        vals.append(_signed(s))
    s.expect(")")
    return tuple(vals)


def _named_numbers(s, name, message):
    """The numbers of name(...), or a ParseError with message."""
    if not s.accept(name):
        raise ParseError(message, s.peek()[2])
    return _numbers(s)


def _component(s):
    kind, name, off = s.next()
    if kind != "ident":
        raise ParseError("expected distribution name", off)
    if name == "pwd":
        s.expect("(")
        breaks = _named_numbers(s, "breaks", "pwd expects breaks(...) first")
        pieces = []
        while s.accept(","):
            pieces.append(_named_numbers(s, "poly", "expected poly(...)"))
        s.expect(")")
        return PiecewisePoly(breaks, tuple(pieces))
    if name not in _KINDS:
        raise ParseError(f"unknown distribution {name!r}", off)
    cls, arity = _KINDS[name]
    args = _numbers(s)
    if len(args) != arity:
        raise ParseError(f"{name} expects {arity} argument{'s' * (arity > 1)}", off)
    return cls(*args)


def parse_measure(text: str):
    """Parse a measure specification into a MeasureSpec. Only the syntax
    is checked here: each kind checks its parameters as it is built, and
    BorelMeasure.from_spec checks the weights and the mass."""
    if not text.strip():
        raise ParseError("empty measure specification", 0)
    s = _TokenStream(text)
    off = s.peek()[2]
    components = []
    declared_mass = None
    if s.accept("mix"):
        s.expect("(")
        while True:
            if s.accept("mass"):
                s.expect("=")
                declared_mass = _signed(s)
                break
            w = _signed(s)
            s.expect("*")
            components.append((w, _component(s)))
            if not s.accept(","):
                break
        s.expect(")")
        if not components:
            raise ParseError("mix requires at least one component", off)
    else:
        components.append((Fraction(1), _component(s)))
    s.finish()
    return MeasureSpec(
        components=tuple(components),
        declared_total_mass=declared_mass,
        source_text=text,
    )
