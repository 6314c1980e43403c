"""Text formats for target functions and measure specifications.

Two small recursive-descent parsers share one tokenizer:

* target expressions over a single free variable ``x``, with the usual
  arithmetic operators, a closed set of named functions, and 3-argument
  conditionals ``if(cmp, then, else)``;
* measure specifications: a single distribution component or a weighted
  mixture ``mix(w1*K1, w2*K2, ...)``. The grammar checks only the
  syntax and the arity of a component; each kind in ``measures`` checks
  its own parameters, and its ``MeasureSpecError`` is re-exported here.

Numeric literals are exact decimals and are kept as ``Fraction`` values
throughout; nothing is widened to floating point at parse time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

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

_PUNCT = ("<=", ">=", "==", "+", "-", "*", "/", "^", "(", ")", ",", "<", ">", "=", ";")


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or not text[j].isdigit():
                    raise ParseError("malformed number", i)
                while j < n and text[j].isdigit():
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
# Scalar evaluation (Fraction-preserving where the operation is exact; as
# in the array path, a float past the float range is ±inf)

_EXP_LIMIT = 10**6


def _as_number(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return float(x)


def _ev(node, x):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if x is None:
            raise EvaluationError("free variable in constant context")
        return x
    if isinstance(node, Neg):
        return -_ev(node.operand, x)
    if isinstance(node, BinOp):
        a = _ev(node.left, x)
        b = _ev(node.right, x)
        return _apply_binop(node.op, a, b)
    if isinstance(node, Conditional):
        return _ev(node.if_true if _ev_test(node.test, x) else node.if_false, x)
    if isinstance(node, Call):
        args = [_ev(a, x) for a in node.args]
        return _apply_call(node.name, args)
    raise TypeError(f"not an expression node: {node!r}")


def _to_float(v):
    """v as a float; a rational past the float range is ±inf."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _apply_binop(op, a, b):
    if op == "^":
        return _apply_pow(a, b)
    if isinstance(a, float) or isinstance(b, float):
        # what Fraction does with a float, but a huge rational is ±inf
        a, b = _to_float(a), _to_float(b)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise DomainError("division by zero")
        return a / b
    raise ValueError(op)


def _apply_pow(a, b):
    if isinstance(b, Fraction) and b.denominator == 1 and abs(b) <= _EXP_LIMIT:
        e = int(b)
        if a == 0 and e < 0:
            raise DomainError("zero raised to a negative power")
        if isinstance(a, Fraction):
            return a**e
        b = e
    a, b = _to_float(a), _to_float(b)
    if a < 0 and b != np.floor(b):
        raise DomainError("negative base with non-integer exponent")
    if a == 0 and b < 0:
        raise DomainError("zero raised to a negative power")
    try:
        return math.pow(a, b)
    except OverflowError:  # ±inf past the float range, as numpy's power
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
    except OverflowError:  # exp past the float range
        return math.inf
    except ValueError:  # sin or cos of ±inf, which numpy makes NaN
        return math.nan


def _ev_test(test, x):
    return CMP_OPS[test.op](_ev(test.left, x), _ev(test.right, x))


def eval_target(f: TargetFunction, x):
    """Value of the expression at x; exact Fraction where possible."""
    v = _ev(f.root, _as_number(x))
    if isinstance(v, float) and not math.isfinite(v):
        raise EvaluationError("overflow to non-finite value")
    return v


def eval_const(node):
    """Evaluate an x-free subtree; raises if the subtree mentions x."""
    return _ev(node, None)


# ---------------------------------------------------------------------------
# Vectorized evaluation (float arrays; branch masking keeps untaken
# conditional branches unevaluated, as in scalar semantics). A literal
# stays a float and numpy broadcasts it, so an x-free subtree is a scalar.


def _eva(node, xs):
    if isinstance(node, Num):
        return _to_float(node.value)
    if isinstance(node, Var):
        return xs
    if isinstance(node, Neg):
        return -_eva(node.operand, xs)
    if isinstance(node, BinOp):
        a = _eva(node.left, xs)
        b = _eva(node.right, xs)
        return _apply_binop_vec(node.op, a, b)
    if isinstance(node, Conditional):
        mask = np.broadcast_to(_eva_test(node.test, xs), xs.shape)
        out = np.empty(xs.shape)
        if mask.any():
            out[mask] = _eva(node.if_true, xs[mask])
        inv = ~mask
        if inv.any():
            out[inv] = _eva(node.if_false, xs[inv])
        return out
    if isinstance(node, Call):
        return _apply_call_vec(node.name, [_eva(a, xs) for a in node.args])
    raise TypeError(f"not an expression node: {node!r}")


def _apply_binop_vec(op, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if np.any(b == 0):
            raise DomainError("division by zero")
        return a / b
    if op == "^":
        if np.any((a < 0) & (b != np.floor(b))):
            raise DomainError("negative base with non-integer exponent")
        if np.any((a == 0) & (b < 0)):
            raise DomainError("zero raised to a negative power")
        return np.power(a, b)
    raise ValueError(op)


def _apply_call_vec(name, args):
    if name == "abs":
        return np.abs(args[0])
    if name == "min":
        return np.minimum(args[0], args[1])
    if name == "max":
        return np.maximum(args[0], args[1])
    v = args[0]
    if name == "log":
        if np.any(v <= 0):
            raise DomainError("log of non-positive value")
        return np.log(v)
    if name == "sqrt":
        if np.any(v < 0):
            raise DomainError("sqrt of negative value")
        return np.sqrt(v)
    return getattr(np, name)(v)


def _eva_test(test, xs):
    return CMP_OPS[test.op](_eva(test.left, xs), _eva(test.right, xs))


def eval_target_array(f: TargetFunction, xs) -> np.ndarray:
    """Evaluate at a float array of points; raises on non-finite results.
    A value past the float range is ±inf, and inf - inf or sin(inf) is NaN,
    without a warning: only the result is checked."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _eva(f.root, xs)
    if np.shape(out) != xs.shape:  # an x-free target
        out = np.full(xs.shape, out)
    if not np.all(np.isfinite(out)):
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
                    # eval_const raises on x in c and where c is undefined,
                    # and as_rational on a c past the float range (±inf),
                    # which lies past every cell end
                    try:
                        out.add(as_rational(eval_const(c)))
                    except ValueError:
                        pass
            stack += (test.left, test.right, node.if_true, node.if_false)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack += (node.left, node.right)
        elif isinstance(node, Call):
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
    """Parse a measure specification into a validated MeasureSpec."""
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
            if w < 0:
                raise MeasureSpecError(f"negative weight {w}")
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

    total = sum(w for w, _ in components)
    if declared_mass is not None:
        if declared_mass <= 0:
            raise MeasureSpecError(f"declared mass must be positive, got {declared_mass}")
        if total != declared_mass:
            raise MeasureSpecError(
                f"weights sum to {total}, declared mass is {declared_mass}"
            )
    if total <= 0:
        raise MeasureSpecError("total mass must be positive")
    return MeasureSpec(
        components=tuple(components),
        declared_total_mass=declared_mass if declared_mass is not None else total,
        source_text=text,
    )
