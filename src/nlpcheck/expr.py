"""Expression language with exact first and second derivatives.

Objectives and constraints are written as small arithmetic formulas over
variables ``x1 .. xn``, for example ``x1^2 + (x2 - 1)^2 - 1``.  This module
parses such formulas into an immutable tree and compiles the tree, by an
iterative walk (so trees of any depth work), into a :class:`Tape`: a flat
post-order list of instructions.  One loop runs a tape forward at one
point in three modes (forward-mode differentiation, Griewank & Walther,
*Evaluating Derivatives*, 2008):

* ``value`` -- the value alone;
* ``gradient`` -- value and gradient, with no Hessian work;
* ``jet`` -- value, gradient and Hessian (candidate-point evaluation).

Many points go through the multi-output sweep instead: :func:`compile_tapes`
merges several tapes into a :class:`TapeSet`, whose identical subtrees share
one slot and whose slots are grouped by depth and op, and
:meth:`TapeSet.gradients` gives every value and gradient at every row of a
(P, n) point matrix (Newton rounds, rank scans, arc samples) with one numpy
pass per group, plus a per-entry ``ok`` flag that is False exactly where the
one-point call raises :class:`DomainError`.

Every mode performs the same floating-point operations as the others, in
the same order, so a value is the same in every mode, and a swept entry
equals the one-point call to the last bit:

* product: ``grad = u*w' + w*u'``, ``hess = (u*w'' + w*u'') + (C + C^T)``
  with ``C = outer(u', w')``;
* quotient: ``q = u/w``, ``grad = (u' - q*w')/w``,
  ``hess = ((u'' - q*w'') - (C + C^T))/w`` with ``C = outer(grad, w')``;
* ``u^k``: k products starting from the constant 1 with a zero gradient
  (the zero terms fix the signs of zero gradient entries, so they stay);
* ``f(u)`` for sin, cos, exp, log, sqrt: ``f(u), f'(u) u',
  f'(u) u'' + f''(u) outer(u', u')``, with f, f', f'' from ``math`` (libm)
  also in the sweep, which calls it once per group through ``map``, since
  numpy's ufuncs may differ from libm in the last bit.

Hessians are exactly symmetric because every update is built from
explicitly symmetric pieces.  Leaving a function's domain -- log of a
non-positive value, sqrt of a negative value (or at 0 when derivatives
are asked for), division by zero, ``exp`` overflow, sin or cos of an
infinite value, a log or sqrt second derivative that overflows -- raises
:class:`DomainError`.  A central
finite-difference routine is provided as an independent cross-check for
the propagated derivatives.

Grammar (whitespace-insensitive)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := ("-")? power
    power   := atom ("^" INTEGER)?
    atom    := NUMBER | VAR | FUNC "(" expr ")" | "(" expr ")"
    VAR     := "x" INTEGER          # 1-based variable index
    FUNC    := sin | cos | exp | log | sqrt

Exponents are integer literals from 0 to 1024 (``_MAX_EXPONENT``); unary
minus binds looser than ``^``, so ``-x1^2`` means ``-(x1^2)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import groupby
from typing import Union

import numpy as np

__all__ = [
    "ExprError",
    "ParseError",
    "DomainError",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Power",
    "Expression",
    "Taylor2Scalar",
    "Tape",
    "compile_tape",
    "TapeSet",
    "compile_tapes",
    "parse",
    "to_source",
    "evaluate",
    "grad_hess",
    "fd_grad_hess",
]


class ExprError(Exception):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Source text could not be parsed.

    ``offset`` is the byte offset into the source at which the problem was
    detected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


class DomainError(ExprError):
    """Evaluation left the domain of an elementary function."""

    def __init__(self, message: str, node: "Expression | None" = None):
        super().__init__(message)
        self.message = message
        self.node = node


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, as written in the source (x1, x2, ...)


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" | "sin" | "cos" | "exp" | "log" | "sqrt"
    arg: "Expression"


@dataclass(frozen=True)
class Binary:
    op: str  # "add" | "sub" | "mul" | "div"
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Power:
    base: "Expression"
    exponent: int  # non-negative integer


Expression = Union[Const, Var, Unary, Binary, Power]

_FUNCS = ("sin", "cos", "exp", "log", "sqrt")

_NUMBER = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_LETTERS = re.compile(r"[A-Za-z]+")
_DIGITS = re.compile(r"\d+")


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8"))


def _tokenize(source: str) -> list[tuple[str, object, int]]:
    """Return (kind, payload, byte offset) tokens; kinds: op, num, var, func."""
    tokens: list[tuple[str, object, int]] = []
    i = 0
    while i < len(source):
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        off = _byte_offset(source, i)
        if ch in "+-*/^()":
            tokens.append(("op", ch, off))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER.match(source, i)
            if m is None:
                raise ParseError("malformed number", off)
            value = float(m.group(0))
            if not math.isfinite(value):
                raise ParseError("number literal overflows", off)
            tokens.append(("num", (value, m.group(0)), off))
            i = m.end()
            continue
        if ch.isalpha():
            m = _LETTERS.match(source, i)
            word = m.group(0)
            if word == "x":
                d = _DIGITS.match(source, m.end())
                if d is None:
                    raise ParseError("variable index expected after 'x'", off)
                tokens.append(("var", int(d.group(0)), off))
                i = d.end()
                continue
            if word in _FUNCS:
                tokens.append(("func", word, off))
                i = m.end()
                continue
            raise ParseError(f"unknown identifier '{word}'", off)
        raise ParseError(f"unexpected character {ch!r}", off)
    tokens.append(("end", None, _byte_offset(source, len(source))))
    return tokens


# ``x^k`` costs k products per sweep (kept for bit identity), so the
# exponent is bounded at parse time
_MAX_EXPONENT = 1024


class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]], n: int):
        self.tokens = tokens
        self.pos = 0
        self.n = n

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str) -> None:
        kind, payload, off = self.peek()
        if kind != "op" or payload != symbol:
            raise ParseError(f"expected '{symbol}'", off)
        self.advance()

    def parse_expr(self) -> Expression:
        node = self.parse_term()
        while True:
            kind, payload, _ = self.peek()
            if kind == "op" and payload in "+-":
                self.advance()
                rhs = self.parse_term()
                node = Binary("add" if payload == "+" else "sub", node, rhs)
            else:
                return node

    def parse_term(self) -> Expression:
        node = self.parse_factor()
        while True:
            kind, payload, _ = self.peek()
            if kind == "op" and payload in "*/":
                self.advance()
                rhs = self.parse_factor()
                node = Binary("mul" if payload == "*" else "div", node, rhs)
            else:
                return node

    def parse_factor(self) -> Expression:
        kind, payload, _ = self.peek()
        if kind == "op" and payload == "-":
            self.advance()
            return Unary("neg", self.parse_power())
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        kind, payload, _ = self.peek()
        if kind == "op" and payload == "^":
            self.advance()
            kind, payload, off = self.peek()
            if kind == "op" and payload == "-":
                raise ParseError("negative integer exponent not allowed", off)
            if kind != "num":
                raise ParseError("integer exponent expected after '^'", off)
            value, text = payload
            if any(c in text for c in ".eE"):
                raise ParseError("exponent must be an integer literal", off)
            exponent = int(text)
            if exponent > _MAX_EXPONENT:
                raise ParseError(
                    f"integer exponent {exponent} exceeds the limit {_MAX_EXPONENT}", off
                )
            self.advance()
            return Power(base, exponent)
        return base

    def parse_atom(self) -> Expression:
        kind, payload, off = self.advance()
        if kind == "num":
            value, _ = payload
            return Const(value)
        if kind == "var":
            index = int(payload)
            if index == 0:
                raise ParseError("variable index 0 (variables are x1..xn)", off)
            if index > self.n:
                raise ParseError(
                    f"variable x{index} exceeds declared dimension {self.n}", off
                )
            return Var(index)
        if kind == "func":
            self.expect_op("(")
            inner = self.parse_expr()
            self.expect_op(")")
            return Unary(str(payload), inner)
        if kind == "op" and payload == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, variable, function, or '('", off)


def parse(source: str, n: int) -> Expression:
    """Parse ``source`` into an expression over variables x1..xn."""
    if n < 0:
        raise ValueError("dimension n must be non-negative")
    parser = _Parser(_tokenize(source), n)
    try:
        node = parser.parse_expr()
    except RecursionError:
        # recursive descent spends a few frames per nesting level
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None
    kind, _, off = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", off)
    return node


def _fmt_const(value: float) -> str:
    if value < 0:
        # negative constants re-read as a negation of the positive literal
        return f"(-{-value!r})"
    return repr(value)


_BINOP_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def to_source(e: Expression) -> str:
    """Print an expression; re-parsing the result reproduces the tree.

    Binary operations are fully parenthesized so the round trip is exact.
    Negative constants (possible only in hand-built trees, the parser never
    produces them) print as negated positive literals.
    """
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"(-{to_source(e.arg)})"
        return f"{e.op}({to_source(e.arg)})"
    if isinstance(e, Binary):
        sym = _BINOP_SYMBOL[e.op]
        return f"({to_source(e.left)} {sym} {to_source(e.right)})"
    if isinstance(e, Power):
        if isinstance(e.base, (Var, Const)) and not (
            isinstance(e.base, Const) and e.base.value < 0
        ):
            return f"{to_source(e.base)}^{e.exponent}"
        return f"({to_source(e.base)})^{e.exponent}"
    raise TypeError(f"not an expression node: {e!r}")


@dataclass
class Taylor2Scalar:
    """Value, gradient and Hessian of a function at one point."""

    value: float
    grad: np.ndarray  # shape (n,)
    hess: np.ndarray  # shape (n, n)


# Tape opcodes.  An instruction is (op, a, b, c); its result goes to the
# slot with its own position in the tape.
#   CONST: c is the value;  VAR: a is the 0-based variable index;
#   unary ops: a is the argument slot;  binary ops: a, b are operand slots;
#   POW: a is the base slot and b the exponent.
# c is the source node for every op but CONST, so errors can name it.
(_CONST, _VAR, _NEG, _ADD, _SUB, _MUL, _DIV, _POW,
 _SIN, _COS, _EXP, _LOG, _SQRT) = range(13)
_UNARY_CODE = {"neg": _NEG, "sin": _SIN, "cos": _COS, "exp": _EXP, "log": _LOG, "sqrt": _SQRT}
_BINARY_CODE = {"add": _ADD, "sub": _SUB, "mul": _MUL, "div": _DIV}

# modes of the sweep: how many derivative orders it carries
_VALUE, _GRADIENT, _JET = 0, 1, 2


def _elementary(op: int, v: float, order: int, node) -> tuple[float, float, float]:
    """f(v), f'(v), f''(v) of a unary function; derivatives only up to ``order``.

    Every way of leaving the domain raises :class:`DomainError`, including
    ``exp`` overflow, ``sin``/``cos`` of an infinite value, and a log or
    sqrt second derivative whose denominator underflows to zero.
    """
    f1 = f2 = 0.0
    if op == _SIN or op == _COS:
        try:
            s, c = math.sin(v), math.cos(v)
        except ValueError:
            name = "sin" if op == _SIN else "cos"
            raise DomainError(f"{name} of non-finite value {v!r}", node) from None
        if op == _SIN:
            return s, c, -s
        return c, -s, -c
    if op == _EXP:
        try:
            ev = math.exp(v)
        except OverflowError:
            raise DomainError(f"exp overflows at {v!r}", node) from None
        return ev, ev, ev
    if op == _LOG:
        if v <= 0.0:
            raise DomainError(f"log of non-positive value {v!r}", node)
        f0 = math.log(v)
        if order:
            f1 = 1.0 / v
            if order == _JET:
                if v * v == 0.0:
                    raise DomainError(f"log second derivative overflows at {v!r}", node)
                f2 = -1.0 / (v * v)
        return f0, f1, f2
    # _SQRT
    if v < 0.0:
        raise DomainError(f"sqrt of negative value {v!r}", node)
    if order and v == 0.0:
        raise DomainError("sqrt derivative undefined at zero", node)
    s = math.sqrt(v)
    if order:
        f1 = 0.5 / s
        if order == _JET:
            if s * v == 0.0:
                raise DomainError(f"sqrt second derivative overflows at {v!r}", node)
            f2 = -0.25 / (s * v)
    return s, f1, f2


def _sweep(code: tuple, x: np.ndarray, order: int):
    """Run a tape forward once at the point ``x``; return the root's
    (value, gradient, Hessian), entries past ``order`` None.

    A domain failure raises :class:`DomainError` naming the node.
    """
    n = x.shape[-1]
    xs = x.tolist()
    if order:
        zero_g = np.zeros(n)
        unit = np.eye(n)
    if order == _JET:
        zero_h = np.zeros((n, n))
    val: list = []
    grad: list = []
    hess: list = []
    g = h = None
    for op, a, b, c in code:
        if op == _VAR:
            v = xs[a]
            if order:
                g = unit[a]
                if order == _JET:
                    h = zero_h
        elif op == _CONST:
            v = c
            if order:
                g = zero_g
                if order == _JET:
                    h = zero_h
        elif op == _MUL:
            u, w = val[a], val[b]
            v = u * w
            if order:
                ug, wg = grad[a], grad[b]
                g = u * wg + w * ug
                if order == _JET:
                    cross = np.outer(ug, wg)
                    h = (u * hess[b] + w * hess[a]) + (cross + cross.T)
        elif op == _ADD:
            v = val[a] + val[b]
            if order:
                g = grad[a] + grad[b]
                if order == _JET:
                    h = hess[a] + hess[b]
        elif op == _SUB:
            v = val[a] - val[b]
            if order:
                g = grad[a] - grad[b]
                if order == _JET:
                    h = hess[a] - hess[b]
        elif op == _POW:
            # b repeated multiplications of the constant 1 by the base; the
            # zero-gradient terms of the first product set signs of zeros
            u = val[a]
            v = 1.0
            if order:
                ug = grad[a]
                g = zero_g
                if order == _JET:
                    uh = hess[a]
                    h = zero_h
            for _ in range(b):
                if order == _JET:
                    cross = np.outer(g, ug)
                    h = (v * uh + u * h) + (cross + cross.T)
                if order:
                    g = v * ug + u * g
                v = v * u
        elif op == _DIV:
            u, w = val[a], val[b]
            if w == 0.0:
                raise DomainError("division by zero", c)
            v = u / w
            if order:
                wg = grad[b]
                g = (grad[a] - v * wg) / w
                if order == _JET:
                    cross = np.outer(g, wg)
                    h = ((hess[a] - v * hess[b]) - (cross + cross.T)) / w
        elif op == _NEG:
            v = -val[a]
            if order:
                g = -grad[a]
                if order == _JET:
                    h = -hess[a]
        else:
            v, f1, f2 = _elementary(op, val[a], order, c)
            if order:
                ug = grad[a]
                g = f1 * ug
                if order == _JET:
                    h = f1 * hess[a] + f2 * np.outer(ug, ug)
        val.append(v)
        grad.append(g)
        hess.append(h)
    return val[-1], grad[-1], hess[-1]


@dataclass(frozen=True, eq=False)
class Tape:
    """An expression compiled to a flat post-order instruction list.

    One loop (``_sweep``) runs it at one point in three modes:
    :meth:`value`, :meth:`gradient` and :meth:`jet` (value, gradient and
    Hessian).  :meth:`gradients` is the one-output :class:`TapeSet` sweep
    over the rows of a point matrix.
    """

    code: tuple[tuple[int, int, int, object], ...]
    max_index: int  # largest 1-based variable index used, 0 for none

    def _check(self, n: int) -> None:
        if n < self.max_index:
            first = next(c.index for op, _, _, c in self.code if op == _VAR and c.index > n)
            raise ExprError(f"point has {n} coordinates but expression uses x{first}")

    def _at(self, x, order: int):
        x = np.asarray(x, dtype=float)
        self._check(x.size)
        # an overflow reaches the caller as inf, which its bounds then reject
        with np.errstate(all="ignore"):
            return _sweep(self.code, x, order)

    def value(self, x) -> float:
        """Value at the point ``x``; agrees bit for bit with the other modes."""
        return self._at(x, _VALUE)[0]

    def gradient(self, x) -> tuple[float, np.ndarray]:
        """Value and gradient at ``x``, with no Hessian work."""
        v, g, _ = self._at(x, _GRADIENT)
        return v, g

    def jet(self, x) -> Taylor2Scalar:
        """Value, gradient and exactly symmetric Hessian at ``x``."""
        return Taylor2Scalar(*self._at(x, _JET))

    def gradients(self, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values (P,), gradients (P, n) and ``ok`` (P,) at the rows of ``X``.

        Row r equals :meth:`gradient` at ``X[r]`` bit for bit; ``ok[r]`` is
        False exactly where that call would raise :class:`DomainError`, and
        the row's value and gradient are then meaningless.
        """
        values, grads, ok = _schedule((self,)).gradients(X)
        return values[:, 0], grads[:, 0], ok[:, 0]


def compile_tape(e: Expression) -> Tape:
    """Compile an expression tree to a :class:`Tape` by an iterative walk.

    Instructions come out in the post-order the recursive interpreters
    used (left operand, right operand, node), so a point that leaves the
    domain in several places fails at the same node.  Trees of any depth
    compile.
    """
    code: list[tuple[int, int, int, object]] = []
    done: list[int] = []  # result slots of finished subtrees
    max_index = 0
    stack: list[tuple[Expression, bool]] = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Const):
            code.append((_CONST, 0, 0, float(node.value)))
        elif isinstance(node, Var):
            code.append((_VAR, node.index - 1, 0, node))
            max_index = max(max_index, node.index)
        elif not expanded:
            if isinstance(node, Binary):
                children = (node.left, node.right)
            elif isinstance(node, Unary):
                children = (node.arg,)
            elif isinstance(node, Power):
                children = (node.base,)
            else:
                raise TypeError(f"not an expression node: {node!r}")
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(children))
            continue
        elif isinstance(node, Binary):
            if node.op not in _BINARY_CODE:
                raise TypeError(f"unknown binary op {node.op!r}")
            right = done.pop()
            code.append((_BINARY_CODE[node.op], done.pop(), right, node))
        elif isinstance(node, Unary):
            if node.op not in _UNARY_CODE:
                raise TypeError(f"unknown unary op {node.op!r}")
            code.append((_UNARY_CODE[node.op], done.pop(), 0, node))
        else:
            code.append((_POW, done.pop(), node.exponent, node))
        done.append(len(code) - 1)
    return Tape(tuple(code), max_index)


_LIBM = {_SIN: math.sin, _COS: math.cos, _EXP: math.exp, _LOG: math.log, _SQRT: math.sqrt}


def _elementary_group(op: int, v: np.ndarray):
    """f(v), f'(v) and a failure mask (None when nothing fails) at every
    entry of ``v``: the values of ``_elementary`` at order 1.

    libm is called once per function for the whole array, through ``map``.
    Where that raises (an entry outside the domain), or for sqrt at zero,
    where libm does not raise but the derivative is undefined, the entries
    are settled one at a time by ``_elementary``; failed entries carry NaN.
    """
    flat = v.ravel().tolist()
    if op != _SQRT or v.all():
        try:
            f0 = np.fromiter(map(_LIBM[op], flat), float, len(flat)).reshape(v.shape)
            if op == _SIN:
                f1 = np.fromiter(map(math.cos, flat), float, len(flat)).reshape(v.shape)
            elif op == _COS:
                f1 = -np.fromiter(map(math.sin, flat), float, len(flat)).reshape(v.shape)
            elif op == _EXP:
                f1 = f0
            elif op == _LOG:
                f1 = 1.0 / v
            else:
                f1 = 0.5 / f0
            return f0, f1, None
        except (ValueError, OverflowError):
            pass
    f = np.empty((len(flat), 2))
    fail = np.zeros(len(flat), dtype=bool)
    for i, vi in enumerate(flat):
        try:
            f[i] = _elementary(op, vi, _GRADIENT, None)[:2]
        except DomainError:
            fail[i] = True
            f[i] = math.nan
    return f[:, 0].reshape(v.shape), f[:, 1].reshape(v.shape), fail.reshape(v.shape)


@dataclass(frozen=True, eq=False)
class TapeSet:
    """Several tapes compiled into one multi-output sweep (:func:`compile_tapes`).

    Every instruction of every tape maps to a slot.  Identical subtrees
    (same op, same operand slots, same constant bits) share one slot, and
    ``u^k`` becomes the k products from the constant 1 that the one-point
    sweep performs.  Slots are numbered by (depth, op): the constants, the
    variables, then one contiguous slice per group of one op at one depth,
    whose operands all lie in earlier groups.  :meth:`gradients` evaluates
    a group with a few whole-array numpy operations, each entry going
    through the floating-point operations of :meth:`Tape.gradient`, so
    every output keeps its bits.
    """

    tapes: tuple[Tape, ...]  # one per output, in order
    size: int  # number of slots
    consts: np.ndarray  # values of the first len(consts) slots
    variables: np.ndarray  # 0-based variable index of the next slots
    groups: tuple  # (op, slice, a, b): the slots of the slice apply op to slots a (and b)
    outputs: np.ndarray  # (R,) the slot of each tape's root
    reads: np.ndarray  # (R, size) bool: the slots each tape's instructions map to

    def gradients(self, X, rows=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values (P, R), gradients (P, R, n) and ``ok`` (P, R) of the tapes
        ``rows`` (all of them by default) at the rows of ``X``.

        Entry [i, j] equals ``tapes[rows[j]].gradient(X[i])`` bit for bit;
        ``ok[i, j]`` is False exactly where that call would raise
        :class:`DomainError`, and the entry is then meaningless.  A failing
        slot clears ``ok`` only for the outputs that read it, and slots that
        no requested tape reads are skipped.  The (slots, points, n)
        gradient table is built for a chunk of points at a time, sized by
        :func:`~nlpcheck.linalg.stack_chunk`.
        """
        from nlpcheck.linalg import stack_chunk  # linalg imports this module

        X = np.asarray(X, dtype=float)
        P, n = X.shape
        rows = np.arange(len(self.tapes)) if rows is None else np.asarray(rows, dtype=int)
        for r in rows.tolist():
            self.tapes[r]._check(n)
        values = np.empty((P, len(rows)))
        grads = np.empty((P, len(rows), n))
        ok = np.ones((P, len(rows)), dtype=bool)
        if not (P and len(rows)):
            return values, grads, ok
        reads = self.reads[rows]
        plan = self._plan(reads.any(axis=0))
        roots = self.outputs[rows]
        # a chunk's slot table and a group's temporaries (gathered operand
        # rows, at most three tables' worth) stay within the stacking budget
        step = stack_chunk(4 * self.size * (n + 1))
        with np.errstate(all="ignore"):  # failed entries carry NaN and inf
            for lo in range(0, P, step):
                at = slice(lo, lo + step)
                values[at], grads[at], bad = self._run(plan, X[at], roots)
                if bad is not None:
                    ok[at] = ~(bad.T @ reads.T)
        return values, grads, ok

    def _plan(self, need: np.ndarray) -> list:
        """The steps that compute the slots in ``need``: first (variable
        slots, their variables), then each group as (op, destination, a,
        b), where a whole group runs as its slice."""
        c, v = len(self.consts), len(self.consts) + len(self.variables)
        if need.all():
            return [(slice(c, v), self.variables), *self.groups]
        took = need[c:v]
        plan = [(c + np.flatnonzero(took), self.variables[took])]
        if not self.groups:
            return plan
        starts = [dst.start for _, dst, _, _ in self.groups]
        count = np.add.reduceat(need.astype(np.intp), starts)
        for (op, dst, a, b), k in zip(self.groups, count.tolist()):
            if k == dst.stop - dst.start:
                plan.append((op, dst, a, b))
            elif k:
                at = np.flatnonzero(need[dst])
                plan.append((op, dst.start + at, a[at], b[at]))
        return plan

    def _run(self, plan: list, X: np.ndarray, roots: np.ndarray):
        """Values (P, R) and gradients (P, R, n) of the slots ``roots`` at
        the points ``X``, and the failed slots (size, P), or None."""
        P, n = X.shape
        V = np.empty((self.size, P))
        G = np.empty((self.size, P, n))
        c = len(self.consts)
        V[:c] = self.consts[:, None]
        G[:c] = 0.0
        slots, variables = plan[0]
        V[slots] = X.T[variables]
        G[slots] = np.eye(n)[variables][:, None, :]
        bad = None
        for op, dst, a, b in plan[1:]:
            # ug is a copy (a is an index array), so the gradient updates
            # work in place on it: the same products and sums, fewer
            # temporaries
            u, ug = V[a], G[a]
            fail = None
            if op == _MUL:
                w = V[b]
                V[dst] = u * w
                g = G[b]
                g *= u[..., None]
                ug *= w[..., None]
                g += ug
                ug = g
            elif op == _ADD:
                V[dst] = u + V[b]
                ug += G[b]
            elif op == _SUB:
                V[dst] = u - V[b]
                ug -= G[b]
            elif op == _NEG:
                V[dst] = -u
                np.negative(ug, out=ug)
            elif op == _DIV:
                w = V[b]
                fail = w == 0.0
                w = np.where(fail, math.nan, w)
                q = u / w
                V[dst] = q
                g = G[b]
                g *= q[..., None]
                ug -= g
                ug /= w[..., None]
            else:
                V[dst], f1, fail = _elementary_group(op, u)
                ug *= f1[..., None]
            G[dst] = ug
            if fail is not None and fail.any():
                if bad is None:
                    bad = np.zeros((self.size, P), dtype=bool)
                bad[dst] = fail
        return V[roots].T, G[roots].transpose(1, 0, 2), bad


def _schedule(tapes: tuple[Tape, ...]) -> TapeSet:
    """Merge tapes into the level-scheduled slots of a :class:`TapeSet`."""
    index: dict = {}  # (op, a, b, constant bits) -> slot in order of appearance
    nodes: list[tuple[int, int, int, float]] = []
    depth: list[int] = []

    def slot(op: int, a: int = 0, b: int = 0, value: float = 0.0) -> int:
        key = (op, a, b, value.hex())
        s = index.get(key)
        if s is None:
            s = index[key] = len(nodes)
            nodes.append((op, a, b, value))
            if op == _CONST or op == _VAR:
                depth.append(0)
            elif op in (_ADD, _SUB, _MUL, _DIV):
                depth.append(1 + max(depth[a], depth[b]))
            else:
                depth.append(1 + depth[a])
        return s

    outputs, touched = [], []
    for tape in tapes:
        local: list[int] = []  # slot of each instruction's result
        seen: set[int] = set()
        for op, a, b, c in tape.code:
            if op == _CONST:
                s = slot(_CONST, value=c)
            elif op == _VAR:
                s = slot(_VAR, a)
            elif op == _POW:
                s = slot(_CONST, value=1.0)
                for _ in range(b):
                    seen.add(s)
                    s = slot(_MUL, s, local[a])
            elif op in (_ADD, _SUB, _MUL, _DIV):
                s = slot(op, local[a], local[b])
            else:
                s = slot(op, local[a])
            seen.add(s)
            local.append(s)
        outputs.append(local[-1])
        touched.append(sorted(seen))

    def level(s: int) -> tuple[int, int]:
        return depth[s], nodes[s][0]

    order = sorted(range(len(nodes)), key=level)
    new = np.empty(len(nodes), dtype=int)
    new[order] = np.arange(len(nodes))
    consts = [nodes[s][3] for s in order if nodes[s][0] == _CONST]
    variables = [nodes[s][1] for s in order if nodes[s][0] == _VAR]
    groups = []
    lo = len(consts) + len(variables)
    for (_, op), run in groupby(order[lo:], key=level):
        members = [nodes[s] for s in run]
        hi = lo + len(members)
        a = new[[node[1] for node in members]]
        b = new[[node[2] for node in members]]
        groups.append((op, slice(lo, hi), a, b))
        lo = hi
    reads = np.zeros((len(tapes), len(nodes)), dtype=bool)
    for r, seen in enumerate(touched):
        reads[r, new[seen]] = True
    return TapeSet(
        tapes=tapes,
        size=len(nodes),
        consts=np.array(consts, dtype=float),
        variables=np.array(variables, dtype=int),
        groups=tuple(groups),
        outputs=new[outputs] if outputs else np.zeros(0, dtype=int),
        reads=reads,
    )


def compile_tapes(exprs) -> TapeSet:
    """Compile expressions into one multi-output :class:`TapeSet`; its
    ``tapes`` are their one-output tapes, in order."""
    return _schedule(tuple(map(compile_tape, exprs)))


def evaluate(e: Expression, x: np.ndarray) -> float:
    """Evaluate ``e`` at the point ``x`` (0-based array, x[i-1] backs xi)."""
    return compile_tape(e).value(x)


def grad_hess(e: Expression, x: np.ndarray) -> Taylor2Scalar:
    """Value, gradient, and Hessian of ``e`` at ``x`` in a single pass.

    The returned value agrees bit for bit with :func:`evaluate` and the
    Hessian is exactly symmetric.
    """
    return compile_tape(e).jet(x)


def fd_grad_hess(e: Expression, x: np.ndarray, step: float = 1e-4) -> Taylor2Scalar:
    """Central finite-difference gradient and Hessian, O(step^2) accurate.

    Entirely independent of :func:`grad_hess`; used to cross-check it.  If a
    stencil point leaves the domain of the expression the underlying
    :class:`DomainError` propagates.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    n = x.size
    value_at = compile_tape(e).value
    f0 = value_at(x)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    plus = np.zeros(n)
    minus = np.zeros(n)
    for i in range(n):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        plus[i] = value_at(xp)
        minus[i] = value_at(xm)
        grad[i] = (plus[i] - minus[i]) / (2.0 * step)
        hess[i, i] = (plus[i] - 2.0 * f0 + minus[i]) / (step * step)
    for i in range(n):
        for j in range(i + 1, n):
            xpp = x.copy()
            xpp[i] += step
            xpp[j] += step
            xpm = x.copy()
            xpm[i] += step
            xpm[j] -= step
            xmp = x.copy()
            xmp[i] -= step
            xmp[j] += step
            xmm = x.copy()
            xmm[i] -= step
            xmm[j] -= step
            val = (
                value_at(xpp) - value_at(xpm) - value_at(xmp) + value_at(xmm)
            ) / (4.0 * step * step)
            hess[i, j] = val
            hess[j, i] = val
    return Taylor2Scalar(f0, grad, hess)
