"""Expression language with exact first and second derivatives.

Objectives and constraints are written as small arithmetic formulas over
variables ``x1 .. xn``, for example ``x1^2 + (x2 - 1)^2 - 1``.  This module
parses such formulas, in one loop with explicit stacks, into an immutable
tree, prints a tree back (:func:`to_source`), and compiles it, by an
iterative walk, into a :class:`Tape`: a flat post-order list of
instructions.  :func:`compile_tapes` merges tapes into a :class:`TapeSet`,
whose identical subtrees share one slot and whose slots run in groups of
one op at one depth.  One loop, ``TapeSet._run``, executes
the instructions: forward-mode differentiation (Griewank & Walther,
*Evaluating Derivatives*, 2008, ch. 3 and 13) of every requested output at
every point of a batch, with one numpy pass per group, at order 0 (values),
1 (and gradients) or 2 (and Hessians).  :meth:`TapeSet.evaluate` flags the
entries that leave a domain; :meth:`TapeSet.at`, at one point, raises
:class:`DomainError` for the first of them.  A :class:`Gather`
(:meth:`TapeSet.gather`) takes a table of outputs and coordinates, one line
per point, straight from the slot tables of one sweep.

Each entry performs the floating-point operations of a one-point,
one-instruction-at-a-time forward sweep, in its order, so a value is the
same at every order and every entry keeps its bits in any batch:

* product: ``grad = u*w' + w*u'``, ``hess = (u*w'' + w*u'') + (C + C^T)``
  with ``C = outer(u', w')``;
* quotient: ``q = u/w``, ``grad = (u' - q*w')/w``,
  ``hess = ((u'' - q*w'') - (C + C^T))/w`` with ``C = outer(grad, w')``;
* ``u^k``: k products starting from the constant 1 with a zero gradient
  (the zero terms fix the signs of zero gradient entries, so they stay);
* ``f(u)`` for sin, cos, exp, log, sqrt: ``f(u), f'(u) u',
  f'(u) u'' + f''(u) outer(u', u')``, with f, f', f'' from ``math`` (libm),
  called once per group through ``map``, since numpy's ufuncs may differ
  from libm in the last bit.

Outer products are built by broadcasting, one product per entry, and
Hessians are exactly symmetric because every update is built from
explicitly symmetric pieces.  Leaving a function's domain -- log of a
non-positive value, sqrt of a negative value (or at 0 when derivatives
are asked for), division by zero, ``exp`` overflow, sin or cos of an
infinite value, a log or sqrt second derivative that overflows -- is a
:class:`DomainError`.  A central finite-difference routine, which sweeps
values only, cross-checks the propagated derivatives.

Grammar (whitespace-insensitive)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := ("-")? power
    power   := atom ("^" INTEGER)?
    atom    := NUMBER | VAR | FUNC "(" expr ")" | "(" expr ")"
    VAR     := "x" INTEGER          # 1-based variable index
    FUNC    := sin | cos | exp | log | sqrt

Exponents are integer literals from 0 to 1024 (``_MAX_EXPONENT``); unary
minus binds looser than ``^``, so ``-x1^2`` means ``-(x1^2)``.  None of
the parser, the printer and the compiler recurses, so trees of any depth
work, whatever the caller's stack.
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
    "Gather",
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
        self.row = None  # the failing output, when raised by TapeSet.at


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


def _tokenize(source: str) -> list[tuple[str, object, int]]:
    """Return (kind, payload, byte offset) tokens; kinds: op, num, var, func."""
    tokens: list[tuple[str, object, int]] = []
    i = 0
    off = 0  # byte offset of source[i]
    while i < len(source):
        ch = source[i]
        if ch.isspace():
            i += 1
            off += len(ch.encode("utf-8"))
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, off))
            i += 1
            off += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER.match(source, i)
            if m is None:
                raise ParseError("malformed number", off)
            text = m.group(0)
            value = float(text)
            if not math.isfinite(value):
                raise ParseError("number literal overflows", off)
            tokens.append(("num", (value, text), off))
            i = m.end()
            off += len(text.encode("utf-8"))  # \d matches non-ASCII digits
            continue
        m = _LETTERS.match(source, i)
        if m is None:
            raise ParseError(f"unexpected character {ch!r}", off)
        word = m.group(0)
        if word == "x":
            d = _DIGITS.match(source, m.end())
            if d is None:
                raise ParseError("variable index expected after 'x'", off)
            tokens.append(("var", int(d.group(0)), off))
            i = d.end()
            off += 1 + len(d.group(0).encode("utf-8"))
            continue
        if word not in _FUNCS:
            raise ParseError(f"unknown identifier '{word}'", off)
        tokens.append(("func", word, off))
        i = m.end()
        off += len(word)
    tokens.append(("end", None, off))
    return tokens


# ``x^k`` costs k products per sweep (kept for bit identity), so the
# exponent is bounded at parse time
_MAX_EXPONENT = 1024

_BINOP = {"+": "add", "-": "sub", "*": "mul", "/": "div"}
_BINOP_SYMBOL = {name: symbol for symbol, name in _BINOP.items()}


def _exponent(token: tuple[str, object, int]) -> int:
    """The exponent a ``^`` token is followed by."""
    kind, payload, off = token
    if kind == "op" and payload == "-":
        raise ParseError("negative integer exponent not allowed", off)
    if kind != "num":
        raise ParseError("integer exponent expected after '^'", off)
    text = payload[1]
    if any(c in text for c in ".eE"):
        raise ParseError("exponent must be an integer literal", off)
    exponent = int(text)
    if exponent > _MAX_EXPONENT:
        raise ParseError(f"integer exponent {exponent} exceeds the limit {_MAX_EXPONENT}", off)
    return exponent


def _reduce(operands: list, ops: list[str], names) -> None:
    """Apply the binary operators named ``names`` on top of ``ops``."""
    while ops and ops[-1] in names:
        right = operands.pop()
        operands[-1] = Binary(ops.pop(), operands[-1], right)


def parse(source: str, n: int) -> Expression:
    """Parse ``source`` into an expression over variables x1..xn.

    One loop over the tokens, with no recursion, so any depth parses: an
    operand stack, and an operator stack of pending binary operators, one
    ``neg`` mark per unary minus and one frame per open ``(`` or function
    call (Dijkstra's shunting-yard, with the precedence of the grammar
    above).  A ``*`` or ``/`` applies the pending ``*`` and ``/`` of its
    frame first, a ``+``, ``-``, ``)`` or the end every pending binary
    operator; a minus applies to the power after it.  A malformed source
    raises :class:`ParseError` with the byte offset of the first token that
    does not fit the grammar.
    """
    if n < 0:
        raise ValueError("dimension n must be non-negative")
    tokens = _tokenize(source)
    operands: list[Expression] = []
    # binary op names, "neg", and frames: "(" or a function name
    ops: list[str] = []
    frames = 0  # open frames on ops
    i = 0
    while True:
        # a factor: an optional minus, then an atom or the opening of a frame
        kind, payload, off = tokens[i]
        i += 1
        if kind == "op" and payload == "-":
            ops.append("neg")
            kind, payload, off = tokens[i]
            i += 1
        if kind == "num":
            operands.append(Const(payload[0]))
        elif kind == "var":
            if payload == 0:
                raise ParseError("variable index 0 (variables are x1..xn)", off)
            if payload > n:
                raise ParseError(f"variable x{payload} exceeds declared dimension {n}", off)
            operands.append(Var(payload))
        elif kind == "func":
            kind, symbol, off = tokens[i]
            if kind != "op" or symbol != "(":
                raise ParseError("expected '('", off)
            i += 1
            ops.append(payload)
            frames += 1
            continue
        elif kind == "op" and payload == "(":
            ops.append("(")
            frames += 1
            continue
        else:
            raise ParseError("expected a number, variable, function, or '('", off)
        # after an atom: its power, its minus, then an operator, or the close
        # of a frame (itself an atom) or the end
        while True:
            kind, payload, off = tokens[i]
            if kind == "op" and payload == "^":
                operands[-1] = Power(operands[-1], _exponent(tokens[i + 1]))
                i += 2
                kind, payload, off = tokens[i]
            if ops and ops[-1] == "neg":
                ops.pop()
                operands[-1] = Unary("neg", operands[-1])
            if kind == "op" and payload in "+-*/":
                _reduce(operands, ops, ("mul", "div") if payload in "*/" else _BINOP_SYMBOL)
                ops.append(_BINOP[payload])
                i += 1
                break
            _reduce(operands, ops, _BINOP_SYMBOL)
            if not frames:
                if kind != "end":
                    raise ParseError("unexpected trailing input", off)
                return operands[0]
            if kind != "op" or payload != ")":
                raise ParseError("expected ')'", off)
            i += 1
            frames -= 1
            head = ops.pop()
            if head != "(":
                operands[-1] = Unary(head, operands[-1])


def _fmt_const(value: float) -> str:
    if value < 0:
        # negative constants re-read as a negation of the positive literal
        return f"(-{-value!r})"
    return repr(value)


def to_source(e: Expression) -> str:
    """Print an expression by an iterative walk, so trees of any depth print.

    Binary operations are fully parenthesized, so the result re-parses to
    the same tree at any depth.  Negative constants (possible only in
    hand-built trees, the parser never produces them) print as negated
    positive literals.
    """
    parts: list[str] = []
    stack: list = [e]  # nodes still to print and literal text, last first
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Const):
            parts.append(_fmt_const(item.value))
        elif isinstance(item, Var):
            parts.append(f"x{item.index}")
        elif isinstance(item, Unary):
            head = "(-" if item.op == "neg" else f"{item.op}("
            stack.extend((")", item.arg, head))
        elif isinstance(item, Binary):
            stack.extend((")", item.right, f" {_BINOP_SYMBOL[item.op]} ", item.left, "("))
        elif isinstance(item, Power):
            base = item.base
            if isinstance(base, Var) or (isinstance(base, Const) and not base.value < 0):
                stack.extend((f"^{item.exponent}", base))
            else:
                stack.extend((f")^{item.exponent}", base, "("))
        else:
            raise TypeError(f"not an expression node: {item!r}")
    return "".join(parts)


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
            if order == 2:
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
        if order == 2:
            if s * v == 0.0:
                raise DomainError(f"sqrt second derivative overflows at {v!r}", node)
            f2 = -0.25 / (s * v)
    return s, f1, f2


@dataclass(frozen=True, eq=False)
class Tape:
    """An expression compiled to a flat post-order instruction list.

    Instruction k is ``(op, a, b, c)`` (see the opcodes above) and its
    result is value k.  A tape is run as an output of a :class:`TapeSet`.
    """

    code: tuple[tuple[int, int, int, object], ...]
    max_index: int  # largest 1-based variable index used, 0 for none


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


def _elementary_group(op: int, v: np.ndarray, order: int):
    """f(v), f'(v), f''(v) and a failure mask (None when nothing fails) at
    every entry of ``v``: the values of ``_elementary`` at ``order`` (the
    derivatives past ``order`` are not used).

    libm is called once per function for the whole array, through ``map``.
    Where that raises (an entry outside the domain), or where a derivative
    up to ``order`` has a zero denominator, which libm does not report
    (sqrt at zero, a log or sqrt second derivative that overflows), the
    entries are settled one at a time by ``_elementary``; failed entries
    carry NaN.
    """
    flat = v.ravel().tolist()

    def libm(f):
        return np.fromiter(map(f, flat), float, len(flat)).reshape(v.shape)

    try:
        f0 = libm(_LIBM[op])
        if op == _EXP:
            return f0, f0, f0, None
        if op == _SIN or op == _COS:
            f1 = (libm(math.cos) if op == _SIN else -libm(math.sin)) if order else None
            return f0, f1, -f0, None
        num1, den1, num2, den2 = (1.0, v, -1.0, v * v) if op == _LOG else (0.5, f0, -0.25, f0 * v)
        if (order and not den1.all()) or (order == 2 and not den2.all()):
            raise ValueError("a derivative has a zero denominator")
        return f0, num1 / den1, num2 / den2, None
    except (ValueError, OverflowError):
        pass
    f = np.empty((len(flat), 3))
    fail = np.zeros(len(flat), dtype=bool)
    for i, vi in enumerate(flat):
        try:
            f[i] = _elementary(op, vi, order, None)
        except DomainError:
            fail[i] = True
            f[i] = math.nan
    return (*(f[:, k].reshape(v.shape) for k in range(3)), fail.reshape(v.shape))


def _symmetric(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``C + C^T`` with ``C = outer(p, q)`` for every leading index, built
    by broadcasting so that each entry is the one product ``p_i * q_j``."""
    C = p[..., :, None] * q[..., None, :]
    return C + C.swapaxes(-1, -2)


def _run_of(slots: np.ndarray):
    """``slots`` as a slice when they run consecutively, else as they are."""
    lo = int(slots[0])
    if slots.tolist() == list(range(lo, lo + len(slots))):
        return slice(lo, lo + len(slots))
    return slots


def _slot_floats(order: int, n: int) -> int:
    """One slot's floats at one point, times the table and a group's
    temporaries: at most three tables' worth of gathered operands and
    products, four with the outer products of the Hessians."""
    return (4 if order < 2 else 5) * sum(n**k for k in range(order + 1))


@dataclass(frozen=True, eq=False)
class TapeSet:
    """Several tapes compiled into one multi-output sweep (:func:`compile_tapes`).

    Every instruction of every tape maps to a slot (``slots``).  Identical
    subtrees (same op, same operand slots, same constant bits) share one
    slot, and ``u^k`` becomes k products from the constant 1.  Slots are
    numbered by (depth, op): the constants, the variables, then one
    contiguous slice per group of one op at one depth, whose operands all
    lie in earlier groups.  ``_run``, the one loop that executes tape
    instructions, evaluates a group with a few whole-array numpy
    operations at every point of a batch, in one of three orders: values
    (0), gradients (1) or Hessians (2).  :meth:`evaluate` sweeps a batch
    of points and flags the entries that leave a domain; :meth:`at` sweeps
    one point and raises the first failure as a :class:`DomainError`.
    """

    tapes: tuple[Tape, ...]  # one per output, in order
    size: int  # number of slots
    consts: np.ndarray  # values of the first len(consts) slots
    variables: np.ndarray  # 0-based variable index of the next slots
    groups: tuple  # (op, slice, a, b): the slots of the slice apply op to slots a (and b)
    outputs: np.ndarray  # (R,) the slot of each tape's root
    reads: np.ndarray  # (R, size) bool: the slots each tape's instructions map to
    slots: tuple  # per tape, the slot of each instruction's result
    max_index: np.ndarray  # (R,) largest 1-based variable index of each tape

    def evaluate(self, X, rows=None, order: int = 1):
        """Values (P, R), gradients (P, R, n), Hessians (P, R, n, n) and
        ``ok`` (P, R) of the tapes ``rows`` (all of them by default) at the
        rows of ``X``; gradients and Hessians are None past ``order``.

        Every entry goes through the floating-point operations of a
        one-point forward sweep of its tape, in the same order (see the
        module docstring), so it keeps that sweep's bits.  ``ok[i, j]`` is
        False exactly where that sweep, at this order, leaves the domain of
        a function; the entry is then meaningless, and :meth:`at` names the
        failure.  A failing slot clears ``ok`` only for the outputs that
        read it, and slots that no requested tape reads are skipped.  The
        slot tables are built for a chunk of points at a time, and for a
        chunk of rows when one point's tables would not fit, sized by
        :func:`~nlpcheck.linalg.stack_chunk` so that a pass's tables, with
        a group's temporaries, fit within the stacking budget (a lone row's
        may not).
        """
        from nlpcheck.linalg import stack_chunk  # linalg imports this module

        X = np.asarray(X, dtype=float)
        P, n = X.shape
        rows = np.arange(len(self.tapes)) if rows is None else np.asarray(rows, dtype=int)
        self._check_dimension(rows, n)
        values = np.empty((P, len(rows)))
        grads = np.empty((P, len(rows), n)) if order else None
        hesses = np.empty((P, len(rows), n, n)) if order == 2 else None
        ok = np.ones((P, len(rows)), dtype=bool)
        floats = _slot_floats(order, n)
        reads = self.reads[rows]
        width = stack_chunk(floats * int(reads.sum(axis=1).max(initial=0)))
        for first in range(0, len(rows), width):
            cols = slice(first, first + width)
            need = reads[cols].any(axis=0)
            plan = self._plan(need)
            roots = plan[4][self.outputs[rows[cols]]]
            chunk_reads = reads[cols][:, need]
            step = stack_chunk(floats * plan[0])
            for lo in range(0, P, step):
                at = slice(lo, lo + step)
                V, G, H, bad = self._run(plan, X[at], order)
                values[at, cols] = V[roots].T
                if order:
                    grads[at, cols] = G[roots].swapaxes(0, 1)
                if order == 2:
                    hesses[at, cols] = H[roots].swapaxes(0, 1)
                if bad is not None:
                    ok[at, cols] = ~(bad.T @ chunk_reads.T)
        return values, grads, hesses, ok

    def at(self, x, rows=None, order: int = 1):
        """Values (R,), gradients (R, n) and Hessians (R, n, n) of the tapes
        ``rows`` (all of them by default) at the one point ``x``; gradients
        and Hessians are None past ``order``.

        The first requested row that fails raises the :class:`DomainError`
        of its tape's first failing instruction in post-order, with ``row``
        set to that tape's output.
        """
        X = np.asarray(x, dtype=float).reshape(1, -1)
        rows = np.arange(len(self.tapes)) if rows is None else np.asarray(rows, dtype=int)
        *tables, ok = self.evaluate(X, rows, order)
        if not ok.all():
            raise self._failure(X, int(rows[np.argmin(ok[0])]), order)
        return tuple(None if table is None else table[0] for table in tables)

    def _failure(self, X: np.ndarray, row: int, order: int) -> DomainError:
        """The error of tape ``row``'s first instruction, in post-order,
        that fails at the one point ``X`` (shape (1, n)) at ``order``."""
        plan = self._plan(self.reads[row])
        V, _, _, bad = self._run(plan, X, order)
        slots = plan[4][self.slots[row]]
        k = next(k for k, s in enumerate(slots.tolist()) if bad[s, 0])
        op, a, _, node = self.tapes[row].code[k]
        if op == _DIV:
            exc = DomainError("division by zero", node)
        else:
            try:
                _elementary(op, float(V[slots[a], 0]), order, node)
            except DomainError as raised:
                exc = raised
        exc.row = row
        return exc

    def gather(self, outputs, n: int) -> "Gather":
        """The :class:`Gather` of the table ``outputs`` (lines, width) at
        points of ``n`` coordinates.  An entry r >= 0 names tape r; an entry
        ``~k`` (that is, -1 - k) names the coordinate x_{k+1}, whose value
        and unit gradient the sweep holds in a variable slot."""
        from nlpcheck.linalg import stack_chunk  # linalg imports this module

        outputs = np.asarray(outputs, dtype=int)
        # the tapes and coordinates named, found by masks: np.unique imports
        # numpy.ma (close to 1 MiB of memory) on numpy 2.4
        tapes, coords = np.zeros(len(self.tapes), dtype=bool), np.zeros(n, dtype=bool)
        tapes[outputs[outputs >= 0]] = True
        coords[~outputs[outputs < 0]] = True
        rows, coords = np.flatnonzero(tapes), np.flatnonzero(coords)
        self._check_dimension(rows, n)
        c, v = len(self.consts), len(self.consts) + len(self.variables)
        own = np.full(n, -1)  # the variable slot of each coordinate, or -1
        kept = self.variables < n
        own[self.variables[kept]] = c + np.flatnonzero(kept)
        need = self.reads[rows].any(axis=0)
        slot = own[coords]
        need[slot[slot >= 0]] = True
        extra = coords[slot < 0]
        plan = self._plan(need, extra)
        position = plan[4]
        at = np.where(own >= 0, position[own], 0)  # the plan slot of each coordinate
        at[extra] = int(need[:v].sum()) + np.arange(len(extra))
        roots = position[self.outputs[np.maximum(outputs, 0)]]
        slots = np.where(outputs >= 0, roots, at[~np.minimum(outputs, -1)])
        # the plan slots each line's tapes read (variable slots never fail)
        reads = np.zeros((len(self.tapes), plan[0]), dtype=bool)
        reads[:, position[need]] = self.reads[:, need]
        reads = (reads[np.maximum(outputs, 0)] & (outputs >= 0)[..., None]).any(axis=1)
        return Gather(self, plan, stack_chunk(_slot_floats(1, n) * plan[0]), slots, reads)

    def _check_dimension(self, rows: np.ndarray, n: int) -> None:
        """Raise :class:`ExprError` when a tape ``rows`` uses a variable
        past the ``n`` coordinates of a point."""
        if len(rows) and n < self.max_index[rows].max():
            code = self.tapes[rows[np.argmax(self.max_index[rows] > n)]].code
            first = next(c.index for op, _, _, c in code if op == _VAR and c.index > n)
            raise ExprError(f"point has {n} coordinates but expression uses x{first}")

    def _plan(self, need: np.ndarray, coords=()) -> tuple:
        """The slots in ``need``, renumbered in order from 0, and the steps
        that compute them: (number of slots, constant values, variables,
        steps, the new number of every slot).  The coordinates ``coords``,
        which have no slot of their own, get slots after the variables in
        ``need``.  A step (op, destination, a, b) applies op to the slots a
        (and b) and fills a slice; operand slots that run consecutively are
        a slice too, so that :meth:`_run` reads them as a view."""
        position = np.cumsum(need) - 1
        c, v = len(self.consts), len(self.consts) + len(self.variables)
        variables = np.concatenate([self.variables[need[c:v]], np.asarray(coords, dtype=int)])
        position[v:] += len(coords)
        size = int(need[:c].sum()) + len(variables)
        steps = []
        starts = [dst.start for _, dst, _, _ in self.groups]
        counts = np.add.reduceat(need.astype(np.intp), starts).tolist() if starts else []
        for (op, dst, a, b), k in zip(self.groups, counts):
            if not k:
                continue
            if k < dst.stop - dst.start:
                at = np.flatnonzero(need[dst])
                a, b = a[at], b[at]
            steps.append((op, slice(size, size + k), _run_of(position[a]), _run_of(position[b])))
            size += k
        return size, self.consts[need[:c]], variables, steps, position

    def _run(self, plan: tuple, X: np.ndarray, order: int):
        """The slot tables of ``plan`` at the points ``X``: values (slots,
        P), gradients (slots, P, n) and Hessians (slots, P, n, n), None past
        ``order``, and the failed slots (slots, P), or None.

        This is the one loop that executes tape instructions.  Each group
        is written straight into its slots of the tables by ``out=``
        operations, reading its operands as views where their slots run
        consecutively; each entry still takes the operations of the module
        docstring, in their order.
        """
        size, consts, variables, steps, _ = plan
        P, n = X.shape
        c, v = len(consts), len(consts) + len(variables)
        V = np.empty((size, P))
        V[:c] = consts[:, None]
        V[c:v] = X.T[variables]
        G = H = bad = ug = uh = Gd = Hd = None
        if order:
            G = np.empty((size, P, n))
            G[:c] = 0.0
            G[c:v] = np.eye(n)[variables][:, None, :]
        if order == 2:
            H = np.empty((size, P, n, n))
            H[:v] = 0.0
        with np.errstate(all="ignore"):  # failed entries carry NaN and inf
            for op, dst, a, b in steps:
                u, Vd = V[a], V[dst]
                if order:
                    ug, Gd = G[a], G[dst]
                if order == 2:
                    uh, Hd = H[a], H[dst]
                fail = None
                if op == _MUL:
                    w = V[b]
                    np.multiply(u, w, out=Vd)
                    if order:
                        wg = G[b]
                        np.multiply(wg, u[..., None], out=Gd)
                        Gd += ug * w[..., None]
                    if order == 2:
                        np.multiply(H[b], u[..., None, None], out=Hd)
                        Hd += uh * w[..., None, None]
                        Hd += _symmetric(ug, wg)
                elif op == _ADD or op == _SUB:
                    f = np.add if op == _ADD else np.subtract
                    f(u, V[b], out=Vd)
                    if order:
                        f(ug, G[b], out=Gd)
                    if order == 2:
                        f(uh, H[b], out=Hd)
                elif op == _NEG:
                    np.negative(u, out=Vd)
                    if order:
                        np.negative(ug, out=Gd)
                    if order == 2:
                        np.negative(uh, out=Hd)
                elif op == _DIV:
                    w = V[b]
                    fail = w == 0.0
                    w = np.where(fail, math.nan, w)
                    q = np.divide(u, w, out=Vd)
                    if order:
                        wg = G[b]
                        np.multiply(wg, q[..., None], out=Gd)
                        np.subtract(ug, Gd, out=Gd)
                        Gd /= w[..., None]
                    if order == 2:
                        np.multiply(H[b], q[..., None, None], out=Hd)
                        np.subtract(uh, Hd, out=Hd)
                        Hd -= _symmetric(Gd, wg)
                        Hd /= w[..., None, None]
                else:
                    Vd[...], f1, f2, fail = _elementary_group(op, u, order)
                    if order:
                        np.multiply(ug, f1[..., None], out=Gd)
                    if order == 2:
                        np.multiply(uh, f1[..., None, None], out=Hd)
                        C = ug[..., :, None] * ug[..., None, :]
                        C *= f2[..., None, None]
                        Hd += C
                if fail is not None and fail.any():
                    if bad is None:
                        bad = np.zeros((size, P), dtype=bool)
                    bad[dst] = fail
        return V, G, H, bad


@dataclass(frozen=True, eq=False)
class Gather:
    """A table of :class:`TapeSet` outputs (:meth:`TapeSet.gather`), whose
    lines :meth:`evaluate` takes straight from the slot tables of a sweep.

    Every line's tapes and coordinates are slots of one plan, so a batch
    of points, each with its own line, is one sweep per pass of ``step``
    points and one gather each for the values and the gradients.
    """

    sweep: TapeSet
    plan: tuple
    step: int  # points per pass
    slots: np.ndarray  # (lines, width): the plan slot of each entry
    reads: np.ndarray  # (lines, plan slots): the slots each line's tapes read

    def evaluate(self, X: np.ndarray, lines: np.ndarray):
        """Values (P, width), gradients (P, width, n) and ``ok`` (P,) of
        line ``lines[i]`` at ``X[i]``; every entry has the bits of
        :meth:`TapeSet.evaluate` at order 1.  ``ok[i]`` is False where a
        tape of that line left its domain."""
        P, n = X.shape
        width = self.slots.shape[1]
        values, grads, ok = np.empty((P, width)), np.empty((P, width, n)), np.ones(P, dtype=bool)
        for lo in range(0, P, self.step):
            at = slice(lo, lo + self.step)
            V, G, _, bad = self.sweep._run(self.plan, X[at], 1)
            pick = self.slots[lines[at]], np.arange(V.shape[1])[:, None]
            values[at], grads[at] = V[pick], G[pick]
            if bad is not None:
                ok[at] = ~(bad.T & self.reads[lines[at]]).any(axis=1)
        return values, grads, ok


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

    locals_, touched = [], []
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
        locals_.append(local)
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
        outputs=np.array([new[local[-1]] for local in locals_], dtype=int),
        reads=reads,
        slots=tuple(new[local] for local in locals_),
        max_index=np.array([tape.max_index for tape in tapes], dtype=int),
    )


def compile_tapes(exprs) -> TapeSet:
    """Compile expressions into one multi-output :class:`TapeSet`; its
    ``tapes`` are their one-output tapes, in order."""
    return _schedule(tuple(map(compile_tape, exprs)))


def evaluate(e: Expression, x: np.ndarray) -> float:
    """Evaluate ``e`` at the point ``x`` (0-based array, x[i-1] backs xi)."""
    return float(compile_tapes([e]).at(x, order=0)[0][0])


def grad_hess(e: Expression, x: np.ndarray) -> Taylor2Scalar:
    """Value, gradient, and Hessian of ``e`` at ``x`` in a single pass.

    The returned value agrees bit for bit with :func:`evaluate` and the
    Hessian is exactly symmetric.
    """
    (value,), (grad,), (hess,) = compile_tapes([e]).at(x, order=2)
    return Taylor2Scalar(float(value), grad, hess)


def fd_grad_hess(e: Expression, x: np.ndarray, step: float = 1e-4) -> Taylor2Scalar:
    """Central finite-difference gradient and Hessian, O(step^2) accurate.

    Independent of the propagated derivatives (it sweeps values only); used
    to cross-check :func:`grad_hess`.  If a stencil point leaves the domain
    of the expression, the :class:`DomainError` of the first such point
    (the point, then the single steps, then the pairs) propagates.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    n = x.size
    # the stencil: x, x +- step e_i, then x +- step e_i +- step e_j (i < j)
    moves = [()] + [((i, s),) for i in range(n) for s in (step, -step)]
    moves += [
        ((i, si), (j, sj))
        for i in range(n)
        for j in range(i + 1, n)
        for si, sj in ((step, step), (step, -step), (-step, step), (-step, -step))
    ]
    X = np.repeat(x[None], len(moves), axis=0)
    for r, move in enumerate(moves):
        for i, s in move:
            X[r, i] += s
    sweep = compile_tapes([e])
    values, _, _, ok = sweep.evaluate(X, order=0)
    if not ok.all():
        sweep.at(X[np.argmin(ok[:, 0])], order=0)  # raises that point's error
    v = values[:, 0]
    f0 = float(v[0])
    plus, minus = v[1 : 2 * n + 1 : 2], v[2 : 2 * n + 1 : 2]
    grad = (plus - minus) / (2.0 * step)
    hess = np.diag((plus - 2.0 * f0 + minus) / (step * step))
    corner = v[2 * n + 1 :].reshape(-1, 4)
    mixed = (corner[:, 0] - corner[:, 1] - corner[:, 2] + corner[:, 3]) / (4.0 * step * step)
    upper = np.triu_indices(n, 1)
    hess[upper] = mixed
    hess[upper[::-1]] = mixed
    return Taylor2Scalar(f0, grad, hess)
