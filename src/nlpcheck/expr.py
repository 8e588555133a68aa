"""Expression language with exact first and second derivatives.

Objectives and constraints are written as small arithmetic formulas over
variables ``x1 .. xn``, for example ``x1^2 + (x2 - 1)^2 - 1``.  A
:class:`Compiler` parses such formulas, each in one loop with explicit
stacks, straight into the slots of one multi-output :class:`TapeSet`:
every reduction of the loop makes its slot at once, identical
subexpressions (same op, same operand slots, same constant bits) share
one, and no tree is ever built (evaluation procedures in the sense of
Griewank & Walther, *Evaluating Derivatives*, 2008, ch. 2).
:meth:`Compiler.finish` numbers the slots in groups of one op at one
depth.  One loop, ``TapeSet._run``, executes the slots: forward-mode
differentiation (ibid., ch. 3 and 13) of every requested output at every
point of a batch, with one numpy pass per group, at order 0 (values), 1
(and gradients) or 2 (and Hessians).  :meth:`TapeSet.evaluate` flags the
entries that leave a domain; :meth:`TapeSet.at`, at one point, raises
:class:`DomainError` for the first of them.  A :class:`Gather`
(:meth:`TapeSet.gather`) takes a table of outputs and coordinates, one line
per point, straight from the slot tables of one sweep.  :func:`parse`
compiles one formula alone.

Each entry performs the floating-point operations of a one-point,
one-operation-at-a-time forward sweep, in its order, so a value is the
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
:class:`DomainError`.

Grammar (whitespace-insensitive)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := ("-")? power
    power   := atom ("^" INTEGER)?
    atom    := NUMBER | VAR | FUNC "(" expr ")" | "(" expr ")"
    VAR     := "x" INTEGER          # 1-based variable index
    FUNC    := sin | cos | exp | log | sqrt

Exponents are integer literals from 0 to 1024 (``_MAX_EXPONENT``); unary
minus binds looser than ``^``, so ``-x1^2`` means ``-(x1^2)``.  Neither
the parser nor the slot numbering recurses, so formulas of any depth
compile, whatever the caller's stack.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from nlpcheck.linalg import stack_chunk

__all__ = [
    "ExprError",
    "ParseError",
    "DomainError",
    "Taylor2Scalar",
    "TapeSet",
    "Gather",
    "Compiler",
    "parse",
    "evaluate",
    "grad_hess",
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

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message
        self.row = None  # the failing output, when raised by TapeSet.at


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


@dataclass
class Taylor2Scalar:
    """Value, gradient and Hessian of a function at one point."""

    value: float
    grad: np.ndarray  # shape (n,)
    hess: np.ndarray  # shape (n, n)


# Slot opcodes.  A slot (op, a, b, value) of a Compiler holds:
#   CONST: the constant value;  VAR: the 0-based variable index a;
#   unary ops: op applied to slot a (b = a);  binary ops: op applied to slots a, b.
(_CONST, _VAR, _NEG, _ADD, _SUB, _MUL, _DIV,
 _SIN, _COS, _EXP, _LOG, _SQRT) = range(12)
_UNARY_CODE = {"neg": _NEG, "sin": _SIN, "cos": _COS, "exp": _EXP, "log": _LOG, "sqrt": _SQRT}
_BINOP = {"+": _ADD, "-": _SUB, "*": _MUL, "/": _DIV}


def _elementary(op: int, v: float, order: int) -> tuple[float, float, float]:
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
            raise DomainError(f"{name} of non-finite value {v!r}") from None
        if op == _SIN:
            return s, c, -s
        return c, -s, -c
    if op == _EXP:
        try:
            ev = math.exp(v)
        except OverflowError:
            raise DomainError(f"exp overflows at {v!r}") from None
        return ev, ev, ev
    if op == _LOG:
        if v <= 0.0:
            raise DomainError(f"log of non-positive value {v!r}")
        f0 = math.log(v)
        if order:
            f1 = 1.0 / v
            if order == 2:
                if v * v == 0.0:
                    raise DomainError(f"log second derivative overflows at {v!r}")
                f2 = -1.0 / (v * v)
        return f0, f1, f2
    # _SQRT
    if v < 0.0:
        raise DomainError(f"sqrt of negative value {v!r}")
    if order and v == 0.0:
        raise DomainError("sqrt derivative undefined at zero")
    s = math.sqrt(v)
    if order:
        f1 = 0.5 / s
        if order == 2:
            if s * v == 0.0:
                raise DomainError(f"sqrt second derivative overflows at {v!r}")
            f2 = -0.25 / (s * v)
    return s, f1, f2


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
            f[i] = _elementary(op, vi, order)
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
    """``slots`` as a slice when they run consecutively or are all one
    slot (a view broadcast over the group), else as they are."""
    lo, listed = int(slots[0]), slots.tolist()
    if listed == [lo] * len(listed):
        return slice(lo, lo + 1)
    if listed == list(range(lo, lo + len(listed))):
        return slice(lo, lo + len(listed))
    return slots


def _slot_floats(order: int, n: int) -> int:
    """One slot's floats at one point, times the table and a group's
    temporaries: at most three tables' worth of gathered operands and
    products, four with the outer products of the Hessians."""
    return (4 if order < 2 else 5) * sum(n**k for k in range(order + 1))


@dataclass(frozen=True, eq=False)
class TapeSet:
    """Expressions compiled into one multi-output sweep (:class:`Compiler`).

    Every operation of every expression maps to a slot.  Identical
    subexpressions (same op, same operand slots, same constant bits) share
    one slot, and ``u^k`` becomes k products from the constant 1.  Slots
    are numbered by (depth, op): the constants, the variables, then one
    contiguous slice per group of one op at one depth, whose operands all
    lie in earlier groups.  ``_run``, the one loop that executes the
    slots, evaluates a group with a few whole-array numpy operations at
    every point of a batch, in one of three orders: values (0), gradients
    (1) or Hessians (2).  :meth:`evaluate` sweeps a batch of points and
    flags the entries that leave a domain; :meth:`at` sweeps one point and
    raises the first failure as a :class:`DomainError`.
    """

    size: int  # number of slots
    consts: np.ndarray  # values of the first len(consts) slots
    variables: np.ndarray  # 0-based variable index of the next slots
    groups: tuple  # (op, slice, a, b): the slots of the slice apply op to slots a (and b)
    outputs: np.ndarray  # (R,) the slot of each output's root
    reads: np.ndarray  # (R, size) bool: the slots each output reads
    # per output, in post-order, (slot, op, operand slot) of each operation
    # that can leave a domain: a division, by its divisor, or a function
    failures: tuple

    def evaluate(self, X, rows=None, order: int = 1):
        """Values (P, R), gradients (P, R, n), Hessians (P, R, n, n) and
        ``ok`` (P, R) of the outputs ``rows`` (all of them by default) at
        the rows of ``X``; gradients and Hessians are None past ``order``.

        Every entry goes through the floating-point operations of a
        one-point forward sweep of its expression, in the same order (see
        the module docstring), so it keeps that sweep's bits.  ``ok[i, j]``
        is False exactly where that sweep, at this order, leaves the domain
        of a function; the entry is then meaningless, and :meth:`at` names
        the failure.  A failing slot clears ``ok`` only for the outputs
        that read it, and slots that no requested output reads are skipped.
        The slot tables are built for a chunk of points at a time, and for a
        chunk of rows when one point's tables would not fit, sized by
        :func:`~nlpcheck.linalg.stack_chunk` so that a pass's tables, with
        a group's temporaries, fit within the stacking budget (a lone row's
        may not).
        """
        X = np.asarray(X, dtype=float)
        P, n = X.shape
        rows = np.arange(len(self.outputs)) if rows is None else np.asarray(rows, dtype=int)
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
            plan = self._plan(need, n)
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
        """Values (R,), gradients (R, n) and Hessians (R, n, n) of the
        outputs ``rows`` (all of them by default) at the one point ``x``;
        gradients and Hessians are None past ``order``.

        The first requested row that fails raises the :class:`DomainError`
        of its expression's first failing operation in post-order, with
        ``row`` set to that output.
        """
        X = np.asarray(x, dtype=float).reshape(1, -1)
        rows = np.arange(len(self.outputs)) if rows is None else np.asarray(rows, dtype=int)
        *tables, ok = self.evaluate(X, rows, order)
        if not ok.all():
            raise self._failure(X, int(rows[np.argmin(ok[0])]), order)
        return tuple(None if table is None else table[0] for table in tables)

    def _failure(self, X: np.ndarray, row: int, order: int) -> DomainError:
        """The error of output ``row``'s first operation, in post-order, that
        fails at the one point ``X`` (shape (1, n)) at ``order``."""
        plan = self._plan(self.reads[row], X.shape[1])
        V, _, _, bad = self._run(plan, X, order)
        position = plan[4]
        _, op, a = next(f for f in self.failures[row] if bad[position[f[0]], 0])
        if op == _DIV:
            exc = DomainError("division by zero")
        else:
            try:
                _elementary(op, float(V[position[a], 0]), order)
            except DomainError as raised:
                exc = raised
        exc.row = row
        return exc

    def gather(self, outputs, n: int) -> "Gather":
        """The :class:`Gather` of the table ``outputs`` (lines, width) at
        points of ``n`` coordinates.  An entry r >= 0 names output r; an
        entry ``~k`` (that is, -1 - k) names the coordinate x_{k+1}, whose
        value and unit gradient the sweep holds in a variable slot."""
        outputs = np.asarray(outputs, dtype=int)
        # the outputs and coordinates named, found by masks: np.unique
        # imports numpy.ma (close to 1 MiB of memory) on numpy 2.4
        rows, coords = np.zeros(len(self.outputs), dtype=bool), np.zeros(n, dtype=bool)
        rows[outputs[outputs >= 0]] = True
        coords[~outputs[outputs < 0]] = True
        rows, coords = np.flatnonzero(rows), np.flatnonzero(coords)
        c, v = len(self.consts), len(self.consts) + len(self.variables)
        own = np.full(n, -1)  # the variable slot of each coordinate, or -1
        kept = self.variables < n
        own[self.variables[kept]] = c + np.flatnonzero(kept)
        need = self.reads[rows].any(axis=0)
        slot = own[coords]
        need[slot[slot >= 0]] = True
        extra = coords[slot < 0]
        plan = self._plan(need, n, extra)
        position = plan[4]
        at = np.where(own >= 0, position[own], 0)  # the plan slot of each coordinate
        at[extra] = int(need[:v].sum()) + np.arange(len(extra))
        roots = position[self.outputs[np.maximum(outputs, 0)]]
        slots = np.where(outputs >= 0, roots, at[~np.minimum(outputs, -1)])
        # the plan slots each line's outputs read (variable slots never fail)
        reads = np.zeros((len(self.outputs), plan[0]), dtype=bool)
        reads[:, position[need]] = self.reads[:, need]
        reads = (reads[np.maximum(outputs, 0)] & (outputs >= 0)[..., None]).any(axis=1)
        return Gather(self, plan, stack_chunk(_slot_floats(1, n) * plan[0]), slots, reads)

    def _plan(self, need: np.ndarray, n: int, coords=()) -> tuple:
        """The slots in ``need``, renumbered in order from 0, and the steps
        that compute them at points of ``n`` coordinates: (number of slots,
        constant values, variables, steps, the new number of every slot).
        The coordinates ``coords``, which have no slot of their own, get
        slots after the variables in ``need``.  A step (op, destination, a,
        b) applies op to the slots a (and b) and fills a slice; operand
        slots that run consecutively or are all one slot are a slice too
        (:func:`_run_of`), read as a view.  A variable in ``need`` past the ``n``
        coordinates raises :class:`ExprError`, naming the largest."""
        position = np.cumsum(need) - 1
        c, v = len(self.consts), len(self.consts) + len(self.variables)
        last = int(self.variables[need[c:v]].max(initial=-1)) + 1  # the largest, 1-based
        if last > n:
            raise ExprError(f"point has {n} coordinates but expression uses x{last}")
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

    @staticmethod
    def _tables(plan: tuple, P: int, n: int, order: int) -> tuple:
        """Empty slot tables of ``plan`` for ``P`` points of ``n``
        coordinates: values (slots, P), gradients (slots, P, n) and Hessians
        (slots, P, n, n), None past ``order``.  The constant slots and every
        derivative of the variable slots are filled; :meth:`_run` writes the
        rest."""
        size, consts, variables, _, _ = plan
        c, v = len(consts), len(consts) + len(variables)
        V = np.empty((size, P))
        V[:c] = consts[:, None]
        G = H = None
        if order:
            G = np.empty((size, P, n))
            G[:c] = 0.0
            G[c:v] = np.eye(n)[variables][:, None, :]
        if order == 2:
            H = np.empty((size, P, n, n))
            H[:v] = 0.0
        return V, G, H

    def _run(self, plan: tuple, X: np.ndarray, order: int, tables=None):
        """The slot tables of ``plan`` at the points ``X``: values (slots,
        P), gradients (slots, P, n) and Hessians (slots, P, n, n), None past
        ``order``, and the failed slots (slots, P), or None.

        This is the one loop that executes the slots.  It writes into
        ``tables``, when given, as :meth:`_tables` makes them for these
        points and this order: every slot of a variable or a group is
        written again, so nothing of an earlier sweep is read.  Each group
        is written straight into its slots of the tables by ``out=``
        operations, reading its operands as views where their slots run
        consecutively, or broadcast where they are all one slot; each entry
        still takes the operations of the module docstring, in their order.
        """
        size, consts, variables, steps, _ = plan
        P, n = X.shape
        V, G, H = self._tables(plan, P, n, order) if tables is None else tables
        V[len(consts) : len(consts) + len(variables)] = X.T[variables]
        bad = ug = uh = Gd = Hd = None
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


@dataclass(eq=False)
class Gather:
    """A table of :class:`TapeSet` outputs (:meth:`TapeSet.gather`), whose
    lines :meth:`evaluate` takes straight from the slot tables of a sweep.

    Every line's outputs and coordinates are slots of one plan, so a batch
    of points, each with its own line, is one sweep per pass of ``step``
    points and one gather each for the values and the gradients.  A
    Gather keeps the slot tables of the last two pass widths it swept, with
    the constants and the unit gradients of the variables in place, so a
    pass of a kept width writes only the variable values and the groups.
    Two, because a Newton call wider than ``step`` is split into full
    passes and a narrower last one, and because a march's calls narrow
    when a side ends and when a round's halved trials take a pass of their
    own; a width it no longer meets is dropped, so at most two passes'
    tables are held.  A Gather is for one caller at a time.
    """

    sweep: TapeSet
    plan: tuple
    step: int  # points per pass
    slots: np.ndarray  # (lines, width): the plan slot of each entry
    reads: np.ndarray  # (lines, plan slots): the slots each line's outputs read
    _kept: dict = field(default_factory=dict, init=False, repr=False)  # width -> tables

    def evaluate(self, X: np.ndarray, lines: np.ndarray):
        """Values (P, width), gradients (P, width, n) and ``ok`` (P,) of
        line ``lines[i]`` at ``X[i]``; every entry has the bits of
        :meth:`TapeSet.evaluate` at order 1.  ``ok[i]`` is False where an
        output of that line left its domain."""
        P, n = X.shape
        if P <= self.step:  # one pass, whose lines are the result
            return self._pass(X, lines)
        entries = self.slots.shape[1]
        values, grads = np.empty((P, entries)), np.empty((P, entries, n))
        ok = np.empty(P, dtype=bool)
        for lo in range(0, P, self.step):
            at = slice(lo, lo + self.step)
            values[at], grads[at], ok[at] = self._pass(X[at], lines[at])
        return values, grads, ok

    def _pass(self, X: np.ndarray, lines: np.ndarray):
        """:meth:`evaluate` in one sweep, written into the kept tables of
        its width; the lines it returns are new arrays."""
        P, n = X.shape
        tables = self._kept.get(P)
        if tables is None:
            if len(self._kept) == 2:
                del self._kept[next(iter(self._kept))]  # the older width
            tables = self._kept[P] = self.sweep._tables(self.plan, P, n, 1)
        V, G, _, bad = self.sweep._run(self.plan, X, 1, tables)
        pick = self.slots[lines], np.arange(P)[:, None]
        if bad is None:
            return V[pick], G[pick], np.ones(P, dtype=bool)
        return V[pick], G[pick], ~(bad.T & self.reads[lines]).any(axis=1)


class Compiler:
    """Expressions over x1..xn, parsed straight into the slots of one
    multi-output :class:`TapeSet`.

    :meth:`parse` reads one expression and returns its number;
    :meth:`finish` makes the sweep whose outputs are the numbered
    expressions.  Slots are shared across every expression parsed, so a
    subexpression that two outputs read is computed once.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("dimension n must be non-negative")
        self.n = n
        self._index: dict = {}  # (op, a, b, constant bits) -> slot
        self._nodes: list[tuple[int, int, int, float]] = []  # (op, a, b, value) of each slot
        self._depth: list[int] = []
        # per expression: its root slot, the slots it reads in post-order of
        # first reading, and (slot, op, operand slot) of each operation that
        # can leave a domain, in post-order
        self._parsed: list[tuple[int, dict, list]] = []

    def parse(self, source: str) -> int:
        """Parse ``source`` into slots and return its number for :meth:`finish`.

        One loop over the tokens, with no recursion, so any depth parses: an
        operand stack of slots, and an operator stack of pending binary
        operators, one ``_NEG`` mark per unary minus and one frame per open
        ``(`` or function call (Dijkstra's shunting-yard, with the
        precedence of the grammar above).  A ``*`` or ``/`` applies the
        pending ``*`` and ``/`` of its frame first, a ``+``, ``-``, ``)`` or
        the end every pending binary operator; a minus applies to the power
        after it.  Each operation gets its slot when it is applied, after
        its operands, that is in post-order.  A malformed source raises
        :class:`ParseError` with the byte offset of the first token that
        does not fit the grammar.
        """
        index, nodes, depth = self._index, self._nodes, self._depth
        seen: dict[int, None] = {}  # the slots read, in post-order of first reading
        fails: list[tuple[int, int, int]] = []
        tokens = _tokenize(source)
        operands: list[int] = []
        ops: list = []  # binary opcodes, _NEG, and frames: "(" or a function's opcode
        frames = 0  # open frames on ops

        def slot(op: int, a: int = 0, b: int = 0, value: float = 0.0) -> int:
            key = (op, a, b, value.hex())
            s = index.get(key)
            if s is None:
                s = index[key] = len(nodes)
                nodes.append((op, a, b, value))
                depth.append(0 if op <= _VAR else 1 + max(depth[a], depth[b]))
            if s not in seen:  # a repeat fails, if at all, where the first did
                seen[s] = None
                if op == _DIV or op >= _SIN:
                    fails.append((s, op, b if op == _DIV else a))
            return s

        def reduce(names) -> None:
            """Apply the binary operators ``names`` on top of ``ops``."""
            while ops and ops[-1] in names:
                right = operands.pop()
                operands[-1] = slot(ops.pop(), operands[-1], right)

        i = 0
        while True:
            # a factor: an optional minus, then an atom or the opening of a frame
            kind, payload, off = tokens[i]
            i += 1
            if kind == "op" and payload == "-":
                ops.append(_NEG)
                kind, payload, off = tokens[i]
                i += 1
            if kind == "num":
                operands.append(slot(_CONST, value=payload[0]))
            elif kind == "var":
                if payload == 0:
                    raise ParseError("variable index 0 (variables are x1..xn)", off)
                if payload > self.n:
                    raise ParseError(f"variable x{payload} exceeds declared dimension {self.n}", off)
                operands.append(slot(_VAR, payload - 1))
            elif kind == "func":
                kind, symbol, off = tokens[i]
                if kind != "op" or symbol != "(":
                    raise ParseError("expected '('", off)
                i += 1
                ops.append(_UNARY_CODE[payload])
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
                    base, s = operands[-1], slot(_CONST, value=1.0)
                    for _ in range(_exponent(tokens[i + 1])):
                        s = slot(_MUL, s, base)
                    operands[-1] = s
                    i += 2
                    kind, payload, off = tokens[i]
                if ops and ops[-1] == _NEG:
                    ops.pop()
                    operands[-1] = slot(_NEG, operands[-1], operands[-1])
                if kind == "op" and payload in "+-*/":
                    reduce((_MUL, _DIV) if payload in "*/" else _BINOP.values())
                    ops.append(_BINOP[payload])
                    i += 1
                    break
                reduce(_BINOP.values())
                if not frames:
                    if kind != "end":
                        raise ParseError("unexpected trailing input", off)
                    self._parsed.append((operands[0], seen, fails))
                    return len(self._parsed) - 1
                if kind != "op" or payload != ")":
                    raise ParseError("expected ')'", off)
                i += 1
                frames -= 1
                head = ops.pop()
                if head != "(":
                    operands[-1] = slot(head, operands[-1], operands[-1])

    def finish(self, outputs) -> TapeSet:
        """The :class:`TapeSet` whose output r is expression ``outputs[r]``.

        It holds the slots those expressions read, numbered by (depth, op);
        within a group, slots come in order of first reading, taking the
        outputs in the given order and each in post-order.
        """
        nodes, depth = self._nodes, self._depth
        parsed = [self._parsed[e] for e in outputs]
        first: dict[int, None] = {}  # every slot read, in order of first reading
        for _, seen, _ in parsed:
            first.update(seen)

        def level(s: int) -> tuple[int, int]:
            return depth[s], nodes[s][0]

        order = sorted(first, key=level)
        new = np.zeros(len(nodes), dtype=int)
        new[order] = np.arange(len(order))
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
        reads = np.zeros((len(parsed), len(order)), dtype=bool)
        for r, (_, seen, _) in enumerate(parsed):
            reads[r, new[list(seen)]] = True
        renumber = new.tolist()
        return TapeSet(
            size=len(order),
            consts=np.array(consts, dtype=float),
            variables=np.array(variables, dtype=int),
            groups=tuple(groups),
            outputs=new[[root for root, _, _ in parsed]],
            reads=reads,
            failures=tuple(
                tuple((renumber[s], op, renumber[a]) for s, op, a in fails)
                for _, _, fails in parsed
            ),
        )


def parse(source: str, n: int) -> TapeSet:
    """The one-output :class:`TapeSet` of ``source``, an expression over
    variables x1..xn (:meth:`Compiler.parse`)."""
    compiler = Compiler(n)
    return compiler.finish([compiler.parse(source)])


def evaluate(sweep: TapeSet, x: np.ndarray) -> float:
    """Output 0 of ``sweep`` at the point ``x`` (0-based array, x[i-1] backs xi)."""
    return float(sweep.at(x, [0], order=0)[0][0])


def grad_hess(sweep: TapeSet, x: np.ndarray) -> Taylor2Scalar:
    """Value, gradient, and Hessian of output 0 of ``sweep`` at ``x`` in a
    single pass.

    The returned value agrees bit for bit with :func:`evaluate` and the
    Hessian is exactly symmetric.
    """
    (value,), (grad,), (hess,) = sweep.at(x, [0], order=2)
    return Taylor2Scalar(float(value), grad, hess)

