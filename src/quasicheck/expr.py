"""Small arithmetic expression language for scalar functions of x1..xn.

Grammar (highest precedence first):

    unary minus          -u          (binds tighter than ^)
    power                u ^ v       (right associative)
    product / quotient   u * v, u / v
    sum / difference     u + v, u - v

Functions: sin, cos, exp, log, sqrt, abs, min, max, pow. Variables are
written x1..xn and parameters t1..tp (both 1-based; p = 0 unless the
caller declares parameters). No implicit multiplication.

`compile_expr` lowers an AST once to a program of two straight-line
numpy functions whose intermediate arrays go to register files reused by
every call: `value(X)` gives f at a batch of points, and one pass of
`dual(X, D)` gives the values and the directional derivatives
<grad f, d> at each point along its direction d (forward mode with one
tangent per node, seeded with d, so a pass costs the same for any n).
`value` also takes the points of segments of pairs (`Segments`), whose
coordinates it makes itself, each just before its first use.
Nothing raises: a point outside the expression's domain evaluates to NaN
or an infinity, and an exact tie of abs/min/max that f takes has a NaN
slope (a kink in a branch that min/max does not take has none).
Parameters are inputs without a tangent, so one program serves a family,
one parameter row per point.
"""

from __future__ import annotations

import ast
import math
import re
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ParseError",
    "Const",
    "Var",
    "Param",
    "Unary",
    "Binary",
    "Call",
    "parse",
    "pretty_print",
    "compile_expr",
    "Program",
    "Segments",
]

FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
    "pow": 2,
}


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.message = message
        self.pos = pos


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Param:
    index: int  # 1-based


@dataclass(frozen=True)
class Unary:
    op: str  # only "-"
    child: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


Node = Const | Var | Param | Unary | Binary | Call


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
    |(?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    |(?P<op>[-+*/^])
    |(?P<paren>[()])
    |(?P<comma>,)
    |(?P<ws>\s+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(source: str) -> list[Token]:
    tokens = []
    i = 0
    while i < len(source):
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise ParseError(f"unexpected character {source[i]!r}", i)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(Token(kind, m.group(), i))
        i = m.end()
    return tokens


# ---------------------------------------------------------------------------
# Recursive descent parser

_VAR_RE = re.compile(r"^x([1-9]\d*)$")
_PARAM_RE = re.compile(r"^t([1-9]\d*)$")


class _Parser:
    def __init__(self, tokens: list[Token], dimension: int, params: int,
                 source_len: int):
        self.tokens = tokens
        self.dim = dimension
        self.params = params
        self.i = 0
        self.end = source_len

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Token | None:
        t = self.peek()
        if t is not None:
            self.i += 1
        return t

    def expect(self, text: str, what: str) -> Token:
        t = self.peek()
        if t is None or t.text != text:
            pos = t.pos if t is not None else self.end
            raise ParseError(f"expected {what}", pos)
        return self.next()

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while (t := self.peek()) is not None and t.text in ("+", "-"):
            self.next()
            rhs = self.parse_term()
            node = Binary(t.text, node, rhs)
        return node

    def parse_term(self) -> Node:
        node = self.parse_power()
        while (t := self.peek()) is not None and t.text in ("*", "/"):
            self.next()
            rhs = self.parse_power()
            node = Binary(t.text, node, rhs)
        return node

    def parse_power(self) -> Node:
        # unary minus binds tighter than ^; ^ is right associative
        base = self.parse_signed()
        t = self.peek()
        if t is not None and t.text == "^":
            self.next()
            exponent = self.parse_power()
            return Binary("^", base, exponent)
        return base

    def parse_signed(self) -> Node:
        t = self.peek()
        if t is not None and t.text == "-":
            self.next()
            return Unary("-", self.parse_signed())
        return self.parse_primary()

    def parse_primary(self) -> Node:
        t = self.next()
        if t is None:
            raise ParseError("unexpected end of input", self.end)
        if t.kind == "number":
            value = float(t.text)
            if not np.isfinite(value):
                raise ParseError(f"number {t.text} overflows to infinity", t.pos)
            return Const(value)
        if t.kind == "paren" and t.text == "(":
            node = self.parse_expr()
            nxt = self.peek()
            if nxt is None or nxt.text != ")":
                raise ParseError("unclosed parenthesis", nxt.pos if nxt else self.end)
            self.next()
            return node
        if t.kind == "ident":
            m = _VAR_RE.match(t.text)
            if m:
                index = int(m.group(1))
                if index > self.dim:
                    raise ParseError(
                        f"variable x{index} exceeds dimension {self.dim}", t.pos
                    )
                return Var(index)
            m = _PARAM_RE.match(t.text)
            if m:
                index = int(m.group(1))
                if index > self.params:
                    raise ParseError(f"parameter t{index} exceeds the "
                                     f"{self.params} declared parameters", t.pos)
                return Param(index)
            if t.text in FUNCTIONS:
                self.expect("(", f"'(' after {t.text}")
                args = [self.parse_expr()]
                while (nxt := self.peek()) is not None and nxt.text == ",":
                    self.next()
                    args.append(self.parse_expr())
                nxt = self.peek()
                if nxt is None or nxt.text != ")":
                    raise ParseError("unclosed parenthesis", nxt.pos if nxt else self.end)
                self.next()
                arity = FUNCTIONS[t.text]
                if len(args) != arity:
                    raise ParseError(
                        f"{t.text} takes {arity} argument(s), got {len(args)}", t.pos
                    )
                return Call(t.text, tuple(args))
            raise ParseError(f"unknown identifier {t.text!r}", t.pos)
        raise ParseError(f"unexpected token {t.text!r}", t.pos)


def parse(source: str, dimension: int, params: int = 0) -> Node:
    """Parse `source` into an AST; variables x1..x<dimension> and
    parameters t1..t<params> are allowed."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    tokens = tokenize(source)
    parser = _Parser(tokens, dimension, params, len(source))
    try:
        node = parser.parse_expr()
    except RecursionError:   # the parser recurses once per nesting level
        t = parser.peek()
        raise ParseError("expression nests too deeply", t.pos if t else parser.end) from None
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected token {trailing.text!r}", trailing.pos)
    return node


# ---------------------------------------------------------------------------
# Pretty printer


def pretty_print(e: Node) -> str:
    """Fully parenthesized form that reparses to a structurally equal AST.

    Constants are assumed nonnegative (parser output never contains
    negative constants; negation is a Unary node).
    """
    if isinstance(e, Const):
        return repr(float(e.value))
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Param):
        return f"t{e.index}"
    if isinstance(e, Unary):
        return f"(-{pretty_print(e.child)})"
    if isinstance(e, Binary):
        return f"({pretty_print(e.left)} {e.op} {pretty_print(e.right)})"
    if isinstance(e, Call):
        return f"{e.name}({', '.join(pretty_print(a) for a in e.args)})"
    raise TypeError(type(e))


# ---------------------------------------------------------------------------
# Compilation to straight-line numpy code
#
# One temporary per node, in left-first post-order. Values have the points'
# shape without its last axis (a point alone has shape ()): x_j = X[..., j-1]
# and parameter t_j is p_j = T[..., j-1], broadcast against the points. The
# tangent of a node is one term, its derivative along the direction D, and
# x_j's own term is its seed d_j = D[..., j-1]. Derivatives mirror the
# dual-number rules term for term; parameters and subtrees free of x carry
# no tangent. An array that depends on x (or on the seeds) and is made by
# a function that takes out=, except the results, is written into a
# register (see `_assign_registers`), so a call allocates little more than
# its results. Nothing is checked: numpy's IEEE results make
# an invalid point NaN (or infinite). The source holds only numbers and
# generated names.


def _power(a, b, out=None):
    """numpy's power over a trailing axis of one, where a fresh exponent has
    a nonzero stride: numpy's shortcuts for exponents -1, 0.5 and 2, taken
    at stride 0 (a constant, or any point alone), never apply, so every
    shape rounds alike."""
    e = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)) + (1,))
    e[..., 0] = b
    return np.power(a[..., None], e, out=out if out is None else out[..., None])[..., 0]


def _ipow(a, k, out=None):
    """a^k for a constant integer k (a float): numpy's power of |a|, with
    a's sign copied back for odd k. numpy's vector power takes a scalar
    fallback for every negative base (about 17 times slower on a mixed-sign
    array with numpy 2.4 on x86-64); |a| keeps every base on the vector
    path, so a^k is exactly odd or even in a and within one ulp. Writes into `out` when given, reading a's sign before
    it does, so `out` may be `a`."""
    if out is None:   # the root, or a base free of x: a result of its own
        r = _ipow(a, k, np.empty(np.shape(a)))
        return r if r.ndim else r[()]
    sign = np.copysign(1.0, a) if k % 2 and np.may_share_memory(a, out) else a
    np.power(np.absolute(a, out=out), k, out=out)
    return np.copysign(out, sign, out=out) if k % 2 else out


def _int_power(k: int) -> str:
    """The function for a^k at a constant integer k other than 2 (which is
    numpy's square): numpy's power where it is exact or takes a shortcut
    (k = -1, 0, 1), else `_ipow`."""
    return "power" if -1 <= k <= 1 else "_ipow"


class Segments:
    """Points on the segments of k pairs, as `Program.value` takes them.
    From the coordinate planes (n, k) Y of y and D of x - y, the lambdas
    lam ((L, 1) for a grid shared by the pairs, (1, k) for one lambda per
    pair) and the planes X of x or None: points of shape (rows, k, n),
    whose rows are x and y when X is given, then lam*(x - y) + y for each
    lambda. They are not stored: the program makes each coordinate
    (`load`) just before its first use."""

    def __init__(self, Y, D, lam, X=None):
        self.Y, self.D, self.lam, self.X = Y, D, lam, X
        self.shape = ((X is not None) * 2 + len(lam), Y.shape[-1], len(Y))

    def load(self, j, out=None):
        """Coordinate j of the points, written into `out` when given: x_j
        and y_j when they ride, then lam * (x_j - y_j) and then + y_j."""
        if out is None:
            out = np.empty(self.shape[:-1])
        ride = len(out) - len(self.lam)
        seg = out[ride:]
        np.multiply(self.lam, self.D[j], out=seg)
        np.add(seg, self.Y[j], out=seg)
        if ride:
            out[0], out[1] = self.X[j], self.Y[j]
        return out


def _load(X, j, out=None):
    """Coordinate j of the points X: a view of an array, or of `Segments`
    made into `out`."""
    return X[..., j] if isinstance(X, np.ndarray) else X.load(j, out)


_NAMESPACE = {
    "_F": np.float64, "_full": np.full, "_power": _power,
    "_ipow": _ipow, "_load": _load, "square": np.square,
    "inf": np.inf, "nan": np.nan, "negative": np.negative, "add": np.add,
    "subtract": np.subtract, "multiply": np.multiply, "divide": np.divide,
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "absolute": np.absolute, "minimum": np.minimum, "maximum": np.maximum,
    "power": np.power, "where": np.where, "greater_equal": np.greater_equal,
    "less_equal": np.less_equal, "not_equal": np.not_equal,
}
# the functions that take out=
_OUT = {k for k, f in _NAMESPACE.items() if isinstance(f, np.ufunc)}
_OUT |= {"_ipow", "_power", "_load"}

# op: (value, tangent, tangent terms). A value template is one ufunc call,
# so that a register can be given as its out=. Templates see the operand
# values a, b and their tangents ta, tb (0.0 when absent), this value v,
# w = a with non-positive entries as NaN, and k, pk for k * a^(k-1), pw
# the function of a^k (k != 2: a^2 is numpy's square, which is its power
# at 2 bit for bit, including subnormals, infinities and NaN, in half the
# time). Terms whose tangent is absent are dropped; the rest fill the
# tangent's {}, and a node all of whose terms are absent has no tangent.
# At a tie of abs/min/max the tangent is NaN: abs's factor a/|a| is
# exactly +-1 elsewhere and 0/0 there, and min/max take the tangent of
# the branch they take where a != b and NaN where a == b. a^k with a
# constant integer k (and its factor a^(k-1)) is numpy's power of |a| with
# a's sign for odd k (`_ipow`), so it is exactly odd or even in a, within
# one ulp, at negative a too; numpy's own power serves k = -1, 0, 1.
# pow(a, b) and a^b with any other exponent are the power of w: they need
# a > 0 and are NaN elsewhere.
_TA = [("", "{ta}")]
_POW = ("_power({w}, {b})", "{v} * ({})",
        [("", "{tb} * log({w})"), (" + ", "{b} * {ta} / {w}")])
_RULES = {
    "neg": ("negative({a})", "-{}"),
    "+": ("add({a}, {b})", "{}", [("", "{ta}"), (" + ", "{tb}")]),
    "-": ("subtract({a}, {b})", "{}", [("", "{ta}"), (" - ", "{tb}")]),
    "*": ("multiply({a}, {b})", "{}", [("", "{ta} * {b}"), (" + ", "{a} * {tb}")]),
    "/": ("divide({a}, {b})", "({}) / ({b} * {b})",
          [("", "{ta} * {b}"), (" - ", "{a} * {tb}")]),
    "^0": ("power({a}, 0.0)", None, []),
    "^2": ("square({a})", "(2.0 * {a}) * {}"),
    "^k": ("{pw}({a}, {k})", "({k} * {pk}) * {}"),
    "^": _POW,
    "pow": _POW,
    "sin": ("sin({a})", "cos({a}) * {}"),
    "cos": ("cos({a})", "-sin({a}) * {}"),
    "exp": ("exp({a})", "{v} * {}"),
    "log": ("log({a})", "{} / {a}"),
    "sqrt": ("sqrt({a})", "{} / (2.0 * {v})"),
    "abs": ("absolute({a})", "{a} / {v} * {}"),
    "min": ("minimum({a}, {b})", "where({a} != {b}, where({a} <= {b}, {ta}, {tb}), nan)",
            _TA + [("", "{tb}")]),
    "max": ("maximum({a}, {b})", "where({a} != {b}, where({a} >= {b}, {ta}, {tb}), nan)",
            _TA + [("", "{tb}")]),
}
# the ufunc of each operator of a tangent expression
_UFUNC = {ast.Add: "add", ast.Sub: "subtract", ast.Mult: "multiply",
          ast.Div: "divide", ast.USub: "negative", ast.GtE: "greater_equal",
          ast.LtE: "less_equal", ast.NotEq: "not_equal"}


class _RegisterFile(threading.local):
    """The registers of one compiled program: one buffer per thread that
    every call in that thread reuses, grown when a call needs more, so one
    program may run in several threads at once. The state is one tuple
    (count, buffer, shape, views), read and written whole: each access to
    a thread-local attribute costs a lookup of the thread's own."""

    def __init__(self, count: int):
        self.file = (count, np.empty(0), None, [])

    def __call__(self, shape: tuple) -> list:
        """The registers as arrays of `shape` (0-d ones for a point alone)."""
        count, buffer, last, views = self.file
        if shape != last:
            size = count * math.prod(shape)
            if buffer.size < size:
                buffer = np.empty(size)
            R = buffer[:size].reshape((count, *shape))
            views = [R[k, ...] for k in range(count)]
            self.file = (count, buffer, shape, views)
        return views


def _assign_registers(lines, results):
    """The lines with their registers and `del`s, and the register counts
    of R and S. A line that depends on x (or on a seed d_j) and calls a
    function that takes out= writes to a register: a value line to one of
    R, a dual line to one of S, which the value program does without. It
    takes over the register of its file of an operand whose last use is
    that line (sin(a) keeps a for its factor cos(a)). Right after its last
    use in either program each temporary but the `results` is deleted and
    its register freed: in both programs if a value line made it, else in
    the dual program only. A coordinate x_j that a line loads (`_load`) is
    a view of the points, or of segments a register that only value lines
    read: it is not deleted, and its register is freed after its last use
    in a value line."""
    lines = [(dual, *text.split(" = ", 1)) for dual, text in lines]
    read = [list(dict.fromkeys(re.findall(r"\w+", call))) for _, _, call in lines]
    loads = {name for _, name, call in lines if call.startswith("_load(")}
    made = {name: dual for dual, name, _ in lines if name not in loads}
    last, held = {}, {}   # the last line that reads a name; that reads its register
    for i, (dual, name, _) in enumerate(lines):
        for n in (name, *read[i]):
            last[n] = i
            if not dual or n not in loads:
                held[n] = i
    varies, slot, free, count, out = set(loads), {}, ([], []), [0, 0], []
    for i, ((dual, name, call), words) in enumerate(zip(lines, read)):
        if any(n in varies or re.fullmatch(r"[xd]\d+", n) for n in words):
            varies.add(name)
        if name in varies and name not in results and call.partition("(")[0] in _OUT:
            file = "RS"[dual]
            taken = [n for n in words if slot.get(n, " ")[0] == file and held[n] == i]
            if not (taken or free[dual]):
                free[dual].append(f"{file}[{count[dual]}]")
                count[dual] += 1
            slot[name] = slot.pop(taken[0]) if taken else free[dual].pop()
            call = f"{call[:-1]}, out={slot[name]})"
        out.append((dual, f"{name} = {call}"))
        free[False].extend(slot.pop(n) for n in words if n in loads and n in slot and held[n] == i)
        dead = [n for n in words + [name] if n in made and last[n] == i and n not in results]
        for program in (False, True):
            if names := [n for n in dead if made[n] == program]:
                out.append((program, f"del {', '.join(names)}"))
                free[program].extend(slot.pop(n) for n in names if n in slot)
    return out, count


def _int_exponent(node: Node) -> int | None:
    """Constant integer exponent (possibly negated), else None."""
    sign = 1
    while isinstance(node, Unary):
        sign = -sign
        node = node.child
    if isinstance(node, Const) and float(node.value).is_integer():
        return sign * int(node.value)
    return None


@dataclass
class _Slot:
    v: str                 # value: temporary name or numeric literal
    t: str | None = None   # tangent <grad, d>: a name; absent is 0
    var: bool = False      # depends on x
    par: bool = False      # depends on a parameter


class _Lowering:
    """Collects (dual_only, line) pairs of arithmetic; the value program
    skips dual lines, and `_assign_registers` adds registers and `del`s."""

    def __init__(self):
        self.lines: list[tuple[bool, str]] = []
        self.temps: set[str] = set()
        self.variables: set[int] = set()
        self.params: set[int] = set()
        self.loaded: set[str] = set()

    def load(self, *ops: "_Slot"):
        """Load each operand that is a coordinate x_j no line has read yet
        (`_load`), just before the line that reads it."""
        for x in (s.v for s in ops if s.v[:1] == "x" and s.v not in self.loaded):
            self.loaded.add(x)
            self.lines.append((False, f"{x} = _load(X, {int(x[1:]) - 1})"))

    def new(self, prefix: str, dual_expr: str | None = None) -> str:
        """A fresh temporary; with `dual_expr`, assigned in the dual program."""
        name = f"{prefix}{len(self.temps) + 1}"
        self.temps.add(name)
        if dual_expr is not None:
            self.lines.append((True, f"{name} = {dual_expr}"))
        return name

    def emit(self, text: str) -> str:
        """Lower a tangent expression to dual lines of one call each, so
        that a ufunc can write to a register, and return its result: a name,
        or a number that numpy folds here when the part has no name. A
        product with the constant 1.0 is exact and dropped."""
        def walk(e):
            if isinstance(e, (ast.Constant, ast.Name)):
                return getattr(e, "id", None) or float(e.value)
            fn, args = (e.func.id, e.args) if isinstance(e, ast.Call) else \
                (_UFUNC[type(e.op)], [e.operand]) if isinstance(e, ast.UnaryOp) else \
                (_UFUNC[type(e.op)], [e.left, e.right]) if isinstance(e, ast.BinOp) else \
                (_UFUNC[type(e.ops[0])], [e.left, *e.comparators])
            args = [walk(a) for a in args]
            if not any(isinstance(a, str) for a in args):
                with np.errstate(all="ignore"):
                    return float(_NAMESPACE[fn](*args))
            if fn == "multiply" and 1.0 in args:
                return args[args[0] == 1.0]
            return self.new("t", f"{fn}({', '.join(map(str, args))})")

        return str(walk(ast.parse(text, mode="eval").body))

    def lower(self, e: Node) -> _Slot:
        if isinstance(e, Const):
            lit = repr(float(e.value))
            return _Slot(f"({lit})" if lit.startswith("-") else lit)
        if isinstance(e, Var):
            self.variables.add(e.index)
            return _Slot(f"x{e.index}", f"d{e.index}", var=True)
        if isinstance(e, Param):
            self.params.add(e.index)
            return _Slot(f"p{e.index}", par=True)
        if isinstance(e, Unary):
            return self.node("neg", [self.lower(e.child)])
        if isinstance(e, Call):
            return self.node(e.name, [self.lower(a) for a in e.args])
        k = _int_exponent(e.right) if e.op == "^" else None
        if k is None:
            return self.node(e.op, [self.lower(e.left), self.lower(e.right)])
        a = self.lower(e.left)
        if k == 2:
            return self.node("^2", [a])
        pk = f"square({a.v})" if k == 3 else f"{_int_power(k - 1)}({a.v}, {float(k - 1)!r})"
        return self.node("^0" if k == 0 else "^k", [a], k=repr(float(k)), pk=pk,
                         pw=_int_power(k))

    def node(self, op: str, ops: list[_Slot], **fmt) -> _Slot:
        var = any(s.var for s in ops)
        par = any(s.par for s in ops)
        if not (var or par):   # constant subtree: numpy scalar semantics
            ops = [_Slot(s.v if s.v in self.temps else f"_F({s.v})") for s in ops]
        rule = _RULES[op]   # fill in the defaults of a short rule
        value, tangent, terms = rule + (_TA,)[len(rule) - 2:]
        a, b = (ops + [_Slot("")])[:2]
        out = _Slot(self.new("v"), None, var, par)
        fmt.update(a=a.v, b=b.v, v=out.v)
        lines = self.lines
        if "{w}" in value:
            fmt["w"] = w = self.new("w")
            self.load(a)
            lines.append((False, f"{w} = where({a.v} > 0, {a.v}, nan)"))
        self.load(*ops)
        lines.append((False, f"{out.v} = {value.format(**fmt)}"))
        fmt.update(ta=a.t or "0.0", tb=b.t or "0.0")
        present = [(sep, t) for sep, t in terms if (a.t if "{ta}" in t else b.t)]
        if present:
            body = "".join(sep + t for sep, t in present).format(**fmt)
            body = "0.0" + body if present[0][0] == " - " else body.removeprefix(" + ")
            out.t = self.emit(tangent.format(body, **fmt))
        return out


@dataclass(frozen=True, eq=False)
class Program:
    """An expression compiled for points in R^n with p parameters.
    value(X) gives f at the points X (..., n), of shape X.shape[:-1];
    dual(X, D) gives (values, slopes) at the points X and the directions
    D, one per point, of X's shape: the slope of x along its d is
    <grad f(x), d>, from one forward-mode pass seeded with d_j =
    D[..., j-1], zero where f does not depend on x and NaN at a tie of
    abs/min/max that f takes (see `_RULES`). With p > 0 both take the
    parameters T last, of shape (..., p) broadcastable against
    X.shape[:-1]: one vector, or one per point row. A point outside the
    expression's domain gives a NaN (or infinite) value, its slope
    whatever the rules give there.

    value (not dual) also takes the points of segments of pairs as
    `Segments`, whose coordinates it makes itself: each x_j (a multiply and
    then an add) into a register just before its first use, freed after
    its last, so a call never holds all n coordinates of its points. The
    rows it gives equal those of the same points as an array bit for bit.

    Each writes its intermediate arrays into register files of its own
    that the program keeps for all its calls, one per thread, so several
    threads may call one program at once; what they return is their own."""

    n: int
    p: int
    source: str
    value: Callable
    dual: Callable


def compile_expr(e: Node, n: int, p: int = 0) -> Program:
    """Lower `e` once to straight-line numpy code over points in R^n and
    parameters in R^p."""
    L = _Lowering()
    try:
        root = L.lower(e)
    except RecursionError:   # the lowering recurses once per level of the tree
        raise ValueError("expression nests too deeply to compile") from None
    if max(L.variables, default=0) > n:
        raise ValueError("expression references a variable beyond the dimension")
    if max(L.params, default=0) > p:
        raise ValueError("expression references a parameter beyond the count")
    shape = "X.shape[:-1]"
    # a bare x_j or d_j may be a view of the caller's points or directions,
    # and a constant has no array: what is returned is a copy, or a new array
    ret = root.v if root.var and root.v in L.temps else f"_full({shape}, {root.v})"
    slope = root.t if root.t in L.temps else f"_full({shape}, {root.t or 0.0})"
    L.load(root)   # a bare x_j
    lines, (r, s) = _assign_registers(L.lines, {root.v, root.t})
    views = [f"p{j} = T[..., {j - 1}]" for j in sorted(L.params)]
    views += [f"R = _registers({shape})"] * (r > 0)
    seeds = [f"d{j} = D[..., {j - 1}]" for j in sorted(L.variables)]
    value = views + [text for dual, text in lines if not dual] + [f"return {ret}"]
    dual = views + seeds + [f"S = _tangents({shape})"] * (s > 0) + [
        text for _, text in lines] + [f"return {ret}, {slope}"]
    T = ", T" if p else ""
    source = "".join(f"def {name}(X{args}{T}):\n" + "".join(f"    {t}\n" for t in body)
                     for name, args, body in (("value", "", value), ("dual", ", D", dual)))
    code = compile(source, "<quasicheck expression>", "exec")
    # value and dual each run in a namespace with register files of their
    # own, since their calls come in shapes of their own (a block's
    # segments, its pairs): one file shared by both made the two-lane
    # harness slower. The functions hold their namespace as __globals__:
    # taken out of it, they and their registers die with the program, not
    # at the next collection of reference cycles
    def own(name: str) -> Callable:
        namespace = dict(_NAMESPACE, _registers=_RegisterFile(r), _tangents=_RegisterFile(s))
        exec(code, namespace)
        return {f: namespace.pop(f) for f in ("value", "dual")}[name]

    return Program(n, p, source, own("value"), own("dual"))
