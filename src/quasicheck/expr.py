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
numpy functions whose intermediate values go to a register file reused by
every call: `value(X)` gives f at a batch of points, and one pass of
`dual(X)` gives the values, the full gradient in forward mode (a tangent
per coordinate, all at once) and a nondifferentiability mask. Nothing
raises: a point outside the expression's domain evaluates to NaN or an
infinity (`Program.partial` says whether one can exist). Nondifferentiable
points of abs/min/max (exact ties) propagate the first branch's
derivative and set a flag. Parameters are inputs without a tangent, so
one program serves a family, one parameter row per point.
"""

from __future__ import annotations

import math
import re
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
    node = parser.parse_expr()
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
# One temporary per node, in left-first post-order. Values have shape
# (..., 1), one point being a batch of one, so they broadcast against
# tangents (..., n); x_j = X[..., j-1, None] and its tangent s_j is row j
# of the identity, a constant of the program. A value that depends on x,
# except the result, is written into a register of the program's register
# file R (see `_assign_registers`), so a call allocates no array for it.
# Parameter t_j is p_j = T[..., j-1, None], broadcast against the points,
# with no tangent. Derivatives mirror the dual-number rules term for term;
# subtrees free of x carry no tangent and no flag. Nothing is checked:
# numpy's IEEE results make an invalid point NaN (or infinite). The source
# holds only numbers and generated names.

_NAMESPACE = {
    "_F": np.float64, "_full": np.full, "_copy": np.copy,
    "_bshape": lambda a, b: np.broadcast_shapes(np.shape(a), np.shape(b)),
    "inf": np.inf, "nan": np.nan, "negative": np.negative, "add": np.add,
    "subtract": np.subtract, "multiply": np.multiply, "divide": np.divide,
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "absolute": np.absolute, "minimum": np.minimum, "maximum": np.maximum,
    "power": np.power, "where": np.where,
}

# op: (value, tangent, tangent terms, tie test). A value template is one
# ufunc call, so that a register can be given as its out=. Templates see the
# operand values a, b and tangents ta, tb (0.0 when zero), this value v,
# w = a with non-positive entries as NaN, and k, pk for k * a^(k-1). Terms
# whose tangent is zero are dropped; the rest fill the tangent's {}. Ties
# of abs/min/max keep the first branch's derivative and set the flag.
_TA = [("", "{ta}")]
_POW = ("power({w}, {bx})", "{v} * ({})",
        [("", "{tb} * log({w})"), (" + ", "{b} * {ta} / {w}")])
_RULES = {
    "neg": ("negative({a})", "-{}"),
    "+": ("add({a}, {b})", "{}", [("", "{ta}"), (" + ", "{tb}")]),
    "-": ("subtract({a}, {b})", "{}", [("", "{ta}"), (" - ", "{tb}")]),
    "*": ("multiply({a}, {b})", "{}", [("", "{ta} * {b}"), (" + ", "{a} * {tb}")]),
    "/": ("divide({a}, {b})", "({}) / ({b} * {b})",
          [("", "{ta} * {b}"), (" - ", "{a} * {tb}")]),
    "^0": ("power({a}, 0.0)", None, []),
    "^+": ("power({a}, {k})", "{k} * {pk} * {}"),
    "^-": ("power({a}, {k})", "{k} * {pk} * {}"),
    "^": _POW,
    "pow": _POW,
    "sin": ("sin({a})", "cos({a}) * {}"),
    "cos": ("cos({a})", "-sin({a}) * {}"),
    "exp": ("exp({a})", "{v} * {}"),
    "log": ("log({a})", "{} / {a}"),
    "sqrt": ("sqrt({a})", "{} / (2.0 * {v})"),
    "abs": ("absolute({a})", "where({a} >= 0, {ta}, -{ta})", _TA, "{a} == 0"),
    "min": ("minimum({a}, {b})", "where({a} <= {b}, {ta}, {tb})",
            _TA + [("", "{tb}")], "{a} == {b}"),
    "max": ("maximum({a}, {b})", "where({a} >= {b}, {ta}, {tb})",
            _TA + [("", "{tb}")], "{a} == {b}"),
}
# the operations whose domain is not all of R: a zero divisor or base of a
# negative power, a non-positive base of a general power or log argument,
# a negative sqrt argument
_PARTIAL = {"/", "^-", "^", "pow", "log", "sqrt"}


class _RegisterFile:
    """The registers of one compiled program: one buffer that every call
    reuses, grown when a call needs more. Calls must not overlap, so a
    program must not run in two threads at once."""

    def __init__(self, count: int):
        self.count = count
        self.buffer = np.empty(0)

    def __call__(self, shape: tuple) -> np.ndarray:
        size = self.count * math.prod(shape)
        if self.buffer.size < size:
            self.buffer = np.empty(size)
        return self.buffer[:size].reshape((self.count, *shape))


def _assign_registers(lines, names):
    """Give each value temporary in `names` a register of R from its
    assignment to its `del`, and make its node write there with out=.
    A node takes over the register of an operand whose last use it is,
    unless one of the node's own dual lines, which follow its value line,
    still reads that operand (the tangent cos(a) of sin(a)).
    Returns the lines and the number of registers."""
    slot, free, out, count = {}, [], [], 0
    for i, (dual, text) in enumerate(lines):
        name, _, call = text.partition(" = ")
        if not dual and name in names:
            reads, released = set(), []
            for later_dual, later in lines[i + 1:]:
                if later_dual:
                    reads.update(re.findall(r"\w+", later))
                elif later.startswith("del "):
                    released = later[4:].split(", ")
                else:
                    break
            taken = [n for n in released if n in slot and n not in reads]
            if not (taken or free):
                free.append(count)
                count += 1
            slot[name] = slot.pop(taken[0]) if taken else free.pop()
            text = f"{name} = {call[:-1]}, out=R[{slot[name]}])"
        elif not dual and text.startswith("del "):
            free += [slot.pop(n) for n in text[4:].split(", ") if n in slot]
        out.append((dual, text))
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
    t: str | None = None   # tangent name; None means identically zero
    f: str | None = None   # nondifferentiability flag name
    var: bool = False      # depends on x
    par: bool = False      # depends on a parameter


class _Lowering:
    """Collects (dual_only, line) pairs; the value program skips dual lines."""

    def __init__(self):
        self.lines: list[tuple[bool, str]] = []
        self.temps: set[str] = set()
        self.variables: set[int] = set()
        self.params: set[int] = set()
        self.var_values: set[str] = set()   # value temporaries that depend on x
        self.partial = False   # has an operation with a domain (_PARTIAL)

    def new(self, prefix: str, dual_expr: str | None = None) -> str:
        """A fresh temporary; with `dual_expr`, assigned in the dual program."""
        name = f"{prefix}{len(self.temps) + 1}"
        self.temps.add(name)
        if dual_expr is not None:
            self.lines.append((True, f"{name} = {dual_expr}"))
        return name

    def lower(self, e: Node) -> _Slot:
        if isinstance(e, Const):
            lit = repr(float(e.value))
            return _Slot(f"({lit})" if lit.startswith("-") else lit)
        if isinstance(e, Var):
            self.variables.add(e.index)
            return _Slot(f"x{e.index}", f"s{e.index}", None, True)
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
        # x^1 is exact, so k * x^(k-1) needs no power call when k == 2
        pk = a.v if k == 2 else f"power({a.v}, {float(k - 1)!r})"
        op = "^0" if k == 0 else "^+" if k > 0 else "^-"
        return self.node(op, [a], k=repr(float(k)), pk=pk)

    def node(self, op: str, ops: list[_Slot], **fmt) -> _Slot:
        var = any(s.var for s in ops)
        par = any(s.par for s in ops)
        if not (var or par):   # constant subtree: numpy scalar semantics
            ops = [_Slot(s.v if s.v in self.temps else f"_F({s.v})") for s in ops]
        rule = _RULES[op]   # fill in the defaults of a short rule
        value, tangent, terms, tie = rule + (_TA, None)[len(rule) - 2:]
        a, b = (ops + [_Slot("")])[:2]
        out = _Slot(self.new("v"), None, None, var, par)
        if var:
            self.var_values.add(out.v)
        fmt.update(a=a.v, b=b.v, v=out.v, ta=a.t or "0.0", tb=b.t or "0.0")
        lines = self.lines
        self.partial |= op in _PARTIAL
        if "{w}" in value:
            fmt["w"] = w = self.new("w")
            lines.append((False, f"{w} = where({a.v} > 0, {a.v}, nan)"))
            # numpy's power takes a shortcut for exponents -1, 0.5 and 2 when
            # the exponent's stride is 0 (a constant, or x_j at one point);
            # a fresh array makes every shape round alike
            fmt["bx"] = f"_copy({b.v})" if b.var else \
                f"_full(_bshape({w}, {b.v}), {b.v})" if b.par else \
                f"_full({w}.shape, {b.v})"
        lines.append((False, f"{out.v} = {value.format(**fmt)}"))
        terms = [(sep, t) for sep, t in terms if (a.t if "{ta}" in t else b.t)]
        if terms:
            body = "".join(sep + t for sep, t in terms).format(**fmt)
            body = "0.0" + body if terms[0][0] == " - " else body.removeprefix(" + ")
            out.t = tangent.format(body, **fmt)
            if not out.t.isidentifier():
                out.t = self.new("t", out.t)
        flags = [f for f in (a.f, b.f) if f]
        if tie and var:
            flags.append(self.new("f", tie.format(**fmt)))
        if len(flags) > 1:
            flags = [self.new("f", " | ".join(flags))]
        out.f = flags[0] if flags else None
        # release each operand temporary at its last use, which was here
        kept = {out.v, out.t, out.f}
        for dual, names in ((False, [s.v for s in ops] + [fmt.get("w")]),
                            (True, [n for s in ops for n in (s.t, s.f)])):
            names = [n for n in names if n in self.temps and n not in kept]
            if names:
                lines.append((dual, f"del {', '.join(names)}"))
        return out


@dataclass(frozen=True, eq=False)
class Program:
    """An expression compiled for points in R^n with p parameters.
    value(X) gives f at the points X (..., n); dual(X) gives (values,
    gradients broadcastable to X.shape[:-1] + (n,) or None when zero, tie
    flags or None). With p > 0 both take the parameters T last, of shape
    (..., p) broadcastable against X.shape[:-1]: one vector, or one per
    point row. A point outside the expression's domain gives a NaN (or
    infinite) value. Both write their intermediate values into one
    register file that the program keeps for all its calls, so a call must
    not overlap another (no use from two threads at once); what they
    return is their own, except that a gradient may be a read-only row of
    the identity."""

    n: int
    p: int
    source: str
    partial: bool   # some operation has a domain: invalid points can exist
    value: Callable
    dual: Callable


def compile_expr(e: Node, n: int, p: int = 0) -> Program:
    """Lower `e` once to straight-line numpy code over points in R^n and
    parameters in R^p."""
    L = _Lowering()
    root = L.lower(e)
    if max(L.variables, default=0) > n:
        raise ValueError("expression references a variable beyond the dimension")
    if max(L.params, default=0) > p:
        raise ValueError("expression references a parameter beyond the count")
    shape = "X.shape[:-1]"
    # a bare x_j is a view of the caller's points: its value is a copy
    ret = f"{root.v}.reshape({shape})" if root.var and root.v in L.temps \
        else f"_full({shape}, {root.v}[..., 0])" if root.var or root.par \
        else f"_full({shape}, {root.v})"
    flags = f"{root.f}.reshape({shape})" if root.f else "None"
    lines, registers = _assign_registers(L.lines, L.var_values - {root.v})
    views = [f"x{j} = X[..., {j - 1}, None]" for j in sorted(L.variables)]
    views += [f"p{j} = T[..., {j - 1}, None]" for j in sorted(L.params)]
    if registers:
        views.append(f"R = _registers({shape} + (1,))")
    value = views + [text for dual, text in lines if not dual] + [f"return {ret}"]
    dual = views + [text for _, text in lines] + [f"return {ret}, {root.t}, {flags}"]
    T = ", T" if p else ""
    source = "".join(f"def {name}(X{T}):\n" + "".join(f"    {t}\n" for t in body)
                     for name, body in (("value", value), ("dual", dual)))
    seeds = np.eye(n)
    seeds.flags.writeable = False
    namespace = dict(_NAMESPACE, _registers=_RegisterFile(registers))
    namespace.update((f"s{j}", seeds[j - 1]) for j in L.variables)
    exec(compile(source, "<quasicheck expression>", "exec"), namespace)
    return Program(n, p, source, L.partial, namespace["value"], namespace["dual"])
