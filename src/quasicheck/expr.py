"""Small arithmetic expression language for scalar functions of x1..xn.

Grammar (highest precedence first):

    unary minus          -u          (binds tighter than ^)
    power                u ^ v       (right associative)
    product / quotient   u * v, u / v
    sum / difference     u + v, u - v

Functions: sin, cos, exp, log, sqrt, abs, min, max, pow. Variables are
written x1..xn and parameters t1..tp (both 1-based; p = 0 unless the
caller declares parameters). No implicit multiplication.

`compile_expr` lowers an AST once to straight-line numpy code whose
intermediate values go to a register file reused by every call. One pass
of it gives the value, forward-mode tangents for every seed direction at
once (the full gradient, or <grad f(x), d>) and a nondifferentiability
mask; the same program serves batch evaluation, where invalid points give
NaN, and strict evaluation, which raises EvalError at the first failing
node. Nondifferentiable points of abs/min/max (exact ties) propagate the
first branch's derivative and set a flag. Parameters are inputs without
a tangent, so one program serves a family, one parameter row per point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ParseError",
    "EvalError",
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
    "eval_expr",
    "eval_dual",
    "DualResult",
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


class EvalError(ArithmeticError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.message = message
        self.pos = pos


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class Const:
    value: float
    pos: int = 0


@dataclass(frozen=True)
class Var:
    index: int  # 1-based
    pos: int = 0


@dataclass(frozen=True)
class Param:
    index: int  # 1-based
    pos: int = 0


@dataclass(frozen=True)
class Unary:
    op: str  # only "-"
    child: "Node"
    pos: int = 0


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"
    pos: int = 0


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    pos: int = 0


Node = Const | Var | Param | Unary | Binary | Call


def ast_equal(a: Node, b: Node) -> bool:
    """Structural equality ignoring source positions."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        return a.value == b.value
    if isinstance(a, (Var, Param)):
        return a.index == b.index
    if isinstance(a, Unary):
        return a.op == b.op and ast_equal(a.child, b.child)
    if isinstance(a, Binary):
        return a.op == b.op and ast_equal(a.left, b.left) and ast_equal(a.right, b.right)
    if isinstance(a, Call):
        return (
            a.name == b.name
            and len(a.args) == len(b.args)
            and all(ast_equal(p, q) for p, q in zip(a.args, b.args))
        )
    raise TypeError(type(a))


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
            node = Binary(t.text, node, rhs, t.pos)
        return node

    def parse_term(self) -> Node:
        node = self.parse_power()
        while (t := self.peek()) is not None and t.text in ("*", "/"):
            self.next()
            rhs = self.parse_power()
            node = Binary(t.text, node, rhs, t.pos)
        return node

    def parse_power(self) -> Node:
        # unary minus binds tighter than ^; ^ is right associative
        base = self.parse_signed()
        t = self.peek()
        if t is not None and t.text == "^":
            self.next()
            exponent = self.parse_power()
            return Binary("^", base, exponent, t.pos)
        return base

    def parse_signed(self) -> Node:
        t = self.peek()
        if t is not None and t.text == "-":
            self.next()
            return Unary("-", self.parse_signed(), t.pos)
        return self.parse_primary()

    def parse_primary(self) -> Node:
        t = self.next()
        if t is None:
            raise ParseError("unexpected end of input", self.end)
        if t.kind == "number":
            value = float(t.text)
            if not np.isfinite(value):
                raise ParseError(f"number {t.text} overflows to infinity", t.pos)
            return Const(value, t.pos)
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
                return Var(index, t.pos)
            m = _PARAM_RE.match(t.text)
            if m:
                index = int(m.group(1))
                if index > self.params:
                    raise ParseError(f"parameter t{index} exceeds the "
                                     f"{self.params} declared parameters", t.pos)
                return Param(index, t.pos)
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
                return Call(t.text, tuple(args), t.pos)
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
# tangents (..., m); x_j = X[..., j-1, None] and its tangent is row j of
# the seed S (n, m). A value that depends on x, except the result, is
# written into a register of the program's register file R (see
# `_assign_registers`), so a call allocates no array for it.
# Parameter t_j is p_j = T[..., j-1, None], broadcast against the points,
# with no tangent. Derivatives mirror the dual-number rules term for term;
# subtrees free of x carry no tangent and no flag. Strict checks precede
# the node they guard. The source holds only numbers and generated names.

_MESSAGES = ("division by zero", "log of non-positive value",
             "sqrt of negative value", "pow requires positive base",
             "zero raised to a negative power",
             "non-integer power of non-positive base")


def _fail(kind: int, pos: int):
    raise EvalError(_MESSAGES[kind], pos)


_NAMESPACE = {
    "_fail": _fail, "_any": np.any, "_F": np.float64, "_full": np.full,
    "_copy": np.copy,
    "_bshape": lambda a, b: np.broadcast_shapes(np.shape(a), np.shape(b)),
    "inf": np.inf, "nan": np.nan, "negative": np.negative, "add": np.add,
    "subtract": np.subtract, "multiply": np.multiply, "divide": np.divide,
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "absolute": np.absolute, "minimum": np.minimum, "maximum": np.maximum,
    "power": np.power, "where": np.where,
}

# op: (value, tangent, check, tangent terms, tie test). A value template is
# one ufunc call, so that a register can be given as its out=. Templates see the
# operand values a, b and tangents ta, tb (0.0 when zero), this value v,
# w = a with non-positive entries as NaN, and k, pk for k * a^(k-1). Terms
# whose tangent is zero are dropped; the rest fill the tangent's {}. A
# check is (index into _MESSAGES, failing condition). Ties of abs/min/max
# keep the first branch's derivative and set the flag.
_TA = [("", "{ta}")]
_POW = ("power({w}, {bx})", "{v} * ({})")
_POW_TERMS = [("", "{tb} * log({w})"), (" + ", "{b} * {ta} / {w}")]
_RULES = {
    "neg": ("negative({a})", "-{}"),
    "+": ("add({a}, {b})", "{}", None, [("", "{ta}"), (" + ", "{tb}")]),
    "-": ("subtract({a}, {b})", "{}", None, [("", "{ta}"), (" - ", "{tb}")]),
    "*": ("multiply({a}, {b})", "{}", None, [("", "{ta} * {b}"), (" + ", "{a} * {tb}")]),
    "/": ("divide({a}, {b})", "({}) / ({b} * {b})", (0, "{b} == 0"),
          [("", "{ta} * {b}"), (" - ", "{a} * {tb}")]),
    "^0": ("power({a}, 0.0)", None, None, []),
    "^+": ("power({a}, {k})", "{k} * {pk} * {}"),
    "^-": ("power({a}, {k})", "{k} * {pk} * {}", (4, "{a} == 0")),
    "^": _POW + ((5, "{a} <= 0"), _POW_TERMS),
    "pow": _POW + ((3, "{a} <= 0"), _POW_TERMS),
    "sin": ("sin({a})", "cos({a}) * {}"),
    "cos": ("cos({a})", "-sin({a}) * {}"),
    "exp": ("exp({a})", "{v} * {}"),
    "log": ("log({a})", "{} / {a}", (1, "{a} <= 0")),
    "sqrt": ("sqrt({a})", "{} / (2.0 * {v})", (2, "{a} < 0")),
    "abs": ("absolute({a})", "where({a} >= 0, {ta}, -{ta})", None, _TA, "{a} == 0"),
    "min": ("minimum({a}, {b})", "where({a} <= {b}, {ta}, {tb})", None,
            _TA + [("", "{tb}")], "{a} == {b}"),
    "max": ("maximum({a}, {b})", "where({a} >= {b}, {ta}, {tb})", None,
            _TA + [("", "{tb}")], "{a} == {b}"),
}


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
        self.partial = False   # has a domain-restricted operation

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
            return self.node(e, "neg", [self.lower(e.child)])
        if isinstance(e, Call):
            return self.node(e, e.name, [self.lower(a) for a in e.args])
        k = _int_exponent(e.right) if e.op == "^" else None
        if k is None:
            return self.node(e, e.op, [self.lower(e.left), self.lower(e.right)])
        a = self.lower(e.left)
        # x^1 is exact, so k * x^(k-1) needs no power call when k == 2
        pk = a.v if k == 2 else f"power({a.v}, {float(k - 1)!r})"
        op = "^0" if k == 0 else "^+" if k > 0 else "^-"
        return self.node(e, op, [a], k=repr(float(k)), pk=pk)

    def node(self, e: Node, op: str, ops: list[_Slot], **fmt) -> _Slot:
        var = any(s.var for s in ops)
        par = any(s.par for s in ops)
        if not (var or par):   # constant subtree: numpy scalar semantics
            ops = [_Slot(s.v if s.v in self.temps else f"_F({s.v})") for s in ops]
        rule = _RULES[op]   # fill in the defaults of a short rule
        value, tangent, check, terms, tie = rule + (None, _TA, None)[len(rule) - 2:]
        a, b = (ops + [_Slot("")])[:2]
        out = _Slot(self.new("v"), None, None, var, par)
        if var:
            self.var_values.add(out.v)
        fmt.update(a=a.v, b=b.v, v=out.v, ta=a.t or "0.0", tb=b.t or "0.0")
        lines = self.lines
        if check:
            self.partial = True
            lines.append((False, f"if strict and _any({check[1].format(**fmt)}): "
                                 f"_fail({check[0]}, {e.pos})"))
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
    value(X, strict) gives f; dual(X, S, strict) gives (values, tangents
    broadcastable to X.shape[:-1] + (m,) or None when zero, tie flags or
    None). With p > 0 both take the parameters T last, of shape (..., p)
    broadcastable against X.shape[:-1]: one vector, or one per point row.
    Both write their intermediate values into one register file that the
    program keeps for all its calls, so a call must not overlap another
    (no use from two threads at once); what they return is their own."""

    n: int
    p: int
    source: str
    kinks: bool     # abs/min/max of x: the flag can be set
    partial: bool   # some operation is restricted to a domain
    value: Callable
    dual: Callable
    seed: np.ndarray   # identity seed for full gradients


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
    seeds = [f"s{j} = S[{j - 1}]" for j in sorted(L.variables)]
    value = views + [text for dual, text in lines if not dual] + [f"return {ret}"]
    dual = views + seeds + [text for _, text in lines] \
        + [f"return {ret}, {root.t}, {flags}"]
    T = ", T" if p else ""
    source = "".join(f"def {name}:\n" + "".join(f"    {t}\n" for t in body)
                     for name, body in ((f"value(X, strict{T})", value),
                                        (f"dual(X, S, strict{T})", dual)))
    namespace = dict(_NAMESPACE, _registers=_RegisterFile(registers))
    exec(compile(source, "<quasicheck expression>", "exec"), namespace)
    return Program(n, p, source, root.f is not None, L.partial,
                   namespace["value"], namespace["dual"], np.eye(n))


def eval_expr(e, x) -> float:
    """Strict evaluation at one point, run as a batch of one; raises
    EvalError with the node position."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        return float(compile_expr(e, x.shape[-1]).value(x, True))


@dataclass(frozen=True)
class DualResult:
    value: float
    deriv: float
    nondiff: bool


def eval_dual(e, x, d) -> DualResult:
    """Value and directional derivative <grad f(x), d> at a point, strict."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    if x.shape != d.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {d.shape}")
    with np.errstate(all="ignore"):
        val, der, flag = compile_expr(e, x.shape[-1]).dual(x, d[:, None], True)
    return DualResult(float(val), 0.0 if der is None else float(der[0]),
                      flag is not None and bool(flag))
