"""Symbolic Hamiltonians on T*T^n (n = 1, 2): parsing, derivatives, stepping.

The expression grammar is deliberately small so that evaluation is total on
phase space:

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" integer)?
    base   := number | "pi" | ident | func "(" expr ")" | "(" expr ")"
    func   := "sin" | "cos" | "exp"
    ident  := "q" | "p" | "q1" | "q2" | "p1" | "p2"

Division is only allowed by constant subexpressions (no q- or p-dependence
in a denominator).  Partial derivatives are taken on the parse tree itself,
with constants folded.  Each evaluator of a HamiltonianSpec is compiled
whole, once, at parse time: one generated numpy function converts its
arguments, unpacks the dim-2 trailing axis, and returns its trees stacked
into one array.  sympy is not used at run time: the tests use it as an
oracle for these derivatives.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .torus import wrap

__all__ = [
    "ExpressionError",
    "IntegratorError",
    "HamiltonianSpec",
    "PeriodicFunction",
    "TonelliReport",
    "parse_hamiltonian",
    "parse_periodic",
    "tonelli_check",
    "shift_momentum",
]

MIDPOINT_TOL = 1e-12
MIDPOINT_MAX_ITERS = 50
PERIODIC_SAMPLES = 5      # per axis of the (q, p) grid the periodicity check samples
PERIODIC_TOL = 1e-9       # relative to 1 + |H|
TONELLI_GRID = 24         # base samples per axis of the Tonelli check
TONELLI_P_MAX = 6.0       # momentum radius the Tonelli check samples

_FUNCS = ("sin", "cos", "exp")
_IDENTS = {1: ("q", "p"), 2: ("q1", "q2", "p1", "p2")}


class ExpressionError(ValueError):
    """Parse or validation failure; carries the source offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class IntegratorError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float
    text: str


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    lhs: object
    rhs: object


@dataclass(frozen=True)
class PowInt:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


def _ast_has_var(node):
    """True if the tree holds a variable."""
    if isinstance(node, Var):
        return True
    if isinstance(node, Neg):
        return _ast_has_var(node.arg)
    if isinstance(node, Bin):
        return _ast_has_var(node.lhs) or _ast_has_var(node.rhs)
    if isinstance(node, PowInt):
        return _ast_has_var(node.base)
    if isinstance(node, Call):
        return _ast_has_var(node.arg)
    return False


# binding strength of each printed form, loosest first; a Neg is printed in
# parentheses wherever a sum would be, since the grammar's unary minus only
# opens an expression
_SUM, _PRODUCT, _UNARY, _POWER, _ATOM = range(5)


def _rank(node):
    if isinstance(node, Neg) or (isinstance(node, Bin) and node.op in "+-"):
        return _SUM
    if isinstance(node, Bin):
        return _PRODUCT
    if isinstance(node, Num) and node.text.startswith("-"):
        return _UNARY
    return _POWER if isinstance(node, PowInt) else _ATOM


def ast_to_text(node, python=False):
    """Canonical re-serialization: parsing the text gives the same tree.

    With ``python`` the text is Python source for a folded tree: ``**`` for
    powers, and a coefficient written as the first factor of its product,
    ``c*a*b``, which Python evaluates as ``(c*a)*b``.
    """
    def operand(child, rank):
        text = ast_to_text(child, python)
        return f"({text})" if _rank(child) < rank else text

    if isinstance(node, Num):
        return node.text
    if isinstance(node, Pi):
        return "pi"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "-" + operand(node.arg, _PRODUCT)
    if isinstance(node, Bin):
        rank = _rank(node)
        op = f" {node.op} " if rank == _SUM else node.op
        coefficient = python and node.op == "*" and isinstance(node.lhs, Num)
        return operand(node.lhs, rank) + op + operand(node.rhs, rank + (not coefficient))
    if isinstance(node, PowInt):
        return f"{operand(node.base, _ATOM)}{'**' if python else '^'}{node.exponent}"
    if isinstance(node, Call):
        return f"{node.func}({ast_to_text(node.arg, python)})"
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Recursive-descent parser; ``q_only`` admits the base coordinates only."""

    def __init__(self, src, dim, q_only=False):
        self.src = src
        self.pos = 0
        self.idents = _IDENTS[dim][:dim] if q_only else _IDENTS[dim]
        self.scope = "a function of q only" if q_only else f"dim {dim}"

    def error(self, message, pos=None):
        raise ExpressionError(message, self.pos if pos is None else pos)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def parse(self):
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            self.error("unexpected trailing input")
        return node

    def expr(self):
        self.skip_ws()
        neg = False
        if self.peek() and self.peek() in "+-":
            neg = self.src[self.pos] == "-"
            self.pos += 1
        node = self.term()
        if neg:
            node = Neg(node)
        while self.peek() and self.peek() in "+-":
            op = self.src[self.pos]
            self.pos += 1
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() and self.peek() in "*/":
            op = self.src[self.pos]
            self.pos += 1
            start = self.pos
            rhs = self.factor()
            if op == "/" and _ast_has_var(rhs):
                self.error("division by a non-constant expression", start)
            node = Bin(op, node, rhs)
        return node

    def factor(self):
        node = self.base()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            sign = 1
            if self.peek() == "-":
                sign = -1
                self.pos += 1
            digits = self._take(str.isdigit)
            if not digits:
                self.error("expected integer exponent", start)
            node = PowInt(node, sign * int(digits))
        return node

    def base(self):
        ch = self.peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            node = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha():
            name = self._take(lambda c: c.isalnum())
            if name == "pi":
                return Pi()
            if name in _FUNCS:
                if self.peek() != "(":
                    self.error(f"expected '(' after {name}")
                self.pos += 1
                arg = self.expr()
                if self.peek() != ")":
                    self.error("expected ')'")
                self.pos += 1
                return Call(name, arg)
            if name in _IDENTS[1] + _IDENTS[2]:
                if name not in self.idents:
                    self.error(f"identifier '{name}' invalid for {self.scope}", start)
                return Var(name)
            self.error(f"unknown identifier '{name}'", start)
        self.error("expected a number, identifier or '('")

    def number(self):
        start = self.pos
        text = self._take(str.isdigit)
        if self.pos < len(self.src) and self.src[self.pos] == ".":
            self.pos += 1
            text += "." + self._take(str.isdigit)
        if self.pos < len(self.src) and self.src[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            exp = ""
            if self.pos < len(self.src) and self.src[self.pos] in "+-":
                exp += self.src[self.pos]
                self.pos += 1
            digits = self._take(str.isdigit)
            if digits:
                text += self.src[mark] + exp + digits
            else:
                self.pos = mark
        if not text or text == ".":
            self.error("malformed number", start)
        return Num(float(text), text)

    def _take(self, pred):
        out = []
        while self.pos < len(self.src) and pred(self.src[self.pos]):
            out.append(self.src[self.pos])
            self.pos += 1
        return "".join(out)


def _substitute(node, mapping):
    """The tree with every variable named in ``mapping`` replaced by its tree."""
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if isinstance(node, Neg):
        return Neg(_substitute(node.arg, mapping))
    if isinstance(node, Bin):
        return Bin(node.op, _substitute(node.lhs, mapping), _substitute(node.rhs, mapping))
    if isinstance(node, PowInt):
        return PowInt(_substitute(node.base, mapping), node.exponent)
    if isinstance(node, Call):
        return Call(node.func, _substitute(node.arg, mapping))
    return node


# ---------------------------------------------------------------------------
# Folding, differentiation and compilation to numpy source
#
# A folded tree is a parse tree with its constants folded left to right, as
# Python evaluates them (2*pi*q is 6.283185307179586*q), with 0 and 1 terms
# dropped, and with every product carrying one leading scalar coefficient:
# Bin("*", Num(c), rest), or Neg(rest) for c = -1.  A division (always by a
# constant) becomes part of that coefficient.  The smart constructors below
# take folded trees to folded trees, so derivatives stay folded.


def _num(value):
    value = float(value)
    return Num(value, repr(value))


_ZERO, _ONE = _num(0.0), _num(1.0)
_NUMPY = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


def _ieee(fn, *args):
    """fn on float64 scalars with IEEE results (inf, nan) instead of exceptions."""
    with np.errstate(all="ignore"):
        return float(fn(*(np.float64(a) for a in args)))


def _coefficient(node):
    """(c, rest) with node = c * rest; rest is None for a constant."""
    if isinstance(node, Num):
        return node.value, None
    if isinstance(node, Neg):
        c, rest = _coefficient(node.arg)
        return -c, rest
    if isinstance(node, Bin) and node.op == "*" and isinstance(node.lhs, Num):
        return node.lhs.value, node.rhs
    return 1.0, node


def _scale(c, rest):
    if rest is None or c == 0:
        return _num(c if rest is None else 0.0)
    if c == 1:
        return rest
    return Neg(rest) if c == -1 else Bin("*", _num(c), rest)


def _times(a, b):
    """Product of two coefficient-free factors, associated to the left."""
    if isinstance(b, Bin) and b.op == "*":
        return Bin("*", _times(a, b.lhs), b.rhs)
    return Bin("*", a, b)


def _mul(a, b):
    ca, ra = _coefficient(a)
    cb, rb = _coefficient(b)
    return _scale(ca * cb, rb if ra is None else ra if rb is None else _times(ra, rb))


def _div(a, b):
    ca, ra = _coefficient(a)
    cb, rb = _coefficient(b)
    if rb is not None:
        raise ValueError("division by a non-constant expression")
    return _scale(_ieee(np.true_divide, ca, cb), ra)


def _neg(a):
    c, rest = _coefficient(a)
    return _scale(-c, rest)


def _add(a, b, sign=1.0):
    """a + sign*b; a negative term is subtracted, which costs no negation."""
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value + sign * b.value)
    if isinstance(b, Num) and b.value == 0:
        return a
    if isinstance(a, Num) and a.value == 0:
        return b if sign > 0 else _neg(b)
    c, rest = _coefficient(b)
    if sign * c < 0:
        return Bin("-", a, _scale(-sign * c, rest))
    return Bin("+", a, _scale(sign * c, rest))


def _pow(a, n):
    if n == 0:
        return _ONE
    c, rest = _coefficient(a)
    cn = _ieee(np.power, c, n)
    if rest is None:
        return _num(cn)
    return _scale(cn, rest if n == 1 else PowInt(rest, n))


def _call(func, a):
    return _num(_ieee(_NUMPY[func], a.value)) if isinstance(a, Num) else Call(func, a)


def _fold(node):
    """Folded tree of a parse tree."""
    if isinstance(node, (Num, Pi)):
        return _num(np.pi if isinstance(node, Pi) else node.value)
    if isinstance(node, Neg):
        return _neg(_fold(node.arg))
    if isinstance(node, Bin):
        lhs, rhs = _fold(node.lhs), _fold(node.rhs)
        if node.op in "+-":
            return _add(lhs, rhs, 1.0 if node.op == "+" else -1.0)
        return _mul(lhs, rhs) if node.op == "*" else _div(lhs, rhs)
    if isinstance(node, PowInt):
        return _pow(_fold(node.base), node.exponent)
    if isinstance(node, Call):
        return _call(node.func, _fold(node.arg))
    return node


def _diff(node, name):
    """Folded partial derivative in the variable ``name`` of a folded tree."""
    if isinstance(node, Var):
        return _ONE if node.name == name else _ZERO
    if isinstance(node, Neg):
        return _neg(_diff(node.arg, name))
    if isinstance(node, Bin):
        dl, dr = _diff(node.lhs, name), _diff(node.rhs, name)
        if node.op in "+-":
            return _add(dl, dr, 1.0 if node.op == "+" else -1.0)
        # a folded tree divides nowhere: this is a product
        return _add(_mul(dl, node.rhs), _mul(node.lhs, dr))
    if isinstance(node, PowInt):
        n = node.exponent
        return _mul(_mul(_num(n), _pow(node.base, n - 1)), _diff(node.base, name))
    if isinstance(node, Call):
        outer = {"sin": Call("cos", node.arg), "cos": Neg(Call("sin", node.arg)),
                 "exp": node}[node.func]
        return _mul(outer, _diff(node.arg, name))
    return _ZERO


_NAMESPACE = {**_NUMPY, "inf": np.inf, "nan": np.nan, "asarray": np.asarray,
              "broadcast": np.broadcast, "empty": np.empty, "full": np.full}


def _compile(name, dim, size, entries, momenta=True):
    """The numpy function ``name(q, p)``, or ``name(q)`` without ``momenta``,
    returning the folded trees ``entries`` ({index: tree}) as one array of
    the batch shape + ``size``.

    The generated source converts each argument to a float array and, in
    dim 2, unpacks its trailing axis, which must have size 2.  A lone
    constant tree fills the batch shape; each entry of a larger array is
    broadcast by its assignment.  The source is compiled once, so a call
    costs its numpy operations and nothing more.
    """
    params = ("q", "p")[:1 + momenta]
    names = _IDENTS[dim][:dim * len(params)]
    lines = [f"{a} = asarray({a}, dtype=float)" for a in params]
    if dim == 2:
        lines += ["if " + " or ".join(f"{a}.shape[-1:] != (2,)" for a in params) + ":",
                  '    raise ValueError("dim-2 Hamiltonian needs trailing axis of size 2")',
                  ", ".join(names) + " = "
                  + ", ".join(f"{a}[..., {i}]" for a in params for i in (0, 1))]
    text = {index: ast_to_text(tree, python=True) for index, tree in entries.items()}
    constant = not size and isinstance(entries[()], Num)
    if size or constant:
        # the first component of each argument (q, p or q1, p1) fixes the batch shape
        lines.append(f"shape = broadcast({', '.join(names[::dim])}).shape")
    if not size:
        lines.append(f"return full(shape, {text[()]})" if constant else f"return {text[()]}")
    else:
        lines += [f"out = empty(shape + {size!r})",
                  *(f"out[..., {', '.join(map(str, i))}] = {t}" for i, t in text.items()),
                  "return out"]
    namespace = dict(_NAMESPACE)
    exec("\n    ".join([f"def {name}({', '.join(params)}):", *lines]) + "\n", namespace)
    return namespace[name]


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class HamiltonianSpec:
    """Parsed Hamiltonian with its vectorized evaluators and derivatives.

    Each evaluator is a function generated once by ``parse_hamiltonian``:
    q and p broadcast to one batch shape, with a trailing axis of size 2 in
    dim 2.  Frozen, with pure evaluators, so one instance is safe to share.
    """

    source: str
    ast: object
    dim: int
    is_mechanical: bool
    value: object = field(repr=False)
    grad_q: object = field(repr=False)
    grad_p: object = field(repr=False)
    hess_pp: object = field(repr=False)
    xh_jacobian: object = field(repr=False)     # of the vector field (dq/dt, dp/dt)
    potential: object = field(repr=False)       # V(q) = H(q, 0), for the splitting integrator
    grad_potential: object = field(repr=False)

    @cached_property
    def tonelli(self):
        """This H's ``tonelli_check`` report, computed once."""
        return tonelli_check(self)


def parse_hamiltonian(src, dim):
    """Parse an expression text into a HamiltonianSpec.

    Raises ExpressionError with the source offset on malformed input, on
    identifiers unknown to the grammar, and on dimension mismatches; and
    with offset 0 when H is not 1-periodic in each base coordinate.
    """
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    ast = _Parser(src, dim).parse()
    trees, mechanical = _symbolic(ast, dim)
    n = dim
    pp, qq, qp = (trees[k] for k in ("d2Hdp2", "d2Hdq2", "d2Hdqdp"))
    pairs = [(i, j) for i in range(n) for j in range(n)]
    vector = lambda comps: (((), {(): comps[0]}) if n == 1
                            else ((n,), {(i,): c for i, c in enumerate(comps)}))
    # row k holds the partials of X_H = (H_p, -H_q)'s k-th component, q first
    jacobian = {}
    for i, j in pairs:
        jacobian.update({(i, j): qp[j][i], (i, n + j): pp[i][j],
                         (n + i, j): _neg(qq[i][j]), (n + i, n + j): _neg(qp[i][j])})
    spec = HamiltonianSpec(
        source=ast_to_text(ast), ast=ast, dim=dim, is_mechanical=mechanical,
        value=_compile("value", dim, (), {(): trees["H"]}),
        grad_q=_compile("grad_q", dim, *vector(trees["dHdq"])),
        grad_p=_compile("grad_p", dim, *vector(trees["dHdp"])),
        hess_pp=_compile("hess_pp", dim, (n, n), {(i, j): pp[i][j] for i, j in pairs}),
        xh_jacobian=_compile("xh_jacobian", dim, (2 * n, 2 * n), jacobian),
        potential=_compile("potential", dim, (), {(): trees["V"]}, momenta=False),
        grad_potential=_compile("grad_potential", dim, *vector(trees["dVdq"]), momenta=False))
    _check_periodic(spec.value, dim, "Hamiltonian")
    return spec


def _symbolic(ast, dim):
    """Folded trees of H, its partials to second order, V = H(q, 0) and V_q,
    and whether H is mechanical.

    H counts as mechanical, |p|^2/2 + V(q), when H_pp = I, H_qp = 0 and
    H_p(q, 0) = 0 all fold to constants.  An H that reaches that form only
    through an identity (sin^2 + cos^2 = 1) takes the implicit midpoint,
    which serves every Tonelli H.
    """
    qs, ps = _IDENTS[dim][:dim], _IDENTS[dim][dim:]
    H = _fold(ast)
    at_rest = {name: _ZERO for name in ps}
    V = _fold(_substitute(H, at_rest))
    dHdq = [_diff(H, s) for s in qs]
    dHdp = [_diff(H, s) for s in ps]
    trees = {
        "H": H,
        "dHdq": dHdq,
        "dHdp": dHdp,
        "d2Hdp2": [[_diff(d, s) for s in ps] for d in dHdp],
        "d2Hdq2": [[_diff(d, s) for s in qs] for d in dHdq],
        "d2Hdqdp": [[_diff(d, s) for s in ps] for d in dHdq],
        "V": V,
        "dVdq": [_diff(V, s) for s in qs],
    }
    mechanical = (
        all(_is_constant(t, i == j) for i, row in enumerate(trees["d2Hdp2"])
            for j, t in enumerate(row))
        and all(_is_constant(t, 0) for row in trees["d2Hdqdp"] for t in row)
        and all(_is_constant(_fold(_substitute(d, at_rest)), 0) for d in dHdp))
    return trees, mechanical


def _is_constant(tree, value):
    return isinstance(tree, Num) and tree.value == value


@dataclass(frozen=True)
class PeriodicFunction:
    """Parsed function of q on T^1, evaluated vectorized."""

    source: str
    _fn: object = field(repr=False)

    def __call__(self, q):
        return self._fn(q)


def parse_periodic(src):
    """Parse expression text in q alone into a 1-periodic function on T^1.

    Raises ExpressionError with the source offset on malformed input and on
    any identifier but q, and with offset 0 when the function is not
    1-periodic.
    """
    ast = _Parser(src, 1, q_only=True).parse()
    fn = _compile("periodic", 1, (), {(): _fold(ast)}, momenta=False)
    _check_periodic(fn, 1, "function", momenta=False)
    return PeriodicFunction(source=ast_to_text(ast), _fn=fn)


def _check_periodic(F, dim, what, momenta=True):
    """Raise ExpressionError unless F is finite and F(q + e_i, ...) = F(q, ...)
    on sampled points.

    F is an evaluator: it takes q, then p when ``momenta``.  The integrators
    wrap q to [0, 1) every step, which would silently turn a non-periodic H
    into one with a discontinuous force.
    """
    n = PERIODIC_SAMPLES
    # golden-section offset: off the rationals where a wrong period's terms vanish
    q = (np.arange(n) + 0.381966) / n
    p = np.linspace(-2.0, 2.0, n)
    grids = np.meshgrid(*([q] * dim + ([p] * dim if momenta else [])), indexing="ij")
    layout = lambda g: [np.stack(g[k:k + dim], axis=-1) if dim == 2 else g[k]
                        for k in range(0, len(g), dim)]
    with np.errstate(all="ignore"):
        base = F(*layout(grids))
        if not np.all(np.isfinite(base)):
            raise ExpressionError(f"{what} is not finite at every sampled point", 0)
        for i in range(dim):
            shifted = list(grids)
            shifted[i] = grids[i] + 1.0
            diff = np.abs(F(*layout(shifted)) - base)
            if not np.all(diff <= PERIODIC_TOL * (1.0 + np.abs(base))):
                name = _IDENTS[dim][i]
                raise ExpressionError(
                    f"{what} is not 1-periodic in {name}: it changes by up to "
                    f"{float(np.max(diff)):.3g} under {name} -> {name} + 1", 0)


def shift_momentum(spec, dw_src):
    """Pull back by the exact symplectomorphism (q, p) -> (q, p + dw(q)).

    ``dw_src`` is expression text in q only (one per momentum component for
    dim 2, as a sequence).  Returns the HamiltonianSpec of H(q, p + dw(q));
    raises ExpressionError when a shift holds a momentum.
    """
    momenta = _IDENTS[spec.dim][spec.dim:]
    if isinstance(dw_src, str):
        dw_src = (dw_src,)
    if len(dw_src) != spec.dim:
        raise ValueError("need one shift expression per momentum component")
    shifted = {m: Bin("+", Var(m), _Parser(s, spec.dim, q_only=True).parse())
               for m, s in zip(momenta, dw_src)}
    return parse_hamiltonian(ast_to_text(_substitute(spec.ast, shifted)), spec.dim)


# ---------------------------------------------------------------------------
# Tonelli diagnostics


@dataclass(frozen=True)
class TonelliReport:
    ok: bool
    min_hessian_eig: float

    def __bool__(self):
        return self.ok


def tonelli_check(spec):
    """Sample fiberwise convexity and superlinearity diagnostics.

    Reports the minimum eigenvalue of the fiberwise Hessian over samples
    with |p| <= TONELLI_P_MAX, and ``ok``: that eigenvalue is positive and
    the growth ratio H/|p| is larger at |p| = TONELLI_P_MAX than at
    TONELLI_P_MAX/2.  Report-only: never raises.
    """
    n = spec.dim
    qs = np.linspace(0.0, 1.0, TONELLI_GRID, endpoint=False)
    # odd count so p = 0 is sampled (degenerate Hessians often sit there)
    ps = np.linspace(-TONELLI_P_MAX, TONELLI_P_MAX, TONELLI_GRID + 1)
    if n == 1:
        Q, P = np.meshgrid(qs, ps, indexing="ij")
    else:
        Q1, Q2, P1, P2 = np.meshgrid(qs, qs, ps, ps, indexing="ij")
        Q = np.stack([Q1, Q2], axis=-1)
        P = np.stack([P1, P2], axis=-1)
    hess = spec.hess_pp(Q, P)
    eigs = np.linalg.eigvalsh(hess.reshape(-1, n, n))
    min_eig = float(np.min(eigs))

    # growth along unit momenta, each broadcast over the base grid: +-1 in
    # dim 1, 16 directions in dim 2
    Qg = qs if n == 1 else np.stack(np.meshgrid(qs, qs, indexing="ij"), axis=-1)
    th = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    dirs = np.array([[1.0], [-1.0]]) if n == 1 else np.stack([np.cos(th), np.sin(th)], axis=-1)

    def ratio(scale):
        return float(np.min([np.min(spec.value(Qg, scale * d)) for d in dirs]) / scale)

    r_half = ratio(TONELLI_P_MAX / 2)
    r_full = ratio(TONELLI_P_MAX)
    return TonelliReport(ok=min_eig > 1e-9 and r_full > r_half + 1e-9,
                         min_hessian_eig=min_eig)


# ---------------------------------------------------------------------------
# Symplectic stepping


def _leapfrog(spec, Q, P, dt, nsteps, accumulate_action=False):
    """Strang splitting for H = |p|^2/2 + V(q); Q is left unwrapped.

    Kick-drift-kick with the closing kick's force carried into the next
    step's opening kick: one wrap and one force evaluation per step, the
    same floats as evaluating both kicks afresh.
    """
    Q, P = (np.array(x, dtype=float) for x in np.broadcast_arrays(Q, P))
    act = np.zeros(Q.shape[: Q.ndim - (spec.dim == 2)]) if accumulate_action else None
    half = 0.5 * dt
    dq = dt if spec.dim == 1 else np.asarray(dt)[..., None]
    half_q = 0.5 * dq
    Qw = wrap(Q)
    F = spec.grad_potential(Qw)
    if accumulate_action:
        g_prev = 0.5 * _sq(P, spec.dim) - spec.potential(Qw)
    for _ in range(nsteps):
        P -= half_q * F
        Q += dq * P
        Qw = wrap(Q)
        F = spec.grad_potential(Qw)
        P -= half_q * F
        if accumulate_action:
            g = 0.5 * _sq(P, spec.dim) - spec.potential(Qw)
            act += half * (g_prev + g)
            g_prev = g
    return (Q, P, act) if accumulate_action else (Q, P)


def _sq(P, dim):
    return P * P if dim == 1 else np.sum(P * P, axis=-1)


def _implicit_midpoint(spec, Q, P, dt, nsteps, accumulate_action=False):
    """Implicit midpoint for any Tonelli H; Q is left unwrapped.

    Each step solves z' = z + dt X_H((z + z')/2) by Newton, row by row: a
    row stops once its own residual is below MIDPOINT_TOL, and the update
    of a stopped row is masked.  A row's floats therefore do not depend on
    its batchmates, as with the leapfrog.
    """
    Q = np.array(Q, dtype=float)
    P = np.array(P, dtype=float)
    n = spec.dim
    act = np.zeros(np.shape(spec.value(wrap(Q), P))) if accumulate_action else None
    dq = dt if n == 1 else np.asarray(dt)[..., None]
    half_jac = 0.5 * np.asarray(dt)[..., None, None]

    def integrand(q, p):
        gp = spec.grad_p(q, p)
        return (p * gp if n == 1 else np.sum(p * gp, axis=-1)) - spec.value(q, p)

    if accumulate_action:
        g_prev = integrand(wrap(Q), P)
    eye = np.eye(2 * n)
    for _ in range(nsteps):
        # Newton on z' = z + dt * X_H((z + z')/2), on (Q, P) rows of 2n unknowns
        Qw = wrap(Q)
        Qn = Q + dq * spec.grad_p(Qw, P)
        Pn = P - dq * spec.grad_q(Qw, P)
        converged = False
        for _ in range(MIDPOINT_MAX_ITERS):
            Qm, Pm = wrap(0.5 * (Q + Qn)), 0.5 * (P + Pn)
            FQ = Qn - Q - dq * spec.grad_p(Qm, Pm)
            FP = Pn - P + dq * spec.grad_q(Qm, Pm)
            res = np.maximum(np.abs(FQ), np.abs(FP))
            live = ~((res if n == 1 else np.max(res, axis=-1)) < MIDPOINT_TOL)
            if not live.any():
                converged = True
                break
            A = eye - half_jac * spec.xh_jacobian(Qm, Pm)
            F = np.concatenate([FQ.reshape(-1, n), FP.reshape(-1, n)], axis=1)
            delta = np.linalg.solve(A.reshape(-1, 2 * n, 2 * n), F[..., None])[..., 0]
            # a converged row keeps its floats (x - 0.0 is x)
            delta[~live.reshape(-1)] = 0.0
            Qn = Qn - delta[:, :n].reshape(np.shape(Qn))
            Pn = Pn - delta[:, n:].reshape(np.shape(Pn))
        if not converged:
            raise IntegratorError(f"implicit midpoint failed to reach {MIDPOINT_TOL} in "
                                  f"{MIDPOINT_MAX_ITERS} iterations")
        Q, P = Qn, Pn
        if accumulate_action:
            g = integrand(wrap(Q), P)
            act += 0.5 * dt * (g_prev + g)
            g_prev = g
    return (Q, P, act) if accumulate_action else (Q, P)


def integrate(spec, Q, P, dt, nsteps, accumulate_action=False):
    """Batch integration of Hamilton's equations; unwrapped base output.

    Splitting scheme for mechanical H, implicit midpoint otherwise.  ``dt``
    is a float or an array of the batch shape (Q's shape without the dim-2
    axis), one step per row; a row's floats do not depend on its
    batchmates, and a row with step dt gives the floats of a scalar-dt call.
    With ``accumulate_action`` the Liouville integrand p . H_p - H is
    accumulated by the trapezoid rule along each trajectory.
    """
    dt = np.asarray(dt, dtype=float)
    batch = np.broadcast_shapes(np.shape(Q), np.shape(P))
    batch = batch[: len(batch) - (spec.dim == 2)]
    if dt.ndim and dt.shape != batch:
        raise ValueError(f"dt has shape {dt.shape}; a step per row needs the batch shape {batch}")
    stepper = _leapfrog if spec.is_mechanical else _implicit_midpoint
    return stepper(spec, Q, P, dt, nsteps, accumulate_action)

