"""Functions and maps on points with even and odd coordinates.

A function of m even and n odd variables is stored through its coefficient
family: f(x, theta) = sum_a theta^a u_a(x), the odd monomial theta^a written
to the LEFT of the coefficient.  Each u_a is a body-smooth function supplied
with derivatives (exact expression trees, or a 4th-order finite-difference
fallback limited to total order 4).  Evaluation continues each coefficient off
the body by its finite Taylor series in the nilpotent part, so the result is
exact in the finite-generator algebra whenever the derivative oracle is exact.

Maps between such coordinate systems compose by evaluation, and their
Jacobians are read exactly from one evaluation in which every source slot is
seeded with fresh nilpotent generators (grassmann.seed).  A map with
invertible body Jacobian is inverted by a Newton/Picard iteration that
terminates on the nilpotent part after at most L steps.
"""

from __future__ import annotations

import ast
import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .grassmann import (
    GrassmannDomainError,
    GrassmannError,
    Supernumber,
    max_abs,
    one,
    scalar,
    seed,
    seed_parts,
    soul,
    zero,
)
from .superlinalg import Supermatrix, _node_array, _per_node

__all__ = [
    "Expr",
    "parse_expression",
    "ExprFunction",
    "NumericBodyFunction",
    "BodyFunction",
    "const_body",
    "expr_body",
    "continue_body",
    "SuperPoint",
    "SuperFunction",
    "SuperMap",
    "identity_map",
    "evaluate",
    "partial",
    "compose",
    "invert_map",
    "cr_residual",
    "map_body_jacobian",
    "map_super_jacobian",
    "OrderError",
]


class OrderError(GrassmannError):
    """A derivative order beyond the oracle's capability was requested."""


# ---------------------------------------------------------------------------
# expression trees with exact differentiation
# ---------------------------------------------------------------------------

class Expr:
    __slots__ = ()

    def diff(self, j: int) -> "Expr":
        raise NotImplementedError

    def value(self, q: Sequence[complex]) -> complex:
        raise NotImplementedError


@dataclass(frozen=True)
class _Const(Expr):
    c: complex

    def diff(self, j):
        return _Const(0j)

    def value(self, q):
        return self.c


@dataclass(frozen=True)
class _Var(Expr):
    j: int

    def diff(self, j):
        return _Const(1.0 + 0j) if j == self.j else _Const(0j)

    def value(self, q):
        v = q[self.j]
        return v if isinstance(v, np.ndarray) else complex(v)


def _is_const(e: Expr, c=None) -> bool:
    return isinstance(e, _Const) and (c is None or e.c == c)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0j):
        return b
    if _is_const(b, 0j):
        return a
    if _is_const(a) and _is_const(b):
        return _Const(a.c + b.c)
    return _Add(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0j) or _is_const(b, 0j):
        return _Const(0j)
    if _is_const(a, 1.0 + 0j):
        return b
    if _is_const(b, 1.0 + 0j):
        return a
    if _is_const(a) and _is_const(b):
        return _Const(a.c * b.c)
    return _Mul(a, b)


def _neg(a: Expr) -> Expr:
    return _mul(_Const(-1.0 + 0j), a)


@dataclass(frozen=True)
class _Add(Expr):
    a: Expr
    b: Expr

    def diff(self, j):
        return _add(self.a.diff(j), self.b.diff(j))

    def value(self, q):
        return self.a.value(q) + self.b.value(q)


@dataclass(frozen=True)
class _Mul(Expr):
    a: Expr
    b: Expr

    def diff(self, j):
        return _add(_mul(self.a.diff(j), self.b), _mul(self.a, self.b.diff(j)))

    def value(self, q):
        return self.a.value(q) * self.b.value(q)


@dataclass(frozen=True)
class _Pow(Expr):
    base: Expr
    n: int

    def diff(self, j):
        if self.n == 0:
            return _Const(0j)
        inner = self.base.diff(j)
        if self.n == 1:
            return inner
        return _mul(_mul(_Const(complex(self.n)), _Pow(self.base, self.n - 1)), inner)

    def value(self, q):
        return self.base.value(q) ** self.n


# scalar and per-node forms of each function
_CALL_VALUE = {
    "sin": (cmath.sin, np.sin),
    "cos": (cmath.cos, np.cos),
    "exp": (cmath.exp, np.exp),
    "log": (cmath.log, np.log),
    "sqrt": (cmath.sqrt, np.sqrt),
}


@dataclass(frozen=True)
class _Call(Expr):
    name: str
    arg: Expr

    def diff(self, j):
        d = self.arg.diff(j)
        if self.name == "sin":
            outer: Expr = _Call("cos", self.arg)
        elif self.name == "cos":
            outer = _neg(_Call("sin", self.arg))
        elif self.name == "exp":
            outer = _Call("exp", self.arg)
        elif self.name == "log":
            outer = _Pow(self.arg, -1)
        elif self.name == "sqrt":
            outer = _mul(_Const(0.5 + 0j), _Pow(_Call("sqrt", self.arg), -1))
        else:  # pragma: no cover
            raise GrassmannError(f"unknown call {self.name}")
        return _mul(outer, d)

    def value(self, q):
        v = self.arg.value(q)
        one_node, per_node = _CALL_VALUE[self.name]
        return per_node(v) if isinstance(v, np.ndarray) else one_node(v)


def parse_expression(text: str, m: int) -> Expr:
    """Parse an expression in variables q1..qm (x1..xm also accepted).

    Supported: + - * / ** (or ^), integer powers, complex literals (1j),
    sin/cos/exp/log/sqrt.
    """
    name_map = {}
    for j in range(m):
        name_map[f"q{j + 1}"] = j
        name_map[f"x{j + 1}"] = j
    try:
        node = ast.parse(text.replace("^", "**"), mode="eval").body
    except SyntaxError as exc:
        raise GrassmannError(f"cannot parse expression {text!r}: {exc}") from exc

    def build(nd) -> Expr:
        if isinstance(nd, ast.Constant) and isinstance(nd.value, (int, float, complex)):
            return _Const(complex(nd.value))
        if isinstance(nd, ast.Name):
            if nd.id in name_map:
                return _Var(name_map[nd.id])
            raise GrassmannError(f"unknown variable {nd.id!r} (have q1..q{m})")
        if isinstance(nd, ast.UnaryOp):
            if isinstance(nd.op, ast.USub):
                return _neg(build(nd.operand))
            if isinstance(nd.op, ast.UAdd):
                return build(nd.operand)
        if isinstance(nd, ast.BinOp):
            if isinstance(nd.op, ast.Pow):
                expo = build(nd.right)
                if not (_is_const(expo) and expo.c.imag == 0
                        and float(expo.c.real).is_integer()):
                    raise GrassmannError("only integer exponents are supported")
                return _Pow(build(nd.left), int(expo.c.real))
            l, r = build(nd.left), build(nd.right)
            if isinstance(nd.op, ast.Add):
                return _add(l, r)
            if isinstance(nd.op, ast.Sub):
                return _add(l, _neg(r))
            if isinstance(nd.op, ast.Mult):
                return _mul(l, r)
            if isinstance(nd.op, ast.Div):
                return _mul(l, _Pow(r, -1))
        if isinstance(nd, ast.Call) and isinstance(nd.func, ast.Name):
            if nd.func.id in _CALL_VALUE and len(nd.args) == 1 and not nd.keywords:
                return _Call(nd.func.id, build(nd.args[0]))
            raise GrassmannError(f"unsupported call {ast.dump(nd.func)}")
        raise GrassmannError(f"unsupported syntax in expression: {ast.dump(nd)}")

    return build(node)


# ---------------------------------------------------------------------------
# body-function oracles
# ---------------------------------------------------------------------------

class BodyFunction:
    """Value plus mixed partial derivatives of a function of m body variables."""

    m: int

    def value(self, q: Sequence[complex]) -> complex:
        return self.deriv_value((0,) * self.m, q)

    def deriv_value(self, alpha: Tuple[int, ...], q: Sequence[complex]) -> complex:
        raise NotImplementedError

    def deriv_batch(self, alpha: Tuple[int, ...], q: Sequence) -> np.ndarray:
        """deriv_value at every node of a batch (see grassmann); q holds one
        array of nodes, or one value shared by all nodes, per variable.

        This default calls deriv_value one node at a time; a subclass whose
        deriv_value takes arrays directly overrides it.
        """
        size = next(v.size for v in q if isinstance(v, np.ndarray))
        nodes = zip(*(np.broadcast_to(v, (size,)) for v in q))
        return np.array([self.deriv_value(alpha, node) for node in nodes], dtype=complex)

    def diff(self, j: int) -> "BodyFunction":
        raise NotImplementedError


class ExprFunction(BodyFunction):
    """Exact symbolic derivatives from an expression tree."""

    def __init__(self, expr: Expr | str, m: int):
        self.m = m
        self.expr = parse_expression(expr, m) if isinstance(expr, str) else expr
        self._cache: Dict[Tuple[int, ...], Expr] = {(0,) * m: self.expr}

    def _expr_for(self, alpha: Tuple[int, ...]) -> Expr:
        alpha = tuple(alpha)
        got = self._cache.get(alpha)
        if got is not None:
            return got
        # peel one derivative off the first nonzero slot
        j = next(i for i, k in enumerate(alpha) if k)
        down = list(alpha)
        down[j] -= 1
        e = self._expr_for(tuple(down)).diff(j)
        self._cache[alpha] = e
        return e

    def deriv_value(self, alpha, q):
        return self._expr_for(tuple(alpha)).value(q)

    deriv_batch = deriv_value

    def diff(self, j):
        return ExprFunction(self.expr.diff(j), self.m)


def expr_body(text: str, m: int) -> ExprFunction:
    return ExprFunction(text, m)


def const_body(c: complex, m: int) -> ExprFunction:
    return ExprFunction(_Const(complex(c)), m)


_FD_STEPS = {1: 1e-5, 2: 2e-4, 3: 1.5e-3, 4: 6e-3}
_FD_MAX_ORDER = 4


class NumericBodyFunction(BodyFunction):
    """Finite-difference oracle around a plain callable.

    4th-order central differences; mixed/higher orders nest.  Only legal when
    the total requested order stays <= 4 (the step sizes are tuned for that),
    i.e. when the evaluation point's nilpotent part has degree <= 4.  The
    callable sees one node at a time, also for a batch of nodes.
    """

    def __init__(self, fn: Callable[[Sequence[complex]], complex], m: int,
                 base_alpha: Tuple[int, ...] | None = None):
        self.m = m
        self.fn = fn
        self.base_alpha = tuple(base_alpha or (0,) * m)

    def deriv_value(self, alpha, q):
        total_alpha = tuple(a + b for a, b in zip(self.base_alpha, alpha))
        order = sum(total_alpha)
        if order > _FD_MAX_ORDER:
            raise OrderError(
                f"finite-difference oracle supports total order <= {_FD_MAX_ORDER}, "
                f"got {order}"
            )
        scale = max(1.0, max((abs(v) for v in q), default=0.0))
        return self._nested(total_alpha, tuple(complex(v) for v in q), scale)

    def _nested(self, alpha, q, scale):
        order = sum(alpha)
        if order == 0:
            return complex(self.fn(q))
        j = next(i for i, k in enumerate(alpha) if k)
        down = list(alpha)
        down[j] -= 1
        down = tuple(down)
        h = _FD_STEPS[order] * scale

        def at(delta):
            qq = list(q)
            qq[j] += delta
            return self._nested(down, tuple(qq), scale)

        return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)

    def diff(self, j):
        up = list(self.base_alpha)
        up[j] += 1
        return NumericBodyFunction(self.fn, self.m, tuple(up))


class _ScaledBody(BodyFunction):
    def __init__(self, inner: BodyFunction, factor: complex):
        self.m = inner.m
        self.inner = inner
        self.factor = complex(factor)

    def deriv_value(self, alpha, q):
        return self.factor * self.inner.deriv_value(alpha, q)

    def deriv_batch(self, alpha, q):
        return self.factor * self.inner.deriv_batch(alpha, q)

    def diff(self, j):
        return _ScaledBody(self.inner.diff(j), self.factor)


# ---------------------------------------------------------------------------
# Grassmann continuation
# ---------------------------------------------------------------------------

def continue_body(bf: BodyFunction, xs: Sequence[Supernumber], L: int | None = None) -> Supernumber:
    """Finite Taylor continuation of a body function to even arguments.

    f(x) = sum_alpha  f^(alpha)(body x) / alpha! * prod_j soul(x_j)^alpha_j,
    which terminates by nilpotency.  A term is skipped only when its
    derivative vanishes at every node of a batch.
    """
    if len(xs) != bf.m:
        raise GrassmannError(f"expected {bf.m} even arguments, got {len(xs)}")
    if L is None:
        L = max((x.L for x in xs), default=0)
    xs = [x.embed(L) for x in xs]
    q = tuple(x.body for x in xs)
    batch = any(isinstance(v, np.ndarray) for v in q)
    deriv = bf.deriv_batch if batch else bf.deriv_value
    pow_lists: List[List[Supernumber]] = []
    for x in xs:
        s = soul(x)
        plist = [one(L)]
        p = one(L)
        for _ in range(L):
            p = p * s
            if p.is_zero():
                break
            plist.append(p)
        pow_lists.append(plist)

    acc = zero(L)
    alpha = [0] * bf.m

    def rec(j: int, prod: Supernumber):
        nonlocal acc
        if j == bf.m:
            fact = 1.0
            for a in alpha:
                fact *= math.factorial(a)
            df = deriv(tuple(alpha), q)
            if df.any() if isinstance(df, np.ndarray) else df != 0:
                acc = acc + (df / fact) * prod
            return
        for k in range(len(pow_lists[j])):
            alpha[j] = k
            p2 = prod if k == 0 else prod * pow_lists[j][k]
            if k > 0 and p2.is_zero():
                break
            rec(j + 1, p2)
        alpha[j] = 0

    rec(0, one(L))
    return acc


# ---------------------------------------------------------------------------
# points, functions, maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperPoint:
    """m even coordinates (real body) and n odd coordinates.

    Coordinates may carry a batch of nodes (see grassmann); the body must then
    be real at every node.
    """

    x: Tuple[Supernumber, ...]
    theta: Tuple[Supernumber, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "theta", tuple(self.theta))
        for v in self.x:
            if v.parity != "even":
                raise GrassmannError("even slot holds a non-even value")
            b = v.body
            if np.any(np.abs(np.imag(b)) > 1e-9 * (1.0 + np.abs(np.real(b)))):
                raise GrassmannError("even coordinate body must be real")
        for v in self.theta:
            if not (v.parity == "odd" or v.is_zero()):
                raise GrassmannError("odd slot holds a non-odd value")

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.x), len(self.theta))

    @property
    def L(self) -> int:
        return max((v.L for v in self.x + self.theta), default=0)

    def embed(self, L: int) -> "SuperPoint":
        return SuperPoint(
            tuple(v.embed(L) for v in self.x),
            tuple(v.embed(L) for v in self.theta),
        )


def _theta_monomial(mask: int, thetas: Sequence[Supernumber], L: int) -> Supernumber:
    out = one(L)
    for s in range(len(thetas)):
        if (mask >> s) & 1:
            out = out * thetas[s]
    return out


class SuperFunction:
    """f(x, theta) = sum_a theta^a u_a(x) with body-function coefficients.

    ``coefficients`` maps the odd-monomial bitmask a (bit s <-> theta_s) to a
    BodyFunction of the m even variables.  Coefficients are scalar-valued, so
    they commute with the odd monomials; the stored convention keeps theta^a
    on the left.
    """

    def __init__(self, m: int, n: int, coefficients: Dict[int, BodyFunction]):
        self.m = m
        self.n = n
        top = 1 << n
        for mask, bf in coefficients.items():
            if not (0 <= mask < top):
                raise GrassmannError(f"odd monomial mask {mask} out of range")
            if bf.m != m:
                raise GrassmannError("coefficient arity mismatch")
        self.coefficients = dict(coefficients)

    def evaluate(self, P: SuperPoint) -> Supernumber:
        if P.shape != (self.m, self.n):
            raise GrassmannError(f"point shape {P.shape} != ({self.m},{self.n})")
        L = max(P.L, 1)
        acc = zero(L)
        for mask in sorted(self.coefficients):
            cont = continue_body(self.coefficients[mask], P.x, L)
            if cont.is_zero():
                continue
            mono = _theta_monomial(mask, P.theta, L)
            if mono.is_zero():
                continue
            acc = acc + mono * cont
        return acc

    def partial(self, slot: int) -> "SuperFunction":
        """Derivative in coordinate ``slot``: 0..m-1 even, m..m+n-1 odd (left)."""
        if 0 <= slot < self.m:
            return SuperFunction(
                self.m, self.n,
                {a: bf.diff(slot) for a, bf in self.coefficients.items()},
            )
        s = slot - self.m
        if not (0 <= s < self.n):
            raise GrassmannError(f"slot {slot} out of range")
        bit = 1 << s
        out: Dict[int, BodyFunction] = {}
        for a, bf in self.coefficients.items():
            if not (a & bit):
                continue
            l_count = (a & (bit - 1)).bit_count()
            out[a ^ bit] = _ScaledBody(bf, -1.0 if l_count & 1 else 1.0)
        return SuperFunction(self.m, self.n, out)


def evaluate(f, P: SuperPoint) -> Supernumber:
    return f.evaluate(P)


def partial(f: SuperFunction, slot: int) -> SuperFunction:
    return f.partial(slot)


class _LazyComponent:
    """Map component defined by a closure over full-point evaluation."""

    def __init__(self, fn: Callable[[SuperPoint], Supernumber]):
        self._fn = fn

    def evaluate(self, P: SuperPoint) -> Supernumber:
        return self._fn(P)


class SuperMap:
    """Coordinate map (m|n) -> (p|q); components evaluate at SuperPoints."""

    def __init__(self, src: Tuple[int, int], dst: Tuple[int, int],
                 components: Sequence):
        self.src = (int(src[0]), int(src[1]))
        self.dst = (int(dst[0]), int(dst[1]))
        if len(components) != self.dst[0] + self.dst[1]:
            raise GrassmannError("component count does not match target shape")
        self.components = tuple(components)

    def evaluate(self, P: SuperPoint) -> SuperPoint:
        if P.shape != self.src:
            raise GrassmannError(f"point shape {P.shape} != source {self.src}")
        vals = [c.evaluate(P) for c in self.components]
        p = self.dst[0]
        return SuperPoint(tuple(vals[:p]), tuple(vals[p:]))


def identity_map(m: int, n: int) -> SuperMap:
    comps: List = []
    for j in range(m):
        comps.append(SuperFunction(m, n, {0: ExprFunction(_Var(j), m)}))
    for s in range(n):
        comps.append(SuperFunction(m, n, {1 << s: const_body(1.0, m)}))
    return SuperMap((m, n), (m, n), comps)


def compose(g: SuperMap, f: SuperMap) -> SuperMap:
    """g after f; evaluation-consistent by construction."""
    if f.dst != g.src:
        raise GrassmannError(f"shape mismatch: f target {f.dst} != g source {g.src}")
    comps = [
        _LazyComponent(lambda P, k=k: g.components[k].evaluate(f.evaluate(P)))
        for k in range(len(g.components))
    ]
    return SuperMap(f.src, g.dst, comps)


# ---------------------------------------------------------------------------
# Jacobians by nilpotent seeding
# ---------------------------------------------------------------------------

def _seeded_derivatives(F: SuperMap, P: SuperPoint) -> List[List[Supernumber]]:
    """J[r][c] = d F_c / d z_r at P, z_r the source slots (even first, odd
    derivatives from the left), in P's algebra, from one evaluation of F at
    arguments seeded by grassmann.seed."""
    L0 = max(P.L, 1)
    ex, th, masks = seed(P.x, P.theta, L0)
    out = F.evaluate(SuperPoint(ex, th))
    parts = [seed_parts(v, L0) for v in out.x + out.theta]
    return [[p.get(mask, zero(L0)) for p in parts] for mask in masks]


def map_body_jacobian(F: SuperMap, P: SuperPoint) -> np.ndarray:
    """Body of the super-Jacobian dF at P, rows = target components, columns
    = source slots.  Exact up to the float arithmetic of F itself.  For a
    batch of nodes the node axis comes last.
    """
    J = _seeded_derivatives(F, P)
    rows, cols = sum(F.dst), sum(F.src)
    return _node_array((J[c][r].body for r in range(rows) for c in range(cols)),
                       (rows, cols))


def map_super_jacobian(F: SuperMap, P: SuperPoint):
    """Full derivative matrix of F at P as a graded square matrix.

    Rows are indexed by the source variables (even q's first, then odd
    parameters), columns by the target components, every derivative taken
    from the left:  J[r][c] = d F_c / d z_r.  Entries are exact Supernumbers
    in P's algebra, read from one evaluation at nilpotently seeded arguments.
    Requires a square map.
    """
    m, n = F.src
    if F.dst != (m, n):
        raise GrassmannError("super-Jacobian assembly expects a square map")
    return Supermatrix(m, n, _seeded_derivatives(F, P), max(P.L, 1))


# ---------------------------------------------------------------------------
# inverse map
# ---------------------------------------------------------------------------

def invert_map(F: SuperMap, body_inverse: Callable[[np.ndarray], Sequence[float]]) -> SuperMap:
    """Inverse of a square map with body-invertible Jacobian.

    ``body_inverse`` supplies the classical inverse of the body map (numeric
    root-finds are fine) at one body point; the nilpotent part is corrected by
    a Newton/Picard iteration with the body Jacobian, which terminates in at
    most L steps.  A batch of nodes is solved in one iteration, calling
    ``body_inverse`` once per node.
    """
    if F.src != F.dst:
        raise GrassmannError("only square maps can be inverted")
    m, n = F.src

    def body_root(q: np.ndarray) -> np.ndarray:
        y0 = np.asarray(body_inverse(q.real), dtype=complex)
        if y0.shape != (m,):
            raise GrassmannError("body inverse returned wrong arity")
        return y0

    def solve(P: SuperPoint) -> SuperPoint:
        L = max(P.L, 1)
        q_star = _node_array((v.body for v in P.x), (m,))
        if q_star.ndim == 1:
            y0 = body_root(q_star)
        else:
            y0 = np.array([body_root(q) for q in q_star.T]).T
        Y = SuperPoint(
            tuple(scalar(L, y0[j]) for j in range(m)),
            tuple(zero(L) for _ in range(n)),
        )
        target = P.embed(L)
        for _ in range(L + 4):
            FY = F.evaluate(Y)
            Lc = max(L, FY.L)
            FY = FY.embed(Lc)
            resid_even = [target.x[j].embed(Lc) - FY.x[j].embed(Lc) for j in range(m)]
            resid_odd = [
                target.theta[s].embed(Lc) - FY.theta[s].embed(Lc) for s in range(n)
            ]
            resid_max = max(
                [max_abs(r) for r in resid_even + resid_odd], default=0.0
            )
            if resid_max < 1e-12:
                break
            J = map_body_jacobian(F, Y)
            Je = _per_node(np.linalg.inv, J[:m, :m]) if m else np.zeros((0, 0))
            Jo = _per_node(np.linalg.inv, J[m:, m:]) if n else np.zeros((0, 0))
            new_x = []
            for j in range(m):
                upd = Y.x[j].embed(Lc)
                for k in range(m):
                    upd = upd + Je[j, k] * resid_even[k]
                new_x.append(upd)
            new_t = []
            for s in range(n):
                upd = Y.theta[s].embed(Lc)
                for r in range(n):
                    upd = upd + Jo[s, r] * resid_odd[r]
                new_t.append(upd)
            Y = SuperPoint(tuple(new_x), tuple(new_t))
        else:
            raise GrassmannDomainError("inverse iteration did not converge")
        return Y

    solve_cached = lru_cache(maxsize=128)(solve)
    last_batch: list = [None, None]

    def lookup(P: SuperPoint) -> SuperPoint:
        # A batch holds arrays, which cannot be hashed into the cache.  The
        # components of one SuperMap.evaluate share one point object, so the
        # last batch is remembered by identity and solved once for all.
        batch = any(isinstance(c, np.ndarray)
                    for v in P.x + P.theta for c in v.terms.values())
        if not batch:
            return solve_cached(P)
        if last_batch[0] is not P:
            last_batch[:] = [P, solve(P)]
        return last_batch[1]

    comps: List = []
    for j in range(m):
        comps.append(_LazyComponent(lambda P, j=j: lookup(P).x[j]))
    for s in range(n):
        comps.append(_LazyComponent(lambda P, s=s: lookup(P).theta[s]))
    return SuperMap((m, n), (m, n), comps)


# ---------------------------------------------------------------------------
# Cauchy-Riemann residual
# ---------------------------------------------------------------------------

def _directional(f, P: SuperPoint, slot: int, direction: Supernumber,
                 eps: float) -> Supernumber:
    """Central difference d/dt f(P + t * direction_in_slot) at t = 0."""

    def shifted(t: float) -> SuperPoint:
        if slot < len(P.x):
            xs = list(P.x)
            xs[slot] = xs[slot] + t * direction
            return SuperPoint(tuple(xs), P.theta)
        s = slot - len(P.x)
        th = list(P.theta)
        th[s] = th[s] + t * direction
        return SuperPoint(P.x, tuple(th))

    plus = f.evaluate(shifted(eps))
    minus = f.evaluate(shifted(-eps))
    return (1.0 / (2 * eps)) * (plus - minus)


def cr_residual(f, samples: Sequence[SuperPoint], eps: float = 1e-6,
                max_mask_degree: int = 2) -> float:
    """Largest violation of the coefficient-direction compatibility relations.

    For even slots A and even masks I:  d/dX_{A,I} f = sigma^I d/dX_{A,0} f.
    For odd slots A and odd masks J,K:  sigma^K d/dX_{A,J} f
                                       + sigma^J d/dX_{A,K} f = 0.
    Derivatives are central differences along t * sigma^I displacements.
    A function assembled from continuations satisfies these to FD accuracy;
    a function reading off an individual coefficient violently fails.
    """
    worst = 0.0
    for P in samples:
        m, n = P.shape
        L = max(P.L, 1)
        even_masks = [mk for mk in range(1 << L)
                      if 0 < mk.bit_count() <= max_mask_degree
                      and mk.bit_count() % 2 == 0]
        odd_masks = [mk for mk in range(1 << L)
                     if mk.bit_count() == 1]
        for A in range(m):
            d0 = _directional(f, P, A, one(L), eps)
            for mk in even_masks:
                sig = Supernumber(L, {mk: 1.0})
                dI = _directional(f, P, A, sig, eps)
                worst = max(worst, max_abs(dI - sig * d0))
        for A in range(n):
            derivs = {}
            for mk in odd_masks:
                sig = Supernumber(L, {mk: 1.0})
                derivs[mk] = _directional(f, P, m + A, sig, eps)
            for mj in odd_masks:
                for mk in odd_masks:
                    sj = Supernumber(L, {mj: 1.0})
                    sk = Supernumber(L, {mk: 1.0})
                    worst = max(worst, max_abs(sk * derivs[mj] + sj * derivs[mk]))
    return worst
