"""Functions and maps on points with even and odd coordinates.

A function of m even and n odd variables is stored through its coefficient
family: f(x, theta) = sum_a theta^a u_a(x), the odd monomial theta^a written
to the LEFT of the coefficient.  Each u_a is a body-smooth function supplied
with derivatives (exact expression trees, or a 4th-order finite-difference
fallback limited to total order 4).  Evaluation continues each coefficient off
the body by its finite Taylor series in the nilpotent part, so the result is
exact in the finite-generator algebra whenever the derivative oracle is exact.
That series is grassmann's one Grassmann continuation (``_taylor_terms`` and
``_taylor_sum``), of which ``apply_analytic`` is the one-variable case.

The part of a continuation that depends on the point alone, its Taylor basis
(the soul monomials prod_j soul(x_j)^alpha_j with their factorials, the odd
monomials theta^a, and the value there of each expression node evaluated so
far), is cached on the SuperPoint object the first time a SuperFunction is
evaluated there.  Every coefficient of every function evaluated at that
object reuses it for as long as the object lives; it takes no part in the
point's equality, hash or repr.  Expression trees share structurally equal
nodes, within one derivative, across derivatives and across functions, so a
subexpression is evaluated once per point however many trees hold it.
``continue_body``, which takes bare even arguments rather than a point,
builds the basis afresh per call.

A map between such coordinate systems is either built from one component
per target slot or is one function of the whole point: ``compose(g, f)`` is
P -> g(f(P)), ``identity_map`` is P -> P, and ``invert_map`` is the
Newton/Picard solve of a map with invertible body Jacobian, which terminates
on the nilpotent part after at most L steps.  Each is evaluated once per
call, with no cache between calls.  A map's Jacobian is read exactly from one
evaluation in which every source slot is seeded with fresh nilpotent
generators (grassmann.seed).  The seed-free part of that evaluation is the
map's value at the point, so a caller that needs the value and the Jacobian
(``berezin.PulledBack``) evaluates the map once (``_jet``).  A composed map
is seeded the same way, so the chain rule runs inside its one evaluation:
a pull-back of a pull-back folds its two maps with ``compose`` and reads one
Jacobian.
"""

from __future__ import annotations

import ast
import cmath
import dataclasses
import functools
import struct
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .grassmann import (
    GrassmannDomainError,
    GrassmannError,
    Supernumber,
    _cut_of,
    _is_finite,
    _monomial,
    _taylor_sum,
    _taylor_terms,
    max_abs,
    one,
    scalar,
    seed,
    seed_parts,
    zero,
)
from .superlinalg import Supermatrix, _body, _node_array

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

    def value(self, q: Sequence[complex], memo: Dict | None = None) -> complex:
        """The value at q, one node or a batch of nodes (see grassmann).

        ``memo``, if given, holds the values at this same q of the nodes
        evaluated so far, keyed by node identity (``_TaylorBasis.memo``): each
        node in it is evaluated once, and its array made read-only, however
        many trees share it.  The entry keeps its node alive, so an identity
        is never reused while the memo lives.
        """
        if memo is None:
            return self._value(q, None)
        hit = memo.get(id(self))
        if hit is None:
            v = self._value(q, memo)
            if isinstance(v, np.ndarray):
                v.flags.writeable = False
            hit = memo[id(self)] = (self, v)
        return hit[1]

    def _value(self, q, memo):
        """The value at q, reading each child's through ``value(q, memo)``."""
        raise NotImplementedError


@dataclass(frozen=True)
class _Const(Expr):
    c: complex

    def diff(self, j):
        return _Const(0j)

    def value(self, q, memo=None):
        return self.c


@dataclass(frozen=True)
class _Var(Expr):
    j: int

    def diff(self, j):
        return _Const(1.0 + 0j) if j == self.j else _Const(0j)

    def value(self, q, memo=None):
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

    def _value(self, q, memo):
        return self.a.value(q, memo) + self.b.value(q, memo)


@dataclass(frozen=True)
class _Mul(Expr):
    a: Expr
    b: Expr

    def diff(self, j):
        return _add(_mul(self.a.diff(j), self.b), _mul(self.a, self.b.diff(j)))

    def _value(self, q, memo):
        return self.a.value(q, memo) * self.b.value(q, memo)


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

    def _value(self, q, memo):
        return self.base.value(q, memo) ** self.n


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

    def _value(self, q, memo):
        v = self.arg.value(q, memo)
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


# every live node that _shared has handed out, keyed by its structure
_NODES: "weakref.WeakValueDictionary[tuple, Expr]" = weakref.WeakValueDictionary()


def _key_part(v):
    """One field of a node as part of its structural key: a child by
    identity (children are shared first), a number by its exact bits, so that
    0j and -0j, which ``==`` merges, stay apart."""
    if isinstance(v, Expr):
        return id(v)
    if isinstance(v, (float, complex)):
        c = complex(v)
        return type(v), struct.pack("<2d", c.real, c.imag)
    return type(v), v


def _shared(e: Expr, seen: Dict[int, Expr] | None = None) -> Expr:
    """The one live node structurally identical to e, built from shared
    children, so that trees with a common subtree hold it as one object.

    The table holds its nodes weakly: an entry goes when no tree holds its
    node.  ``seen`` maps the nodes of e already shared in this call, so a
    subtree that e holds many times is walked once.
    """
    seen = {} if seen is None else seen
    got = seen.get(id(e))
    if got is None:
        parts = [getattr(e, f.name) for f in dataclasses.fields(e)]
        parts = [_shared(v, seen) if isinstance(v, Expr) else v for v in parts]
        key = (type(e), *map(_key_part, parts))
        got = _NODES.get(key)
        if got is None:
            got = _NODES[key] = type(e)(*parts)
        seen[id(e)] = got
    return got


# ---------------------------------------------------------------------------
# body-function oracles
# ---------------------------------------------------------------------------

class BodyFunction:
    """Value plus mixed partial derivatives of a function of m body variables.

    ``memo``, where a derivative takes one, is the memo of node values at the
    same q that ``Expr.value`` reads (``_TaylorBasis.memo``); an oracle
    without expression trees ignores it.
    """

    m: int

    def value(self, q: Sequence[complex]) -> complex:
        return self.deriv_value((0,) * self.m, q)

    def deriv_value(self, alpha: Tuple[int, ...], q: Sequence[complex],
                    memo: Dict | None = None) -> complex:
        raise NotImplementedError

    def deriv_batch(self, alpha: Tuple[int, ...], q: Sequence,
                    memo: Dict | None = None) -> np.ndarray:
        """deriv_value at every node of a batch (see grassmann); q holds one
        array of nodes, or one value shared by all nodes, per variable.

        This default calls deriv_value one node at a time, without the memo,
        which holds values at the whole batch; a subclass whose deriv_value
        takes arrays directly overrides it.
        """
        size = next(v.size for v in q if isinstance(v, np.ndarray))
        nodes = zip(*(np.broadcast_to(v, (size,)) for v in q))
        return np.array([self.deriv_value(alpha, node) for node in nodes], dtype=complex)

    def diff(self, j: int) -> "BodyFunction":
        raise NotImplementedError


class ExprFunction(BodyFunction):
    """Exact symbolic derivatives from an expression tree.

    The tree of each derivative is built once, on first use, and its nodes
    are shared (``_shared``): a subtree that the chain and product rules
    repeat, or that another ExprFunction also holds, is one object.  So at
    one point, through the point's memo, it is evaluated once.
    """

    def __init__(self, expr: Expr | str, m: int):
        self.m = m
        self.expr = _shared(parse_expression(expr, m) if isinstance(expr, str) else expr)
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
        e = _shared(self._expr_for(tuple(down)).diff(j))
        self._cache[alpha] = e
        return e

    def deriv_value(self, alpha, q, memo=None):
        return self._expr_for(tuple(alpha)).value(q, memo)

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

    def deriv_value(self, alpha, q, memo=None):
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

    def deriv_value(self, alpha, q, memo=None):
        return self.factor * self.inner.deriv_value(alpha, q, memo)

    def deriv_batch(self, alpha, q, memo=None):
        return self.factor * self.inner.deriv_batch(alpha, q, memo)

    def diff(self, j):
        return _ScaledBody(self.inner.diff(j), self.factor)


# ---------------------------------------------------------------------------
# Grassmann continuation
# ---------------------------------------------------------------------------

class _TaylorBasis:
    """Everything of a Taylor continuation that depends on the point alone.

    ``L`` is the generator count of its algebra, ``q`` holds the node bodies
    of the even arguments, ``batch`` says whether any of them is an array, and
    ``terms`` is their Taylor table (``grassmann._taylor_terms``).  ``thetas``
    holds the odd monomial theta^a of each mask a once SuperFunction.evaluate
    has built it.  ``memo`` holds the value at q of each expression node
    evaluated so far (see ``Expr.value``), so that a subexpression shared by
    derivatives and by functions continued here is evaluated once; its
    arrays are read-only, and it lives as long as the basis.  ``cut`` is the
    seeding cut the arguments carry, if any (see "Seeding" in grassmann): the
    monomials were built under it, and a continuation over them carries it on.
    """

    __slots__ = ("L", "q", "batch", "terms", "thetas", "memo", "cut")

    def __init__(self, L, q, terms, cut):
        self.L = L
        self.q = q
        self.batch = any(isinstance(v, np.ndarray) for v in q)
        self.terms = terms
        self.thetas: Dict[int, Supernumber] = {}
        self.memo: Dict[int, tuple] = {}
        self.cut = cut

    def continued(self, bf: BodyFunction) -> Supernumber:
        """The continuation of bf over this basis (``grassmann._taylor_sum``).

        A derivative that raises an arithmetic error (a pole, an overflow, a
        log of 0) raises GrassmannDomainError with the same message.
        """
        deriv = functools.partial(bf.deriv_batch if self.batch else bf.deriv_value,
                                  memo=self.memo)
        try:
            return _taylor_sum(deriv, self.q, self.terms, self.L, self.cut)
        except GrassmannError:
            raise
        except (ArithmeticError, ValueError) as exc:
            raise GrassmannDomainError(str(exc)) from exc


def _taylor_basis(xs: Sequence[Supernumber], L: int) -> _TaylorBasis:
    """The Taylor basis of even arguments xs in the L-generator algebra."""
    return _TaylorBasis(L, tuple(x.body for x in xs), _taylor_terms(xs, L), _cut_of(xs))


def continue_body(bf: BodyFunction, xs: Sequence[Supernumber]) -> Supernumber:
    """Finite Taylor continuation of a body function to even arguments.

    f(x) = sum_alpha  f^(alpha)(body x) / alpha! * prod_j soul(x_j)^alpha_j,
    which terminates by nilpotency.  A term is skipped only when its
    derivative vanishes at every node of a batch.

    This builds the Taylor basis of xs (the soul monomials and factorials)
    afresh on each call, in the largest algebra of xs; SuperFunction.evaluate
    instead reads the one cached on its SuperPoint, shared by every
    coefficient evaluated there.  A derivative that fails at the body, and a
    result with a coefficient that is not finite, raise GrassmannDomainError.
    """
    if len(xs) != bf.m:
        raise GrassmannError(f"expected {bf.m} even arguments, got {len(xs)}")
    out = _taylor_basis(xs, max((x.L for x in xs), default=0)).continued(bf)
    if not _is_finite(out):
        raise GrassmannDomainError("continuation overflows: a coefficient is not finite")
    return out


# ---------------------------------------------------------------------------
# points, functions, maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperPoint:
    """m even coordinates (real body) and n odd coordinates.

    Coordinates may carry a batch of nodes (see grassmann); the body must then
    be real at every node.

    The point caches the Taylor basis of its even coordinates in the working
    algebra of SuperFunction.evaluate (L = max(self.L, 1)): the soul monomials
    every continuation at the point sums over, plus the odd monomials built so
    far.  It is built on the first evaluation, shared by every coefficient of
    every function evaluated at this object afterwards, and lives as long as
    the object does.  It is not a dataclass field: ``==``, ``hash`` and
    ``repr`` see only ``x`` and ``theta``, so equal points stay equal whether
    or not either has evaluated.
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

    @classmethod
    def _as_is(cls, x: Tuple[Supernumber, ...], theta: Tuple[Supernumber, ...]
                 ) -> "SuperPoint":
        """The point of the tuples x and theta without the checks, for values
        whose parities and real bodies hold by construction."""
        P = object.__new__(cls)
        object.__setattr__(P, "x", x)
        object.__setattr__(P, "theta", theta)
        return P

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.x), len(self.theta))

    @property
    def L(self) -> int:
        return max((v.L for v in self.x + self.theta), default=0)

    def _basis(self) -> _TaylorBasis:
        """The cached Taylor basis (see the class docstring)."""
        basis = self.__dict__.get("_basis_cache")
        if basis is None:
            basis = _taylor_basis(self.x, max(self.L, 1))
            object.__setattr__(self, "_basis_cache", basis)
        return basis


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
        """f at P; raises as ``continue_body`` does, at any node of a batch."""
        if P.shape != (self.m, self.n):
            raise GrassmannError(f"point shape {P.shape} != ({self.m},{self.n})")
        basis = P._basis()
        L = basis.L
        acc = zero(L)
        for mask in sorted(self.coefficients):
            cont = basis.continued(self.coefficients[mask])
            if cont.is_zero():
                continue
            if mask:
                mono = basis.thetas.get(mask)
                if mono is None:
                    mono = basis.thetas[mask] = _monomial(mask, P.theta, L)
                if mono.is_zero():
                    continue
                cont = mono * cont
            acc = acc + cont
        if not _is_finite(acc):
            raise GrassmannDomainError("continuation overflows: a coefficient is not finite")
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


class SuperMap:
    """Coordinate map (m|n) -> (p|q), evaluated at SuperPoints.

    A map built here from ``components`` (one evaluable per target slot, even
    slots first) evaluates each at the point.  The maps that ``compose``,
    ``invert_map`` and ``identity_map`` return are one function of the whole
    point instead, evaluated once per call, and have no ``components``.
    """

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
        return self._at(P)

    def _at(self, P: SuperPoint) -> SuperPoint:
        vals = [c.evaluate(P) for c in self.components]
        p = self.dst[0]
        return SuperPoint(tuple(vals[:p]), tuple(vals[p:]))


class _PointMap(SuperMap):
    """A map given as one function ``at`` of the whole point, which stands in
    for ``SuperMap._at``."""

    def __init__(self, src: Tuple[int, int], dst: Tuple[int, int],
                 at: Callable[[SuperPoint], SuperPoint]):
        self.src, self.dst, self._at = src, dst, at


def identity_map(m: int, n: int) -> SuperMap:
    """P -> P on (m|n)."""
    return _PointMap((m, n), (m, n), lambda P: P)


def compose(g: SuperMap, f: SuperMap) -> SuperMap:
    """g after f: P -> g(f(P))."""
    if f.dst != g.src:
        raise GrassmannError(f"shape mismatch: f target {f.dst} != g source {g.src}")
    return _PointMap(f.src, g.dst, lambda P: g.evaluate(f.evaluate(P)))


# ---------------------------------------------------------------------------
# Jacobians by nilpotent seeding
# ---------------------------------------------------------------------------

def _jet(F: SuperMap, P: SuperPoint) -> Tuple[SuperPoint, List[List[Supernumber]]]:
    """F(P) and its derivative rows J[r][c] = d F_c / d z_r (z_r the source
    slots, even first, odd derivatives from the left), both in P's algebra,
    from one evaluation of F at arguments seeded first-order by grassmann.seed.
    The value is the seed-free part of each output, bit for bit F.evaluate(P)
    where each product takes the same path at both generator counts."""
    L0 = max(P.L, 1)
    # the seeded point has P's bodies and parities, and the value F(P)'s
    ex, th, masks = seed(P.x, P.theta, L0, first_order=True)
    out = F.evaluate(SuperPoint._as_is(ex, th))
    parts = [seed_parts(v, L0) for v in out.x + out.theta]
    value = [p.get(0, zero(L0)) for p in parts]
    even = F.dst[0]
    return (SuperPoint._as_is(tuple(value[:even]), tuple(value[even:])),
            [[p.get(mask, zero(L0)) for p in parts] for mask in masks])


def map_body_jacobian(F: SuperMap, P: SuperPoint) -> np.ndarray:
    """Body of the super-Jacobian dF at P, rows = target components, columns
    = source slots.  Exact up to the float arithmetic of F itself.  For a
    batch of nodes the node axis comes last.
    """
    _, J = _jet(F, P)
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

    The seeding is first order (see "Seeding" in grassmann): the evaluation
    of F drops the terms that carry two or more seeds, which no entry reads,
    and the entries equal those of a full seeded evaluation bit for bit.  So
    F must not differentiate by the seeded generators or integrate over them;
    seeding of its own above them (``odd_expand``,
    ``SuperHamiltonian.gradient``) is fine.  The seed-free part of the same
    evaluation is the value F(P), which ``_jet`` returns beside the entries.
    """
    return _super_jet(F, P)[1]


def _super_jet(F: SuperMap, P: SuperPoint) -> Tuple[SuperPoint, Supermatrix]:
    """F(P) and the super-Jacobian of a square F at P, from one ``_jet``."""
    m, n = F.src
    if F.dst != (m, n):
        raise GrassmannError("super-Jacobian assembly expects a square map")
    value, rows = _jet(F, P)
    return value, Supermatrix(m, n, rows, max(P.L, 1))


# ---------------------------------------------------------------------------
# inverse map
# ---------------------------------------------------------------------------

def _node_peak(v: Supernumber):
    """The largest coefficient modulus of v, per node for a batch."""
    peak = 0.0
    for c in v.terms.values():
        peak = np.maximum(peak, np.abs(c))
    return peak


def _within(values: Sequence[Supernumber], bounds):
    """Per node, whether each value's largest coefficient modulus is at most
    its bound."""
    out = True
    for v, bound in zip(values, bounds):
        out = out & (_node_peak(v) <= bound)
    return out


def invert_map(F: SuperMap, body_inverse: Callable[[np.ndarray], Sequence[float]]) -> SuperMap:
    """Inverse of a square map with body-invertible Jacobian.

    ``body_inverse`` supplies the classical inverse of the body map (numeric
    root-finds are fine) at one body point; the nilpotent part is corrected by
    a Newton/Picard iteration with the body Jacobian, which terminates in at
    most L steps.  A node is solved when, in every slot, the largest
    coefficient modulus of the residual P - F(Y) is at most 1e-12 times that
    of P's slot (1e-12 where the slot is 0), or when a Newton step leaves its
    Y unchanged: then the residual is rounding in F's own terms, which no
    further step reduces.  Each evaluation of the inverse is one such solve; a
    batch of nodes is solved in one iteration, calling ``body_inverse`` once
    per node.  A step whose even or odd body Jacobian block is singular to
    working precision (``superlinalg._body``), at any node, raises
    GrassmannDomainError.
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
        target = P.x + P.theta
        tol = [1e-12 * np.where(p > 0, p, 1.0) for p in map(_node_peak, target)]
        q_star = _node_array((v.body for v in P.x), (m,))
        if q_star.ndim == 1:
            y0 = body_root(q_star)
        else:
            y0 = np.array([body_root(q) for q in q_star.T]).T
        Y = SuperPoint(
            tuple(scalar(L, y0[j]) for j in range(m)),
            tuple(zero(L) for _ in range(n)),
        )
        for _ in range(L + 4):
            FY = F.evaluate(Y)
            resid = [p - f for p, f in zip(target, FY.x + FY.theta)]
            solved = _within(resid, tol)
            if np.all(solved):
                break
            J = map_body_jacobian(F, Y)
            even_singular, Je = _body(J[:m, :m], invert=True)
            odd_singular, Jo = _body(J[m:, m:], invert=True)
            if np.any(even_singular) or np.any(odd_singular):
                raise GrassmannDomainError("body Jacobian is singular to working precision")
            step = SuperPoint(
                tuple(sum((Je[j, k] * resid[k] for k in range(m)), Y.x[j])
                      for j in range(m)),
                tuple(sum((Jo[s, r] * resid[m + r] for r in range(n)), Y.theta[s])
                      for s in range(n)),
            )
            unmoved = _within([a - b for a, b in zip(step.x + step.theta, Y.x + Y.theta)],
                              [0.0] * (m + n))
            Y = step
            if np.all(solved | unmoved):
                break
        else:
            raise GrassmannDomainError("inverse iteration did not converge")
        return Y

    return _PointMap((m, n), (m, n), solve)


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
