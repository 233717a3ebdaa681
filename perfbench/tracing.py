"""Call tracing for the benchmark's traced run, installed from outside supercalc.

The layers are supercalc's six modules.  ``install`` replaces the public
functions and methods the per-layer metrics need with wrappers, at every name
a caller looks them up by (``berezin`` imports ``sdet`` and
``map_super_jacobian`` by name, ``weyl_dynamics`` imports ``fo`` and
``odd_expand``, and so on), and ``uninstall`` puts the originals back.  A
wrapper records nothing unless ``Tracer.active`` is set, so set-up and
untraced solutions pass straight through.

Each traced call is a span (request, id, name, parent, start, end); spans stay
in memory, up to a cap, and are written out when the benchmark ends.  Calls,
inclusive time (outermost call of each name only) and self time (span minus
its direct children) are kept per name for every call, capped or not.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MAX_SPANS = 20_000

# Products with at most this many term pairs are counted by a plain loop;
# larger ones by one vectorised comparison.
_LOOP_PAIRS = 256


class Tracer:
    """Spans, counts and sums gathered while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.request = -1
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.sums: defaultdict = defaultdict(float)
        self.peaks: Counter = Counter()
        self.spans: list = []
        self.dropped_spans = 0
        self.coarse_nodes = None
        self.grid_nodes = None
        self._stack: list = []
        self._depth: Counter = Counter()
        self._next_id = 0
        self._patches: list = []
        self.missing: list = []

    # -- requests -----------------------------------------------------------

    def begin(self, request: int) -> None:
        self.request = request
        self.active = True

    def end(self) -> None:
        self.active = False
        self._stack.clear()
        self._depth.clear()

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, name, parent, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._depth[name] += 1
        frame[3] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, name, parent, start, child = frame
        duration = end - start
        self.calls[name] += 1
        self.self_time[name] += duration - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.inclusive[name] += duration
        if self._stack:
            self._stack[-1][4] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.request, span_id, name, parent, start, end))
        else:
            self.dropped_spans += 1

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; ``after(tracer, args, kwargs, result)`` runs once it returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn so that its calls are counted, without a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def patch_function(self, modules, original, wrapper) -> None:
        """Rebind every module-level name bound to ``original``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- report -------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive),
            "self_s": dict(self.self_time),
            "sums": dict(self.sums),
            "peaks": dict(self.peaks),
            "missing_wrappers": self.missing,
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped_spans,
            "span_fields": ["request", "id", "name", "parent", "start", "end"],
            "spans": self.spans,
        }


# ---------------------------------------------------------------------------
# hooks that read what a call did
# ---------------------------------------------------------------------------

def _disjoint_pairs(left, right) -> int:
    if len(left) * len(right) <= _LOOP_PAIRS:
        return sum(1 for a in left for b in right if not a & b)
    a = np.fromiter(left, dtype=np.int64, count=len(left))
    b = np.fromiter(right, dtype=np.int64, count=len(right))
    return int(np.count_nonzero((a[:, None] & b[None, :]) == 0))


def _after_mul(Supernumber):
    def after(tracer, args, kwargs, result):
        if result is NotImplemented:
            return
        left, other = args
        if isinstance(other, Supernumber):
            right = other._terms
        else:
            right = (0,) if other != 0 else ()
        tracer.sums["grassmann.mul_pairs"] += len(left._terms) * len(right)
        tracer.sums["grassmann.mul_useful"] += _disjoint_pairs(left._terms, right)

    return after


def _wrap_new(tracer, init):
    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if tracer.active:
            tracer.calls["grassmann.new"] += 1
            peaks = tracer.peaks
            if self.L > peaks["grassmann.max_L"]:
                peaks["grassmann.max_L"] = self.L
            n = len(self._terms)
            if n > peaks["grassmann.peak_terms"]:
                peaks["grassmann.peak_terms"] = n

    return __init__


def _total_terms(values) -> int:
    return sum(len(v._terms) for v in values)


def _after_map_evaluate(tracer, args, kwargs, result):
    # only the seeded evaluation made directly by map_super_jacobian counts
    if tracer.parent_name() != "superspace.jacobian":
        return
    point = args[1]
    tracer.peaks["superspace.seed_L"] = max(tracer.peaks["superspace.seed_L"], point.L)
    tracer.sums["superspace.seed_out_terms"] += _total_terms(result.x + result.theta)


def _after_jacobian(tracer, args, kwargs, result):
    tracer.sums["superspace.seed_kept_terms"] += _total_terms(
        e for row in result.rows for e in row
    )


def _after_sdet(tracer, args, kwargs, result):
    M = args[0]
    if M.m and M.n:
        body_b = np.array([[e.body for e in row] for row in M.block("B")], dtype=complex)
        if abs(np.linalg.det(body_b)) > 0.0:
            tracer.sums["superlinalg.sdet_branch_B"] += 1


def _after_flow(tracer, args, kwargs, result):
    tracer.sums["weyl_dynamics.flow_steps"] += len(result) - 1


def _wrap_quad_box(tracer, quad_box, default_spec):
    """Remember the coarse node count of the quadrature in progress."""
    inner = tracer.span("berezin.quad", quad_box)

    @functools.wraps(quad_box)
    def wrapper(fn, box, spec=default_spec):
        saved, tracer.coarse_nodes = tracer.coarse_nodes, spec.nodes
        try:
            return inner(fn, box, spec)
        finally:
            tracer.coarse_nodes = saved

    return wrapper


def _wrap_tensor_quad(tracer, tensor_quad):
    """Put every integrand call of one quadrature grid in a span."""

    def after_integrand(tracer, args, kwargs, result):
        if tracer.grid_nodes == tracer.coarse_nodes:
            tracer.sums["berezin.coarse_calls"] += 1

    @functools.wraps(tensor_quad)
    def wrapper(fn, box, nodes):
        if not tracer.active:
            return tensor_quad(fn, box, nodes)
        saved, tracer.grid_nodes = tracer.grid_nodes, nodes
        try:
            return tensor_quad(tracer.span("berezin.integrand", fn, after_integrand),
                               box, nodes)
        finally:
            tracer.grid_nodes = saved

    return wrapper


def _wrap_hamiltonian_init(tracer, init):
    """Count every evaluation of a SuperHamiltonian's scalar function."""

    @functools.wraps(init)
    def __init__(self, fn, *args, **kwargs):
        init(self, tracer.counter("weyl_dynamics.hamiltonian_eval", fn), *args, **kwargs)

    return __init__


def install(tracer: Tracer, callers=()) -> None:
    """Wrap the functions and methods behind the per-layer metrics.

    Names bound in the supercalc modules and in the ``callers`` modules are
    rebound to the wrappers.  A function or method that no longer exists is
    listed in ``tracer.missing`` and its metrics read 0.
    """
    import supercalc
    from supercalc import berezin, fourier_odd, grassmann, superlinalg, superspace
    from supercalc import weyl_dynamics

    modules = (supercalc, grassmann, superspace, superlinalg, berezin,
               fourier_odd, weyl_dynamics, *callers)

    def span(name, after=None):
        return lambda original: tracer.span(name, original, after)

    def function(module, attr, make):
        original = getattr(module, attr, None)
        if original is None:
            tracer.missing.append(f"{module.__name__}.{attr}")
        else:
            tracer.patch_function(modules, original, make(original))

    def method(cls, attr, make):
        original = cls.__dict__.get(attr)
        if original is None:
            tracer.missing.append(f"{cls.__qualname__}.{attr}")
        else:
            tracer.patch_method(cls, attr, make(original))

    Supernumber = grassmann.Supernumber
    method(Supernumber, "__init__", lambda init: _wrap_new(tracer, init))
    method(Supernumber, "__mul__", span("grassmann.mul", _after_mul(Supernumber)))
    function(grassmann, "inverse", span("grassmann.inverse"))
    function(grassmann, "apply_analytic", span("grassmann.analytic"))

    function(superspace, "continue_body", span("superspace.continue_body"))
    function(superspace, "map_super_jacobian", span("superspace.jacobian", _after_jacobian))
    method(superspace.SuperMap, "evaluate", span("superspace.map_evaluate", _after_map_evaluate))

    function(superlinalg, "sdet", span("superlinalg.sdet", _after_sdet))
    function(superlinalg, "det_even", span("superlinalg.det_even"))
    function(superlinalg, "mat_inverse_even", span("superlinalg.mat_inverse"))
    function(superlinalg, "pfaffian", span("superlinalg.pfaffian"))

    function(berezin, "quad_box",
             lambda quad: _wrap_quad_box(tracer, quad, berezin.DEFAULT_QUAD))
    function(berezin, "_tensor_quad", lambda grid: _wrap_tensor_quad(tracer, grid))
    function(berezin, "gaussian_super", span("berezin.gaussian_super"))
    function(berezin, "odd_expand", span("berezin.odd_expand"))

    function(fourier_odd, "fo", span("fourier_odd.fo"))

    function(weyl_dynamics, "super_hamilton_flow", span("weyl_dynamics.flow", _after_flow))
    function(weyl_dynamics, "propagator_matrix_from_classical", span("weyl_dynamics.propagator"))
    Hamiltonian = weyl_dynamics.SuperHamiltonian
    method(Hamiltonian, "gradient", span("weyl_dynamics.gradient"))
    method(Hamiltonian, "__init__", lambda init: _wrap_hamiltonian_init(tracer, init))
    method(weyl_dynamics.FlowState, "__init__",
           lambda init: tracer.counter("weyl_dynamics.state_build", init))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, solutions: int) -> dict:
    """Per-layer metrics, per traced solution, as {name: (value, unit)}."""
    calls, incl, sums, peaks = tracer.calls, tracer.inclusive, tracer.sums, tracer.peaks
    per = 1.0 / solutions

    def count(name):
        return calls[name] * per, "count"

    def seconds(name):
        return incl[name] * per, "s"

    return {
        "grassmann.mul_calls": count("grassmann.mul"),
        "grassmann.new_calls": count("grassmann.new"),
        "grassmann.mul_pairs": (sums["grassmann.mul_pairs"] * per, "count"),
        "grassmann.mul_useful_frac": (
            _ratio(sums["grassmann.mul_useful"], sums["grassmann.mul_pairs"]), "ratio"),
        "grassmann.mul_s": seconds("grassmann.mul"),
        "grassmann.inverse_calls": count("grassmann.inverse"),
        "grassmann.analytic_calls": count("grassmann.analytic"),
        "grassmann.max_L": (peaks["grassmann.max_L"], "count"),
        "grassmann.peak_terms": (peaks["grassmann.peak_terms"], "count"),
        "superspace.continue_body_calls": count("superspace.continue_body"),
        "superspace.continue_body_s": seconds("superspace.continue_body"),
        "superspace.jacobian_calls": count("superspace.jacobian"),
        "superspace.jacobian_s": seconds("superspace.jacobian"),
        "superspace.seed_L": (peaks["superspace.seed_L"], "count"),
        "superspace.seed_useful_frac": (
            _ratio(sums["superspace.seed_kept_terms"], sums["superspace.seed_out_terms"]),
            "ratio"),
        "superlinalg.sdet_calls": count("superlinalg.sdet"),
        "superlinalg.sdet_s": seconds("superlinalg.sdet"),
        "superlinalg.det_even_calls": count("superlinalg.det_even"),
        "superlinalg.mat_inverse_calls": count("superlinalg.mat_inverse"),
        "superlinalg.pfaffian_calls": count("superlinalg.pfaffian"),
        "superlinalg.sdet_branch_B_frac": (
            _ratio(sums["superlinalg.sdet_branch_B"], calls["superlinalg.sdet"]), "ratio"),
        "berezin.integrand_calls": count("berezin.integrand"),
        "berezin.integrand_s": seconds("berezin.integrand"),
        "berezin.quad_s": ((incl["berezin.quad"] - incl["berezin.integrand"]) * per, "s"),
        "berezin.coarse_frac": (
            _ratio(sums["berezin.coarse_calls"], calls["berezin.integrand"]), "ratio"),
        "berezin.gaussian_super_s": seconds("berezin.gaussian_super"),
        "berezin.odd_expand_calls": count("berezin.odd_expand"),
        "weyl_dynamics.flow_steps": (sums["weyl_dynamics.flow_steps"] * per, "count"),
        "weyl_dynamics.gradient_calls": count("weyl_dynamics.gradient"),
        "weyl_dynamics.gradient_s": seconds("weyl_dynamics.gradient"),
        "weyl_dynamics.hamiltonian_evals": count("weyl_dynamics.hamiltonian_eval"),
        "weyl_dynamics.state_builds": count("weyl_dynamics.state_build"),
        "weyl_dynamics.propagator_s": seconds("weyl_dynamics.propagator"),
        "fourier_odd.fo_calls": count("fourier_odd.fo"),
        "fourier_odd.fo_s": seconds("fourier_odd.fo"),
    }
