"""In-memory span tracing of qlaplace's public functions, from outside the package.

A :class:`Tracer` wraps each function in :data:`TRACED` so that every call
records one span ``(name, start_ns, end_ns, parent, op, raised)``.  Spans stay
in memory until :meth:`Tracer.dump` writes them out.  A layer's self time is a
span's duration minus the durations of its direct children (calls run on one
thread, so children nest inside their parent and never overlap).

Several modules import ``qpoch``/``qpoch_inf`` (and ``measure_mass``,
``orthogonality_measure``, ...) by name, so :meth:`Tracer.install` rebinds the
wrapper under every name in every ``qlaplace`` module that holds the original
function object; otherwise calls through those names would go unseen.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time

from qlaplace.qcore import DEFAULT_INF_TOL

#: traced functions, as (module, attribute); the span name is
#: "<layer>.<attribute>" with the layer taken from the module name
TRACED = [
    ("qcore", "qpoch_inf"),
    ("qcore", "qpoch"),
    ("lattice", "measure_mass"),
    ("lattice", "inner_product"),
    ("laplace", "apply_three_term"),
    ("laplace", "apply_divergence_form"),
    ("asc", "orthogonality_measure"),
    ("asc", "continuous_weight"),
    ("asc", "orthogonality_residual"),
    ("asc", "asc_hypergeometric"),
    ("asc", "mass_points"),
    ("spectral", "transform_grid"),
    ("spectral", "inverse_transform_profile"),
    ("spectral", "plancherel_measure"),
    ("spectral", "eigenfunction_profile"),
    ("spectral", "c_function"),
    ("fockoracle", "invariant_integral"),
    ("fockoracle", "negative_block_sum"),
    ("fockoracle", "positive_block_sum"),
    ("fockoracle", "pochhammer_geometric_sum"),
    ("fockoracle", "qbinomial_convolution"),
]

#: traced methods, as (module, class, method, span name)
TRACED_METHODS = [
    ("laplace", "JacobiMatrix", "eigenvalues", "laplace.jacobi_eigenvalues"),
]

LAYERS = ("qcore", "lattice", "laplace", "asc", "spectral", "fockoracle", "verify")

def qpoch_inf_factors(a, base, tol=DEFAULT_INF_TOL) -> int:
    """Number of factors qcore.qpoch_inf multiplies for these arguments.

    qpoch_inf multiplies 1 - a*base^i while |a*base^i| >= tol.  The count
    comes from logarithms; when a boundary term lies within 1e-9 (relative)
    of tol, where rounding of the running product could decide, the loop's
    own arithmetic is replayed instead.
    """
    x, r = float(abs(a)), float(abs(base))
    if x < tol:
        return 0
    if r == 0.0:
        return 1
    lx, lr, lt = math.log(x), math.log(r), math.log(tol)
    est = math.floor((lx - lt) / -lr) + 1
    if min(abs(lx + (est - 1) * lr - lt), abs(lx + est * lr - lt)) > 1e-9:
        return est
    t = (a * 0 + base * 0 + 1.0) * a
    n = 0
    while abs(t) >= tol:
        t = t * base
        n += 1
    return n


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _count_qpoch_inf(counters, args, kwargs):
    counters["qcore.qpoch_inf.factors"] += qpoch_inf_factors(
        _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "base"),
        _arg(args, kwargs, 2, "tol", DEFAULT_INF_TOL))


def _count_theta_nodes(counters, args, kwargs):
    counters["asc.theta_nodes_built"] += _arg(args, kwargs, 1, "quad_nodes")


def _profile_rows(measure) -> int:
    return len(measure.theta_nodes) + len(measure.discrete)


def _count_forward_cells(counters, args, kwargs):
    f, measure = _arg(args, kwargs, 2, "f"), _arg(args, kwargs, 3, "measure")
    counters["spectral.profile_cells"] += _profile_rows(measure) * (max(f, default=0) + 1)


def _count_inverse_cells(counters, args, kwargs):
    fhat, max_j = _arg(args, kwargs, 2, "fhat"), _arg(args, kwargs, 3, "max_j")
    counters["spectral.profile_cells"] += _profile_rows(fhat.measure) * (max_j + 1)


#: counters computed from call arguments (exactly repeatable), per span name
COMPUTED = {
    "qcore.qpoch_inf": _count_qpoch_inf,
    "asc.orthogonality_measure": _count_theta_nodes,
    "spectral.transform_grid": _count_forward_cells,
    "spectral.inverse_transform_profile": _count_inverse_cells,
}

COUNTER_NAMES = ("qcore.qpoch_inf.factors", "asc.theta_nodes_built",
                 "spectral.profile_cells")


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1
        self._count_args: list = []
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span."""
        nid = self._id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count = COMPUTED.get(name)
        count_args = self._count_args

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            raised = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op, raised)
                if count is not None:  # evaluated later, outside every span
                    count_args.append((count, args, kwargs))

        return traced

    def install(self) -> None:
        """Rebind a wrapper for every TRACED name in every qlaplace module."""
        mods = [m for name, m in list(sys.modules.items())
                if (name == "qlaplace" or name.startswith("qlaplace.")) and m]
        for modname, attr in TRACED:
            orig = getattr(sys.modules["qlaplace." + modname], attr)
            wrapper = self.wrap(f"{modname}.{attr}", orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
        for modname, cls_name, attr, span_name in TRACED_METHODS:
            cls = getattr(sys.modules["qlaplace." + modname], cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(span_name, orig))
            self._undo.append((cls, attr, orig))

    def uninstall(self) -> None:
        """Restore every name :meth:`install` rebound."""
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def counters(self) -> dict:
        """The COMPUTED counts over every call recorded so far."""
        counters = dict.fromkeys(COUNTER_NAMES, 0)
        for count, args, kwargs in self._count_args:
            count(counters, args, kwargs)
        return counters

    def summary(self) -> dict:
        """Calls, self time (s), raised count and total time (s) per span name."""
        n = len(self.spans)
        child_ns = [0] * n
        for nid, start, end, parent, op, raised in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "errors": 0, "total_s": 0.0}
               for name in self.names}
        for i, (nid, start, end, parent, op, raised) in enumerate(self.spans):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += (end - start - child_ns[i]) * 1e-9
            row["errors"] += raised
            if parent < 0:
                row["total_s"] += (end - start) * 1e-9
        return out

    def dump(self, path, meta: dict) -> None:
        """Write every span, with ``meta``, as gzipped JSON."""
        doc = dict(meta, names=self.names,
                   fields=["name", "start_ns", "end_ns", "parent", "op", "raised"],
                   spans=self.spans)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
