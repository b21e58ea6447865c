"""Spans around calls into the library's layers, recorded from outside it.

The tracer replaces the traced public functions with timing wrappers in
every module namespace that binds them (``cli`` binds many names with
``from ... import``, so the defining module alone is not enough), and
wraps ``__init__`` of the traced classes, which catches constructions
however the class is reached. Each span holds name, start, end, parent
span, command id and pass index, plus a few counts taken from arguments
or results. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from contextlib import contextmanager

PACKAGE = "neumann_bounds"
MODULES = ("geometry", "poincare", "qc_transfer", "oracle", "cli")

# per-layer metrics: (metric name, unit, kind); kind "self" is summed self
# time, "calls" a span count, "sum:<attr>"/"max:<attr>" aggregate a span
# attribute, "ratio:<attr>" is the attribute's sum over the span count
LAYER_METRICS = (
    ("oracle.neumann_mu2.self_s", "s", "self"),
    ("oracle.neumann_mu2.calls", "count", "calls"),
    ("oracle.neumann_mu2.dof_sum", "count", "sum:dof"),
    ("oracle.neumann_mu2.residual_max", "ratio", "max:residual"),
    ("oracle.p1_matrices.self_s", "s", "self"),
    ("oracle.mesh_domain.self_s", "s", "self"),
    ("oracle.TriangleMesh.self_s", "s", "self"),
    ("oracle.TriangleMesh.nodes_sum", "count", "sum:nodes"),
    ("oracle.minimize_rayleigh_p.self_s", "s", "self"),
    ("oracle.minimize_rayleigh_p.iterations", "count", "sum:iterations"),
    ("oracle.minimize_rayleigh_p.cap_hit_ratio", "ratio", "ratio:cap_hit"),
    ("oracle.project_constraint.self_s", "s", "self"),
    ("oracle.project_constraint.calls", "count", "calls"),
    ("oracle.check_domination.calls", "count", "calls"),
    ("oracle.check_domination.passed_ratio", "ratio", "ratio:passed"),
    ("geometry.ConvexCell.self_s", "s", "self"),
    ("geometry.ConvexCell.calls", "count", "calls"),
    ("geometry.intersection_volume.self_s", "s", "self"),
    ("geometry.intersection_volume.calls", "count", "calls"),
    ("geometry.triple_link_volume.self_s", "s", "self"),
    ("geometry.build_snowflake_tree.self_s", "s", "self"),
    ("geometry.build_star_domain.self_s", "s", "self"),
    ("poincare.chain_constant.self_s", "s", "self"),
    ("poincare.tree_constant.self_s", "s", "self"),
    ("poincare.snowflake_bound.self_s", "s", "self"),
    ("poincare.ratio_test_tail.calls", "count", "calls"),
    ("qc_transfer.QCMapData.self_s", "s", "self"),
    ("qc_transfer.q_pq_norm.self_s", "s", "self"),
    ("qc_transfer.q_pq_norm.calls", "count", "calls"),
    ("qc_transfer.eigen_transfer.self_s", "s", "self"),
    ("cli.main.self_s", "s", "self"),
    ("cli.render_report.self_s", "s", "self"),
    ("cli.rect_cover_multiplicity.self_s", "s", "self"),
)

# the traced layer functions and constructors, as "module.name"
TRACED = tuple(dict.fromkeys(name.rsplit(".", 1)[0] for name, _, _ in LAYER_METRICS))


class Tracer:
    """Collects spans while installed; command and pass ids are set by the caller."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, command, pass, attrs]
        self.stack: list[int] = []
        self.command = -1
        self.pass_index = -1
        self.missing: list[str] = []

    def _wrap(self, name: str, func, observe=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.command, self.pass_index, None]
            spans.append(span)
            stack.append(index)
            try:
                if observe is None:
                    return func(*args, **kwargs)
                result, attrs = observe(func, args, kwargs)
                span[6] = attrs
                return result
            finally:
                stack.pop()
                span[2] = time.perf_counter()

        traced.__wrapped__ = func
        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of the traced names; restore them on exit."""
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
        ]
        restore: list[tuple[object, str, object]] = []
        self.missing = []
        try:
            for full in TRACED:
                mod_name, attr = full.split(".")
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(full)
                    continue
                if inspect.isclass(original):
                    init = original.__init__
                    wrapped = self._wrap(full, init, OBSERVERS.get(full))
                    restore.append((original, "__init__", init))
                    original.__init__ = wrapped
                    continue
                wrapped = self._wrap(full, original, OBSERVERS.get(full))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, value))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for target, key, value in reversed(restore):
                setattr(target, key, value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# observers: call the original and extract counts from arguments or results
# ---------------------------------------------------------------------------


def _observe_mu2(func, args, kwargs):
    result = func(*args, **kwargs)
    return result, {"dof": int(result.dof), "residual": float(result.residual)}


def _observe_mesh(func, args, kwargs):
    func(*args, **kwargs)
    return None, {"nodes": int(args[0].node_count)}


def _observe_descent(func, args, kwargs):
    """Ask for the iteration info the caller did not request; return the value."""
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    wanted = bound.arguments.pop("return_info", False)
    value, info = func(*bound.args, **{**bound.kwargs, "return_info": True})
    cap = bound.arguments["iterations"] * bound.arguments["starts"]
    attrs = {"iterations": int(info["iterations"]), "cap_hit": int(info["iterations"] >= cap)}
    return ((value, info) if wanted else value), attrs


def _observe_domination(func, args, kwargs):
    result = func(*args, **kwargs)
    return result, {"passed": int(bool(result.passed))}


OBSERVERS = {
    "oracle.neumann_mu2": _observe_mu2,
    "oracle.TriangleMesh": _observe_mesh,
    "oracle.minimize_rayleigh_p": _observe_descent,
    "oracle.check_domination": _observe_domination,
}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def read_spans(path: str) -> list[list]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct child spans."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def per_pass_totals(spans: list[list]) -> dict[int, dict[str, dict[str, float]]]:
    """{pass: {span name: {"self", "calls", attr sums/maxima}}}."""
    own = self_times(spans)
    out: dict[int, dict[str, dict[str, float]]] = {}
    for span, self_s in zip(spans, own):
        name, attrs = span[0], span[6] or {}
        agg = out.setdefault(span[5], {}).setdefault(name, {"self": 0.0, "calls": 0})
        agg["self"] += self_s
        agg["calls"] += 1
        for key, value in attrs.items():
            agg[f"sum:{key}"] = agg.get(f"sum:{key}", 0) + value
            agg[f"max:{key}"] = max(agg.get(f"max:{key}", value), value)
    return out


def layer_metrics(spans: list[list], passes: list[int]) -> tuple[dict, dict]:
    """Per-layer metrics over the traced passes, plus consistency facts.

    Self times are the median over passes of each pass's total; counts,
    sums and ratios come from the first traced pass and must repeat
    exactly in every other pass (each pass runs identical commands).
    """
    totals = per_pass_totals(spans)
    metrics, mismatched = {}, []
    for name, unit, kind in LAYER_METRICS:
        layer = name.rsplit(".", 1)[0]
        per_pass = []
        for p in passes:
            agg = totals.get(p, {}).get(layer, {"self": 0.0, "calls": 0})
            if kind == "self":
                per_pass.append(agg["self"])
            elif kind == "calls":
                per_pass.append(agg["calls"])
            elif kind.startswith("ratio:"):
                attr = "sum:" + kind.split(":", 1)[1]
                per_pass.append(agg.get(attr, 0) / agg["calls"] if agg["calls"] else 0.0)
            else:
                per_pass.append(agg.get(kind, 0))
        if kind == "self":
            value = statistics.median(per_pass) if per_pass else 0.0
        else:
            value = per_pass[0] if per_pass else 0
            if kind != "max:residual" and any(v != value for v in per_pass):
                mismatched.append(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, {"count_mismatch": mismatched}
