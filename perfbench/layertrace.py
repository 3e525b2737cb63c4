"""Layer tracing from outside the library.

The tracer wraps every public function and every public-class method of the
seven library layers, in every module namespace that binds the same object,
so a call is seen however it was reached (``transport.rk4_transport_path``
is the same function as ``kernels.rk4_transport_path``).  Each call becomes a
span ``(name, layer, start, end, parent, op_id)`` kept in memory; self time is
a span's duration minus that of its children.  A few calls also feed
counters: kernel steps by matrix size, exchange-rotation directions, and
evaluations of the polynomial closures built by ``polynomial_field``.

Nothing in the library changes: ``install`` patches module and class
attributes and ``uninstall`` restores them.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

PACKAGE = "spinbundles"
LAYERS = (
    "config_space",
    "line_bundle",
    "section_algebra",
    "transport",
    "kernels",
    "berry_robbins",
    "experiments",
)

# Dunder methods that do work worth attributing; other dunders (repr, eq,
# the generated __init__) are left alone.
TRACED_DUNDERS = ("__call__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__post_init__")

FIVE_STEP = ("experiments.five_step_experiment", "experiments.five_step_from_coefficient")
KERNEL_PATH = "kernels.rk4_transport_path"


def rk4_flops_per_step(n: int) -> int:
    """Real flops of one RK4 step in kernels._rk4_chain for an n x n generator.

    Four complex matrix-vector products (8 flops per complex multiply-add,
    so 32 n^2) plus the vector updates: three stage arguments and the
    weighted sum, about 24 n real flops.
    """
    return 32 * n * n + 24 * n


def rk4_bytes_per_step(n: int) -> int:
    """Bytes one RK4 step reads and writes, computed from array shapes.

    Each step reads two fresh complex128 generator samples (the midpoint and
    the next node; the current node was read by the previous step) and
    writes one n-vector of the path.  Cache behaviour is not modelled.
    """
    return 2 * 16 * n * n + 16 * n


class Tracer:
    """Spans and counters of the library's layers while installed; see the module doc."""

    def __init__(self):
        self.modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.kernel_ns: dict[int, int] = defaultdict(int)
        self.kernel_steps: dict[int, int] = defaultdict(int)
        self.op_id = None
        self.recording = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.kernel_ns.clear()
        self.kernel_steps.clear()
        self._stack.clear()

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        meter = _METERS.get(name)
        counts_evals = name == "section_algebra.polynomial_field"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                result = fn(*args, **kwargs)
            else:
                stack = tracer._stack
                parent = stack[-1] if stack else -1
                index = len(tracer.spans)
                tracer.spans.append(None)
                stack.append(index)
                start = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    stack.pop()
                    tracer.spans[index] = (name, layer, start, end, parent, tracer.op_id)
                if meter is not None:
                    meter(tracer, args, kwargs, result, end - start)
            # Fields built while the tracer is installed count their
            # evaluations, whether or not the build itself was recorded.
            return tracer._counting(result) if counts_evals else result

        return traced

    def _counting(self, field):
        """The field built by polynomial_field, with an evaluator that counts its calls."""
        inner = field.evaluator

        def counted(xs):
            if self.recording:
                self.counts["poly_evals"] += 1
            return inner(xs)

        return dataclasses.replace(field, evaluator=counted)

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and public-class method of the layers."""
        wrapped: dict[int, object] = {}
        namespaces = self.modules + [importlib.import_module(PACKAGE)]
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._patch(ns, attr, obj, wrapped[id(obj)])

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, raw, type(raw)(self._wrap(raw.__func__, name, layer)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, raw, self._wrap(raw, name, layer))

    def _patch(self, owner, attr, old, new) -> None:
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """(value, unit) of per-layer calls and self time and of the counters."""
        child_ns = [0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        five_step_ns = 0
        for i, (name, layer, start, end, parent, _) in enumerate(self.spans):
            calls[layer] += 1
            self_ns[layer] += end - start - child_ns[i]
            if name in FIVE_STEP and (parent < 0 or self.spans[parent][0] not in FIVE_STEP):
                five_step_ns += end - start
        steps = self.kernel_steps
        field_evals = sum(1 for span in self.spans if span[0] == "section_algebra.ScalarField.__call__")
        poly_evals = self.counts["poly_evals"]
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_ms"] = (self_ns[layer] / 1e6, "ms")
        out["kernels.steps"] = (sum(steps.values()), "count")
        for n in (3, 10):
            out[f"kernels.ns_per_step.n{n}"] = (self.kernel_ns[n] / steps[n] if steps[n] else 0.0, "ns")
        out["kernels.flops_computed"] = (sum(rk4_flops_per_step(n) * s for n, s in steps.items()), "flop")
        out["kernels.bytes_computed"] = (sum(rk4_bytes_per_step(n) * s for n, s in steps.items()), "B")
        out["berry_robbins.exchange_points"] = (self.counts["exchange_points"], "count")
        out["section_algebra.field_evals"] = (field_evals, "count")
        out["section_algebra.poly_evals"] = (poly_evals, "count")
        out["section_algebra.poly_evals_per_field_eval"] = (poly_evals / field_evals if field_evals else 0.0, "ratio")
        out["experiments.five_step_ms"] = (five_step_ns / 1e6, "ms")
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per span: name, layer, start/end (ns), parent index, op id."""
        with open(path, "w") as fh:
            for name, layer, start, end, parent, op_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "layer": layer, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )


def _kernel_meter(tracer: Tracer, args, kwargs, result, elapsed_ns: int) -> None:
    gen = args[0] if args else kwargs["gen"]
    n = gen.shape[1]
    tracer.kernel_steps[n] += (gen.shape[0] - 1) // 2
    tracer.kernel_ns[n] += elapsed_ns


def _exchange_meter(tracer: Tracer, args, kwargs, result, elapsed_ns: int) -> None:
    # result has shape (..., 10, 10): one rotation per direction passed in.
    tracer.counts["exchange_points"] += result.size // 100


_METERS = {
    KERNEL_PATH: _kernel_meter,
    "berry_robbins.exchange_full_angles": _exchange_meter,
}
