"""Spans recorded from outside the program, at the calls between its layers.

Each public function is wrapped where its caller looks it up: for example
``a2glos.fit.p_los`` is the closed form as ``build_dataset`` sees it from
its pool threads, and ``a2glos.rt_sim.los_blocked_fresnel`` is the
clearance test as ``estimate_p_los`` sees it. A span holds its name, its
thread, the span that caused it, and its start and end; spans stay in
memory until the pass ends and are then written out as JSON.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from pathlib import Path


def _epochs(args, result, fit):
    cfg = args.get("cfg") or fit.TrainConfig()
    return {"epochs": cfg.epochs}


def _links(args, result, fit):
    attempted = args["realizations"] * args["links_per_ring"] * len(args["d_grid"])
    return {"links": attempted, "valid": int(sum(result.n_links))}


#: (calling module, name it looks up, span name, extractor, measure CPU).
#: The extractor turns the bound arguments and the result into counts.
WRAPS = (
    ("cli", "p_los", "analytic.p_los", None, False),
    ("cli", "max_comm_distance", "analytic.max_comm_distance", None, False),
    ("cli", "p_los_vs_elevation", "analytic.p_los_vs_elevation", None, False),
    ("analytic", "p_los", "analytic.p_los", None, False),
    ("fit", "p_los", "analytic.p_los", None, False),
    ("cli", "p_los_approx", "approx.p_los_approx", None, False),
    ("fit", "p_los_approx", "approx.p_los_approx", None, False),
    ("cli", "mlp_forward", "approx.mlp_forward", None, False),
    ("fit", "mlp_forward", "approx.mlp_forward", None, False),
    ("cli", "load_mlp", "approx.load_mlp", None, False),
    ("cli", "save_mlp", "approx.save_mlp", None, False),
    ("cli", "build_dataset", "fit.build_dataset", None, True),
    ("fit", "fit_parametric_curve", "fit.fit_parametric_curve", None, False),
    ("cli", "train", "fit.train", _epochs, False),
    ("fit", "cost_and_gradient", "fit.cost_and_gradient", None, False),
    ("cli", "approx_vs_analytic_error", "fit.approx_vs_analytic_error", None, False),
    ("cli", "estimate_p_los", "rt_sim.estimate_p_los", _links, True),
    ("rt_sim", "synthesize_scene", "rt_sim.synthesize_scene",
     lambda args, result, fit: {"buildings": len(result)}, False),
    ("rt_sim", "los_blocked_fresnel", "rt_sim.los_blocked_fresnel", None, False),
    ("rt_sim", "los_blocked_geometric", "rt_sim.los_blocked_geometric", None, False),
    ("rt_sim", "worker_count", "workers.worker_count",
     lambda args, result, fit: {"workers": result}, False),
    ("fit", "worker_count", "workers.worker_count",
     lambda args, result, fit: {"workers": result}, False),
)

_NAME, _THREAD, _PARENT, _T0, _T1, _CPU0, _CPU1, _COUNTS = range(8)


class Tracer:
    """Wraps the layer boundaries of an imported a2glos and records spans."""

    def __init__(self, package):
        self._package = package
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[list] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, extract=None, cpu=False):
        """Return ``fn`` recording one span per call."""
        signature = inspect.signature(fn) if extract else None
        fit = self._package.fit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:  # a pool thread: caused by what the main thread has open
                parent = self._main_stack[-1] if self._main_stack else -1
            record = [name, threading.get_ident(), parent, time.perf_counter_ns(),
                      0, time.process_time_ns() if cpu else 0, 0, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[_T1] = time.perf_counter_ns()
                if cpu:
                    record[_CPU1] = time.process_time_ns()
            if extract is not None:
                bound = signature.bind(*args, **kwargs)
                record[_COUNTS] = extract(bound.arguments, result, fit)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, extract, cpu in WRAPS:
            module = getattr(self._package, module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, extract, cpu))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path, extra: dict) -> None:
        """Write every span, relative to the first start, with its counts."""
        base = min((s[_T0] for s in self.spans), default=0)
        threads: dict[int, int] = {}
        names: dict[str, int] = {}
        rows = []
        for s in self.spans:
            rows.append([
                names.setdefault(s[_NAME], len(names)),
                threads.setdefault(s[_THREAD], len(threads)),
                s[_PARENT], s[_T0] - base, s[_T1] - s[_T0], s[_COUNTS],
            ])
        doc = dict(extra, names=list(names), threads=len(threads),
                   columns=["name", "thread", "parent", "start_ns", "dur_ns", "counts"],
                   spans=rows)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, separators=(",", ":")))
        tmp.replace(path)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the recorded pass, as (value, unit)."""
        spans = self.spans
        by_name: dict[str, list[list]] = {}
        for s in spans:
            by_name.setdefault(s[_NAME], []).append(s)

        def calls(name):
            return len(by_name.get(name, ()))

        def busy_s(name):
            return sum(s[_T1] - s[_T0] for s in by_name.get(name, ())) / 1e9

        def mean(total, count, scale):
            return total * scale / count if count else 0.0

        def per_call(name, scale):
            return mean(busy_s(name), calls(name), scale)

        def counted(name, key):
            return sum(s[_COUNTS][key] for s in by_name.get(name, ()))

        def cpu_over_wall(name):
            group = by_name.get(name, ())
            wall = sum(s[_T1] - s[_T0] for s in group)
            cpu = sum(s[_CPU1] - s[_CPU0] for s in group)
            return cpu / wall if wall else 0.0

        # Self time: a span's duration less its direct children's. Children
        # of one span overlap only on pool threads, and no span with pool
        # children has its self time reported.
        child_ns: dict[str, int] = {}
        mcd_p_los = 0
        for s in spans:
            if s[_PARENT] >= 0:
                parent = spans[s[_PARENT]][_NAME]
                child_ns[parent] = child_ns.get(parent, 0) + s[_T1] - s[_T0]
                if parent == "analytic.max_comm_distance" and s[_NAME] == "analytic.p_los":
                    mcd_p_los += 1

        # The command layer's own time: command spans less the part of their
        # interval that library spans, on any thread, cover.
        library = sorted((s[_T0], s[_T1]) for s in spans if not s[_NAME].startswith("cli."))
        covered, end = 0, None
        for t0, t1 in library:
            if end is None or t0 > end:
                covered += t1 - t0
                end = t1
            elif t1 > end:
                covered += t1 - end
                end = t1
        cli_ns = sum(s[_T1] - s[_T0] for s in by_name.get("cli.main", ()))

        p_los_self = busy_s("analytic.p_los") - child_ns.get("analytic.p_los", 0) / 1e9
        links = counted("rt_sim.estimate_p_los", "links")
        valid = counted("rt_sim.estimate_p_los", "valid")
        estimate_s = busy_s("rt_sim.estimate_p_los")
        epochs = counted("fit.train", "epochs")
        workers = [s[_COUNTS]["workers"] for s in by_name.get("workers.worker_count", ())]
        return {
            "cli.self_ms": ((cli_ns - covered) / 1e6, "ms"),
            "cli.main.calls": (calls("cli.main"), "count"),
            "analytic.p_los.calls": (calls("analytic.p_los"), "count"),
            "analytic.p_los.self_us": (mean(p_los_self, calls("analytic.p_los"), 1e6), "us"),
            "analytic.p_los.busy_s": (busy_s("analytic.p_los"), "s"),
            "analytic.max_comm_distance.ms": (per_call("analytic.max_comm_distance", 1e3), "ms"),
            "analytic.max_comm_distance.p_los_calls": (mcd_p_los, "count"),
            "analytic.p_los_vs_elevation.ms": (per_call("analytic.p_los_vs_elevation", 1e3), "ms"),
            "approx.p_los_approx.calls": (calls("approx.p_los_approx"), "count"),
            "approx.p_los_approx.busy_s": (busy_s("approx.p_los_approx"), "s"),
            "approx.mlp_forward.calls": (calls("approx.mlp_forward"), "count"),
            "fit.build_dataset.s": (busy_s("fit.build_dataset"), "s"),
            "fit.fit_parametric_curve.ms": (per_call("fit.fit_parametric_curve", 1e3), "ms"),
            "fit.fit_parametric_curve.calls": (calls("fit.fit_parametric_curve"), "count"),
            "fit.cpu_over_wall": (cpu_over_wall("fit.build_dataset"), "ratio"),
            "fit.train.s": (busy_s("fit.train"), "s"),
            "fit.train.us_per_epoch": (mean(busy_s("fit.train"), epochs, 1e6), "us"),
            "fit.cost_and_gradient.calls": (calls("fit.cost_and_gradient"), "count"),
            "fit.approx_vs_analytic_error.s": (busy_s("fit.approx_vs_analytic_error"), "s"),
            "rt_sim.estimate_p_los.s": (estimate_s, "s"),
            "rt_sim.link_us": (mean(estimate_s, valid, 1e6), "us"),
            "rt_sim.synthesize_scene.ms": (per_call("rt_sim.synthesize_scene", 1e3), "ms"),
            "rt_sim.buildings": (counted("rt_sim.synthesize_scene", "buildings"), "count"),
            "rt_sim.los_blocked_fresnel.calls": (calls("rt_sim.los_blocked_fresnel"), "count"),
            "rt_sim.los_blocked_fresnel.busy_us": (per_call("rt_sim.los_blocked_fresnel", 1e6), "us"),
            "rt_sim.los_blocked_geometric.calls": (calls("rt_sim.los_blocked_geometric"), "count"),
            "rt_sim.los_blocked_geometric.busy_us": (per_call("rt_sim.los_blocked_geometric", 1e6), "us"),
            "rt_sim.links": (links, "count"),
            "rt_sim.valid_links": (valid, "count"),
            "rt_sim.valid_share": (valid / links if links else 0.0, "ratio"),
            "rt_sim.cpu_over_wall": (cpu_over_wall("rt_sim.estimate_p_los"), "ratio"),
            "workers.worker_count": (max(workers, default=0), "count"),
        }
