"""Span tracing from outside the program.

The tracer replaces each public function of the padyn layer modules with
a wrapper, in every layer module that binds it, so a call is traced under
the name its caller looks it up by: ``dynamics.eval_map`` and
``mahler.eval_map`` are separate span names for the one function
``mapdsl.eval_map``.  Nothing under ``src/`` is edited.

Each wrapped call records one span: name, start, end, parent span and job
id.  Spans stay in compact in-memory arrays until the pass ends, then are
written out and reduced to per-function calls, inclusive time and self
time (duration minus the time covered by child spans).
"""
from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "mapdsl", "padic", "automata", "mahler", "dynamics")


def _plot_cells(args, kwargs, result, fn) -> int:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    a = bound.arguments
    return a["p"] ** (a["n"] + a["k"])


def _table_cells(args, kwargs, result, fn) -> int:
    return len(result.table)


# Table entries enumerated per call, counted at the layer boundary.
CELLS = {
    "dynamics.level_map": _table_cells,
    "dynamics.padded_endomap": _table_cells,
    "dynamics.plot_points": _plot_cells,
}


class Tracer:
    """Owns the span arrays and the patches; ``uninstall`` undoes them."""

    def __init__(self) -> None:
        self.site_names: list[str] = []  # span name per site id
        self.site_funcs: list[str] = []  # defining "layer.function" per site id
        self.name = array("H")
        self.parent = array("i")
        self.job = array("H")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.job_id = 0
        self.cells: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        """Wrap every public function of each layer module of ``package``
        at every layer-module binding of it."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        owners = {}
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    owners[fn] = f"{layer}.{attr}"
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                func = owners.get(value) if inspect.isfunction(value) else None
                if func is None:
                    continue
                site = len(self.site_names)
                self.site_names.append(f"{layer}.{attr}")
                self.site_funcs.append(func)
                self._patches.append((module, attr, value))
                setattr(module, attr, self._wrap(value, site, CELLS.get(func), func))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, fn, site, cells, func):
        names, parents, jobs = self.name.append, self.parent.append, self.job.append
        starts_append, ends_append = self.start.append, self.end.append
        starts, ends, stack = self.start, self.end, self.stack
        counter = self.cells
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names(site)
            parents(stack[-1])
            jobs(tracer.job_id)
            starts_append(0)
            ends_append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if cells is not None:
                counter[func] += cells(args, kwargs, result, fn)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def write(self, stem: Path, jobs: list[str]) -> None:
        """Write the spans: ``stem.json`` holds names and layout, ``stem.bin``
        the arrays name, parent, job, start, end in that order."""
        meta = {
            "spans": len(self),
            "site_names": self.site_names,
            "site_funcs": self.site_funcs,
            "jobs": jobs,
            "arrays": [["name", "H"], ["parent", "i"], ["job", "H"], ["start_ns", "q"], ["end_ns", "q"]],
        }
        stem.parent.mkdir(parents=True, exist_ok=True)
        stem.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as out:
            for arr in (self.name, self.parent, self.job, self.start, self.end):
                arr.tofile(out)

    def summary(self) -> tuple[dict[str, dict[str, float]], list[dict[str, int]]]:
        """Per defining function: calls, inclusive seconds and self seconds;
        and per job id, the calls of each function.

        Inclusive time counts only spans with no ancestor of the same
        function, so recursion is not counted twice.
        """
        func_ids = {f: i for i, f in enumerate(dict.fromkeys(self.site_funcs))}
        site_func = [func_ids[f] for f in self.site_funcs]
        count = len(self)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * count
        func_of = [site_func[n] for n in self.name]
        masks = [0] * count
        nfunc = len(func_ids)
        calls = [0] * nfunc
        incl = [0] * nfunc
        job_calls: Counter[int] = Counter()
        parent, job = self.parent, self.job
        for i in range(count):
            p = parent[i]
            f = func_of[i]
            calls[f] += 1
            job_calls[job[i] * nfunc + f] += 1
            if p >= 0:
                child[p] += dur[i]
                mask = masks[i] = masks[p] | (1 << func_of[p])
            else:
                mask = 0
            if not (mask >> f) & 1:
                incl[f] += dur[i]
        self_ns = [0] * len(func_ids)
        for i in range(count):
            self_ns[func_of[i]] += dur[i] - child[i]
        funcs = list(func_ids)
        per_job: list[dict[str, int]] = [{} for _ in range(max(job, default=-1) + 1)]
        for key, n in sorted(job_calls.items()):
            per_job[key // nfunc][funcs[key % nfunc]] = n
        totals = {
            f: {"calls": calls[i], "s": incl[i] / 1e9, "self_s": self_ns[i] / 1e9}
            for f, i in func_ids.items()
        }
        return totals, per_job
