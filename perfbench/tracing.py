"""Per-layer tracing of ``alcove`` from outside the package.

:meth:`Tracer.install` replaces the public functions and methods listed in
:data:`TRACED` with wrappers.  A function is rebound in every ``alcove``
module that holds it, because ``from .x import y`` copies the name: a wrapper
set only on the defining module would miss every internal call.

Two kinds of wrapper:

* ``count`` adds one to ``<name>.calls``; used for the group operations,
  which run millions of times per run and would drown in span records;
* ``span`` records (name, start, end, parent span, query) in memory and
  counts calls; a size function may also sum the size of each result.

Self time of a span is its duration minus the durations of its direct child
spans (calls on one thread nest, so children never overlap).  ``<name>.self_s``
sums self time over all spans of that name.  Counts are deterministic for a
fixed amount of work; times are not.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, metric name, wrapper kind, result size metric)
TRACED = [
    ("root_data", "FiniteWeylElt.inverse", "root_data.FiniteWeylElt.inverse", "count", None),
    ("root_data", "FiniteWeylElt.act", "root_data.FiniteWeylElt.act", "count", None),
    ("affine_weyl", "ExtAffineElt.__mul__", "affine_weyl.mul", "count", None),
    ("affine_weyl", "ExtAffineElt.inverse", "affine_weyl.inverse", "count", None),
    ("affine_weyl", "length", "affine_weyl.length", "count", None),
    ("affine_weyl", "bruhat_interval", "affine_weyl.bruhat_interval", "span", "elements"),
    ("affine_weyl", "bruhat_leq", "affine_weyl.bruhat_leq", "span", None),
    ("affine_weyl", "up_leq", "affine_weyl.up_leq", "span", None),
    ("affine_weyl", "adm_eta", "affine_weyl.adm_eta", "span", None),
    ("affine_weyl", "restricted_reps", "affine_weyl.restricted_reps", "span", None),
    ("affine_weyl", "diamond", "affine_weyl.diamond", "span", None),
    ("weights_dl", "c0_presentations", "weights_dl.c0_presentations", "span", "results"),
    ("weights_dl", "max_genericity", "weights_dl.max_genericity", "span", None),
    ("weights_dl", "jh_set", "weights_dl.jh_set", "span", None),
    ("weights_dl", "presentations_of", "weights_dl.presentations_of", "span", None),
    ("herzig", "wset", "herzig.wset", "span", None),
    ("herzig", "wset_with_presentations", "herzig.wset", "span", None),
    ("herzig", "wobv", "herzig.wobv", "span", None),
    ("herzig", "wobv_with_presentations", "herzig.wobv", "span", None),
    ("herzig", "connectivity_graph", "herzig.connectivity_graph", "span", None),
    ("herzig", "eliminate", "herzig.eliminate", "span", None),
    ("herzig", "EliminationCertificate.verify", "herzig.certificate_verify", "span", None),
    ("herzig", "admissible_pair", "herzig.admissible_pair", "span", None),
]


class Tracer:
    def __init__(self) -> None:
        self.on = True
        self.query = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []

    def _count(self, name: str, fn):
        key = name + ".calls"
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.on:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name: str, fn, size: str | None):
        name_id = len(self.names)
        self.names.append(name)
        calls, size_key = name + ".calls", f"{name}.{size}"
        counts, spans, stack = self.counts, self.spans, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            counts[calls] += 1
            record = [name_id, clock(), 0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if size:
                counts[size_key] += len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry of TRACED, in every loaded ``alcove`` module."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "alcove" or k.startswith("alcove."))]
        for module_name, path, name, kind, size in TRACED:
            owner = importlib.import_module(f"alcove.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._count(name, original) if kind == "count" else self._span(name, original, size)
            setattr(owner, attr, wrapped)
            if not outer:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def metrics(self) -> dict[str, float]:
        """Counts plus per-name self time in seconds."""
        child = [0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = dict(self.counts)
        for name in self.names:
            out.setdefault(f"{name}.self_s", 0.0)
        for idx, (name_id, start, end, _, _) in enumerate(self.spans):
            out[f"{self.names[name_id]}.self_s"] += (end - start - child[idx]) / 1e9
        return out

    def dump(self, path) -> None:
        """Write every span, in start order, with the name table."""
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "query"],
                       "names": self.names, "spans": self.spans}, handle)
