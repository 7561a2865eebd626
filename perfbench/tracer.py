"""Outside-in tracing of cyclecoh's layers.

`Tracer.install()` wraps the public functions of each cyclecoh module
with transparent spans (arguments and results are passed through, nothing
is cached) and patches every name under which a cyclecoh module looks
them up; methods are patched on their class.  `layer_metrics()` turns
the spans of one job into the per-layer metrics named in
`PER_LAYER_METRICS`.

Run as a script it is one traced job:

    PYTHONPATH=src python3 perfbench/tracer.py --spans FILE --job N -- <cyclecoh argv>

which calls `cyclecoh.cli.main(argv)` under the tracer, writes the spans
as JSON to FILE and exits with the CLI's exit code.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict


def _smith_attrs(args, kwargs, result):
    A = args[0]
    k = args[2] if len(args) > 2 else kwargs["k"]
    rows, cols = A.shape
    # local_smith pads the diagonal with k for the zero part
    return {"rows": rows, "cols": cols, "pivots": sum(1 for e in result[0] if e < k)}


def _matmul_attrs(args, kwargs, result):
    a, b = args
    if result is NotImplemented:
        return None
    return {"nnz_in": a.nnz + b.nnz, "nnz_out": result.nnz}


def _route_attrs(args, kwargs, result):
    return {"route": args[3] if len(args) > 3 else kwargs["method"]}


# (module, attribute, span name, attribute recorder); an attribute
# "Class.method" patches the class
TARGETS = (
    ("cli", "run", "cli.run", None),
    ("modular", "local_smith", "modular.local_smith", _smith_attrs),
    ("modular", "kernel_mod_pk", "modular.kernel_mod_pk", None),
    ("modular", "quotient_mod_pk", "modular.quotient_mod_pk", None),
    ("abelian", "hom_cohomology_at", "abelian.hom_cohomology_at", None),
    ("abelian", "IntegerMatrix.__matmul__", "abelian.IntegerMatrix.matmul", _matmul_attrs),
    ("homology_engine", "perturb_double_complex", "homology_engine.perturb_double_complex", None),
    ("homology_engine", "total_complex", "homology_engine.total_complex", None),
    ("homology_engine", "DoubleComplex.validate", "homology_engine.DoubleComplex.validate", None),
    ("cyclic_resolution", "coefficient_complex", "cyclic_resolution.coefficient_complex", None),
    ("lcs_cohomology", "full_double_complex", "lcs_cohomology.full_double_complex", None),
    ("lcs_cohomology", "reduced_complex", "lcs_cohomology.reduced_complex", None),
    ("lcs_cohomology", "cohomology", "lcs_cohomology.cohomology", _route_attrs),
    ("lcs_cohomology", "verify_cocycle", "lcs_cohomology.verify_cocycle", None),
    ("lcs_cohomology", "cocycle_family", "lcs_cohomology.cocycle_family", None),
    ("extensions", "enumerate_extension_classes", "extensions.enumerate_extension_classes", None),
    ("extensions", "build_extension", "extensions.build_extension", None),
    ("extensions", "verify_central_extension", "extensions.verify_central_extension", None),
    ("extensions", "extensions_equivalent", "extensions.extensions_equivalent", None),
    ("cycleset", "make_cyclic_lcs", "cycleset.make_cyclic_lcs", None),
)
# (module, attribute, counter name): called too often for a span each
INIT_COUNTER = "abelian.IntegerMatrix.init.calls"
COUNTED = (("abelian", "IntegerMatrix.__init__", INIT_COUNTER),)

# name -> (unit, better); the names BENCHMARK.json lists as per_layer
PER_LAYER_METRICS = {
    "cli.run.s": ("s", "lower"),
    "modular.local_smith.calls": ("count", "lower"),
    "modular.local_smith.s": ("s", "lower"),
    "modular.local_smith.pivots": ("count", "lower"),
    "modular.local_smith.cells": ("count", "lower"),
    "modular.local_smith.computed_bytes": ("B", "lower"),
    "modular.local_smith.max_rows": ("count", "lower"),
    "modular.local_smith.max_cols": ("count", "lower"),
    "modular.kernel_mod_pk.calls": ("count", "lower"),
    "modular.kernel_mod_pk.s": ("s", "lower"),
    "modular.quotient_mod_pk.calls": ("count", "lower"),
    "modular.quotient_mod_pk.s": ("s", "lower"),
    "abelian.hom_cohomology_at.calls": ("count", "lower"),
    "abelian.hom_cohomology_at.self_s": ("s", "lower"),
    "abelian.IntegerMatrix.matmul.calls": ("count", "lower"),
    "abelian.IntegerMatrix.matmul.s": ("s", "lower"),
    "abelian.IntegerMatrix.matmul.self_s": ("s", "lower"),
    "abelian.IntegerMatrix.matmul.nnz_in": ("count", "lower"),
    "abelian.IntegerMatrix.matmul.nnz_out": ("count", "lower"),
    INIT_COUNTER: ("count", "lower"),
    "homology_engine.perturb_double_complex.calls": ("count", "lower"),
    "homology_engine.perturb_double_complex.s": ("s", "lower"),
    "homology_engine.perturb_double_complex.self_s": ("s", "lower"),
    "homology_engine.total_complex.s": ("s", "lower"),
    "homology_engine.DoubleComplex.validate.s": ("s", "lower"),
    "cyclic_resolution.coefficient_complex.calls": ("count", "lower"),
    "cyclic_resolution.coefficient_complex.s": ("s", "lower"),
    "lcs_cohomology.full_double_complex.calls": ("count", "lower"),
    "lcs_cohomology.full_double_complex.s": ("s", "lower"),
    "lcs_cohomology.reduced_complex.calls": ("count", "lower"),
    "lcs_cohomology.reduced_complex.self_s": ("s", "lower"),
    "lcs_cohomology.full_cache.hit_ratio": ("ratio", "higher"),
    "lcs_cohomology.reduced_cache.hit_ratio": ("ratio", "higher"),
    "lcs_cohomology.cohomology.calls": ("count", "lower"),
    "lcs_cohomology.cohomology.s": ("s", "lower"),
    "lcs_cohomology.verify_cocycle.s": ("s", "lower"),
    "lcs_cohomology.cocycle_family.s": ("s", "lower"),
    "extensions.enumerate_extension_classes.s": ("s", "lower"),
    "extensions.build_extension.calls": ("count", "lower"),
    "extensions.build_extension.self_s": ("s", "lower"),
    "extensions.verify_central_extension.calls": ("count", "lower"),
    "extensions.verify_central_extension.s": ("s", "lower"),
    "extensions.extensions_equivalent.calls": ("count", "lower"),
    "extensions.extensions_equivalent.s": ("s", "lower"),
    "cycleset.make_cyclic_lcs.calls": ("count", "lower"),
    "cycleset.make_cyclic_lcs.s": ("s", "lower"),
    # wall time of the traced job process, measured by the harness; minus
    # the untraced wall_s it is the tracing overhead
    "trace.wall_s": ("s", "lower"),
}


class Tracer:
    """Spans and counters for one job, kept in memory until `dump()`."""

    def __init__(self, job=0):
        self.job = job
        self.spans = []  # (id, name, job, parent, start, end, nested, attrs)
        self.counters = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    def wrap(self, fn, name, attrs=None):
        """A transparent wrapper that records one span per call of fn."""
        spans, job, ids, local = self.spans, self.job, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1][0] if stack else None
            nested = any(n == name for _, n in stack)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, name, job, parent, start, time.perf_counter(), nested, None))
                stack.pop()
                raise
            end = time.perf_counter()
            stack.pop()
            extra = attrs(args, kwargs, result) if attrs else None
            spans.append((sid, name, job, parent, start, end, nested, extra))
            return result

        return traced

    def count(self, fn, name):
        """A transparent wrapper that only counts calls of fn."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every target in TARGETS and COUNTED; `uninstall()` undoes it."""
        importlib.import_module("cyclecoh.cli")
        modules = [m for n, m in list(sys.modules.items()) if n == "cyclecoh" or n.startswith("cyclecoh.")]
        wrappers = [(mod, attr, lambda fn, n=name, a=attrs: self.wrap(fn, n, a)) for mod, attr, name, attrs in TARGETS]
        wrappers += [(mod, attr, lambda fn, n=name: self.count(fn, n)) for mod, attr, name in COUNTED]
        for modname, attr, make in wrappers:
            owner = importlib.import_module("cyclecoh." + modname)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapped = make(original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
                continue
            # patch the name wherever a cyclecoh module looks it up
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapped)
        return self

    def _patch(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def dump(self):
        keys = ("id", "name", "job", "parent", "start", "end", "nested", "attrs")
        return {
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "counters": dict(self.counters),
        }


def summarize(spans):
    """Per span name: calls, inclusive seconds `s` and `self_s`.

    `s` sums only spans with no enclosing span of the same name, so
    recursion is not counted twice; `self_s` is each span's duration
    minus the durations of its direct children.
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s in spans:
        dur = s["end"] - s["start"]
        row = out[s["name"]]
        row["calls"] += 1
        if not s["nested"]:
            row["s"] += dur
        row["self_s"] += dur - child[s["id"]]
    return out


def layer_metrics(trace, wall_s):
    """The per-layer metrics of one traced job (every PER_LAYER_METRICS name)."""
    spans = trace["spans"]
    per = summarize(spans)
    metrics = {}
    for name in PER_LAYER_METRICS:
        base, _, stat = name.rpartition(".")
        if base in per and stat in ("calls", "s", "self_s"):
            metrics[name] = per[base][stat]
        else:
            metrics[name] = 0
    smith = [s["attrs"] for s in spans if s["name"] == "modular.local_smith" and s["attrs"]]
    cells = sum(a["rows"] * a["cols"] for a in smith)
    metrics.update({
        "modular.local_smith.pivots": sum(a["pivots"] for a in smith),
        "modular.local_smith.cells": cells,
        "modular.local_smith.computed_bytes": 8 * cells,
        "modular.local_smith.max_rows": max((a["rows"] for a in smith), default=0),
        "modular.local_smith.max_cols": max((a["cols"] for a in smith), default=0),
    })
    products = [s["attrs"] for s in spans if s["name"] == "abelian.IntegerMatrix.matmul" and s["attrs"]]
    metrics["abelian.IntegerMatrix.matmul.nnz_in"] = sum(a["nnz_in"] for a in products)
    metrics["abelian.IntegerMatrix.matmul.nnz_out"] = sum(a["nnz_out"] for a in products)
    metrics[INIT_COUNTER] = trace["counters"].get(INIT_COUNTER, 0)
    full_routes = sum(1 for s in spans if s["name"] == "lcs_cohomology.cohomology" and s["attrs"]["route"] == "full")
    metrics["lcs_cohomology.full_cache.hit_ratio"] = _hit_ratio(
        metrics["lcs_cohomology.full_double_complex.calls"], full_routes
    )
    metrics["lcs_cohomology.reduced_cache.hit_ratio"] = _hit_ratio(
        metrics["homology_engine.perturb_double_complex.calls"], metrics["lcs_cohomology.reduced_complex.calls"]
    )
    metrics["trace.wall_s"] = wall_s
    return metrics


def _hit_ratio(builds, requests):
    """1 - builds/requests; 0 when nothing was requested."""
    return 1 - builds / requests if requests else 0


def median_metrics(per_job):
    """Per metric, the median over the jobs of one run."""
    return {name: statistics.median(m[name] for m in per_job) for name in PER_LAYER_METRICS}


def main(argv=None):
    parser = argparse.ArgumentParser(description="run one cyclecoh CLI job under the tracer")
    parser.add_argument("--spans", required=True, help="file the spans are written to, as JSON")
    parser.add_argument("--job", type=int, default=0, help="job id recorded on every span")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv
    from cyclecoh import cli

    tracer = Tracer(args.job).install()
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.uninstall()
        with open(args.spans, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
