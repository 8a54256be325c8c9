"""Traced in-process run of one workload plan.

Started by run.py as a child process with PYTHONPATH pointing at the
checkout's `src`.  It wraps relalg's public functions from the outside
(nothing under src/ changes), feeds the plan's argv lists to
`relalg.cli.main` in this one process, and writes every span, counter
and stdout digest to a JSON file when it ends.

    python3 bench/traced.py --workload verify --seed 0 --seconds 20 --out spans.json

The current directory receives the workload's input files.  The set-up
runs once; the job list runs again and again until --seconds have passed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import time

import workloads

# (module, attribute, span name): the public entry points of each layer
SPANNED = [
    ("cli", "main", "cli.main"),
    ("fileformat", "load_structure", "fileformat.load_structure"),
    ("fileformat", "load_algebra", "fileformat.load_algebra"),
    ("fileformat", "save_structure", "fileformat.save_structure"),
    ("fileformat", "save_algebra", "fileformat.save_algebra"),
    ("structures", "verify_weak", "structures.verify_weak"),
    ("structures", "verify_full", "structures.verify_full"),
    ("structures", "image", "structures.image"),
    ("structures", "degree_audit", "structures.degree_audit"),
    ("structures", "build_affine", "structures.build_affine"),
    ("structures", "build_doubled", "structures.build_doubled"),
    ("structures", "build_power", "structures.build_power"),
    ("xi", "build_xi", "xi.build_xi"),
    ("xi", "search_weakrep", "xi.search_weakrep"),
    ("xi", "montecarlo", "xi.montecarlo"),
    ("xi", "eval_bounds_power", "xi.eval_bounds_power"),
    ("terms", "parse_equation", "terms.parse_equation"),
    ("terms", "falsify", "terms.falsify"),
    ("lpn", "build_lpn", "lpn.build_lpn"),
    ("gf", "field_make", "gf.field_make"),
    ("complexity", "choose_params", "complexity.choose_params"),
]


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, job, attrs]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self.counts: dict = {}
        self._seen: dict = {}
        self._restore: list = []

    def begin_job(self, job: str) -> None:
        self.job = job
        self.counts[job] = {"compose_calls": 0, "compose_distinct": 0,
                            "product_rows_calls": 0, "product_rows_rows": 0}
        self._seen = {}  # id(algebra) -> (algebra, set of (x, y)); holds the algebra

    def take(self) -> list:
        """The spans recorded so far; recording starts a new list."""
        spans, self.spans = self.spans, []
        return spans

    def spanned(self, name: str, fn, attrs=None):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return wrapper

    def _rebind(self, old, new) -> None:
        """Point every relalg module's name for `old` at `new`."""
        for mod in [m for k, m in sys.modules.items() if k.startswith("relalg")]:
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)
                    self._restore.append((mod, attr, old))

    def install(self) -> None:
        import relalg.cli  # noqa: F401  (imports every layer)
        from relalg import algebra, structures, xi

        attrs = {
            "structures.verify_weak": _verify_attrs,
            "structures.verify_full": _verify_attrs,
            "fileformat.load_structure": _load_attrs,
            "fileformat.load_algebra": _load_attrs,
            "terms.falsify": lambda a, k, r: {"mode": k.get("mode", "exhaustive"), "tried": r.tried},
        }
        for module, attr, name in SPANNED:
            old = getattr(sys.modules[f"relalg.{module}"], attr)
            self._rebind(old, self.spanned(name, old, attrs.get(name)))
        # the generic verifier as strict search calls it
        old = xi.verify_weak
        xi.verify_weak = self.spanned("xi.strict_verify", old)
        self._restore.append((xi, "verify_weak", old))

        cls = xi.XiFastChecker
        for attr, name, fn_attrs in (("__init__", "xi.checker_init", None),
                                     ("check", "xi.check", _check_attrs)):
            old = getattr(cls, attr)
            setattr(cls, attr, self.spanned(name, old, fn_attrs))
            self._restore.append((cls, attr, old))

        tracer = self
        compose = algebra.FiniteRelationAlgebra.compose_masks

        def compose_masks(alg, x, y):
            counts = tracer.counts[tracer.job]
            counts["compose_calls"] += 1
            entry = tracer._seen.get(id(alg))
            if entry is None:
                entry = tracer._seen[id(alg)] = (alg, set())
            key = (x, y)
            if key not in entry[1]:
                entry[1].add(key)
                counts["compose_distinct"] += 1
            return compose(alg, x, y)

        algebra.FiniteRelationAlgebra.compose_masks = compose_masks
        self._restore.append((algebra.FiniteRelationAlgebra, "compose_masks", compose))

        product = structures.product_rows

        def product_rows(xrows, yrows):
            counts = tracer.counts[tracer.job]
            counts["product_rows_calls"] += 1
            counts["product_rows_rows"] += len(xrows)
            return product(xrows, yrows)

        self._rebind(product, product_rows)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()


def _verify_attrs(args, kwargs, report):
    kind = {"atom-labeling": "labeling"}.get(args[0].kind, args[0].kind)
    return {"kind": kind, "pairs": report.pairs_checked, "ok": report.ok}


def _load_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _check_attrs(args, kwargs, report):
    return {"conditions": report.conditions_checked, "ok": report.ok,
            "family": None if report.ok else report.certificate.condition}


def run_inprocess(argv: list) -> tuple[int, bytes]:
    from relalg import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback exits 1 in a subprocess too
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = 1
    return code, out.getvalue().encode()


def probe_images(paths: list) -> dict:
    """Time the public image() on every element of each structure."""
    from relalg import fileformat, structures

    totals: dict = {}
    for path, kind in paths:
        s = fileformat.load_structure(path)
        t0 = time.perf_counter()
        for mask in range(s.algebra.top_mask + 1):
            structures.image(s, mask)
        spent = time.perf_counter() - t0
        seconds, calls = totals.get(kind, (0.0, 0))
        totals[kind] = (seconds + spent, calls + s.algebra.top_mask + 1)
    return totals


def run_steps(tracer: Tracer, steps: list, prefix: str) -> list:
    results = []
    for i, step in enumerate(steps):
        if isinstance(step, workloads.Rewrite):
            results.append({"name": step.name, "problems": step.fn(".")})
            continue
        job_id = f"{prefix}:{i}"
        tracer.begin_job(job_id)
        code, out = run_inprocess(step.argv)
        results.append({"name": step.name, "job": job_id, "exit": code,
                        "sha256": hashlib.sha256(out).hexdigest()})
    return results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    plan = workloads.PLANS[args.workload](args.seed)

    tracer = Tracer()
    tracer.install()
    setup = {"results": run_steps(tracer, plan.setup, "setup")}
    setup["spans"] = tracer.take()
    passes = []
    deadline = time.monotonic() + args.seconds
    while not passes or time.monotonic() < deadline:
        t0 = time.perf_counter()
        results = run_steps(tracer, plan.jobs, f"job{len(passes)}")
        passes.append({"results": results, "wall_s": time.perf_counter() - t0,
                       "spans": tracer.take()})
    tracer.uninstall()
    images = probe_images(plan.probe)

    with open(args.out, "w") as fh:
        json.dump({"setup": setup, "passes": passes, "counts": tracer.counts,
                   "images": images}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
