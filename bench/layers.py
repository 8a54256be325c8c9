"""Per-layer metrics from the spans and counters of a traced run.

A span is [name, start, end, parent index, job id, attrs].  A span's self
time is its duration minus the durations of its child spans; spans nest
strictly because the traced run is single-threaded.  Names are
`<layer>.<function>`, the layers being the modules of src/relalg.
"""

from __future__ import annotations

# algebra is counted (compose_masks), not timed: its only spanned entry point,
# check_axioms, runs in no workload
LAYERS = ("cli", "fileformat", "structures", "xi", "terms", "lpn", "gf")
KINDS = ("labeling", "power", "xi")
FAMILIES = (
    "union-defect",
    "class-row",
    "class-column",
    "same-class-witness",
    "mixed-class-witness",
    "slope-class-witness",
)
MODES = ("exhaustive", "random")


def joined(first: list, second: list) -> list:
    """One span list from two, with the second's parent indices shifted."""
    shift = len(first)
    return first + [s[:3] + [s[3] + shift if s[3] >= 0 else -1] + s[4:] for s in second]


def self_times(spans: list) -> list:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def check_nesting(spans: list) -> list:
    """Every span lies inside its parent, shares its job, and each job's
    self times add up to its root span's duration."""
    problems = []
    roots: dict = {}
    for i, s in enumerate(spans):
        if s[3] < 0:
            if s[4] in roots:
                problems.append(f"job {s[4]} has more than one root span")
            roots[s[4]] = i
            continue
        parent = spans[s[3]]
        if parent[4] != s[4] or not parent[1] <= s[1] <= s[2] <= parent[2]:
            problems.append(f"span {i} ({s[0]}) is not inside its parent {parent[0]}")
    totals: dict = {}
    for s, own in zip(spans, self_times(spans)):
        totals[s[4]] = totals.get(s[4], 0.0) + own
    for job, i in roots.items():
        wall = spans[i][2] - spans[i][1]
        if abs(totals[job] - wall) > 1e-9 + 1e-9 * wall:
            problems.append(f"job {job}: self times sum to {totals[job]}, root lasted {wall}")
    return problems


def self_by_name(spans: list) -> dict:
    out: dict = {}
    for s, own in zip(spans, self_times(spans)):
        out[s[0]] = out.get(s[0], 0.0) + own
    return out


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def metrics(spans: list, counts: dict, images: dict, startup_s: float,
            overhead_s: float) -> dict:
    """The per_layer metrics of BENCHMARK.json, by name: (value, unit)."""
    dur = lambda s: s[2] - s[1]
    named = lambda *names: [s for s in spans if s[0] in names]
    in_jobs = lambda ss: [s for s in ss if s[4].startswith("job")]
    out: dict = {"cli.startup_s": (startup_s, "s")}

    loads = in_jobs(named("fileformat.load_structure", "fileformat.load_algebra"))
    load_ids = {id(s) for s in loads}
    outer = [s for s in loads if s[3] < 0 or id(spans[s[3]]) not in load_ids]
    out["fileformat.load_s"] = (sum(map(dur, outer)), "s")
    out["fileformat.load_bytes"] = (sum(s[5]["bytes"] for s in loads), "bytes")
    out["fileformat.save_s"] = (
        sum(map(dur, named("fileformat.save_structure", "fileformat.save_algebra"))), "s")

    verifies = named("structures.verify_weak", "structures.verify_full")
    for kind in KINDS:
        ss = [s for s in verifies if s[5]["kind"] == kind]
        seconds, pairs = sum(map(dur, ss)), sum(s[5]["pairs"] for s in ss)
        out[f"structures.verify.{kind}_s"] = (seconds, "s")
        out[f"structures.verify.{kind}.pairs"] = (pairs, "count")
        out[f"structures.verify.{kind}.pairs_per_s"] = (_rate(pairs, seconds), "1/s")
    job_counts = list(counts.values())
    out["structures.product_rows.calls"] = (sum(c["product_rows_calls"] for c in job_counts), "count")
    out["structures.product_rows.rows"] = (sum(c["product_rows_rows"] for c in job_counts), "count")
    for kind in KINDS:
        seconds, calls = images.get(kind, (0.0, 0))
        out[f"structures.image.{kind}_us"] = (1e6 * seconds / calls if calls else 0.0, "us")
    out["structures.degree_audit_s"] = (sum(map(dur, named("structures.degree_audit"))), "s")
    builds = named("structures.build_affine", "structures.build_doubled", "structures.build_power")
    build_ids = {id(s) for s in builds}
    out["structures.build_s"] = (
        sum(dur(s) for s in builds if s[3] < 0 or id(spans[s[3]]) not in build_ids), "s")

    out["xi.checker_init_s"] = (sum(map(dur, named("xi.checker_init"))), "s")
    checks = named("xi.check")
    check_s = sum(map(dur, checks))
    out["xi.check_s"] = (check_s, "s")
    out["xi.check.seeds"] = (len(checks), "count")
    out["xi.check.seeds_per_s"] = (_rate(len(checks), check_s), "1/s")
    out["xi.check.conditions"] = (sum(s[5]["conditions"] for s in checks), "count")
    out["xi.check.pass"] = (sum(1 for s in checks if s[5]["ok"]), "count")
    for family in FAMILIES:
        out[f"xi.check.fail.{family}"] = (sum(1 for s in checks if s[5]["family"] == family), "count")
    out["xi.strict_verify_s"] = (sum(map(dur, named("xi.strict_verify"))), "s")

    falsifies = named("terms.falsify")
    for mode in MODES:
        ss = [s for s in falsifies if s[5]["mode"] == mode]
        seconds, tried = sum(map(dur, ss)), sum(s[5]["tried"] for s in ss)
        out[f"terms.falsify.{mode}_s"] = (seconds, "s")
        out[f"terms.falsify.{mode}.assignments"] = (tried, "count")
        out[f"terms.falsify.{mode}.assignments_per_s"] = (_rate(tried, seconds), "1/s")

    calls = sum(c["compose_calls"] for c in job_counts)
    distinct = sum(c["compose_distinct"] for c in job_counts)
    out["algebra.compose_masks.calls"] = (calls, "count")
    out["algebra.compose_masks.distinct"] = (distinct, "count")
    out["algebra.compose_masks.reuse"] = (1 - distinct / calls if calls else 0.0, "ratio")

    by_name = self_by_name(spans)
    for layer in LAYERS:
        own = sum(v for k, v in by_name.items() if k.split(".")[0] == layer)
        out[f"{layer}.self_s"] = (own, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
