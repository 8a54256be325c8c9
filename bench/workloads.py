"""The three benchmark workloads: seeded inputs, job lists, expected answers.

A workload is a plan made from a seed alone: set-up steps that build its
input files (relalg construction commands plus the benchmark's own
seeded rewrites of their output) and a fixed list of relalg jobs.  Each
job carries a check that judges its exit code and stdout against a known
answer from `oracle`, never against the code under test.  The same plan
runs as subprocesses (untraced) and in-process (traced), so both see the
same argv lists and the same files.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable

import oracle
from layers import FAMILIES

# exit codes of the relalg command
OK, VERIFY_FAIL = 0, 1

Check = Callable[[int, str], list]


@dataclass
class Job:
    name: str
    argv: list
    check: Check


@dataclass
class Rewrite:
    """A set-up step done by the benchmark itself: fn(directory) -> problems."""

    name: str
    fn: Callable[[str], list]


@dataclass
class Plan:
    workload: str
    seed: int
    setup: list = field(default_factory=list)  # Job (a relalg command) or Rewrite
    jobs: list = field(default_factory=list)
    # structure files whose images the traced run probes, by kind
    probe: list = field(default_factory=list)


WHY = {
    "verify": "PASS structures on the labeling, power and xi backends, so every "
    "verifier runs its full all-pairs scan",
    "screen": "candidates that almost all FAIL: xi seed sweeps, strict re-checks and "
    "FAIL structures, so the first-failure certificate path dominates",
    "falsify": "exhaustive falsify on L(3,1) and L(3,2) with heavy compose reuse, and "
    "random falsify on L(9,3) with little reuse and a growing cache",
}


# -- checks ------------------------------------------------------------------


def expect_wrote(code: int, out: str) -> list:
    if code != OK or not out.startswith("wrote "):
        return [f"construction failed: exit {code}, stdout {out[:80]!r}"]
    return []


_PASS = re.compile(r"^PASS \((weak|full), \d+ element pairs\)\n$")
_FAIL = re.compile(
    r"^FAIL \((weak|full)\): \S+ failed for \([^)]*\)"
    r"(?: at point pair \((\d+), (\d+)\))?: .+\n$"
)


def expect_verify(mode: str, ok: bool, point: Callable | None = None) -> Check:
    def check(code: int, out: str) -> list:
        if ok:
            m = _PASS.match(out)
            if code != OK or not m or m.group(1) != mode:
                return [f"expected PASS ({mode}), got exit {code}: {out[:120]!r}"]
            return []
        m = _FAIL.match(out)
        if code != VERIFY_FAIL or not m or m.group(1) != mode:
            return [f"expected FAIL ({mode}), got exit {code}: {out[:120]!r}"]
        if point is not None:
            if m.group(2) is None:
                return ["FAIL certificate carries no point pair"]
            return point(int(m.group(2)), int(m.group(3)))
        return []

    return check


def power_gap(q: int, m: int, perm: list) -> Callable:
    """A power structure fails full verification at a pair that no single
    atom labels: its coordinate pairs do not all carry the same atom."""
    inverse = {new: old for old, new in enumerate(perm)}
    d = q * q

    def point(u: int, v: int) -> list:
        labels, x, y = set(), u, v
        for _ in range(m):
            (x, cx), (y, cy) = divmod(x, d), divmod(y, d)
            labels.add(oracle.affine_label(q, inverse[cx], inverse[cy]))
        if len(labels) < 2:
            return [f"power FAIL point ({u},{v}) is labeled by one atom in every coordinate"]
        return []

    return point


_SEED_LINE = re.compile(
    r"^seed (\d+): (PASS|FAIL ([a-z-]+) at \(\d+, \d+\))"
    r"(?: \(generic verifier: (PASS|FAIL)\))?$"
)


def expect_search(p: int, n: int, m: int, seeds: range, mode: str,
                  family: str | None = None) -> Check:
    """One line per seed in order, a consistent pass count, strict lines
    that agree with the fast verdict, and (when given) the family every
    seed must fail with."""

    def check(code: int, out: str) -> list:
        lines = out.splitlines()
        head = f"search p={p} n={n} m={m} base=2*{p ** (2 * m)} mode={mode}"
        if code != OK or len(lines) != len(seeds) + 2 or lines[0] != head:
            return [f"search output malformed: exit {code}, {out[:120]!r}"]
        passes = 0
        for seed, line in zip(seeds, lines[1:-1]):
            got = _SEED_LINE.match(line)
            if not got or int(got.group(1)) != seed:
                return [f"bad seed line {line!r}"]
            ok = got.group(2) == "PASS"
            passes += ok
            if not ok and got.group(3) not in FAMILIES:
                return [f"unknown condition in {line!r}"]
            if family is not None and got.group(3) != family:
                return [f"seed {seed}: expected FAIL {family}, got {line!r}"]
            if (mode == "strict") != (got.group(4) is not None):
                return [f"strict verdict missing or unexpected in {line!r}"]
            if got.group(4) is not None and (got.group(4) == "PASS") != ok:
                return [f"fast and generic verdicts differ: {line!r}"]
        if lines[-1] != f"{passes}/{len(seeds)} seeds pass":
            return [f"pass count line {lines[-1]!r} does not match {passes}"]
        return []

    return check


def expect_montecarlo(p: int, n: int, trials: int, seed0: int) -> Check:
    d, k = p * p, p - 1  # m = 1: d = p^2 points, slope degree p-1

    def check(code: int, out: str) -> list:
        try:
            got = json.loads(out)
        except ValueError:
            return [f"montecarlo printed no JSON: {out[:80]!r}"]
        bound = oracle.failure_bound(p, n, d, k)
        problems = []
        if code != OK or (got["p"], got["n"], got["trials"], got["seed0"]) != (p, n, trials, seed0):
            problems.append(f"montecarlo echoed wrong parameters: {got}")
        if not 0 <= got["failures"] <= trials or got["rate"] != got["failures"] / trials:
            problems.append(f"montecarlo failure count inconsistent: {got}")
        if abs(got["analytic_bound"] - bound) > 1e-9 * bound:
            problems.append(f"analytic bound {got['analytic_bound']} != {bound}")
        if got["consistency"] == "INCONSISTENT" or (bound >= 1) != got["consistency"].startswith("vacuous"):
            problems.append(f"montecarlo consistency {got['consistency']!r} wrong")
        return problems

    return check


def expect_no_full_rep(p: int, n: int) -> Check:
    """2n > p: a full-representation claim for L(p,n) always fails."""
    want = f"p-1 = {p - 1} < 2n-1 = {2 * n - 1}: no representation exists"
    return lambda code, out: (
        [] if code == VERIFY_FAIL and out.splitlines()[-1:] == [want]
        else [f"degree audit should refute L({p},{n}): exit {code}, {out[-90:]!r}"]
    )


def expect_falsify(p: int, n: int, equation: str, status: str, tried: int | None,
                   witness: dict | None = None) -> Check:
    """Status, and tried count where the table gives one; any witness is
    re-evaluated and must be the first falsifying assignment in scan order."""
    alg = oracle.Lpn(p, n)

    def check(code: int, out: str) -> list:
        try:
            got = json.loads(out)
        except ValueError:
            return [f"falsify printed no JSON: {out[:80]!r}"]
        if code != OK or got["status"] != status or tried not in (None, got["tried"]):
            return [f"falsify {equation!r}: got {got.get('status')} after "
                    f"{got.get('tried')}, expected {status} after {tried}"]
        if status != "falsified":
            return [] if "witness" not in got else ["witness printed for a non-falsified law"]
        env = {int(v[1:]): alg.parse_mask(e) for v, e in got["witness"].items()}
        if witness is not None and got["witness"] != witness:
            return [f"witness {got['witness']} != {witness}"]
        first = oracle.first_witness(equation, alg, got["tried"])
        if first != (got["tried"], env):
            return [f"witness {got['witness']} at tried={got['tried']} is not the first falsifying assignment"]
        return []

    return check


# -- seeded rewrites -----------------------------------------------------------


def read_labeling(path: str):
    with open(path) as fh:
        lines = fh.read().splitlines()
    head = lines[:4]
    if head[:2] != ["structure v1", "kind atom-labeling"] or not head[3].startswith("base "):
        raise ValueError(f"{path} is not an atom-labeling file")
    edges = {}
    for line in lines[4:]:
        _, u, v, atom = line.split()
        edges[(int(u), int(v))] = atom
    return head, edges


def write_labeling(path: str, head: list, edges: dict) -> None:
    body = [f"edge {u} {v} {a}" for (u, v), a in sorted(edges.items())]
    with open(path, "w") as fh:
        fh.write("\n".join(head + body) + "\n")


def permuted(edges: dict, perm: list) -> dict:
    out = {}
    for (u, v), a in edges.items():
        x, y = perm[u], perm[v]
        out[(min(x, y), max(x, y))] = a
    return out


def affine_matches(q: int, edges: dict, copies: int = 1) -> list:
    """`relalg affine`/`double` output against the paper's affine plane:
    a_s on lines of slope s, a_q on vertical lines, t1 across copies."""
    d = q * q
    want = {}
    for c in range(copies):
        for u in range(d):
            for v in range(u + 1, d):
                want[(c * d + u, c * d + v)] = f"a{oracle.affine_label(q, u, v) - 1}"
    if copies == 2:
        want.update({(u, d + v): "t1" for u in range(d) for v in range(d)})
    return [] if edges == want else [f"affine labeling for q={q} differs from the affine plane"]


def permute_step(src: str, dst: str, perm: list, q: int | None = None, copies: int = 1) -> Rewrite:
    def fn(directory: str) -> list:
        head, edges = read_labeling(os.path.join(directory, src))
        problems = affine_matches(q, edges, copies) if q is not None else []
        write_labeling(os.path.join(directory, dst), head, permuted(edges, perm))
        return problems

    return Rewrite(f"permute {src} -> {dst}", fn)


def corrupt_step(src: str, dst: str, seed: int) -> Rewrite:
    """Relabel one slope edge (u,v) of a_s to another slope.  The line
    through u and v has a third point w with (u,w) and (w,v) in a_s, so
    (u,v) lies in image(a_s);image(a_s) but outside image(1'+a_s): the
    result cannot pass."""

    def fn(directory: str) -> list:
        rng = _rng(seed, dst)
        head, edges = read_labeling(os.path.join(directory, src))
        slope_edges = sorted(e for e, a in edges.items() if a.startswith("a"))
        (u, v) = slope_edges[rng.randrange(len(slope_edges))]
        old = edges[(u, v)]
        slopes = sorted({a for a in edges.values() if a.startswith("a")} - {old})
        edges[(u, v)] = slopes[rng.randrange(len(slopes))]
        label = lambda x, y: edges.get((min(x, y), max(x, y)))
        base = int(head[3].split()[1])
        if not any(label(u, w) == old == label(w, v) for w in range(base)):
            return [f"corrupted edge ({u},{v}) has no third point on its line"]
        write_labeling(os.path.join(directory, dst), head, edges)
        return []

    return Rewrite(f"corrupt {src} -> {dst}", fn)


# -- the workloads -------------------------------------------------------------


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _perm(seed: int, label: str, size: int) -> list:
    perm = list(range(size))
    _rng(seed, label).shuffle(perm)
    return perm


def _construct(argv: list) -> Job:
    return Job(" ".join(argv[:3]), argv, expect_wrote)


def _affine(plan: Plan, q: int, perm: list) -> str:
    plan.setup.append(_construct(["affine", "--q", str(q), "-o", f"aff{q}.rel"]))
    plan.setup.append(permute_step(f"aff{q}.rel", f"aff{q}p.rel", perm, q if q in (3, 5, 7) else None))
    return f"aff{q}p.rel"


def _double(plan: Plan, q: int, perm: list) -> str:
    plan.setup.append(_construct(["double", "--q", str(q), "-o", f"d{q}.rel"]))
    plan.setup.append(permute_step(f"d{q}.rel", f"d{q}p.rel", perm, q, copies=2))
    return f"d{q}p.rel"


def _xi(plan: Plan, inner: str, n: int, seed: int, out: str) -> str:
    plan.setup.append(_construct(["xi", "--inner", inner, "--n", str(n), "--seed", str(seed), "-o", out]))
    return out


def _power(plan: Plan, inner: str, m: int, out: str) -> str:
    plan.setup.append(_construct(["power", "--inner", inner, "-m", str(m), "-o", out]))
    return out


def _verify(plan: Plan, path: str, mode: str, ok: bool, kind: str, point=None) -> None:
    plan.jobs.append(Job(f"verify --{mode} {path}", ["verify", f"--{mode}", path],
                         expect_verify(mode, ok, point)))
    plan.probe.append((path, kind))


def plan_verify(seed: int) -> Plan:
    plan = Plan("verify", seed)
    aff8 = _affine(plan, 8, _perm(seed, "aff8", 64))
    d7 = _double(plan, 7, _perm(seed, "d7", 98))
    aff3 = _affine(plan, 3, _perm(seed, "aff3", 9))
    p32 = _power(plan, aff3, 2, "p32.rel")
    aff5 = _affine(plan, 5, _perm(seed, "aff5", 25))
    x51 = _xi(plan, aff5, 1, _rng(seed, "x51").randrange(1 << 63), "x51.rel")
    _verify(plan, aff8, "full", True, "labeling")
    _verify(plan, d7, "full", True, "labeling")
    _verify(plan, p32, "weak", True, "power")
    _verify(plan, x51, "weak", True, "xi")
    return plan


def _sweep(plan: Plan, seed: int, p: int, n: int, m: int, count: int,
           mode: str = "fast", family: str | None = None) -> None:
    start = _rng(seed, f"search{p},{n},{m},{mode}").randrange(1 << 32)
    seeds = range(start, start + count)
    argv = ["search", "--p", str(p), "--n", str(n), "--m", str(m), "--seeds", f"{start}:{start + count}"]
    if mode != "fast":
        argv += ["--mode", mode]
    plan.jobs.append(Job(f"search {p},{n},{m} {mode}", argv, expect_search(p, n, m, seeds, mode, family)))


def plan_screen(seed: int) -> Plan:
    plan = Plan("screen", seed)
    perm3 = _perm(seed, "aff3", 9)
    aff3 = _affine(plan, 3, perm3)
    p32 = _power(plan, aff3, 2, "p32.rel")
    x32 = _xi(plan, aff3, 2, _rng(seed, "x32").randrange(1 << 63), "x32.rel")
    aff5 = _affine(plan, 5, _perm(seed, "aff5", 25))
    x52 = _xi(plan, aff5, 2, _rng(seed, "x52").randrange(1 << 63), "x52.rel")
    aff7 = _affine(plan, 7, _perm(seed, "aff7", 49))
    x72 = _xi(plan, aff7, 2, _rng(seed, "x72").randrange(1 << 63), "x72.rel")
    plan.setup.append(corrupt_step(aff7, "aff7c.rel", seed))
    d5 = _double(plan, 5, _perm(seed, "d5", 50))
    plan.setup.append(corrupt_step(d5, "d5c.rel", seed))

    _sweep(plan, seed, 7, 2, 1, 100)
    _sweep(plan, seed, 11, 2, 1, 20)
    _sweep(plan, seed, 11, 3, 1, 10)
    _sweep(plan, seed, 3, 2, 3, 200, family="union-defect")
    _sweep(plan, seed, 5, 2, 1, 10, mode="strict")
    seed0 = _rng(seed, "montecarlo").randrange(1 << 32)
    plan.jobs.append(Job(
        "montecarlo 9,2,1",
        ["--json", "montecarlo", "--p", "9", "--n", "2", "--m", "1", "--trials", "50", "--seed0", str(seed0)],
        expect_montecarlo(9, 2, 50, seed0),
    ))
    # n = 2 over a plane of p points: for each slope, each of the p lines and
    # each cross column, the p-1 line neighbours all share a class with
    # probability 2^-(p-2), independently, so some slope-class witness is
    # missing with probability above 1 - (1 - 2^-(p-2))^(p^3) > 1 - 2e-5
    _verify(plan, x52, "weak", False, "xi")
    _verify(plan, x72, "weak", False, "xi")
    _verify(plan, p32, "full", False, "power", power_gap(3, 2, perm3))
    _verify(plan, "aff7c.rel", "full", False, "labeling")
    _verify(plan, "d5c.rel", "full", False, "labeling")
    plan.jobs.append(Job("degree-audit x32", ["degree-audit", x32, "--claim-full"], expect_no_full_rep(3, 2)))
    return plan


ASSOC = "x1;(x2;x3) = (x1;x2);x3"
DEDEKIND = "(x1;x2)&x3 + (x1;(x2&(x1~;x3)))&x3 = (x1;(x2&(x1~;x3)))&x3"


def _falsify(plan: Plan, p: int, n: int, equation: str, status: str, tried: int | None,
             witness: dict | None = None, extra: list | None = None) -> None:
    argv = ["--json", "falsify", f"l{p}{n}.ra", equation] + (extra or [])
    name = f"falsify L({p},{n}) {equation}" + (" random" if extra else "")
    plan.jobs.append(Job(name, argv, expect_falsify(p, n, equation, status, tried, witness)))


def plan_falsify(seed: int) -> Plan:
    plan = Plan("falsify", seed)
    for p, n in ((3, 1), (3, 2), (9, 3)):
        plan.setup.append(_construct(["construct", "--p", str(p), "--n", str(n), "-o", f"l{p}{n}.ra"]))
    _falsify(plan, 3, 2, ASSOC, "valid", 128 ** 3)
    _falsify(plan, 3, 1, DEDEKIND, "valid", 64 ** 3)
    _falsify(plan, 3, 2, "x1;x1 = x1", "falsified", 3, {"x1": "a0"})
    _falsify(plan, 3, 2, "x1;(x2&x3) = (x1;x2)&(x1;x3)", "falsified", None)
    trials = 50000
    _falsify(plan, 9, 3, ASSOC, "unknown", trials,
             extra=["--mode", "random", "--trials", str(trials),
                    "--seed", str(_rng(seed, "random").randrange(1 << 32))])
    return plan


PLANS = {"verify": plan_verify, "screen": plan_screen, "falsify": plan_falsify}
