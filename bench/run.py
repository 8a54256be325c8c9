"""The relalg benchmark: one workload, end to end or traced.

    python3 bench/run.py --workload verify --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's input files are made
from --seed (see workloads.py), then its job list runs again and again as
`python -m relalg` subprocesses, one at a time (a closed loop with one
client), until --seconds have passed.  Every job's exit code and stdout
are judged against known answers and must repeat byte for byte.

--trace 0 prints the end-to-end metrics: the medians over passes of the
job list's wall time, the children's CPU time and their largest peak RSS
(all from os.wait4), and the median set-up time.  --trace 1 also runs the
plan in one traced process (traced.py) and prints the per-layer metrics.
The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Run files go to .bench_runs/<workload>/ in the checkout.
--workload all runs every workload with --trace 0 and then 1, and names
the metrics of its last line <workload>.<metric>.

    python3 bench/run.py --selftest

checks that the checks themselves flag wrong answers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import layers
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUPS = 3  # set-up repeats per run; setup_s is their median
STARTUP_REPEATS = 7
RUN_LIMIT_S = 170  # every child is killed once the run is this old
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Runner:
    """Runs `python -m relalg` children one at a time, measured by wait4."""

    def __init__(self, deadline: float, scratch: str):
        self.deadline = deadline
        self.scratch = scratch  # child stdout and stderr are spooled here
        self.env = {k: v for k, v in os.environ.items()
                    if k != "PYTHONPATH" and not k.startswith("RELALG_")}
        self.env["PYTHONPATH"] = SRC  # absolute: children run in other directories

    def run(self, args: list, cwd: str, module: bool = True) -> dict:
        argv = [sys.executable] + (["-m", "relalg"] if module else []) + list(args)
        with tempfile.TemporaryFile(dir=self.scratch) as out, \
                tempfile.TemporaryFile(dir=self.scratch) as err:
            t0 = time.perf_counter()
            child = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                     stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
                child.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:  # stopped ourselves: end the child first
                child.kill()
                child.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        return {"exit": child.returncode, "stdout": stdout, "stderr": stderr, "wall": wall,
                "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024}


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_hashes(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = sha256_bytes(fh.read())
    return out


class Ledger:
    """Judges every job run once per distinct output and counts failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._verdicts: dict = {}

    def judge(self, key, name: str, code: int, stdout: bytes, check, expect_sha=None) -> None:
        sha = sha256_bytes(stdout)
        cached = (key, code, sha)
        if cached not in self._verdicts:
            try:
                self._verdicts[cached] = check(code, stdout.decode())
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                self._verdicts[cached] = [f"check raised {type(exc).__name__}: {exc}"]
        problems = list(self._verdicts[cached])
        if expect_sha is not None and sha != expect_sha:
            problems.append("stdout differs from this job's first run")
        self.record(name, problems)

    def record(self, name: str, problems: list) -> None:
        """One attempted job run or whole-run check, failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


def setup_once(plan, runner: Runner, directory: str, ledger: Ledger) -> tuple:
    os.makedirs(directory)
    stdouts = []
    t0 = time.perf_counter()
    for i, step in enumerate(plan.setup):
        if isinstance(step, workloads.Rewrite):
            ledger.record(step.name, step.fn(directory))
            stdouts.append(None)
            continue
        res = runner.run(step.argv, directory)
        ledger.judge(("setup", i), step.name, res["exit"], res["stdout"], step.check)
        stdouts.append((res["exit"], sha256_bytes(res["stdout"])))
    return time.perf_counter() - t0, stdouts


def run_pass(plan, runner: Runner, directory: str) -> list:
    return [runner.run(job.argv, directory) for job in plan.jobs]


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
        with open("/proc/loadavg") as fh:
            loadavg = fh.read().strip()
    except OSError:
        loadavg = ""
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model, "loadavg": loadavg}


def traced_run(plan, runner: Runner, out_dir: str, seconds: float, reference: list,
               setup_stdouts: list, input_hashes: dict, ledger: Ledger, wall_s: float) -> dict:
    """Per-layer metrics, as medians over traced passes.  Traced outputs
    must equal the untraced ones and traced counts must repeat exactly."""
    startup = [runner.run(["params", "--gamma", "1"], out_dir)["wall"] for _ in range(STARTUP_REPEATS)]
    traced_dir = os.path.join(out_dir, "traced")
    os.makedirs(traced_dir)
    spans_file = os.path.join(out_dir, "spans.json")
    res = runner.run([os.path.join(BENCH, "traced.py"), "--workload", plan.workload,
                      "--seed", str(plan.seed), "--seconds", str(seconds), "--out", spans_file],
                     traced_dir, module=False)
    if res["exit"] != 0:
        ledger.record("traced run", [f"exit {res['exit']}: {res['stderr'].decode()[-300:]}"])
        return {}
    with open(spans_file) as fh:
        trace = json.load(fh)

    setup = trace["setup"]
    for r in setup["results"]:
        if "problems" in r:
            ledger.record(f"traced {r['name']}", r["problems"])
    commands = [r for r in setup["results"] if "job" in r]
    wanted = [w for w in setup_stdouts if w is not None]
    for want, got in zip(wanted, commands):
        ledger.record(f"traced {got['name']}", [] if (got["exit"], got["sha256"]) == tuple(want)
                      else ["traced exit code or stdout differs from the subprocess run"])
    if file_hashes(traced_dir) != input_hashes:
        ledger.record("traced set-up", ["traced set-up wrote different input files"])
    ledger.record("span tree", layers.check_nesting(setup["spans"]))

    counts, per_pass = trace["counts"], []
    for p, tpass in enumerate(trace["passes"]):
        for k, (want, got) in enumerate(zip(reference, tpass["results"])):
            problems = [] if (got["exit"], got["sha256"]) == want else [
                "traced exit code or stdout differs from the subprocess run"]
            if counts[got["job"]] != counts[f"job0:{k}"]:
                problems.append("traced counts differ from the first traced pass")
            ledger.record(f"traced {got['name']}", problems)
        ledger.record("span tree", layers.check_nesting(tpass["spans"]))
        jobs = {j: c for j, c in counts.items() if j.startswith(("setup", f"job{p}:"))}
        per_pass.append(layers.metrics(layers.joined(setup["spans"], tpass["spans"]), jobs,
                                       trace["images"], statistics.median(startup),
                                       tpass["wall_s"] - wall_s))
    # counts repeat exactly (checked above); times are medians over passes
    metrics = {name: (value if unit in ("count", "bytes")
                      else statistics.median(m[name][0] for m in per_pass), unit)
               for name, (value, unit) in per_pass[0].items()}
    last = trace["passes"][-1]["spans"]
    return {"metrics": metrics, "traced_passes": len(per_pass),
            "self_by_name": layers.self_by_name(layers.joined(setup["spans"], last))}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, print its report and return the result line."""
    start = time.monotonic()
    info = machine_info()
    plan = workloads.PLANS[workload](seed)
    out_dir = os.path.join(ROOT, ".bench_runs", workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    runner = Runner(start + RUN_LIMIT_S, out_dir)
    ledger = Ledger()
    setup_times, setup_stdouts, input_hashes = [], None, None
    for i in range(1 if trace else SETUPS):
        directory = os.path.join(out_dir, f"setup{i}")
        took, stdouts = setup_once(plan, runner, directory, ledger)
        setup_times.append(took)
        hashes = file_hashes(directory)
        if input_hashes is None:
            setup_stdouts, input_hashes, inputs = stdouts, hashes, directory
        elif (stdouts, hashes) != (setup_stdouts, input_hashes):
            ledger.record(f"set-up {i}", ["set-up output differs from the first set-up"])

    # the traced run measures for --seconds; untraced, one pass gives its references
    passes = []
    deadline = time.monotonic() + (0 if trace else seconds)
    while not passes or time.monotonic() < deadline:
        passes.append(run_pass(plan, runner, inputs))
        if time.monotonic() > start + RUN_LIMIT_S:
            break
    first = {}
    for results in passes:
        for k, (job, res) in enumerate(zip(plan.jobs, results)):
            ledger.judge(("job", k), job.name, res["exit"], res["stdout"], job.check,
                         first.setdefault(k, sha256_bytes(res["stdout"])))

    walls = [sum(r["wall"] for r in p) for p in passes]
    e2e = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(r["cpu"] for r in p) for p in passes),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p) for p in passes),
        "setup_s": statistics.median(setup_times),
    }
    reference = [(res["exit"], first[k]) for k, res in enumerate(passes[0])]

    traced = {}
    if trace:
        traced = traced_run(plan, runner, out_dir, seconds, reference, setup_stdouts,
                            input_hashes, ledger, e2e["wall_s"])

    report = {
        "workload": workload, "why": workloads.WHY[workload], "seed": seed,
        "machine": info, "passes": len(passes), "pass_walls_s": walls, "setup_times_s": setup_times,
        "end_to_end": e2e, "failed_share": ledger.failed / ledger.attempted,
        "inputs_sha256": input_hashes,
        "jobs": [{"name": j.name, "argv": j.argv, "exit": code, "sha256": sha}
                 for j, (code, sha) in zip(plan.jobs, reference)],
        "problems": ledger.problems, **traced,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=list)

    print(f"relalg benchmark  workload={workload}  seed={seed}  "
          f"python {info['python']}  nproc {info['nproc']}  cpu {info['cpu_model']!r}  "
          f"loadavg {info['loadavg']}")
    for name, sha in input_hashes.items():
        print(f"  input {name} sha256 {sha[:16]}")
    for job in report["jobs"]:
        print(f"  job {job['name']!r} exit {job['exit']} stdout sha256 {job['sha256'][:16]}")
    print(f"end to end over {len(passes)} passes (median):")
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {e2e[name]:12.4f} {unit}")
    print(f"  {'failed_share':<14} {report['failed_share']:12.4f} ratio "
          f"({ledger.failed} of {ledger.attempted} job runs and checks)")
    if traced:
        print(f"per layer (median over {traced['traced_passes']} traced passes):")
        for name, (value, unit) in traced["metrics"].items():
            print(f"  {name:<44} {value:14.6g} {unit}")
        print("self time by span name (set-up and the last traced pass):")
        for name, value in sorted(traced["self_by_name"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:<44} {value:14.6f} s")
    for problem in ledger.problems[:20]:
        print(f"  PROBLEM {problem}")

    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced.get("metrics", {}).items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.PLANS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "relalg", "cli.py")):
        print(f"no relalg sources at {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    # every workload, end to end and traced; metrics are named <workload>.<metric>
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.PLANS:
        for trace in (0, 1):
            result = run_workload(workload, args.seed, args.seconds, trace)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
