"""Quick self-test of the benchmark's own checks (run.py --selftest).

The known-answer checks must reject a wrong verdict, a wrong witness and
a changed stdout digest, and the span self times of a traced job must add
up to its wall time.  Prints one line per check; exits 1 if any fails.
"""

from __future__ import annotations

import json
import os
import sys

import layers
import oracle
import workloads
from run import END_TO_END, ROOT, SRC, Ledger


def main() -> int:
    results = []

    def expect(name: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}")

    verify = workloads.plan_verify(0)
    check = verify.jobs[0].check  # verify --full on the permuted affine plane: PASS
    expect("a right PASS verdict is accepted", check(0, "PASS (full, 524800 element pairs)\n") == [])
    expect("a wrong verdict is flagged", check(1, "FAIL (full): compose failed for (a0, a0) "
                                                  "at point pair (0, 1): differs\n") != [])
    expect("a right verdict with a wrong exit code is flagged",
           check(1, "PASS (full, 524800 element pairs)\n") != [])

    falsify = {job.argv[3]: job.check for job in workloads.plan_falsify(0).jobs}
    idem = falsify["x1;x1 = x1"]
    right = '{"status": "falsified", "tried": 3, "witness": {"x1": "a0"}}'
    expect("the known first witness is accepted", idem(0, right) == [])
    expect("a wrong witness is flagged", idem(0, right.replace('"a0"', '"a1"')) != [])
    law = "x1;(x2&x3) = (x1;x2)&(x1;x3)"
    tried, env = oracle.first_witness(law, oracle.Lpn(3, 2), 10 ** 6)
    names = oracle.lpn_atom_names(3, 2)
    wit = {f"x{v}": "+".join(names[a] for a in range(7) if m >> a & 1) or "0" for v, m in env.items()}
    answer = json.dumps({"status": "falsified", "tried": tried, "witness": wit})
    expect("an independently found first witness is accepted", falsify[law](0, answer) == [])
    later = answer.replace(f'"tried": {tried}', f'"tried": {tried + 1}')
    expect("a witness that is not the first one is flagged", falsify[law](0, later) != [])
    expect("VALID on a falsifiable law is flagged",
           falsify[law](0, '{"status": "valid", "tried": 2097152}') != [])

    ledger = Ledger()
    ledger.judge("job", "digest", 0, b"PASS\n", lambda c, o: [], expect_sha=None)
    ledger.judge("job", "digest", 0, b"PASS \n", lambda c, o: [], expect_sha="0" * 64)
    expect("a changed stdout digest is flagged", (ledger.attempted, ledger.failed) == (2, 1))

    sys.path.insert(0, SRC)
    import traced

    tracer = traced.Tracer()
    tracer.install()
    try:
        tracer.begin_job("job:0")
        code, out = traced.run_inprocess(["params", "--gamma", "3"])
    finally:
        tracer.uninstall()
    spans = tracer.spans
    own = sum(layers.self_times(spans))
    wall = spans[0][2] - spans[0][1]
    expect("a traced job runs and prints", code == 0 and out.startswith(b"gamma=3"))
    expect("span self times add up to the traced job's wall time",
           len(spans) > 1 and abs(own - wall) <= 1e-9 and layers.check_nesting(spans) == [])
    broken = [list(s) for s in spans]
    broken[1][2] = broken[0][2] + 1.0  # a child that outlives its parent
    expect("a child span outside its parent is flagged", layers.check_nesting(broken) != [])

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    emitted = layers.metrics([], {}, {}, 0.0, 0.0)
    expect("BENCHMARK.json names every workload",
           [w["name"] for w in spec["workloads"]] == list(workloads.PLANS))
    expect("BENCHMARK.json end_to_end matches --trace 0 output",
           {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END)
    expect("BENCHMARK.json per_layer matches --trace 1 output",
           {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in emitted.items()})

    print(f"{sum(results)}/{len(results)} self-test checks pass")
    return 0 if all(results) else 1
