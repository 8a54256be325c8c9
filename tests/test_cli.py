import json
import os
import subprocess
import sys
import time

import pytest

import relalg
from relalg import cli
from relalg.fileformat import load_structure
from relalg.structures import verify_weak

# the package's parent directory, absolute, so that the subprocesses below
# import this relalg whatever their working directory is
SRC = os.path.dirname(os.path.dirname(os.path.abspath(relalg.__file__)))


def run(*args, cwd=None, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "relalg", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_construct_then_check_axioms(tmp_path):
    out = run("construct", "--p", "3", "--n", "2", "-o", "l32.ra", cwd=tmp_path)
    assert out.returncode == 0
    assert "128 elements" in out.stdout
    out = run("check-axioms", "l32.ra", cwd=tmp_path)
    assert out.returncode == 0
    assert "all axioms pass" in out.stdout


def test_affine_verify_pipeline(tmp_path):
    out = run("affine", "--q", "3", "-o", "aff3.rel", cwd=tmp_path)
    assert out.returncode == 0
    out = run("verify", "--full", "aff3.rel", cwd=tmp_path)
    assert out.returncode == 0
    assert out.stdout.startswith("PASS")
    out = run("degree-audit", "aff3.rel", "--claim-full", cwd=tmp_path)
    assert out.returncode == 0
    assert "a0: degree 2..2" in out.stdout


def test_double_and_power(tmp_path):
    assert run("double", "--q", "3", "-o", "d.rel", cwd=tmp_path).returncode == 0
    out = run("verify", "--full", "d.rel", cwd=tmp_path)
    assert out.returncode == 0
    assert run("affine", "--q", "3", "-o", "a.rel", cwd=tmp_path).returncode == 0
    assert run(
        "power", "--inner", "a.rel", "-m", "2", "-o", "p.rel", cwd=tmp_path
    ).returncode == 0
    out = run("verify", "--weak", "p.rel", cwd=tmp_path)
    assert out.returncode == 0
    out = run("verify", "--full", "p.rel", cwd=tmp_path)
    assert out.returncode == 1  # weak only: complement clause fails
    assert "complement" in out.stdout


def test_xi_and_search(tmp_path):
    assert run("affine", "--q", "3", "-o", "a.rel", cwd=tmp_path).returncode == 0
    out = run("xi", "--inner", "a.rel", "--n", "1", "--seed", "5", "-o", "x.rel", cwd=tmp_path)
    assert out.returncode == 0
    assert run("verify", "--weak", "x.rel", cwd=tmp_path).returncode == 0
    out = run("--json", "search", "--p", "3", "--n", "2", "--m", "1",
              "--seeds", "0:4", cwd=tmp_path)
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert [r["seed"] for r in payload["results"]] == [0, 1, 2, 3]
    assert all(isinstance(r["ok"], bool) for r in payload["results"])


def test_bounds_thresholds_montecarlo(tmp_path):
    out = run("bounds", "--p", "3", "--n", "2", "--m", "1", cwd=tmp_path)
    assert out.returncode == 0
    assert "ineq1=False ineq2=False" in out.stdout
    out = run("thresholds", "--p", "3", "--n", "2", cwd=tmp_path)
    assert out.returncode == 0
    out = run("montecarlo", "--p", "3", "--n", "1", "--m", "1",
              "--trials", "5", "--seed0", "1", cwd=tmp_path)
    assert out.returncode == 0
    assert "seed0=1" in out.stdout  # randomized commands print their seeds


def test_falsify_cli(tmp_path):
    run("construct", "--p", "3", "--n", "2", "-o", "l32.ra", cwd=tmp_path)
    out = run("falsify", "l32.ra", "x1;x1 = x1", cwd=tmp_path)
    assert out.returncode == 0
    assert "FALSIFIED: x1=a0" in out.stdout
    out = run("falsify", "l32.ra", "x1;e = x1", cwd=tmp_path)
    assert "VALID" in out.stdout


def test_subalgebra_pigeonhole_embed_params(tmp_path):
    run("construct", "--p", "3", "--n", "2", "-o", "l32.ra", cwd=tmp_path)
    out = run("subalgebra", "l32.ra", "--gens", "a0", cwd=tmp_path)
    assert out.returncode == 0
    assert "a1+a2+a3+t1+t2" in out.stdout
    out = run("pigeonhole", "l32.ra", "--gens", "a0+a1", cwd=tmp_path)
    assert "(0,1)" in out.stdout
    out = run("embed", "--kind", "fusion", "--p", "3", "--n", "2",
              "--i", "0", "--j", "1", "--q", "5", cwd=tmp_path)
    assert out.returncode == 0
    assert "verified" in out.stdout
    out = run("embed", "--kind", "gamma", "--algebra", "l32.ra",
              "--gens", "a0+a1", "--target-p", "7", cwd=tmp_path)
    assert out.returncode == 0
    out = run("params", "--gamma", "2", cwd=tmp_path)
    assert "p=5, n=3" in out.stdout
    out = run("beta", "--m", "2^7", cwd=tmp_path)
    assert out.returncode == 0
    assert "1.58496" in out.stdout


def test_fuse_cli(tmp_path):
    out = run("fuse", "--p", "3", "--n", "2", "--i", "0", "--j", "1",
              "-o", "f.ra", cwd=tmp_path)
    assert out.returncode == 0
    assert run("check-axioms", "f.ra", cwd=tmp_path).returncode == 0


def test_exit_codes(tmp_path):
    # usage: bad parameters
    assert run("construct", "--p", "2", "--n", "0", "-o", "x.ra", cwd=tmp_path).returncode == 2
    # file error: missing input
    assert run("check-axioms", "missing.ra", cwd=tmp_path).returncode == 3
    # parse error
    (tmp_path / "bad.ra").write_text("not an algebra\n")
    assert run("check-axioms", "bad.ra", cwd=tmp_path).returncode == 3
    # budget error
    run("construct", "--p", "3", "--n", "2", "-o", "l32.ra", cwd=tmp_path)
    out = run("falsify", "l32.ra", "x1;x2;x3;x4 = x4;x3;x2;x1", cwd=tmp_path)
    assert out.returncode == 4
    # parse error: variable indices are ASCII digits only
    for equation in ("x\u00b2 = x1", "x1 = x\uff11"):
        out = run("falsify", "l32.ra", equation, cwd=tmp_path)
        assert out.returncode == 3 and "parse error" in out.stderr
    # usage: a negative trial count
    out = run("falsify", "l32.ra", "x1=x1", "--mode", "random", "--trials", "-5", cwd=tmp_path)
    assert out.returncode == 2 and out.stdout == ""
    # budget error: an edgeless labeling of 70,000 points is refused
    # before any image is formed
    run("affine", "--q", "3", "-o", "a.rel", cwd=tmp_path)
    header = "structure v1\nkind atom-labeling\nalgebra a.ra\n"
    (tmp_path / "big.rel").write_text(header + "base 70000\n")
    assert run("verify", "--full", "big.rel", cwd=tmp_path).returncode == 4
    # verification failure
    run("xi", "--inner", "a.rel", "--n", "2", "--seed", "0", "-o", "x.rel", cwd=tmp_path)
    assert run("verify", "--weak", "x.rel", cwd=tmp_path).returncode == 1
    # argparse usage error
    assert run("bogus-command", cwd=tmp_path).returncode == 2
    # file or parse error, never a traceback: a field that is not a number, a
    # seed beyond 64 bits, bytes that are not UTF-8, a directory as algebra
    (tmp_path / "bare.rel").write_text(header + "base\n")
    (tmp_path / "edge.rel").write_text(header + "base 9\nedge 0 x a1\n")
    (tmp_path / "dir.rel").write_text(header.replace("a.ra", ".") + "base 3\n")
    (tmp_path / "seed.rel").write_text(
        "structure v1\nkind xi\nalgebra x.ra\n"
        "xi inner=a.rel n=2 seed=99999999999999999999999\n"
    )
    (tmp_path / "bytes.rel").write_bytes(b"\xff\xfe structure")
    # an Arabic-Indic two: numbers in files are ASCII digits only
    (tmp_path / "digit.rel").write_text(
        "structure v1\nkind power\nalgebra a.ra\npower m=\u0662 inner=a.rel\n",
        encoding="utf-8",
    )
    for name in ("bare", "edge", "dir", "seed", "bytes", "digit"):
        out = run("verify", "--weak", f"{name}.rel", cwd=tmp_path)
        assert out.returncode == 3 and "Traceback" not in out.stderr, name


def test_power_m1_file_reloads_to_the_reported_structure(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["affine", "--q", "3", "-o", "a.rel"]) == 0
    assert cli.main(["power", "--inner", "a.rel", "-m", "2", "-o", "p.rel"]) == 0
    assert cli.main(["xi", "--inner", "a.rel", "--n", "2", "--seed", "0", "-o", "x.rel"]) == 0
    for inner in ("a.rel", "p.rel", "x.rel"):
        capsys.readouterr()
        argv = ["--json", "power", "--inner", inner, "-m", "1", "-o", "one.rel"]
        assert cli.main(argv) == 0
        reported = json.loads(capsys.readouterr().out)
        want, back = load_structure(inner), load_structure("one.rel")
        assert back.kind == want.kind
        assert back.base_size == want.base_size == reported["base"]
        assert verify_weak(back) == verify_weak(want)


_FULL_FAIL = (
    "FAIL (full): complement failed for (1') at point pair (0, 1): "
    "image of complement(x) is not the complement of image(x)"
)
_FULL_JSON = (
    '{"command": "verify", "failure": {"clause": "complement", "detail": '
    '"image of complement(x) is not the complement of image(x)", "elements": '
    '["1\'"], "point": [0, 1]}, "mode": "full", "ok": false, "pairs_checked": %d, '
    '"structure": "%s"}'
)
_WEAK_JSON = (
    '{"command": "verify", "mode": "weak", "ok": true, "pairs_checked": %d, '
    '"structure": "%s"}'
)
_CUBE_FAIL = (
    "compose failed for (a0, a0) at point pair (0, 1): "
    "image of x;y differs from the matrix product (x;y = 1'+a0)"
)
_CUBE_JSON = (
    '{"command": "verify", "failure": {"clause": "compose", "detail": '
    '"image of x;y differs from the matrix product (x;y = 1\'+a0)", "elements": '
    '["a0", "a0"], "point": [0, 1]}, "mode": "%s", "ok": false, "pairs_checked": 64, '
    '"structure": "%s"}'
)
_XCUBE_FAIL = (
    "compose failed for (a0, t1) at point pair (0, 894): "
    "cross block of x;y (= t1+t2) differs from the matrix product"
)
_XCUBE_JSON = (
    '{"command": "verify", "failure": {"clause": "compose", "detail": '
    '"cross block of x;y (= t1+t2) differs from the matrix product", "elements": '
    '["a0", "t1"], "point": [0, 894]}, "mode": "%s", "ok": false, "pairs_checked": 286, '
    '"structure": "xcube.rel"}'
)
# (file, mode): exit code, text line, --json line
LARGE_POWER_OUTPUTS = {
    ("cube.rel", "weak"): (0, "PASS (weak, 528 element pairs)", _WEAK_JSON % (528, "cube.rel")),
    ("cube.rel", "full"): (1, _FULL_FAIL, _FULL_JSON % (528, "cube.rel")),
    ("xsq.rel", "weak"): (0, "PASS (weak, 2080 element pairs)", _WEAK_JSON % (2080, "xsq.rel")),
    ("xsq.rel", "full"): (1, _FULL_FAIL, _FULL_JSON % (2080, "xsq.rel")),
    ("ccube.rel", "weak"): (1, "FAIL (weak): " + _CUBE_FAIL, _CUBE_JSON % ("weak", "ccube.rel")),
    ("ccube.rel", "full"): (1, "FAIL (full): " + _CUBE_FAIL, _CUBE_JSON % ("full", "ccube.rel")),
    ("p4.rel", "weak"): (0, "PASS (weak, 528 element pairs)", _WEAK_JSON % (528, "p4.rel")),
    ("p4.rel", "full"): (1, _FULL_FAIL, _FULL_JSON % (528, "p4.rel")),
    ("c4.rel", "weak"): (1, "FAIL (weak): " + _CUBE_FAIL, _CUBE_JSON % ("weak", "c4.rel")),
    ("c4.rel", "full"): (1, "FAIL (full): " + _CUBE_FAIL, _CUBE_JSON % ("full", "c4.rel")),
    ("c5.rel", "weak"): (0, "PASS (weak, 8256 element pairs)", _WEAK_JSON % (8256, "c5.rel")),
    ("c5.rel", "full"): (1, _FULL_FAIL, _FULL_JSON % (8256, "c5.rel")),
    ("p5.rel", "weak"): (0, "PASS (weak, 528 element pairs)", _WEAK_JSON % (528, "p5.rel")),
    ("p5.rel", "full"): (1, _FULL_FAIL, _FULL_JSON % (528, "p5.rel")),
    ("xs2sq.rel", "weak"): (0, "PASS (weak, 2080 element pairs)", _WEAK_JSON % (2080, "xs2sq.rel")),
    ("xs2sq.rel", "full"): (1, _FULL_FAIL, _FULL_JSON % (2080, "xs2sq.rel")),
    ("xcube.rel", "weak"): (1, "FAIL (weak): " + _XCUBE_FAIL, _XCUBE_JSON % "weak"),
    ("xcube.rel", "full"): (1, "FAIL (full): " + _XCUBE_FAIL, _XCUBE_JSON % "full"),
}


def test_large_powers_verify_in_both_modes(tmp_path, monkeypatch, capsys):
    # the cube of affine 3 (729 points), the square of xi over it (324
    # points), the cube of affine 3 with one edge relabeled, the 4th powers
    # of both planes (6,561 points), the cube of affine 5 (15,625 points),
    # the 5th power of affine 3 (59,049 points), the square of xi over the
    # square of affine 3 (26,244 points), decided on their inner images, and
    # xi n=2 over the cube of affine 3 (1,458 points)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["affine", "--q", "3", "-o", "a.rel"]) == 0
    assert cli.main(["power", "--inner", "a.rel", "-m", "3", "-o", "cube.rel"]) == 0
    plane = (tmp_path / "a.rel").read_text()
    assert "edge 0 1 a3\n" in plane
    (tmp_path / "c.rel").write_text(plane.replace("edge 0 1 a3\n", "edge 0 1 a0\n"))
    assert cli.main(["power", "--inner", "c.rel", "-m", "3", "-o", "ccube.rel"]) == 0
    assert cli.main(["xi", "--inner", "a.rel", "--n", "1", "--seed", "5", "-o", "x.rel"]) == 0
    assert cli.main(["power", "--inner", "x.rel", "-m", "2", "-o", "xsq.rel"]) == 0
    assert cli.main(["power", "--inner", "a.rel", "-m", "4", "-o", "p4.rel"]) == 0
    assert cli.main(["power", "--inner", "c.rel", "-m", "4", "-o", "c4.rel"]) == 0
    assert cli.main(["affine", "--q", "5", "-o", "a5.rel"]) == 0
    assert cli.main(["power", "--inner", "a5.rel", "-m", "3", "-o", "c5.rel"]) == 0
    assert cli.main(["power", "--inner", "a.rel", "-m", "5", "-o", "p5.rel"]) == 0
    assert cli.main(["power", "--inner", "a.rel", "-m", "2", "-o", "s.rel"]) == 0
    assert cli.main(["xi", "--inner", "s.rel", "--n", "1", "--seed", "5", "-o", "xs.rel"]) == 0
    assert cli.main(["power", "--inner", "xs.rel", "-m", "2", "-o", "xs2sq.rel"]) == 0
    argv = ["xi", "--inner", "cube.rel", "--n", "2", "--seed", "0", "-o", "xcube.rel"]
    assert cli.main(argv) == 0
    for (path, mode), (code, text, line) in LARGE_POWER_OUTPUTS.items():
        capsys.readouterr()
        argv = ["verify", f"--{mode}", path]
        assert cli.main(argv) == code
        assert capsys.readouterr().out == text + "\n"
        assert cli.main(["--json", *argv]) == code
        assert capsys.readouterr().out == line + "\n"


_AUDIT_JSON = (
    '{"claim_full": false, "command": "degree-audit", "degrees": {%s}, '
    '"detail": "no full-representation claim checked", "ok": true, "structure": "%s"}'
)
_SLOPES = ("a0", "a1", "a2", "a3")
# file: the degree range of every atom but 1'
DEGREE_AUDIT_OUTPUTS = {
    "sq.rel": {a: (4, 4) for a in _SLOPES},
    "cube.rel": {a: (8, 8) for a in _SLOPES},
    "dsq.rel": {**{a: (4, 4) for a in _SLOPES}, "t1": (81, 81)},
    "xsq.rel": {**{a: (4, 4) for a in _SLOPES}, "t1": (4, 25), "t2": (16, 49)},
    # the cube of affine 5 (15,625 points), audited on affine 5
    "c5.rel": {f"a{i}": (64, 64) for i in range(6)},
}


def test_degree_audit_on_powers(tmp_path, monkeypatch, capsys):
    # the square and the cube of affine 3, the square of doubled 3, the
    # square of xi n=2 over affine 3 and the cube of affine 5
    monkeypatch.chdir(tmp_path)
    assert cli.main(["affine", "--q", "3", "-o", "a.rel"]) == 0
    assert cli.main(["affine", "--q", "5", "-o", "a5.rel"]) == 0
    assert cli.main(["double", "--q", "3", "-o", "d.rel"]) == 0
    assert cli.main(["xi", "--inner", "a.rel", "--n", "2", "--seed", "0", "-o", "x.rel"]) == 0
    for inner, m, out in (
        ("a", 2, "sq"), ("a", 3, "cube"), ("d", 2, "dsq"), ("x", 2, "xsq"), ("a5", 3, "c5")
    ):
        assert cli.main(["power", "--inner", f"{inner}.rel", "-m", str(m), "-o", f"{out}.rel"]) == 0
    for path, degrees in DEGREE_AUDIT_OUTPUTS.items():
        capsys.readouterr()
        assert cli.main(["degree-audit", path]) == 0
        text = "".join(f"atom {a}: degree {lo}..{hi}\n" for a, (lo, hi) in degrees.items())
        assert capsys.readouterr().out == text + "no full-representation claim checked\n"
        assert cli.main(["--json", "degree-audit", path]) == 0
        listed = ", ".join(f'"{a}": [{lo}, {hi}]' for a, (lo, hi) in degrees.items())
        assert capsys.readouterr().out == _AUDIT_JSON % (listed, path) + "\n"


def test_oversized_beta_and_params_refused_in_both_modes(capsys):
    for argv, code in (
        (["beta", "--m", "2^4095"], 0),
        (["beta", "--m", "2^4096"], 4),
        (["beta", "--m", "2^100000"], 4),
        (["beta", "--m", "3^99999999999999999999"], 4),
        (["beta", "--m", "1" * 5000], 4),
        (["beta", "--m", "2^-1"], 2),
        (["params", "--gamma", "13"], 0),
        (["params", "--gamma", "14"], 4),
        (["params", "--gamma", "40"], 4),
        # bounds --m prints d = p^(2m) in full: 3^2584 < 2^4096 <= 3^2586
        (["bounds", "--p", "3", "--n", "2", "--m", "1292"], 0),
        (["bounds", "--p", "3", "--n", "2", "--m", "1293"], 4),
        (["bounds", "--p", "3", "--n", "2", "--m", "5000"], 4),
        (["bounds", "--p", "3", "--n", "2", "--m", "10" * 20], 4),
    ):
        assert cli.main(argv) == code, argv
        assert cli.main(["--json", *argv]) == code, argv
        out = capsys.readouterr().out
        assert (out == "") == (code != 0), argv


def test_oversized_power_refused_where_it_is_built(tmp_path, monkeypatch, capsys):
    # a power above 2^16 points is refused from m and the inner base's bit
    # length, before its base is formed, and names no base
    monkeypatch.chdir(tmp_path)
    assert cli.main(["affine", "--q", "3", "-o", "a.rel"]) == 0
    plane = os.listdir(tmp_path)
    capsys.readouterr()
    for argv in (["power", "--inner", "a.rel", "-m", "2000", "-o", "p.rel"],
                 ["power", "--inner", "a.rel", "-m", "6", "-o", "p.rel"]):
        assert cli.main(argv) == 4, argv
        assert cli.main(["--json", *argv]) == 4, argv
        assert capsys.readouterr().out == "", argv
    assert os.listdir(tmp_path) == plane
    (tmp_path / "big.rel").write_text(
        "structure v1\nkind power\nalgebra a.ra\npower m=1000000 inner=a.rel\n"
    )
    for argv in (["verify", "--weak", "big.rel"], ["verify", "--full", "big.rel"],
                 ["degree-audit", "big.rel"]):
        for json_flag in ([], ["--json"]):
            start = time.perf_counter()
            assert cli.main([*json_flag, *argv]) == 4, argv
            assert time.perf_counter() - start < 1, argv
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and len(err) < 200, argv
    # the 5th power of affine 3 (59,049 points) still builds
    assert cli.main(["power", "--inner", "a.rel", "-m", "5", "-o", "p5.rel"]) == 0


def test_oversized_lpn_refused_in_both_modes(tmp_path, monkeypatch, capsys):
    # more than 256 atoms: refused before the table is built or a file written
    monkeypatch.chdir(tmp_path)
    assert cli.main(["construct", "--p", "3", "--n", "2", "-o", "l32.ra"]) == 0
    capsys.readouterr()
    for argv in (
        ["construct", "--p", "3000", "--n", "1", "-o", "big.ra"],
        ["construct", "--p", "400", "--n", "0", "-o", "big.ra"],
        ["construct", "--p", "200", "--n", "55", "-o", "big.ra"],
        ["fuse", "--p", "255", "--n", "0", "--i", "0", "--j", "1", "-o", "big.ra"],
        ["embed", "--kind", "fusion", "--p", "3", "--n", "2", "--i", "0", "--j", "1",
         "--q", "300"],
        ["embed", "--kind", "gamma", "--algebra", "l32.ra", "--gens", "a0+a1",
         "--target-p", "300"],
    ):
        assert cli.main(argv) == 4, argv
        assert cli.main(["--json", *argv]) == 4, argv
        assert capsys.readouterr().out == "", argv
    assert os.listdir(tmp_path) == ["l32.ra"]
    assert cli.main(["construct", "--p", "61", "--n", "5", "-o", "l615.ra"]) == 0


def test_oversized_check_axioms_refused_in_both_modes(tmp_path, monkeypatch, capsys):
    # 81 atoms, one more than check_axioms takes
    monkeypatch.chdir(tmp_path)
    assert cli.main(["construct", "--p", "79", "--n", "0", "-o", "l79.ra"]) == 0
    capsys.readouterr()
    for argv in (["check-axioms", "l79.ra"], ["--json", "check-axioms", "l79.ra"]):
        assert cli.main(argv) == 4, argv
        assert capsys.readouterr().out == "", argv


def test_oversized_fast_checker_base_refused_in_both_modes(monkeypatch, capsys):
    # n = 1 has no union defect to stop at: over the 5th power of affine 3
    # (59,049 points) the checker's relations, and over the square of
    # affine 7 (2,401 points) one d^3-bit product, are over the image
    # budget, refused before any image or product is formed
    from relalg import structures, xi

    def never(*args):
        raise AssertionError("an image or a product was formed")

    for name in ("_image_bits", "_square_product", "_transpose_square"):
        monkeypatch.setattr(xi, name, never)
    monkeypatch.setattr(structures, "_image_bits", never)
    for argv in (
        ["search", "--p", "3", "--n", "1", "--m", "5", "--seeds", "0:1"],
        ["montecarlo", "--p", "3", "--n", "1", "--m", "5", "--trials", "1", "--seed0", "0"],
        ["search", "--p", "7", "--n", "1", "--m", "2", "--seeds", "0:1"],
    ):
        assert cli.main(argv) == 4, argv
        assert cli.main(["--json", *argv]) == 4, argv
        out, err = capsys.readouterr()
        assert out == "" and err.count("over the 512 MiB image budget") == 2, argv


def _defect_search(p, m, seeds):
    """Exit code, text and --json output of search with n = 2 over the m-th
    power of affine p, where every seed fails union-defect at (0, 1)."""
    d = p ** (2 * m)
    text = [f"search p={p} n=2 m={m} base=2*{d} mode=fast"]
    text += [f"seed {s}: FAIL union-defect at (0, 1)" for s in seeds]
    text.append(f"0/{len(seeds)} seeds pass")
    results = ", ".join(
        '{"condition": "union-defect", "ok": false, "point": [0, 1], "seed": %d, '
        '"strict_ok": null}' % s for s in seeds
    )
    line = (
        '{"base": %d, "command": "search", "m": %d, "mode": "fast", "n": 2, "p": %d, '
        '"passes": [], "results": [%s], "seeds": [%s]}'
        % (2 * d, m, p, results, ", ".join(map(str, seeds)))
    )
    return 0, "\n".join(text), line


# argv: exit code, text output, --json output
CHECKER_OUTPUTS = {
    # the 4th power of affine 3 (6,561 points)
    ("search", "--p", "3", "--n", "2", "--m", "4", "--seeds", "0:3"): _defect_search(3, 4, range(3)),
    ("montecarlo", "--p", "3", "--n", "2", "--m", "3", "--trials", "20", "--seed0", "7"): (
        0,
        "trials=20 seed0=7 failures=20 rate=1.0000 wilson=[0.8389,1.0000]\n"
        "analytic bound 1: consistent",
        '{"analytic_bound": 1.0, "command": "montecarlo", "consistency": "consistent", '
        '"failures": 20, "m": 3, "n": 2, "p": 3, "rate": 1.0, "seed0": 7, "trials": 20, '
        '"wilson_high": 1.0, "wilson_low": 0.8388748419471806}',
    ),
    # n = 2 over the 5th power of affine 3 (59,049 points), the cube of
    # affine 5 (15,625) and the square of affine 13 (28,561), whose union
    # defect is read off the rows of the plane
    ("search", "--p", "3", "--n", "2", "--m", "5", "--seeds", "0:3"): _defect_search(3, 5, range(3)),
    ("search", "--p", "5", "--n", "2", "--m", "3", "--seeds", "0:3"): _defect_search(5, 3, range(3)),
    ("search", "--p", "13", "--n", "2", "--m", "2", "--seeds", "0:3"): _defect_search(13, 2, range(3)),
    ("montecarlo", "--p", "3", "--n", "2", "--m", "5", "--trials", "5", "--seed0", "0"): (
        0,
        "trials=5 seed0=0 failures=5 rate=1.0000 wilson=[0.5655,1.0000]\n"
        "analytic bound 1: consistent",
        '{"analytic_bound": 1.0, "command": "montecarlo", "consistency": "consistent", '
        '"failures": 5, "m": 5, "n": 2, "p": 3, "rate": 1.0, "seed0": 0, "trials": 5, '
        '"wilson_high": 1.0, "wilson_low": 0.5655175352168252}',
    ),
}


def test_checker_outputs_over_powers(capsys):
    for argv, (code, text, line) in CHECKER_OUTPUTS.items():
        assert cli.main(list(argv)) == code, argv
        assert capsys.readouterr().out == text + "\n", argv
        assert cli.main(["--json", *argv]) == code, argv
        assert capsys.readouterr().out == line + "\n", argv


def test_oversized_affine_plane_refused_in_both_modes(tmp_path, monkeypatch, capsys):
    # q = 29, above structures.MAX_AFFINE_Q: refused before the plane is
    # built or a file written
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["affine", "--q", "29", "-o", "big.rel"],
        ["double", "--q", "29", "-o", "big.rel"],
        ["search", "--p", "29", "--n", "2", "--m", "1", "--seeds", "0:1"],
        ["montecarlo", "--p", "29", "--n", "2", "--m", "1", "--trials", "1", "--seed0", "0"],
    ):
        assert cli.main(argv) == 4, argv
        assert cli.main(["--json", *argv]) == 4, argv
        out, err = capsys.readouterr()
        assert out == "" and "affine plane of order 29" in err, argv
    assert os.listdir(tmp_path) == []


def test_budget_overrides(tmp_path):
    run("affine", "--q", "3", "-o", "a.rel", cwd=tmp_path)
    # verify's budget is fixed: a base cap is not a flag
    out = run("verify", "--weak", "a.rel", "--max-base", "4", cwd=tmp_path)
    assert out.returncode == 2 and "unrecognized arguments: --max-base" in out.stderr
    out = run("falsify", "l32.ra", "x1;x1 = x1", "--budget", "2", cwd=tmp_path)
    # file error takes precedence here; create the algebra first
    assert out.returncode == 3
    run("construct", "--p", "3", "--n", "2", "-o", "l32.ra", cwd=tmp_path)
    out = run("falsify", "l32.ra", "x1;x1 = x1", "--budget", "2", cwd=tmp_path)
    assert out.returncode == 4


def test_falsify_random_mode_honours_budget(tmp_path):
    run("construct", "--p", "3", "--n", "2", "-o", "l32.ra", cwd=tmp_path)
    random_mode = ("falsify", "l32.ra", "x1;x1 = x1", "--mode", "random")
    out = run(*random_mode, "--trials", "3", "--budget", "2", cwd=tmp_path)
    assert out.returncode == 4 and out.stdout == ""
    assert out.stderr == "resource budget exceeded: random search asks for 3 trials, budget is 2\n"
    # the default budget, 2^24, refuses before any of the trials is drawn
    out = run(*random_mode, "--trials", str(2 ** 30), cwd=tmp_path)
    assert out.returncode == 4 and "budget is 16777216" in out.stderr
    out = run(*random_mode, "--trials", "2", "--budget", "2", cwd=tmp_path)
    assert out.returncode == 0 and out.stdout.startswith("FALSIFIED: ")


def test_json_output_is_deterministic(tmp_path):
    run("construct", "--p", "3", "--n", "2", "-o", "l32.ra", cwd=tmp_path)
    a = run("--json", "check-axioms", "l32.ra", cwd=tmp_path)
    b = run("--json", "check-axioms", "l32.ra", cwd=tmp_path)
    assert a.stdout == b.stdout
    json.loads(a.stdout)
    a = run("--json", "search", "--p", "3", "--n", "1", "--m", "1", "--seeds", "0:3", cwd=tmp_path)
    b = run("--json", "search", "--p", "3", "--n", "1", "--m", "1", "--seeds", "0:3", cwd=tmp_path)
    assert a.stdout == b.stdout


def test_emitted_files_reparse_to_equal_objects(tmp_path):
    run("construct", "--p", "4", "--n", "1", "-o", "l41.ra", cwd=tmp_path)
    first = (tmp_path / "l41.ra").read_text()
    from relalg.fileformat import format_algebra, load_algebra

    back = load_algebra(str(tmp_path / "l41.ra"))
    assert format_algebra(back) == first


def test_flags_the_mode_ignores_are_usage_errors(tmp_path, monkeypatch, capsys):
    # each of these used to run with exit 0 and ignore the named flags
    monkeypatch.chdir(tmp_path)
    assert cli.main(["construct", "--p", "3", "--n", "2", "-o", "l32.ra"]) == 0
    gamma = ["embed", "--kind", "gamma", "--algebra", "l32.ra", "--gens", "a0+a1"]
    for argv, message in (
        (["bounds", "--p", "3", "--n", "2", "--m", "1", "--d", "50", "--k", "3"],
         "bounds --m does not take --d --k"),
        (["bounds", "--p", "3", "--n", "2", "--d", "50"], "bounds without --m needs --k"),
        (["embed", "--kind", "fusion", "--p", "3", "--n", "2", "--i", "0", "--j", "1",
          "--q", "5", "--gens", "a0", "--target-p", "9"],
         "embed --kind fusion does not take --gens --target-p"),
        (gamma + ["--target-p", "7", "--q", "11", "--i", "0"],
         "embed --kind gamma does not take --i --q"),
        (gamma, "embed --kind gamma needs --target-p"),
    ):
        for json_flag in ([], ["--json"]):
            capsys.readouterr()
            with pytest.raises(SystemExit) as info:
                cli.main(json_flag + argv)
            out = capsys.readouterr()
            assert info.value.code == 2, argv
            assert out.out == "" and message in out.err, (argv, out.err)
