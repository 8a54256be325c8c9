import json
import os
import subprocess
import sys

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
    run("affine", "--q", "16", "-o", "a16.rel", cwd=tmp_path)
    assert run("verify", "--full", "a16.rel", cwd=tmp_path).returncode == 4
    # verification failure
    run("affine", "--q", "3", "-o", "a.rel", cwd=tmp_path)
    run("xi", "--inner", "a.rel", "--n", "2", "--seed", "0", "-o", "x.rel", cwd=tmp_path)
    assert run("verify", "--weak", "x.rel", cwd=tmp_path).returncode == 1
    # argparse usage error
    assert run("bogus-command", cwd=tmp_path).returncode == 2
    # file or parse error, never a traceback: a field that is not a number, a
    # seed beyond 64 bits, bytes that are not UTF-8, a directory as algebra
    header = "structure v1\nkind atom-labeling\nalgebra a.ra\n"
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
    ):
        assert cli.main(argv) == code, argv
        assert cli.main(["--json", *argv]) == code, argv
        out = capsys.readouterr().out
        assert (out == "") == (code != 0), argv


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


def test_oversized_fast_checker_base_refused_in_both_modes(capsys):
    # p = 3, m = 5: 59,049 inner points, refused before any image is built
    for argv in (
        ["search", "--p", "3", "--n", "2", "--m", "5", "--seeds", "0:1"],
        ["montecarlo", "--p", "3", "--n", "2", "--m", "5", "--trials", "1", "--seed0", "0"],
    ):
        assert cli.main(argv) == 4, argv
        assert cli.main(["--json", *argv]) == 4, argv
        assert capsys.readouterr().out == "", argv


def test_budget_overrides(tmp_path):
    run("affine", "--q", "3", "-o", "a.rel", cwd=tmp_path)
    # explicit flag below the base size: refused with the budget exit code
    out = run("verify", "--weak", "a.rel", "--max-base", "4", cwd=tmp_path)
    assert out.returncode == 4
    out = run("verify", "--full", "a.rel", "--max-base", "4", cwd=tmp_path)
    assert out.returncode == 4
    out = run("falsify", "l32.ra", "x1;x1 = x1", "--budget", "2", cwd=tmp_path)
    # file error takes precedence here; create the algebra first
    assert out.returncode == 3
    run("construct", "--p", "3", "--n", "2", "-o", "l32.ra", cwd=tmp_path)
    out = run("falsify", "l32.ra", "x1;x1 = x1", "--budget", "2", cwd=tmp_path)
    assert out.returncode == 4


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
