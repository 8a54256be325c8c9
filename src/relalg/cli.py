"""Command-line interface.

Every command writes a deterministic text report to stdout (or a JSON
object with --json; identical invocations give byte-identical output).
Exit codes: 0 success, 1 a verification failed, 2 usage error, 3 file or
parse error, 4 resource budget exceeded.  Randomized commands always
print the seeds they used.

Budgets can also be set through environment variables
RELALG_VERIFY_MAX_BASE and RELALG_FALSIFY_BUDGET.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import complexity, fileformat, lpn, structures, terms, xi
from .algebra import check_axioms, generate_subalgebra
from .errors import ParseError, ResourceBudgetError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_BUDGET = 4


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment variable {name} must be an integer") from None


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_int(value: str) -> int:
    """Plain integer or 2^k power notation."""
    if "^" in value:
        base, _, exp = value.partition("^")
        return int(base) ** int(exp)
    return int(value)


def _parse_seeds(spec: str) -> list[int]:
    """Seed list: 'a:b' (half-open range) or comma-separated values."""
    if ":" in spec:
        lo, _, hi = spec.partition(":")
        lo_i, hi_i = int(lo), int(hi)
        if hi_i <= lo_i:
            raise ValueError("seed range must be increasing")
        return list(range(lo_i, hi_i))
    return [int(s) for s in spec.split(",")]


def _gens_from_spec(algebra, spec: str):
    gens = []
    for part in spec.split(","):
        gens.append(algebra.parse_element(part.strip()))
    return gens


# -- command implementations ---------------------------------------------------


def cmd_construct(args) -> int:
    algebra = lpn.build_lpn(args.p, args.n)
    fileformat.save_algebra(algebra, args.output)
    _emit(
        args,
        {
            "command": "construct",
            "p": args.p,
            "n": args.n,
            "atoms": algebra.atom_count,
            "elements": 1 << algebra.atom_count,
            "output": args.output,
        },
        [
            f"wrote L({args.p},{args.n}) to {args.output}: "
            f"{algebra.atom_count} atoms, {1 << algebra.atom_count} elements"
        ],
    )
    return EXIT_OK


def cmd_fuse(args) -> int:
    fused = lpn.build_fused(args.p, args.n, args.i, args.j)
    fileformat.save_algebra(fused.algebra, args.output)
    ok = fused.inclusion_report.ok
    _emit(
        args,
        {
            "command": "fuse",
            "p": args.p,
            "n": args.n,
            "i": fused.i,
            "j": fused.j,
            "atoms": fused.algebra.atom_count,
            "inclusion_verified": ok,
            "output": args.output,
        },
        [
            f"wrote L^{fused.i}{fused.j}({args.p},{args.n}) to {args.output}: "
            f"{fused.algebra.atom_count} atoms, inclusion verified: {ok}"
        ],
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_check_axioms(args) -> int:
    algebra = fileformat.load_algebra(args.algebra)
    report = check_axioms(algebra)
    payload = {
        "command": "check-axioms",
        "algebra": args.algebra,
        "associativity": report.associativity_ok,
        "identity": report.identity_ok,
        "converse": report.converse_ok,
        "triangle_peircean": report.peircean_ok,
        "ok": report.ok,
    }
    if report.first_failure:
        payload["first_failure"] = {
            "family": report.first_failure.family,
            "atoms": list(report.first_failure.atoms),
            "detail": report.first_failure.detail,
        }
    _emit(args, payload, [report.summary()])
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def _write_structure_with_algebra(args, structure, *, inner_path=None) -> str:
    algebra_out = args.algebra_out
    if algebra_out is None:
        algebra_out = os.path.splitext(args.output)[0] + ".ra"
    fileformat.save_algebra(structure.algebra, algebra_out)
    rel = os.path.relpath(algebra_out, os.path.dirname(os.path.abspath(args.output)))
    fileformat.save_structure(
        structure,
        args.output,
        algebra_path=rel,
        inner_path=inner_path,
        explicit=getattr(args, "explicit", False),
    )
    return algebra_out


def cmd_affine(args) -> int:
    structure = structures.build_affine(args.q)
    algebra_out = _write_structure_with_algebra(args, structure)
    _emit(
        args,
        {
            "command": "affine",
            "q": args.q,
            "base": structure.base_size,
            "output": args.output,
            "algebra_output": algebra_out,
        },
        [
            f"wrote affine structure for L({args.q},0) on {structure.base_size} "
            f"points to {args.output} (algebra: {algebra_out})"
        ],
    )
    return EXIT_OK


def cmd_double(args) -> int:
    structure = structures.build_doubled(args.q)
    algebra_out = _write_structure_with_algebra(args, structure)
    _emit(
        args,
        {
            "command": "double",
            "q": args.q,
            "base": structure.base_size,
            "output": args.output,
            "algebra_output": algebra_out,
        },
        [
            f"wrote doubled structure for L({args.q},1) on {structure.base_size} "
            f"points to {args.output} (algebra: {algebra_out})"
        ],
    )
    return EXIT_OK


def cmd_power(args) -> int:
    inner = fileformat.load_structure(args.inner)
    structure = structures.build_power(inner, args.m)
    out_dir = os.path.dirname(os.path.abspath(args.output))
    inner_rel = os.path.relpath(os.path.abspath(args.inner), out_dir)
    algebra_out = args.algebra_out
    if algebra_out is None:
        algebra_out = os.path.splitext(args.output)[0] + ".ra"
    fileformat.save_algebra(structure.algebra, algebra_out)
    algebra_rel = os.path.relpath(algebra_out, out_dir)
    # m = 1 collapses to the inner structure, which re-saves as its own kind
    fileformat.save_structure(
        structure, args.output, algebra_path=algebra_rel, inner_path=inner_rel
    )
    _emit(
        args,
        {
            "command": "power",
            "m": args.m,
            "base": structure.base_size,
            "output": args.output,
        },
        [f"wrote power structure (m={args.m}) on {structure.base_size} points"],
    )
    return EXIT_OK


def cmd_xi(args) -> int:
    inner = fileformat.load_structure(args.inner)
    structure = xi.build_xi(inner, args.n, args.seed)
    out_dir = os.path.dirname(os.path.abspath(args.output))
    inner_rel = os.path.relpath(os.path.abspath(args.inner), out_dir)
    algebra_out = args.algebra_out
    if algebra_out is None:
        algebra_out = os.path.splitext(args.output)[0] + ".ra"
    fileformat.save_algebra(structure.algebra, algebra_out)
    algebra_rel = os.path.relpath(algebra_out, out_dir)
    fileformat.save_structure(
        structure,
        args.output,
        algebra_path=algebra_rel,
        inner_path=inner_rel,
        explicit=args.explicit,
    )
    _emit(
        args,
        {
            "command": "xi",
            "n": args.n,
            "seed": args.seed,
            "base": structure.base_size,
            "output": args.output,
        },
        [
            f"wrote xi structure (n={args.n}, seed={args.seed}) on "
            f"{structure.base_size} points to {args.output}"
        ],
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    structure = fileformat.load_structure(args.structure)
    max_base = _env_int("RELALG_VERIFY_MAX_BASE", structures.DEFAULT_VERIFY_MAX_BASE)
    if args.max_base is not None:
        max_base = args.max_base
    if args.full:
        report = structures.verify_full(structure, max_base=max_base)
    else:
        report = structures.verify_weak(structure, max_base=max_base)
    payload = {
        "command": "verify",
        "structure": args.structure,
        "mode": report.mode,
        "ok": report.ok,
        "pairs_checked": report.pairs_checked,
    }
    if report.failure:
        payload["failure"] = {
            "clause": report.failure.clause,
            "elements": [
                structure.algebra.format_mask(m) for m in report.failure.elements
            ],
            "point": list(report.failure.point) if report.failure.point else None,
            "detail": report.failure.detail,
        }
    _emit(args, payload, [report.summary(structure.algebra)])
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def cmd_degree_audit(args) -> int:
    structure = fileformat.load_structure(args.structure)
    report = structures.degree_audit(structure, claim_full=args.claim_full)
    names = structure.algebra.atom_names
    lines = []
    degrees_json = {}
    for a, (lo, hi) in sorted(report.degrees.items()):
        lines.append(f"atom {names[a]}: degree {lo}..{hi}")
        degrees_json[names[a]] = [lo, hi]
    lines.append(report.detail)
    payload = {
        "command": "degree-audit",
        "structure": args.structure,
        "degrees": degrees_json,
        "claim_full": args.claim_full,
        "ok": report.ok,
        "detail": report.detail,
    }
    _emit(args, payload, lines)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def cmd_search(args) -> int:
    seeds = _parse_seeds(args.seeds)
    report = xi.search_weakrep(args.p, args.n, args.m, seeds, mode=args.mode)
    payload = {
        "command": "search",
        "p": args.p,
        "n": args.n,
        "m": args.m,
        "base": 2 * report.d,
        "mode": args.mode,
        "seeds": seeds,
        "results": [
            {
                "seed": r.seed,
                "ok": r.ok,
                "condition": r.condition,
                "point": list(r.point) if r.point else None,
                "strict_ok": r.strict_ok,
            }
            for r in report.results
        ],
        "passes": report.passes,
    }
    _emit(args, payload, report.summary_lines())
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.m is not None:
        report = xi.eval_bounds_power(args.p, args.n, args.m, mode=args.mode)
    else:
        if args.d is None or args.k is None:
            raise ValueError("bounds needs either --m or both --d and --k")
        report = xi.eval_bounds(args.p, args.n, args.d, args.k, mode=args.mode)
    payload = {
        "command": "bounds",
        "p": report.p,
        "n": report.n,
        "d": report.d,
        "k": report.k,
        "m": report.m,
        "ineq1": report.ineq1,
        "ineq2": report.ineq2,
        "failure_bound": report.failure_bound,
        "mode": report.mode,
    }
    _emit(
        args,
        payload,
        [
            f"d={report.d} k={report.k}: ineq1={report.ineq1} ineq2={report.ineq2} "
            f"failure_bound={report.failure_bound:.6g} ({report.mode})"
        ],
    )
    return EXIT_OK


def cmd_thresholds(args) -> int:
    th = xi.sufficiency_thresholds(args.p, args.n)
    payload = {
        "command": "thresholds",
        "p": th.p,
        "n": th.n,
        "m_ineq1": th.m_ineq1,
        "m_ineq2_growth": th.m_ineq2_growth,
        "m_ineq2_start": th.m_ineq2_start,
        "m_all": th.m_all,
        "p_ineq1": th.p_ineq1,
        "p_ineq2": th.p_ineq2,
    }
    _emit(
        args,
        payload,
        [
            f"m thresholds: {th.m_ineq1:.4f}, {th.m_ineq2_growth:.4f}, "
            f"{th.m_ineq2_start:.4f} (all: {th.m_all:.4f})",
            f"p thresholds: {th.p_ineq1} (ineq1), {th.p_ineq2} (ineq2)",
        ],
    )
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    report = xi.montecarlo(args.p, args.n, args.m, args.trials, args.seed0)
    payload = {
        "command": "montecarlo",
        "p": report.p,
        "n": report.n,
        "m": report.m,
        "trials": report.trials,
        "seed0": args.seed0,
        "failures": report.failures,
        "rate": report.rate,
        "wilson_low": report.wilson_low,
        "wilson_high": report.wilson_high,
        "analytic_bound": report.analytic_bound,
        "consistency": report.consistency,
    }
    _emit(
        args,
        payload,
        [
            f"trials={report.trials} seed0={args.seed0} failures={report.failures} "
            f"rate={report.rate:.4f} wilson=[{report.wilson_low:.4f},"
            f"{report.wilson_high:.4f}]",
            f"analytic bound {report.analytic_bound:.6g}: {report.consistency}",
        ],
    )
    return EXIT_OK


def cmd_subalgebra(args) -> int:
    algebra = fileformat.load_algebra(args.algebra)
    gens = _gens_from_spec(algebra, args.gens)
    sub = generate_subalgebra(algebra, gens)
    atom_names = [algebra.format_mask(a.bits) for a in sub.atoms]
    _emit(
        args,
        {
            "command": "subalgebra",
            "algebra": args.algebra,
            "generators": [algebra.format_mask(g.bits) for g in gens],
            "atoms": atom_names,
            "size": sub.size,
        },
        [
            f"subalgebra atoms ({len(sub.atoms)}): " + ", ".join(atom_names),
            f"carrier size: {sub.size}",
        ],
    )
    return EXIT_OK


def cmd_pigeonhole(args) -> int:
    algebra = fileformat.load_algebra(args.algebra)
    gens = _gens_from_spec(algebra, args.gens)
    i, j = complexity.pigeonhole_pair(gens)
    _emit(
        args,
        {
            "command": "pigeonhole",
            "generators": [algebra.format_mask(g.bits) for g in gens],
            "i": i,
            "j": j,
        },
        [f"pigeonhole pair: ({i},{j})"],
    )
    return EXIT_OK


def cmd_embed(args) -> int:
    if args.kind == "fusion":
        result = lpn.fusion_embedding(args.p, args.n, args.i, args.j, args.q)
        ok = result.report.ok
        images = {
            result.fused.algebra.format_mask(mask): result.target.format_mask(img)
            for mask, img in sorted(result.embedding.atom_images.items())
        }
        payload = {
            "command": "embed",
            "kind": "fusion",
            "p": args.p,
            "n": args.n,
            "i": result.fused.i,
            "j": result.fused.j,
            "q": args.q,
            "atom_images": images,
            "ok": ok,
        }
        lines = [f"fusion embedding L^{result.fused.i}{result.fused.j}"
                 f"({args.p},{args.n}) -> L({args.q},{args.n}): "
                 f"{'verified' if ok else 'FAILED'}"]
        lines += [f"  {src} -> {dst}" for src, dst in images.items()]
        _emit(args, payload, lines)
        return EXIT_OK if ok else EXIT_VERIFY_FAIL

    algebra = fileformat.load_algebra(args.algebra)
    gens = _gens_from_spec(algebra, args.gens)
    result = complexity.build_gamma_embedding(gens, args.target_p)
    ok = result.report.ok
    payload = {
        "command": "embed",
        "kind": "gamma",
        "generators": [algebra.format_mask(g.bits) for g in gens],
        "pigeonhole": list(result.plan.fusion),
        "target_p": args.target_p,
        "subalgebra_atoms": [
            algebra.format_mask(a.bits) for a in result.subalgebra.atoms
        ],
        "ok": ok,
    }
    _emit(
        args,
        payload,
        [
            f"pigeonhole pair {result.plan.fusion}, subalgebra atoms: "
            f"{len(result.subalgebra.atoms)}",
            f"embedding into L({args.target_p},{result.plan.n}): "
            f"{'verified' if ok else 'FAILED'}",
        ],
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_falsify(args) -> int:
    algebra = fileformat.load_algebra(args.algebra)
    eq = terms.parse_equation(args.equation)
    budget = _env_int("RELALG_FALSIFY_BUDGET", terms.DEFAULT_FALSIFY_BUDGET)
    if args.budget is not None:
        budget = args.budget
    result = terms.falsify(
        eq,
        algebra,
        mode=args.mode,
        seed=args.seed,
        trials=args.trials,
        budget=budget,
    )
    payload = {
        "command": "falsify",
        "equation": terms.print_equation(eq),
        "mode": args.mode,
        "status": result.status,
        "tried": result.tried,
    }
    if args.mode == "random":
        payload["seed"] = args.seed
    if result.assignment:
        payload["witness"] = {
            f"x{v}": algebra.format_mask(e.bits)
            for v, e in sorted(result.assignment.items())
        }
        lines = [f"{result.status.upper()}: {result.witness_text(algebra)}"]
    else:
        lines = [result.status.upper()]
    if args.mode == "random":
        lines.append(f"seed {args.seed}, {result.tried} assignments tried")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_beta(args) -> int:
    m = _parse_int(args.m)
    value = complexity.beta_lower_bound(m)
    _emit(
        args,
        {"command": "beta", "m": str(m), "lower_bound": value},
        [f"beta({args.m}) > {value:.6f}"],
    )
    return EXIT_OK


def cmd_params(args) -> int:
    p, n = complexity.choose_params(args.gamma)
    _emit(
        args,
        {
            "command": "params",
            "gamma": args.gamma,
            "p": p,
            "n": n,
            "elements": complexity.algebra_size(p, n),
        },
        [f"gamma={args.gamma}: p={p}, n={n} (algebra size 2^{p + n + 2})"],
    )
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relalg",
        description="workbench for finite symmetric integral relation algebras",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("construct", cmd_construct, "build L(p,n) and write an algebra file")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = add("fuse", cmd_fuse, "build the fused subalgebra L^ij(p,n)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = add("check-axioms", cmd_check_axioms, "verify the algebra axioms on atoms")
    p.add_argument("algebra")

    p = add("affine", cmd_affine, "affine-plane structure for L(q,0)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--algebra-out")

    p = add("double", cmd_double, "doubled structure for L(q,1)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--algebra-out")

    p = add("power", cmd_power, "coordinatewise power of a structure")
    p.add_argument("--inner", required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--algebra-out")

    p = add("xi", cmd_xi, "seeded doubled structure for L(p,n)")
    p.add_argument("--inner", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--algebra-out")
    p.add_argument(
        "--explicit", action="store_true", help="write tedge lines instead of the seed"
    )

    p = add("verify", cmd_verify, "verify a structure file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--weak", action="store_true")
    group.add_argument("--full", action="store_true")
    p.add_argument("structure")
    p.add_argument("--max-base", type=int)

    p = add("degree-audit", cmd_degree_audit, "per-atom neighbour counts")
    p.add_argument("structure")
    p.add_argument("--claim-full", action="store_true")

    p = add("search", cmd_search, "seed sweep for weak representations")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seeds", required=True, help="a:b range or comma list")
    p.add_argument("--mode", choices=("fast", "strict"), default="fast")

    p = add("bounds", cmd_bounds, "decide the witness-probability inequalities")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--mode", choices=("auto", "log", "exact"), default="auto")

    p = add("thresholds", cmd_thresholds, "sufficiency thresholds for m and p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("montecarlo", cmd_montecarlo, "empirical failure rate vs analytic bound")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed0", type=int, default=0)

    p = add("subalgebra", cmd_subalgebra, "generated subalgebra atoms")
    p.add_argument("algebra")
    p.add_argument("--gens", required=True, help="comma-separated atom sums")

    p = add("pigeonhole", cmd_pigeonhole, "find an unseparated slope pair")
    p.add_argument("algebra")
    p.add_argument("--gens", required=True)

    p = add("embed", cmd_embed, "fusion or generated-subalgebra embedding")
    p.add_argument("--kind", choices=("fusion", "gamma"), default="fusion")
    p.add_argument("--p", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--algebra")
    p.add_argument("--gens")
    p.add_argument("--target-p", type=int)

    p = add("falsify", cmd_falsify, "search for a falsifying assignment")
    p.add_argument("algebra")
    p.add_argument("equation")
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--budget", type=int)

    p = add("beta", cmd_beta, "equation-length lower bound at algebra size m")
    p.add_argument("--m", required=True, help="integer, 2^k notation allowed")

    p = add("params", cmd_params, "parameters (p,n) for a variable count gamma")
    p.add_argument("--gamma", type=int, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "embed":
        if args.kind == "fusion":
            missing = [f for f in ("p", "n", "i", "j", "q") if getattr(args, f) is None]
            if missing:
                parser.error(f"embed --kind fusion needs --{' --'.join(missing)}")
        else:
            if not (args.algebra and args.gens and args.target_p):
                parser.error("embed --kind gamma needs --algebra, --gens, --target-p")
    try:
        return args.fn(args)
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except FileNotFoundError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except (ValueError, ZeroDivisionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
