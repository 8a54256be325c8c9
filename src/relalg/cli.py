"""Command-line interface.

Every command returns one report, ``(exit_code, payload, lines)``, whose
text lines are formatted from the values computed for the JSON payload.
``main`` is the single emission point: it prints the lines, or with
--json the payload plus its "command" key as one sorted JSON object
(identical invocations give byte-identical output).
Exit codes: 0 success, 1 a verification failed, 2 usage error, 3 file or
parse error, 4 resource budget exceeded.  Randomized commands always
print the seeds they used.

Budgets are set per call with --max-base (verify) and --budget
(falsify).  ``beta`` and ``params`` print m and the element count in
full, so they refuse m >= 2^MAX_BETA_BITS (or an --m longer than that
many characters) and gamma > MAX_PARAMS_GAMMA before any work starts.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys

from .algebra import check_axioms, generate_subalgebra
from .errors import ParseError, ResourceBudgetError


def _lazy(name: str):
    """The submodule relalg.<name>, bound now and executed on its first
    attribute access, so each command runs only the layers it uses."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return module


complexity, fileformat, lpn, structures, terms, xi = map(
    _lazy, ("complexity", "fileformat", "lpn", "structures", "terms", "xi")
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_BUDGET = 4

MAX_BETA_BITS = 4096
MAX_PARAMS_GAMMA = 13  # L(8209,4105): 2^12316 elements, 3708 digits


def _parse_m(value: str) -> int:
    """beta's m: a plain integer or 2^k power notation, below 2^MAX_BETA_BITS."""
    base, sep, exp = value.partition("^")
    if len(value) <= MAX_BETA_BITS:
        m, k = int(base), int(exp) if sep else 1
        if k < 0:
            raise ValueError("the exponent of m must be nonnegative")
        # m^k >= 2^((bits(m) - 1) k): refuse before computing the power
        if k * (abs(m).bit_length() - 1) < MAX_BETA_BITS:
            m **= k
            if abs(m).bit_length() <= MAX_BETA_BITS:
                return m
    raise ResourceBudgetError(f"beta refuses m >= 2^{MAX_BETA_BITS}")


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
    return [algebra.parse_element(part.strip()) for part in spec.split(",")]


# -- command implementations ---------------------------------------------------


def cmd_construct(args):
    algebra = lpn.build_lpn(args.p, args.n)
    fileformat.save_algebra(algebra, args.output)
    k = algebra.atom_count
    payload = {
        "p": args.p,
        "n": args.n,
        "atoms": k,
        "elements": 1 << k,
        "output": args.output,
    }
    text = f"wrote L({args.p},{args.n}) to {args.output}: {k} atoms, {1 << k} elements"
    return EXIT_OK, payload, [text]


def cmd_fuse(args):
    fused = lpn.build_fused(args.p, args.n, args.i, args.j)
    fileformat.save_algebra(fused.algebra, args.output)
    ok = fused.inclusion_report.ok
    payload = {
        "p": args.p,
        "n": args.n,
        "i": fused.i,
        "j": fused.j,
        "atoms": fused.algebra.atom_count,
        "inclusion_verified": ok,
        "output": args.output,
    }
    text = (
        f"wrote L^{fused.i}{fused.j}({args.p},{args.n}) to {args.output}: "
        f"{fused.algebra.atom_count} atoms, inclusion verified: {ok}"
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAIL, payload, [text]


def cmd_check_axioms(args):
    algebra = fileformat.load_algebra(args.algebra)
    report = check_axioms(algebra)
    payload = {
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
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL, payload, [report.summary()]


def _write_structure_with_algebra(args, structure) -> str:
    """Save ``structure`` to -o and its algebra to --algebra-out (default: -o
    with a .ra suffix); the file names the algebra and any --inner by paths
    relative to itself."""
    out_dir = os.path.dirname(os.path.abspath(args.output))
    algebra_out = args.algebra_out
    if algebra_out is None:
        algebra_out = os.path.splitext(args.output)[0] + ".ra"
    fileformat.save_algebra(structure.algebra, algebra_out)
    inner = getattr(args, "inner", None)
    fileformat.save_structure(
        structure,
        args.output,
        algebra_path=os.path.relpath(algebra_out, out_dir),
        inner_path=None if inner is None else os.path.relpath(inner, out_dir),
        explicit=getattr(args, "explicit", False),
    )
    return algebra_out


def cmd_plane(args):
    """affine: the affine-plane structure for L(q,0); double: its doubling
    for L(q,1)."""
    doubled = args.command == "double"
    build = structures.build_doubled if doubled else structures.build_affine
    structure = build(args.q)
    algebra_out = _write_structure_with_algebra(args, structure)
    payload = {
        "q": args.q,
        "base": structure.base_size,
        "output": args.output,
        "algebra_output": algebra_out,
    }
    text = (
        f"wrote {'doubled' if doubled else 'affine'} structure for "
        f"L({args.q},{int(doubled)}) on {structure.base_size} points to "
        f"{args.output} (algebra: {algebra_out})"
    )
    return EXIT_OK, payload, [text]


def cmd_power(args):
    inner = fileformat.load_structure(args.inner)
    structure = structures.build_power(inner, args.m)
    # m = 1 collapses to the inner structure, whose own inner path is not
    # known here; a power line over --inner reloads to it whatever its kind
    _write_structure_with_algebra(args, structures.Power(inner, args.m))
    payload = {
        "m": args.m,
        "base": structure.base_size,
        "output": args.output,
    }
    text = f"wrote power structure (m={args.m}) on {structure.base_size} points"
    return EXIT_OK, payload, [text]


def cmd_xi(args):
    inner = fileformat.load_structure(args.inner)
    structure = xi.build_xi(inner, args.n, args.seed)
    _write_structure_with_algebra(args, structure)
    payload = {
        "n": args.n,
        "seed": args.seed,
        "base": structure.base_size,
        "output": args.output,
    }
    text = (
        f"wrote xi structure (n={args.n}, seed={args.seed}) on "
        f"{structure.base_size} points to {args.output}"
    )
    return EXIT_OK, payload, [text]


def cmd_verify(args):
    structure = fileformat.load_structure(args.structure)
    max_base = args.max_base
    if max_base is None:
        max_base = structures.DEFAULT_VERIFY_MAX_BASE
    if args.full:
        report = structures.verify_full(structure, max_base=max_base)
    else:
        report = structures.verify_weak(structure, max_base=max_base)
    payload = {
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
    text = report.summary(structure.algebra)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL, payload, [text]


def cmd_degree_audit(args):
    structure = fileformat.load_structure(args.structure)
    report = structures.degree_audit(structure, claim_full=args.claim_full)
    names = structure.algebra.atom_names
    degrees = {names[a]: [lo, hi] for a, (lo, hi) in sorted(report.degrees.items())}
    payload = {
        "structure": args.structure,
        "degrees": degrees,
        "claim_full": args.claim_full,
        "ok": report.ok,
        "detail": report.detail,
    }
    lines = [f"atom {name}: degree {lo}..{hi}" for name, (lo, hi) in degrees.items()]
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL, payload, lines + [report.detail]


def cmd_search(args):
    seeds = _parse_seeds(args.seeds)
    report = xi.search_weakrep(args.p, args.n, args.m, seeds, mode=args.mode)
    payload = {
        "p": args.p,
        "n": args.n,
        "m": args.m,
        "base": 2 * report.d,
        "mode": args.mode,
        "seeds": seeds,
        "results": [r._asdict() for r in report.results],
        "passes": report.passes,
    }
    return EXIT_OK, payload, report.summary_lines()


def cmd_bounds(args):
    if args.m is not None:
        report = xi.eval_bounds_power(args.p, args.n, args.m)
    else:
        if args.d is None or args.k is None:
            raise ValueError("bounds needs either --m or both --d and --k")
        report = xi.eval_bounds(args.p, args.n, args.d, args.k)
    payload = report._asdict()
    text = (
        f"d={report.d} k={report.k}: ineq1={report.ineq1} ineq2={report.ineq2} "
        f"failure_bound={report.failure_bound:.6g} ({report.mode})"
    )
    return EXIT_OK, payload, [text]


def cmd_thresholds(args):
    th = xi.sufficiency_thresholds(args.p, args.n)
    payload = {**th._asdict(), "m_all": th.m_all}
    lines = [
        f"m thresholds: {th.m_ineq1:.4f}, {th.m_ineq2_growth:.4f}, "
        f"{th.m_ineq2_start:.4f} (all: {th.m_all:.4f})",
        f"p thresholds: {th.p_ineq1} (ineq1), {th.p_ineq2} (ineq2)",
    ]
    return EXIT_OK, payload, lines


def cmd_montecarlo(args):
    report = xi.montecarlo(args.p, args.n, args.m, args.trials, args.seed0)
    payload = {**report._asdict(), "seed0": args.seed0}
    lines = [
        f"trials={report.trials} seed0={args.seed0} failures={report.failures} "
        f"rate={report.rate:.4f} wilson=[{report.wilson_low:.4f},"
        f"{report.wilson_high:.4f}]",
        f"analytic bound {report.analytic_bound:.6g}: {report.consistency}",
    ]
    return EXIT_OK, payload, lines


def cmd_subalgebra(args):
    algebra = fileformat.load_algebra(args.algebra)
    gens = _gens_from_spec(algebra, args.gens)
    sub = generate_subalgebra(algebra, gens)
    atom_names = [algebra.format_mask(a.bits) for a in sub.atoms]
    payload = {
        "algebra": args.algebra,
        "generators": [algebra.format_mask(g.bits) for g in gens],
        "atoms": atom_names,
        "size": sub.size,
    }
    lines = [
        f"subalgebra atoms ({len(atom_names)}): " + ", ".join(atom_names),
        f"carrier size: {sub.size}",
    ]
    return EXIT_OK, payload, lines


def cmd_pigeonhole(args):
    algebra = fileformat.load_algebra(args.algebra)
    gens = _gens_from_spec(algebra, args.gens)
    i, j = complexity.pigeonhole_pair(gens)
    payload = {
        "generators": [algebra.format_mask(g.bits) for g in gens],
        "i": i,
        "j": j,
    }
    return EXIT_OK, payload, [f"pigeonhole pair: ({i},{j})"]


def cmd_embed(args):
    if args.kind == "fusion":
        result = lpn.fusion_embedding(args.p, args.n, args.i, args.j, args.q)
        ok = result.report.ok
        images = {
            result.fused.algebra.format_mask(mask): result.target.format_mask(img)
            for mask, img in sorted(result.embedding.atom_images.items())
        }
        payload = {
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
        return EXIT_OK if ok else EXIT_VERIFY_FAIL, payload, lines

    algebra = fileformat.load_algebra(args.algebra)
    gens = _gens_from_spec(algebra, args.gens)
    result = complexity.build_gamma_embedding(gens, args.target_p)
    ok = result.report.ok
    sub_atoms = [algebra.format_mask(a.bits) for a in result.subalgebra.atoms]
    payload = {
        "kind": "gamma",
        "generators": [algebra.format_mask(g.bits) for g in gens],
        "pigeonhole": list(result.plan.fusion),
        "target_p": args.target_p,
        "subalgebra_atoms": sub_atoms,
        "ok": ok,
    }
    lines = [
        f"pigeonhole pair {result.plan.fusion}, subalgebra atoms: {len(sub_atoms)}",
        f"embedding into L({args.target_p},{result.plan.n}): "
        f"{'verified' if ok else 'FAILED'}",
    ]
    return EXIT_OK if ok else EXIT_VERIFY_FAIL, payload, lines


def cmd_falsify(args):
    algebra = fileformat.load_algebra(args.algebra)
    eq = terms.parse_equation(args.equation)
    budget = args.budget
    if budget is None:
        budget = terms.DEFAULT_FALSIFY_BUDGET
    result = terms.falsify(
        eq,
        algebra,
        mode=args.mode,
        seed=args.seed,
        trials=args.trials,
        budget=budget,
    )
    payload = {
        "equation": terms.print_equation(eq),
        "mode": args.mode,
        "status": result.status,
        "tried": result.tried,
    }
    lines = [result.status.upper()]
    if result.assignment:
        payload["witness"] = {
            f"x{v}": algebra.format_mask(e.bits)
            for v, e in sorted(result.assignment.items())
        }
        lines[0] += f": {result.witness_text(algebra)}"
    if args.mode == "random":
        payload["seed"] = args.seed
        lines.append(f"seed {args.seed}, {result.tried} assignments tried")
    return EXIT_OK, payload, lines


def cmd_beta(args):
    m = _parse_m(args.m)
    value = complexity.beta_lower_bound(m)
    text = f"beta({args.m}) > {value:.6f}"
    return EXIT_OK, {"m": str(m), "lower_bound": value}, [text]


def cmd_params(args):
    if args.gamma > MAX_PARAMS_GAMMA:
        raise ResourceBudgetError(f"params refuses gamma > {MAX_PARAMS_GAMMA}")
    p, n = complexity.choose_params(args.gamma)
    payload = {
        "gamma": args.gamma,
        "p": p,
        "n": n,
        "elements": complexity.algebra_size(p, n),
    }
    text = f"gamma={args.gamma}: p={p}, n={n} (algebra size 2^{p + n + 2})"
    return EXIT_OK, payload, [text]


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relalg",
        description="workbench for finite symmetric integral relation algebras",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    pn = argparse.ArgumentParser(add_help=False)
    pn.add_argument("--p", type=int, required=True)
    pn.add_argument("--n", type=int, required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--output", required=True)
    structure_out = argparse.ArgumentParser(add_help=False, parents=[out])
    structure_out.add_argument("--algebra-out")

    def add(name, fn, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.set_defaults(fn=fn)
        return p

    add("construct", cmd_construct, "build L(p,n) and write an algebra file", pn, out)

    p = add("fuse", cmd_fuse, "build the fused subalgebra L^ij(p,n)", pn, out)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)

    p = add("check-axioms", cmd_check_axioms, "verify the algebra axioms on atoms")
    p.add_argument("algebra")

    p = add("affine", cmd_plane, "affine-plane structure for L(q,0)", structure_out)
    p.add_argument("--q", type=int, required=True)

    p = add("double", cmd_plane, "doubled structure for L(q,1)", structure_out)
    p.add_argument("--q", type=int, required=True)

    p = add("power", cmd_power, "coordinatewise power of a structure", structure_out)
    p.add_argument("--inner", required=True)
    p.add_argument("-m", type=int, required=True)

    p = add("xi", cmd_xi, "seeded doubled structure for L(p,n)", structure_out)
    p.add_argument("--inner", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
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

    p = add("search", cmd_search, "seed sweep for weak representations", pn)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seeds", required=True, help="a:b range or comma list")
    p.add_argument("--mode", choices=("fast", "strict"), default="fast")

    p = add("bounds", cmd_bounds, "decide the witness-probability inequalities", pn)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)

    add("thresholds", cmd_thresholds, "sufficiency thresholds for m and p", pn)

    p = add(
        "montecarlo", cmd_montecarlo, "empirical failure rate vs analytic bound", pn
    )
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
        code, payload, lines = args.fn(args)
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except (ValueError, ZeroDivisionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        import json  # only --json output needs it

        print(json.dumps({"command": args.command, **payload}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
