"""Command-line front end: body generation, computation, verification, sweeps.

Reproducibility contract: one command per process, the seed comes from
``--seed`` (falling back to the ``CONVEXLAB_SEED`` environment variable, then
0), and every output file embeds the package version, the resolved
configuration, and the seed.  Reruns with identical configuration produce
byte-identical files.  Exit codes: 0 success, 1 usage, I/O or out-of-memory
error, 2 inequality violation, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .geometry import (
    ball_approx,
    cross_polytope,
    cube,
    load_body,
    polar,
    random_directions,
    random_ellipsoid,
    random_symmetric_polytope,
    save_body,
    write_json,
)
from .harness import (
    ball_deficit,
    chain_consistency,
    cone_restricted_deficit,
    cone_sum_reconstruction,
    directional_deficit,
    orthant_pair,
    pl_triple_check,
    santalo_deficit,
    save_reports_csv,
    save_reports_jsonl,
)
from .isotropic import isotropize
from .moments import second_moment_matrix, volume
from .stability import fit_loglog_slope, kt_family, kt_sweep, save_records_csv
from .yaoyao import dual_partition, sample_measure, save_partition, yao_yao_equipartition

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_NONCONVERGED = 3

GEN_KINDS = ("random-symmetric", "cube", "cross", "ball-approx", "ellipsoid", "kt")
VERIFY_WHICH = ("santalo", "ball", "directional", "cones", "pl", "all")


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract reserves 2
    for inequality violations, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _default_seed() -> int:
    env = os.environ.get("CONVEXLAB_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise ValueError(f"CONVEXLAB_SEED must be an integer, got {env!r}") from exc


def _parse_direction(text: str, n: int) -> np.ndarray:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"--direction expects comma-separated reals, got {text!r}") from exc
    if len(parts) != n:
        raise ValueError(f"--direction has {len(parts)} components, body has dimension {n}")
    u = np.array(parts)
    norm = float(np.linalg.norm(u))
    if not 0 < norm < np.inf:  # NaN fails both comparisons
        raise ValueError(f"--direction must be finite and nonzero, got {text!r}")
    return u / norm


def _parse_t_values(text: str) -> list[float]:
    """Single value ``0.05`` or inclusive range ``a:b:k`` with k points."""
    if ":" in text:
        fields = text.split(":")
        if len(fields) != 3:
            raise ValueError(f"--t range must look like a:b:k, got {text!r}")
        a, b, k = float(fields[0]), float(fields[1]), int(fields[2])
        if k < 2:
            raise ValueError("--t range needs at least 2 points")
        if a == b:
            raise ValueError(f"--t range {text!r} has equal ends: its points repeat one t")
        return [float(v) for v in np.linspace(a, b, k)]
    return [float(text)]


def _sample_count(text: str) -> int:
    """``--samples``: a nonnegative integer (0 on routes that draw nothing)."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _run_config(args: argparse.Namespace) -> dict:
    options = {}
    for key, value in sorted(vars(args).items()):
        if value is None:
            continue
        options[key.replace("_", "-")] = value
    return {"version": __version__, "seed": args.seed, "config": options}


def _print_report(rep) -> None:
    status = "PASS" if rep.passed else "FAIL"
    print(
        f"{rep.name}: lhs={rep.lhs:.10g} rhs={rep.rhs:.10g} "
        f"deficit={rep.deficit:.10g} tol={rep.tolerance:.3g} [{status}]"
    )


def _write_reports(out: str | None, reports, meta: dict) -> None:
    if not out:
        return
    save_reports_jsonl(out + ".jsonl", reports, meta=meta)
    save_reports_csv(out + ".csv", reports, meta=meta)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    kind = args.kind
    n = args.dim
    if not args.out:
        raise ValueError("gen requires --out")
    if kind == "cube":
        body = cube(n)
    elif kind == "cross":
        body = cross_polytope(n)
    elif kind == "ball-approx":
        body = ball_approx(n, args.verts, seed=args.seed)
    elif kind == "ellipsoid":
        body = random_ellipsoid(n, seed=args.seed)
    elif kind == "random-symmetric":
        body = random_symmetric_polytope(n, args.verts, seed=args.seed)
    else:  # kt
        if args.t is None:
            raise ValueError("gen kt requires --t")
        values = _parse_t_values(args.t)
        if len(values) != 1:
            raise ValueError("gen kt takes a single --t value")
        body = kt_family(n, values[0], seed_grid=args.seed)
    save_body(args.out, body, extra=_run_config(args))
    print(f"wrote {kind} body (dim {n}) to {args.out}")
    return EXIT_OK


def cmd_compute(args: argparse.Namespace) -> int:
    body = load_body(args.body)
    pol = polar(body)
    mk = second_moment_matrix(body, method="exact")
    mp = second_moment_matrix(pol, method="exact")
    san = santalo_deficit(body, method="exact")
    bal = ball_deficit(body, method="exact")
    chain = chain_consistency(body, method="exact")
    result = _run_config(args)
    result.update(
        {
            "dim": body.dim,
            "volume": volume(body),
            "volume_polar": volume(pol),
            "volume_product": san.lhs,
            "santalo_bound": san.rhs,
            "santalo_deficit": san.deficit,
            "moment_matrix": mk.matrix.tolist(),
            "moment_matrix_polar": mp.matrix.tolist(),
            "moment_trace": mk.trace,
            "moment_trace_polar": mp.trace,
            "ball_functional": bal.lhs,
            "ball_bound": bal.rhs,
            "ball_deficit": bal.deficit,
            "chain_lhs": chain.lhs,
            "chain_rhs": chain.rhs,
        }
    )
    if args.out:
        write_json(args.out, result)
    print(json.dumps(result, sort_keys=True, indent=1))
    return EXIT_OK


def _verify_directional(body, args, reports) -> None:
    _, iso, cert = isotropize(body, target="polar")
    if args.direction:
        directions = [_parse_direction(args.direction, body.dim)]
    else:
        rng = np.random.default_rng(args.seed)
        directions = list(np.eye(body.dim)) + list(random_directions(body.dim, 2, rng))
    for k, u in enumerate(directions):
        reports.append(
            directional_deficit(iso, u, cert, samples=args.samples, seed=args.seed + k)
        )


def _equipartition(measure_body, args):
    """``(u, partition)``: u from ``--direction`` (default e_1), and the Yao-Yao
    partition of the ``<x, u>^2`` measure of ``measure_body``."""
    n = measure_body.dim
    u = _parse_direction(args.direction, n) if args.direction else np.eye(n)[0]
    cloud = sample_measure(measure_body, u, args.samples, seed=args.seed)
    return u, yao_yao_equipartition(cloud, mass_tol=args.mass_tol)


def _verify_cones(body, args, reports) -> None:
    _, iso, _ = isotropize(body, target="polar")
    u, part = _equipartition(polar(iso), args)
    for k, cone in enumerate(dual_partition(part)):
        reports.append(
            cone_restricted_deficit(iso, u, cone, samples=args.samples, seed=args.seed + 10 + k)
        )
    reports.append(
        cone_sum_reconstruction(polar(iso), part, samples=args.samples, seed=args.seed + 9)
    )


def _verify_pl(body, args, reports) -> None:
    _, part = _equipartition(body, args)
    pairs = min(args.samples, 10**5)
    for index in range(2**body.dim):
        x_region, y_region, _ = orthant_pair(body, part, index)
        reports.append(
            pl_triple_check(x_region, y_region, pairs=pairs, seed=args.seed + index)
        )


def cmd_verify(args: argparse.Namespace) -> int:
    body = load_body(args.body)
    which = args.which
    reports = []
    if which in ("santalo", "all"):
        reports.append(santalo_deficit(body, samples=args.samples, seed=args.seed))
    if which in ("ball", "all"):
        reports.append(ball_deficit(body, samples=args.samples, seed=args.seed))
    if which in ("directional", "all"):
        _verify_directional(body, args, reports)
    if which in ("cones", "all"):
        _verify_cones(body, args, reports)
    if which in ("pl", "all"):
        _verify_pl(body, args, reports)
    for rep in reports:
        _print_report(rep)
    _write_reports(args.out, reports, _run_config(args))
    failed = [rep for rep in reports if not rep.passed]
    if failed:
        print(f"{len(failed)} violation(s) detected", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_yaoyao(args: argparse.Namespace) -> int:
    body = load_body(args.body)
    n = body.dim
    u, part = _equipartition(body, args)
    fractions = part.mass_fractions
    target = 2.0**-n
    worst = float(np.max(np.abs(fractions / target - 1.0)))
    print(f"axis: {np.array2string(part.axis, precision=8)}  <u,v> = {float(u @ part.axis):.8f}")
    print(f"cone mass fractions: {np.array2string(fractions, precision=6)}")
    print(f"worst relative deviation from 2^-{n}: {worst:.3e} (mass_tol {args.mass_tol:g})")
    if args.out:
        save_partition(args.out, part, extra=_run_config(args))
        print(f"wrote partition to {args.out}")
    return EXIT_OK


def cmd_stability(args: argparse.Namespace) -> int:
    if args.what != "kt-sweep":
        raise ValueError(f"unknown stability experiment {args.what!r}")
    t_values = _parse_t_values(args.t)
    records = kt_sweep(args.dim, t_values, samples=args.samples, seed=args.seed)
    if args.out:
        save_records_csv(args.out, records, meta=_run_config(args))
        print(f"wrote {len(records)} records to {args.out}")
    for rec in records:
        print(
            f"t={rec.t:g}: deficit_santalo={rec.deficit_santalo:.6e} "
            f"A={rec.A_dist:.6e} ratio={rec.ratio:.4g}"
        )
    if len(records) >= 2:
        ts = [r.t for r in records]
        print(f"slope(deficit_santalo) = {fit_loglog_slope(ts, [r.deficit_santalo for r in records]):.4f}")
        print(f"slope(A_dist)          = {fit_loglog_slope(ts, [r.A_dist for r in records]):.4f}")
    stalled = [rec for rec in records if not rec.fit_converged]
    if stalled:
        print(f"{len(stalled)} ellipsoid fit(s) hit the iteration cap", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="convexlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"convexlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, samples_default):
        # None until main resolves it from CONVEXLAB_SEED, so a bad value
        # there is reported like any other usage error
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=_sample_count, default=samples_default)
        p.add_argument("--out", type=str, default=None)

    p_gen = sub.add_parser("gen", help="generate a body file")
    p_gen.add_argument("kind", choices=GEN_KINDS)
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--verts", type=int, default=16,
                       help="vertex pairs (random-symmetric) or facet count (ball-approx)")
    p_gen.add_argument("--t", type=str, default=None, help="bump size for kind=kt")
    common(p_gen, samples_default=0)

    p_compute = sub.add_parser("compute", help="exact volumes, moments, and functionals")
    p_compute.add_argument("body")
    common(p_compute, samples_default=0)

    p_verify = sub.add_parser("verify", help="check inequalities on a body")
    p_verify.add_argument("body")
    p_verify.add_argument("--which", choices=VERIFY_WHICH, default="all")
    p_verify.add_argument("--mass-tol", type=float, default=5e-3)
    p_verify.add_argument("--direction", type=str, default=None,
                          help="comma-separated components, e.g. 1,0 (normalized)")
    common(p_verify, samples_default=200_000)

    p_yy = sub.add_parser("yaoyao", help="equipartition the <x,u>^2 measure of a body")
    p_yy.add_argument("body")
    p_yy.add_argument("--direction", type=str, default=None)
    p_yy.add_argument("--mass-tol", type=float, default=5e-3)
    common(p_yy, samples_default=200_000)

    p_st = sub.add_parser("stability", help="stability scaling experiments")
    p_st.add_argument("what", choices=["kt-sweep"])
    p_st.add_argument("--dim", type=int, required=True)
    p_st.add_argument("--t", type=str, required=True, help="a:b:k range or single value")
    common(p_st, samples_default=10**6)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The one parser of the process, built on the first call.  It holds no
    function: ``main`` looks up ``cmd_<command>`` when it runs, so a command
    wrapped or replaced after the parser was built is the one that runs."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits directly for --help/--version (code 0) and our
        # _Parser.error override exits with the usage code; surface both as
        # return values so embedding callers never see the exception
        return int(exc.code or 0)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        return globals()[f"cmd_{args.command}"](args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except MemoryError:
        print(
            "error: out of memory (try fewer --samples or a body with fewer vertices)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
