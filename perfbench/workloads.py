"""The four workloads: inputs made from the seed, timed operations, outputs.

``build(name, seed, workdir)`` writes a workload's input files and returns a
``Workload``: its operations (run back to back as one round), the output
files a round writes, a function that gathers those outputs after the timed
rounds, the check that judges them, and the spans a traced run must see.
Every operation gets fresh body objects, so no round reuses a cache filled by
an earlier one and all rounds do the same work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from convexlab import cli
from convexlab.geometry import Ellipsoid, SymmetricHPolytope, SymmetricVPolytope
from convexlab.harness import ball_deficit, santalo_deficit
from convexlab.moments import mc_second_moment, second_moment_matrix
from convexlab.stability import kt_family

import checks

# moment-oracle: MC draws per estimate
ORACLE_SAMPLES = 500_000
# equipartition: samples per verify and per yaoyao (the CLI default), and the
# fresh re-measure.  Bodies are 2D only: in 3D the Yao-Yao axis solve fails to
# converge on a share of inputs at any sample count tried.
EQUI_SAMPLES = 200_000
FRESH_SAMPLES = 400_000
# kt-stability: bump sizes and MC draws of each sweep
SWEEP_T = "0.04:0.12:3"
SWEEP_T_VALUES = [0.04, 0.08, 0.12]
SWEEP_SAMPLES = 200_000


@dataclass
class Op:
    label: str
    run: Callable[[], None]


class OpFailed(Exception):
    """The program refused or failed an operation (exit code 1 or 3)."""


@dataclass
class Workload:
    ops: list[Op]
    files: list[str]
    collect: Callable[[], dict]
    check: Callable[[dict], None]
    layers: tuple[str, ...]


def derived_seeds(seed: int, tag: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(count)]


def cli_op(label: str, *argv) -> Op:
    """A ``convexlab`` command run in-process; exit 2 (a reported violation)
    completes, and the check then finds the failing report."""
    args = [str(a) for a in argv]

    def run():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(args)
        if code not in (0, 2):
            raise OpFailed(f"exit {code}: {err.getvalue().strip()[-300:]}")

    return Op(label, run)


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def read_reports(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh.readlines()[1:]]  # line 1 holds the run config


def write_json(path: str, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


def random_vertices(rng: np.random.Generator, n: int, pairs: int) -> np.ndarray:
    """+/- r_i d_i with d_i uniform on the sphere and r_i uniform in [0.6, 1.4]."""
    d = rng.standard_normal((pairs, n))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    pts = d * rng.uniform(0.6, 1.4, size=(pairs, 1))
    return np.vstack([pts, -pts])


def base_vertices(n: int, pairs: int) -> np.ndarray:
    """A fixed random polytope: one vertex set per (n, pairs), whatever the seed."""
    return random_vertices(np.random.default_rng([n, pairs]), n, pairs)


def random_map(rng: np.random.Generator, n: int) -> np.ndarray:
    """Rotation, axis scaling in [0.7, 1.4], rotation."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(rng.uniform(0.7, 1.4, n)) @ q2


def random_shape(rng: np.random.Generator, n: int) -> np.ndarray:
    """Shape matrix (T T^T)^-1 of an ellipsoid T(B) with aspect ratio at most 4."""
    while True:
        t = rng.standard_normal((n, n))
        s = np.linalg.svd(t, compute_uv=False)
        if s[0] / s[-1] <= 4.0 and s[-1] > 0.25:
            q = np.linalg.inv(t @ t.T)
            return 0.5 * (q + q.T)


def existing(*paths: str) -> bool:
    return all(os.path.exists(p) for p in paths)


# ---------------------------------------------------------------------------
# exact-geometry: gen, compute and verify --which directional; no sampling


def exact_geometry(seed: int, work: str) -> Workload:
    s = derived_seeds(seed, 1, 20)
    cube2 = np.array([[x, y] for x in (-1, 1) for y in (-1, 1)], dtype=float)
    cube3 = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=float)
    cross4 = np.vstack([np.eye(4), -np.eye(4)])
    # (label, kind, dim, gen arguments, vertex set built here for closed forms)
    bodies = [
        ("square", "cube", 2, ["cube", "--dim", 2], cube2),
        ("cube3", "cube", 3, ["cube", "--dim", 3], cube3),
        ("cross4", "cross", 4, ["cross", "--dim", 4], cross4),
        ("ellipsoid3", "ellipsoid", 3, ["ellipsoid", "--dim", 3, "--seed", s[0]], None),
        ("random2", "random", 2, ["random-symmetric", "--dim", 2, "--verts", 8, "--seed", s[1]], None),
        ("random3", "random", 3, ["random-symmetric", "--dim", 3, "--verts", 10, "--seed", s[2]], None),
        ("random4", "random", 4, ["random-symmetric", "--dim", 4, "--verts", 16, "--seed", s[3]], None),
        # one 3D K_t costs as much as everything else in the round together
        ("kt3-0.08", "kt", 3, ["kt", "--dim", 3, "--t", "0.08", "--seed", s[4]], None),
    ] + [
        (f"kt2-{t}", "kt", 2, ["kt", "--dim", 2, "--t", t, "--seed", s[5 + k]], None)
        for k, t in enumerate(("0.04", "0.12"))
    ]
    write_json(os.path.join(work, "plan.json"), [b[:4] for b in bodies])
    ops, files = [], []
    for k, (label, _, _, gen_args, _) in enumerate(bodies):
        body, comp, rep = (os.path.join(work, label + ext) for ext in (".json", ".compute.json", ".dir"))
        ops += [
            cli_op(f"gen {label}", "gen", *gen_args, "--out", body),
            cli_op(f"compute {label}", "compute", body, "--out", comp),
            cli_op(f"verify {label}", "verify", body, "--which", "directional",
                   "--seed", s[8 + k], "--out", rep),
        ]
        files += [body, comp, rep + ".jsonl", rep + ".csv"]

    def collect() -> dict:
        out = []
        for label, kind, dim, _, vertices in bodies:
            body, comp, rep = (os.path.join(work, label + ext)
                               for ext in (".json", ".compute.json", ".dir.jsonl"))
            if not existing(body, comp, rep):
                continue
            entry = {"label": label, "kind": kind, "dim": dim, "body": read_json(body),
                     "compute": read_json(comp), "reports": read_reports(rep)}
            if vertices is not None:
                entry["vertices"] = vertices
            out.append(entry)
        return {"bodies": out}

    return Workload(
        ops, files, collect, lambda data: checks.check_exact_geometry(data["bodies"]),
        layers=(
            "geometry.polar", "geometry.vertex_enumeration", "geometry.star_triangulation",
            "geometry.vpoly_canonicalize", "moments.second_moment_matrix", "moments.volume",
            "isotropic.isotropize", "harness.santalo_deficit", "harness.ball_deficit",
            "harness.directional_deficit", "harness.chain_consistency", "stability.kt_family",
            "cli.gen", "cli.compute", "cli.verify", "cli.load", "cli.write",
        ),
    )


# ---------------------------------------------------------------------------
# moment-oracle: exact vs MC second moments through the API


def _make_body(spec: dict):
    if spec["kind"] == "v-polytope":
        return SymmetricVPolytope(np.asarray(spec["vertices"]))
    if spec["kind"] == "h-polytope":
        return SymmetricHPolytope(np.asarray(spec["normals"]), np.asarray(spec["offsets"]))
    return Ellipsoid(np.asarray(spec["shape"]))


def _box_volume(spec: dict) -> float:
    if spec["kind"] == "ellipsoid":
        return float(np.prod(2.0 * np.sqrt(np.diag(np.linalg.inv(np.asarray(spec["shape"]))))))
    if spec["kind"] == "h-polytope":
        v = checks.halfspace_vertices(np.asarray(spec["normals"]), np.asarray(spec["offsets"]))
    else:
        v = np.asarray(spec["vertices"])
    return float(np.prod(v.max(axis=0) - v.min(axis=0)))


def moment_oracle(seed: int, work: str) -> Workload:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    s = derived_seeds(seed, 2, 20)
    # Polytopes are random linear images of fixed ones: the seed moves the
    # geometry but not the facet count, which sets the cost of membership.
    cube3 = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=float)
    angles = np.linspace(0.0, math.pi, 40, endpoint=False)
    ellipse = np.column_stack([np.cos(angles), np.sin(angles)])
    normals = base_vertices(3, 12) @ np.linalg.inv(random_map(rng, 3))
    offsets = np.ones(len(normals))
    shapes = {n: random_shape(rng, n) for n in (2, 3, 4)}
    specs = {
        "vpoly2": {"kind": "v-polytope", "vertices": base_vertices(2, 8) @ random_map(rng, 2).T},
        "vpoly3": {"kind": "v-polytope", "vertices": base_vertices(3, 10) @ random_map(rng, 3).T},
        "vpoly4": {"kind": "v-polytope", "vertices": base_vertices(4, 8) @ random_map(rng, 4).T},
        "cube3": {"kind": "v-polytope", "vertices": cube3},
        # 80 points on an ellipse: every one is a vertex, so membership is angular
        "polygon80": {"kind": "v-polytope",
                      "vertices": np.vstack([ellipse, -ellipse]) @ random_map(rng, 2).T},
        "hpoly3": {"kind": "h-polytope", "normals": normals, "offsets": offsets},
        **{f"ellipsoid{n}": {"kind": "ellipsoid", "shape": q} for n, q in shapes.items()},
    }
    for label, spec in specs.items():
        arrays = {k: v for k, v in spec.items() if k != "kind"}
        spec["dim"] = next(iter(arrays.values())).shape[-1]
        spec.update({k: v.tolist() for k, v in arrays.items()})
        write_json(os.path.join(work, label + ".json"), spec)
    results: dict = {}

    def exact(label):
        def run():
            mm = second_moment_matrix(_make_body(specs[label]), method="exact")
            results[("exact", label)] = {"matrix": mm.matrix.tolist(), "volume": mm.volume}
        return Op(f"exact {label}", run)

    def mc(label, seed_):
        def run():
            mm = mc_second_moment(_make_body(specs[label]), ORACLE_SAMPLES, seed_)
            results[("mc", label)] = {"matrix": mm.matrix.tolist(), "stderr": mm.stderr.tolist(),
                                      "volume": mm.volume, "samples": mm.samples}
        return Op(f"mc {label}", run)

    def deficit(name, label, seed_):
        def run():
            # looked up at call time, so a traced run sees the wrapped function
            fn = santalo_deficit if name == "santalo" else ball_deficit
            rep = fn(_make_body(specs[label]), method="mc", samples=ORACLE_SAMPLES, seed=seed_)
            results[(name, label)] = rep.to_json_dict()
        return Op(f"{name}_deficit {label}", run)

    ops = []
    for k, label in enumerate(specs):
        ops += [exact(label), mc(label, s[k])]
    for k, label in enumerate(("ellipsoid2", "ellipsoid3")):
        ops += [deficit("santalo", label, s[10 + 2 * k]), deficit("ball", label, s[11 + 2 * k])]

    def collect() -> dict:
        bodies = [
            {"label": label, "body": spec, "cube": label == "cube3", "box_volume": _box_volume(spec),
             "exact": results[("exact", label)], "mc": results[("mc", label)]}
            for label, spec in specs.items()
            if ("exact", label) in results and ("mc", label) in results
        ]
        deficits = [
            dict(rep, label=label, dim=specs[label]["dim"])
            for (name, label), rep in results.items()
            if name in ("santalo", "ball")
        ]
        return {"bodies": bodies, "deficits": deficits}

    return Workload(
        ops, [], collect, lambda data: checks.check_moment_oracle(data["bodies"], data["deficits"]),
        layers=(
            "geometry.contains.vpoly.2d", "geometry.contains.vpoly.3d", "geometry.contains.vpoly.4d",
            "geometry.contains.vpoly_angular.2d", "geometry.contains.hpoly.3d",
            "geometry.contains.ellipsoid.2d", "geometry.contains.ellipsoid.3d",
            "geometry.contains.ellipsoid.4d", "moments.mc_second_moment", "moments.mc_volume",
            "moments.second_moment_matrix", "harness.santalo_deficit", "harness.ball_deficit",
        ),
    )


# ---------------------------------------------------------------------------
# equipartition: verify --which cones|pl and yaoyao on 2D and 3D bodies


def equipartition(seed: int, work: str) -> Workload:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    s = derived_seeds(seed, 3, 6)
    # random linear images of fixed polygons, as in moment-oracle
    bodies = {"poly8": base_vertices(2, 8) @ random_map(rng, 2).T,
              "poly16": base_vertices(2, 16) @ random_map(rng, 2).T}
    paths = {label: os.path.join(work, label + ".json") for label in bodies}
    for label, v in bodies.items():
        write_json(paths[label], {"dim": 2, "kind": "v-polytope", "vertices": v.tolist()})
    verifies = [(label, which) for label in bodies for which in ("cones", "pl")]
    ops, files = [], []
    for k, (label, which) in enumerate(verifies):
        out = os.path.join(work, f"{label}.{which}")
        ops.append(cli_op(f"verify {label} {which}", "verify", paths[label], "--which", which,
                          "--samples", EQUI_SAMPLES, "--seed", s[k], "--out", out))
        files += [out + ".jsonl", out + ".csv"]
    for k, label in enumerate(bodies):
        out = os.path.join(work, f"{label}.partition.json")
        ops.append(cli_op(f"yaoyao {label}", "yaoyao", paths[label], "--samples", EQUI_SAMPLES,
                          "--seed", s[4 + k], "--out", out))
        files.append(out)

    def collect() -> dict:
        ver = [
            {"label": f"{label} {which}", "dim": 2, "which": which,
             "reports": read_reports(os.path.join(work, f"{label}.{which}.jsonl"))}
            for label, which in verifies
            if existing(os.path.join(work, f"{label}.{which}.jsonl"))
        ]
        parts = [
            {"label": f"yaoyao {label}", "vertices": bodies[label], "samples": EQUI_SAMPLES,
             "fresh_samples": FRESH_SAMPLES,
             "partition": read_json(os.path.join(work, f"{label}.partition.json"))}
            for label in bodies
            if existing(os.path.join(work, f"{label}.partition.json"))
        ]
        return {"verifies": ver, "partitions": parts}

    def check(data):
        fresh = np.random.default_rng(np.random.SeedSequence([seed, 3, 1]))
        checks.check_equipartition(data["verifies"], data["partitions"], fresh)

    return Workload(
        ops, files, collect, check,
        layers=(
            "yaoyao.sample_measure", "yaoyao.yao_yao_equipartition.2d", "yaoyao.dual_partition",
            "isotropic.isotropize", "harness.cone_restricted_deficit",
            "harness.cone_sum_reconstruction", "harness.orthant_pair", "harness.pl_triple_check",
            "harness.OrthantRegion.coordinate_moment", "harness.OrthantRegion.sample",
            "geometry.contains.cone.2d", "geometry.contains.vpoly.2d",
            "cli.verify", "cli.yaoyao", "cli.load", "cli.write",
        ),
    )


# ---------------------------------------------------------------------------
# kt-stability: stability kt-sweep --dim 2


def read_sweep(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return [{k: float(v) for k, v in row.items()} for row in rows]


def kt_volumes(t_values) -> dict:
    """t -> (|K_t|, |K_t*|) by Qhull, from the halfspaces of the 2D bump body."""
    out = {}
    for t in t_values:
        body = kt_family(2, t)
        u, c = np.asarray(body.normals), np.asarray(body.offsets)
        out[t] = (checks.hull_volume_moment(checks.halfspace_vertices(u, c))[0],
                  checks.hull_volume_moment(u / c[:, None])[0])
    return out


def kt_stability(seed: int, work: str) -> Workload:
    s = derived_seeds(seed, 4, 2)
    sweeps = [(f"sweep{k}", s[k]) for k in range(2)]
    write_json(os.path.join(work, "plan.json"), {"t": SWEEP_T, "samples": SWEEP_SAMPLES, "seeds": s})
    paths = {label: os.path.join(work, label + ".csv") for label, _ in sweeps}
    ops = [
        cli_op(f"kt-sweep {label}", "stability", "kt-sweep", "--dim", 2, "--t", SWEEP_T,
               "--samples", SWEEP_SAMPLES, "--seed", seed_, "--out", paths[label])
        for label, seed_ in sweeps
    ]

    def collect() -> dict:
        return {
            "sweeps": [
                {"label": label, "t": SWEEP_T_VALUES, "rows": read_sweep(paths[label])}
                for label, _ in sweeps
                if existing(paths[label])
            ],
            "volumes": kt_volumes(SWEEP_T_VALUES),
        }

    return Workload(
        ops, list(paths.values()), collect,
        lambda data: checks.check_kt_stability(data["sweeps"], data["volumes"]),
        layers=(
            "stability.kt_family", "stability.best_fit_ellipsoid", "stability.homothetic_distance",
            "stability.fit", "geometry.contains.vpoly_angular.2d", "geometry.contains.ellipsoid.2d",
            "cli.stability", "cli.write",
        ),
    )


BUILDERS = {
    "exact-geometry": exact_geometry,
    "moment-oracle": moment_oracle,
    "equipartition": equipartition,
    "kt-stability": kt_stability,
}


def build(name: str, seed: int, work: str) -> Workload:
    return BUILDERS[name](seed, work)
