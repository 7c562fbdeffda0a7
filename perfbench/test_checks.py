"""The benchmark's output checks reject wrong answers; the tracer misses no binding.

    python3 -m pytest perfbench/test_checks.py

Each workload's check is first shown to accept a correct output of the
program, on inputs small enough to run in seconds, and then to reject the
same output made wrong in one place.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def run_cli(*argv) -> None:
    op = workloads.cli_op("test", *argv)
    op.run()


# ---------------------------------------------------------------------------
# exact-geometry


def geometry_entry(tmp_path, label, kind, dim, gen_args, vertices=None) -> dict:
    body, comp, rep = (str(tmp_path / (label + ext)) for ext in (".json", ".c.json", ".dir"))
    run_cli("gen", *gen_args, "--out", body)
    run_cli("compute", body, "--out", comp)
    run_cli("verify", body, "--which", "directional", "--seed", 3, "--out", rep)
    entry = {"label": label, "kind": kind, "dim": dim, "body": workloads.read_json(body),
             "compute": workloads.read_json(comp), "reports": workloads.read_reports(rep + ".jsonl")}
    if vertices is not None:
        entry["vertices"] = vertices
    return entry


@pytest.fixture(scope="module")
def geometry_entries(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("geometry")
    square = np.array([[x, y] for x in (-1, 1) for y in (-1, 1)], dtype=float)
    return [
        geometry_entry(tmp, "square", "cube", 2, ["cube", "--dim", 2], square),
        geometry_entry(tmp, "ellipsoid", "ellipsoid", 2, ["ellipsoid", "--dim", 2, "--seed", 4]),
        geometry_entry(tmp, "random", "random", 3,
                       ["random-symmetric", "--dim", 3, "--verts", 10, "--seed", 5]),
    ]


def test_exact_geometry_accepts_program_output(geometry_entries):
    checks.check_exact_geometry(geometry_entries)


@pytest.mark.parametrize("label, mutate", [
    ("square", lambda e: e["compute"].update(volume=e["compute"]["volume"] * 1.01)),
    ("random", lambda e: e["compute"].update(volume_polar=e["compute"]["volume_polar"] * (1 + 1e-7))),
    ("random", lambda e: e["compute"]["moment_matrix"][0].__setitem__(
        0, e["compute"]["moment_matrix"][0][0] * 1.01)),
    ("ellipsoid", lambda e: e["compute"].update(ball_deficit=1e-6)),
    ("random", lambda e: e["reports"][0].update(deficit=-1e-6)),
    ("square", lambda e: e["body"]["vertices"][0].__setitem__(0, 0.5)),
])
def test_exact_geometry_rejects(geometry_entries, label, mutate):
    entries = copy.deepcopy(geometry_entries)
    mutate(next(e for e in entries if e["label"] == label))
    with pytest.raises(CheckFailed):
        checks.check_exact_geometry(entries)


# ---------------------------------------------------------------------------
# moment-oracle


@pytest.fixture(scope="module")
def oracle_data():
    from convexlab.geometry import Ellipsoid, SymmetricVPolytope
    from convexlab.harness import santalo_deficit
    from convexlab.moments import mc_second_moment, second_moment_matrix

    cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=float)
    shape = workloads.random_shape(np.random.default_rng(1), 2)
    specs = [("cube3", {"kind": "v-polytope", "vertices": cube.tolist()}, SymmetricVPolytope(cube)),
             ("ellipsoid2", {"kind": "ellipsoid", "shape": shape.tolist()}, Ellipsoid(shape))]
    bodies = []
    for k, (label, spec, body) in enumerate(specs):
        exact = second_moment_matrix(body, method="exact")
        mc = mc_second_moment(body, 10**6, seed=10 + k)
        bodies.append({
            "label": label, "body": spec, "cube": label == "cube3",
            "box_volume": workloads._box_volume(spec),
            "exact": {"matrix": exact.matrix.tolist(), "volume": exact.volume},
            "mc": {"matrix": mc.matrix.tolist(), "stderr": mc.stderr.tolist(),
                   "volume": mc.volume, "samples": mc.samples},
        })
    rep = santalo_deficit(Ellipsoid(shape), method="mc", samples=10**6, seed=5).to_json_dict()
    return {"bodies": bodies, "deficits": [dict(rep, label="ellipsoid2", dim=2)]}


def test_moment_oracle_accepts_program_output(oracle_data):
    checks.check_moment_oracle(oracle_data["bodies"], oracle_data["deficits"])


def _scale(entry, key, factor):
    entry[key]["matrix"] = (np.asarray(entry[key]["matrix"]) * factor).tolist()


@pytest.mark.parametrize("mutate", [
    lambda d: _scale(d["bodies"][0], "exact", 1.01),  # exact moment off by 1 %
    lambda d: _scale(d["bodies"][1], "mc", 1.01),  # MC estimate biased by 1 %
    lambda d: d["bodies"][1]["exact"].update(volume=d["bodies"][1]["exact"]["volume"] * 1.001),
    lambda d: d["deficits"][0].update(lhs=d["deficits"][0]["lhs"] * 1.01),
])
def test_moment_oracle_rejects(oracle_data, mutate):
    data = copy.deepcopy(oracle_data)
    mutate(data)
    with pytest.raises(CheckFailed):
        checks.check_moment_oracle(data["bodies"], data["deficits"])


# ---------------------------------------------------------------------------
# equipartition


@pytest.fixture(scope="module")
def equipartition_data(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("equipartition")
    vertices = workloads.base_vertices(2, 8)
    body = str(tmp / "body.json")
    workloads.write_json(body, {"dim": 2, "kind": "v-polytope", "vertices": vertices.tolist()})
    run_cli("verify", body, "--which", "cones", "--samples", 50_000, "--seed", 1,
            "--out", str(tmp / "cones"))
    run_cli("yaoyao", body, "--samples", 50_000, "--seed", 2, "--out", str(tmp / "part.json"))
    return {
        "verifies": [{"label": "cones", "dim": 2, "which": "cones",
                      "reports": workloads.read_reports(str(tmp / "cones.jsonl"))}],
        "partitions": [{"label": "yaoyao", "vertices": vertices, "samples": 50_000,
                        "fresh_samples": 200_000,
                        "partition": workloads.read_json(str(tmp / "part.json"))}],
    }


def check_equipartition(data):
    checks.check_equipartition(data["verifies"], data["partitions"], np.random.default_rng(7))


def test_equipartition_accepts_program_output(equipartition_data):
    check_equipartition(equipartition_data)


def move_mass(data):
    """Turn the ray shared by two neighbouring cones by 0.05 rad in both."""
    cones = data["partitions"][0]["partition"]["cones"]
    gens = [np.asarray(c["generators"]) for c in cones]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            for a in range(2):
                for b in range(2):
                    if np.allclose(gens[i][:, a], gens[j][:, b], atol=1e-12):
                        c, s = math.cos(0.05), math.sin(0.05)
                        ray = np.array([[c, -s], [s, c]]) @ gens[i][:, a]
                        gens[i][:, a] = ray
                        gens[j][:, b] = ray
                        cones[i]["generators"] = gens[i].tolist()
                        cones[j]["generators"] = gens[j].tolist()
                        return
    raise AssertionError("no shared ray")


@pytest.mark.parametrize("mutate", [
    move_mass,
    lambda d: d["partitions"][0]["partition"]["cones"].pop(),  # a cone missing
    lambda d: d["verifies"][0]["reports"][0].update(passed=False),
    lambda d: d["verifies"][0]["reports"][-1]["metadata"]["per_cone"].__setitem__(0, 0.0),
])
def test_equipartition_rejects(equipartition_data, mutate):
    data = copy.deepcopy(equipartition_data)
    mutate(data)
    with pytest.raises(CheckFailed):
        check_equipartition(data)


def test_moved_mass_is_seen_by_the_fresh_sample(equipartition_data):
    data = copy.deepcopy(equipartition_data)
    move_mass(data)
    entry = data["partitions"][0]
    z = checks.cone_mass_z(entry["partition"], entry["vertices"], entry["samples"],
                           entry["fresh_samples"], np.random.default_rng(7))
    assert np.max(np.abs(z)) > checks.CONE_SIGMAS


# ---------------------------------------------------------------------------
# kt-stability


def sweep(deficit_power=2.0, a_power=1.0):
    ts = [0.04, 0.08, 0.12]
    rows, volumes = [], {}
    for t in ts:
        d, a = 3.0 * t**deficit_power, 0.3 * t**a_power
        rows.append({"t": t, "vol_K": math.pi, "vol_polar": (math.pi**2 - d) / math.pi,
                     "deficit_santalo": d, "deficit_ball": d / 10, "A_dist": a,
                     "ratio": d / a**2, "samples": 1.0, "seed": 0.0})
        volumes[t] = (math.pi, (math.pi**2 - d) / math.pi)
    return [{"label": "sweep", "t": ts, "rows": rows}], volumes


def test_kt_stability_accepts_consistent_sweep():
    checks.check_kt_stability(*sweep())


def test_kt_stability_accepts_program_output(tmp_path):
    out = str(tmp_path / "sweep.csv")
    run_cli("stability", "kt-sweep", "--dim", 2, "--t", "0.04:0.12:3", "--samples", 50_000,
            "--seed", 1, "--out", out)
    data = [{"label": "sweep", "t": [0.04, 0.08, 0.12], "rows": workloads.read_sweep(out)}]
    checks.check_kt_stability(data, workloads.kt_volumes([0.04, 0.08, 0.12]))


@pytest.mark.parametrize("kwargs, message", [
    ({"deficit_power": 1.0}, "deficit slope"),
    ({"a_power": 2.0}, "A_dist slope"),
])
def test_kt_stability_rejects_slopes(kwargs, message):
    with pytest.raises(CheckFailed, match=message):
        checks.check_kt_stability(*sweep(**kwargs))


@pytest.mark.parametrize("mutate", [
    lambda rows: rows[0].update(vol_K=math.pi * 1.001),
    lambda rows: rows[1].update(deficit_santalo=rows[1]["deficit_santalo"] * 1.01),
    lambda rows: rows[2].update(A_dist=2.5, ratio=rows[2]["deficit_santalo"] / 6.25),
])
def test_kt_stability_rejects(mutate):
    sweeps, volumes = sweep()
    mutate(sweeps[0]["rows"])
    with pytest.raises(CheckFailed):
        checks.check_kt_stability(sweeps, volumes)


# ---------------------------------------------------------------------------
# tracing


def test_tracer_rebinds_every_binding_and_restores():
    import convexlab.cli  # noqa: F401
    from convexlab import geometry, harness, moments, stability

    original = geometry.polar
    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        assert geometry.polar is not original
        for mod in (moments, harness, stability, sys.modules["convexlab"]):
            assert mod.polar is geometry.polar
        square = geometry.cube(2)
        assert math.isclose(moments.volume(geometry.polar(square)), 2.0)
        assert tracer.calls["geometry.polar"] == 1
        assert tracer.calls["moments.volume"] == 1
    finally:
        tracer.uninstall()
    assert geometry.polar is original and moments.polar is original


def test_tracer_refuses_a_binding_it_cannot_rebind():
    import types

    from convexlab import geometry

    caller = types.ModuleType("caller")
    polar = geometry.polar

    def op():
        return polar  # a closure cell: rebinding module attributes misses it

    op.__module__ = "caller"
    caller.op = op
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="caller.op"):
        tracer.install(caller)
    assert geometry.polar is polar


def test_per_layer_table_matches_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        listed = [(m["name"], m["unit"], m["better"]) for m in json.load(fh)["per_layer"]]
    assert listed == list(tracing.PER_LAYER)
