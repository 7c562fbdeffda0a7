"""End-to-end command tests through main(argv); one subprocess smoke for the
installed entry point."""

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import convexlab.cli as cli
import convexlab.geometry as geometry
from convexlab.cli import main
from convexlab.geometry import load_body
from convexlab.harness import DeficitReport
from convexlab.stability import kt_family


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# gen / compute
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,extra", [
    ("cube", []),
    ("cross", []),
    ("random-symmetric", ["--verts", "8", "--seed", "3"]),
    ("ball-approx", ["--verts", "32"]),
    ("ellipsoid", ["--seed", "5"]),
    ("kt", ["--t", "0.05"]),
])
def test_gen_kinds(tmp_path, kind, extra):
    out = tmp_path / f"{kind}.json"
    assert run("gen", kind, "--dim", "2", "--out", str(out), *extra) == 0
    body = load_body(out)
    assert body.dim == 2
    data = json.loads(out.read_text())
    assert data["version"] and "config" in data and "seed" in data


def test_gen_requires_out(capsys):
    assert run("gen", "cube", "--dim", "2") == 1
    assert "error" in capsys.readouterr().err


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("gen", "random-symmetric", "--dim", "3", "--verts", "20", "--seed", "7", "--out", str(a))
    run("gen", "random-symmetric", "--dim", "3", "--verts", "20", "--seed", "7", "--out", str(b))
    # identical up to the embedded output path
    assert a.read_bytes().replace(b"a.json", b"X") == b.read_bytes().replace(b"b.json", b"X")


def test_compute_cube(tmp_path, capsys):
    body = tmp_path / "cube.json"
    run("gen", "cube", "--dim", "2", "--out", str(body))
    out = tmp_path / "report.json"
    assert run("compute", str(body), "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["volume"] == pytest.approx(4.0, abs=1e-12)
    assert data["volume_product"] == pytest.approx(8.0, abs=1e-12)
    assert data["ball_functional"] == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert data["santalo_deficit"] == pytest.approx(1.8696044010893586, abs=1e-10)


def test_compute_hulls_each_body_once(tmp_path, monkeypatch):
    """compute runs at most one Qhull per vertex polytope it builds: the saved
    body and its polar reuse the hulls their constructors made."""
    body = tmp_path / "body.json"
    run("gen", "random-symmetric", "--dim", "3", "--verts", "10", "--seed", "5", "--out", str(body))
    counts = {"hull": 0, "vpoly": 0}
    real_hull, real_init = geometry.ConvexHull, geometry.SymmetricVPolytope.__post_init__

    def counting_hull(*args, **kwargs):
        counts["hull"] += 1
        return real_hull(*args, **kwargs)

    def counting_init(self):
        counts["vpoly"] += 1
        real_init(self)

    monkeypatch.setattr(geometry, "ConvexHull", counting_hull)
    monkeypatch.setattr(geometry.SymmetricVPolytope, "__post_init__", counting_init)
    assert run("compute", str(body)) == 0
    assert counts["vpoly"] == 2  # the body and its polar
    assert counts["hull"] <= counts["vpoly"]


def test_kt_commands_enumerate_no_vertices(tmp_path, monkeypatch):
    """A 3D K_t takes its volume, moments and support from its polar's hull:
    gen, compute and the directional check (and kt_family itself) run no
    halfspace intersection, and one Qhull per polar they build (the polar's
    hull is still there when the flag route reads it, after the polar's own
    star in the isotropic step of verify)."""
    calls = []
    hulls = {"n": 0}
    real, real_hull = geometry._halfspace_vertices, geometry.ConvexHull

    def counting(*args):
        calls.append(1)
        return real(*args)

    def counting_hull(*args, **kwargs):
        hulls["n"] += 1
        return real_hull(*args, **kwargs)

    monkeypatch.setattr(geometry, "_halfspace_vertices", counting)
    monkeypatch.setattr(geometry, "ConvexHull", counting_hull)
    body = tmp_path / "kt3.json"
    per_command = []
    for args, polars in [
        (("gen", "kt", "--dim", "3", "--t", "0.08", "--out", str(body)), 1),  # the unscaled body's
        (("compute", str(body)), 1),
        (("verify", str(body), "--which", "directional"), 2),  # the body's and its isotropic image's
    ]:
        before = hulls["n"]
        assert run(*args) == 0
        per_command.append((hulls["n"] - before, polars))
    kt_family(3, 0.05)
    assert calls == []
    assert all(got == want for got, want in per_command)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_ellipsoid_all_zero_deficits(tmp_path, capsys):
    body = tmp_path / "ell.json"
    run("gen", "ellipsoid", "--dim", "2", "--seed", "1", "--out", str(body))
    code = run("verify", str(body), "--which", "santalo", "--seed", "0")
    assert code == 0
    assert "[PASS]" in capsys.readouterr().out


def test_verify_all_writes_reports(tmp_path):
    body = tmp_path / "b.json"
    run("gen", "random-symmetric", "--dim", "2", "--verts", "8", "--seed", "3", "--out", str(body))
    out = tmp_path / "reports"
    code = run("verify", str(body), "--which", "all", "--seed", "2",
               "--samples", "60000", "--out", str(out))
    assert code == 0
    jsonl = (tmp_path / "reports.jsonl").read_text().splitlines()
    meta = json.loads(jsonl[0])
    assert meta["seed"] == 2 and meta["version"]
    names = [json.loads(line)["name"] for line in jsonl[1:]]
    assert names[0] == "santalo" and "cone-restricted" in names and "pl-triple" in names
    assert (tmp_path / "reports.csv").read_text().startswith("# {")


def test_verify_cube_frozen_deficits(tmp_path, capsys):
    body = tmp_path / "cube.json"
    run("gen", "cube", "--dim", "2", "--out", str(body))
    assert run("verify", str(body), "--which", "santalo") == 0
    assert run("verify", str(body), "--which", "ball") == 0
    out = capsys.readouterr().out
    assert "deficit=1.869604401" in out
    assert "deficit=0.3448116612" in out


def test_verify_byte_identical_rerun(tmp_path):
    body = tmp_path / "b.json"
    run("gen", "random-symmetric", "--dim", "2", "--verts", "8", "--seed", "1", "--out", str(body))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        run("verify", str(body), "--which", "all", "--seed", "9",
            "--samples", "60000", "--out", str(out))
    a = (tmp_path / "r1.jsonl").read_text().replace("r1", "rX")
    b = (tmp_path / "r2.jsonl").read_text().replace("r2", "rX")
    assert a == b


def test_verify_violation_exit_code(tmp_path, monkeypatch, capsys):
    body = tmp_path / "cube.json"
    run("gen", "cube", "--dim", "2", "--out", str(body))
    broken = DeficitReport("santalo", 2.0, 1.0, -1.0, 1e-8, "exact", {})
    monkeypatch.setattr(cli, "santalo_deficit", lambda *a, **k: broken)
    assert run("verify", str(body), "--which", "santalo") == 2
    captured = capsys.readouterr()
    assert "[FAIL]" in captured.out
    assert "violation" in captured.err


def test_verify_direction_flag(tmp_path, capsys):
    body = tmp_path / "ell.json"
    run("gen", "ellipsoid", "--dim", "2", "--seed", "4", "--out", str(body))
    assert run("verify", str(body), "--which", "directional", "--direction", "1,1") == 0
    assert capsys.readouterr().out.count("directional") == 1


@pytest.mark.parametrize(
    "dim,extra", [(3, ["--verts", "10"]), (4, ["--verts", "16", "--seed", "1"])], ids=["3d", "4d"]
)
def test_verify_pl_beyond_2d(tmp_path, dim, extra):
    body = tmp_path / "b.json"
    run("gen", "random-symmetric", "--dim", str(dim), *extra, "--out", str(body))
    out = tmp_path / "r"
    assert run("verify", str(body), "--which", "pl", "--samples", "50000", "--out", str(out)) == 0
    reports = [json.loads(line) for line in (tmp_path / "r.jsonl").read_text().splitlines()[1:]]
    assert [r["name"] for r in reports] == ["pl-triple"] * 2**dim
    assert all(r["passed"] for r in reports)
    assert max(r["metadata"]["hypothesis_margin"] for r in reports) <= 1e-9


def test_verify_missing_file():
    assert run("verify", "does-not-exist.json") == 1


def test_verify_bad_direction_length(tmp_path):
    body = tmp_path / "b.json"
    run("gen", "cube", "--dim", "2", "--out", str(body))
    assert run("verify", str(body), "--which", "directional", "--direction", "1,0,0") == 1


@pytest.mark.parametrize("direction", ["nan,1", "inf,1", "1,-inf"])
def test_verify_refuses_a_non_finite_direction(tmp_path, capsys, direction):
    """A NaN direction gave a NaN deficit, which ``deficit < -tolerance``
    let pass with exit 0."""
    body = tmp_path / "b.json"
    run("gen", "cube", "--dim", "2", "--out", str(body))
    capsys.readouterr()
    assert run("verify", str(body), "--which", "directional", "--direction", direction) == 1
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert "PASS" not in captured.out


# ---------------------------------------------------------------------------
# yaoyao / stability
# ---------------------------------------------------------------------------


def test_yaoyao_command(tmp_path, capsys):
    body = tmp_path / "b.json"
    run("gen", "random-symmetric", "--dim", "2", "--verts", "8", "--seed", "2", "--out", str(body))
    out = tmp_path / "part.json"
    assert run("yaoyao", str(body), "--seed", "4", "--samples", "60000", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert len(data["cones"]) == 4
    assert all(np.array(c["generators"]).shape == (2, 2) for c in data["cones"])
    assert "mass fractions" in capsys.readouterr().out


def test_yaoyao_collapsed_bracket_exits_0(tmp_path, capsys):
    # an axis solve on this body collapses its bracket at a residual just
    # above tolerance; the partition it gives passes the mass check
    body = tmp_path / "b.json"
    run("gen", "random-symmetric", "--dim", "3", "--verts", "10", "--seed", "12", "--out", str(body))
    assert run("yaoyao", str(body), "--seed", "0") == 0
    assert "worst relative deviation" in capsys.readouterr().out


def test_yaoyao_nonconvergence_exit_code(tmp_path):
    body = tmp_path / "b.json"
    run("gen", "cube", "--dim", "2", "--out", str(body))
    code = run("yaoyao", str(body), "--samples", "20000", "--mass-tol", "1e-12")
    assert code == 3


def test_stability_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run("stability", "kt-sweep", "--dim", "2", "--t", "0.04:0.10:3",
               "--samples", "100000", "--seed", "1", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("t,vol_K")
    assert len(lines) == 5
    assert "slope(deficit_santalo)" in capsys.readouterr().out


def test_stability_stalled_fit_exit_code(tmp_path, monkeypatch, capsys):
    """A fit stopped by the iteration cap is recorded in the CSV and exits 3."""
    import csv

    from convexlab import stability

    monkeypatch.setattr(stability, "MAX_FIT_ITER", 1)
    out = tmp_path / "sweep.csv"
    code = run("stability", "kt-sweep", "--dim", "2", "--t", "0.05",
               "--samples", "20000", "--out", str(out))
    assert code == 3
    with open(out, newline="") as fh:
        (row,) = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert row["fit_converged"] == "0"
    assert int(row["fit_evals"]) > 0
    assert "1 ellipsoid fit(s) hit the iteration cap" in capsys.readouterr().err


def test_stability_single_t(capsys):
    assert run("stability", "kt-sweep", "--dim", "2", "--t", "0.05",
               "--samples", "100000") == 0
    out = capsys.readouterr().out
    assert "t=0.05" in out and "slope" not in out


def test_stability_bad_range():
    assert run("stability", "kt-sweep", "--dim", "2", "--t", "0.5") == 1
    assert run("stability", "kt-sweep", "--dim", "2", "--t", "0.01:0.05") == 1


def test_stability_refuses_a_range_with_equal_ends(capsys):
    """``a:a:k`` repeats one t, and a log-log slope over one t is undefined."""
    assert run("stability", "kt-sweep", "--dim", "2", "--t", "0.04:0.04:2") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --t range") and "slope" not in captured.out


@pytest.mark.parametrize("argv,message", [
    (["gen", "kt", "--dim", "2", "--t", "nan", "--out", "OUT"], "error: t is NaN"),
    (["stability", "kt-sweep", "--dim", "2", "--t", "nan"], "error: sweep t values"),
    (["stability", "kt-sweep", "--dim", "2", "--t", "0.04:nan:3"], "error: sweep t values"),
])
def test_nan_t_is_refused(tmp_path, capsys, argv, message):
    """NaN passes every ``>`` cap; it is refused by name, not as a
    non-finite halfspace."""
    out = tmp_path / "kt.json"
    assert run(*[str(out) if a == "OUT" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("samples", ["1", "2", "5"])
def test_stability_refuses_a_zero_a_dist(samples, capsys):
    """So few draws that none falls in the symmetric difference: A_dist is 0
    and the ratio deficit / A_dist^2 undefined."""
    assert run("stability", "kt-sweep", "--dim", "2", "--t", "0.1", "--samples", samples) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the Monte Carlo A_dist") and f"with {samples} samples" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["verify", "BODY", "--which", "directional"],
    ["verify", "BODY", "--which", "santalo"],
    ["yaoyao", "BODY"],
    ["compute", "BODY"],
    ["gen", "cube", "--dim", "2", "--out", "OUT"],
    ["stability", "kt-sweep", "--dim", "2", "--t", "0.05"],
])
def test_negative_samples_are_a_usage_error(tmp_path, capsys, command):
    body, out = tmp_path / "e.json", tmp_path / "out.json"
    assert run("gen", "ellipsoid", "--dim", "2", "--out", str(body)) == 0
    argv = [str(body) if a == "BODY" else str(out) if a == "OUT" else a for a in command]
    assert run(*argv, "--samples", "-5") == 1
    assert "argument --samples: must be nonnegative, got -5" in capsys.readouterr().err
    assert not out.exists()
    # gen and compute keep their default of 0, and an explicit 0 parses
    if command[0] in ("gen", "compute"):
        assert run(*argv) == 0
        assert run(*argv, "--samples", "0") == 0


def test_out_of_memory_exit_code(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "kt_sweep", exhausted)
    assert run("stability", "kt-sweep", "--dim", "2", "--t", "0.05") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory")
    assert len(err.strip().splitlines()) == 1


def test_usage_errors_exit_one():
    assert run("gen", "frobnicate", "--dim", "2", "--out", "x.json") == 1
    assert run("verify") == 1
    assert run("nope") == 1


def test_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("CONVEXLAB_SEED", "11")
    a = tmp_path / "a.json"
    assert main(["gen", "random-symmetric", "--dim", "2", "--verts", "8", "--out", str(a)]) == 0
    b = tmp_path / "b.json"
    monkeypatch.delenv("CONVEXLAB_SEED")
    assert main(["gen", "random-symmetric", "--dim", "2", "--verts", "8",
                 "--seed", "11", "--out", str(b)]) == 0
    va, vb = load_body(a), load_body(b)
    np.testing.assert_array_equal(va.vertices, vb.vertices)


def test_env_seed_is_recorded(tmp_path, monkeypatch):
    monkeypatch.setenv("CONVEXLAB_SEED", "11")
    out = tmp_path / "a.json"
    assert main(["gen", "cube", "--dim", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["seed"] == 11 and data["config"]["seed"] == 11


def test_bad_env_seed_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CONVEXLAB_SEED", "abc")
    out = tmp_path / "x.json"
    assert main(["gen", "cube", "--dim", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: CONVEXLAB_SEED must be an integer, got 'abc'\n"
    assert not out.exists()
    # an explicit --seed does not read the environment
    assert main(["gen", "cube", "--dim", "2", "--seed", "3", "--out", str(out)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "convexlab", "gen", "cube", "--dim", "2", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "CONVEXLAB_SEED": "abc"},
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: CONVEXLAB_SEED must be an integer, got 'abc'\n"


def test_unbounded_sampling_box_is_refused(tmp_path, capsys):
    """A valid ellipsoid whose bounding box overflows: 1 / 5e-324 is inf."""
    body = tmp_path / "flat.json"
    body.write_text(json.dumps({"dim": 2, "kind": "ellipsoid", "shape": [[5e-324, 0.0], [0.0, 1.0]]}))
    assert run("yaoyao", str(body), "--samples", "10000", "--seed", "0") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the Monte Carlo box from ") and err.endswith(" is not finite\n")
    assert err.count("\n") == 1


def test_entry_point_subprocess(tmp_path):
    out = tmp_path / "cube.json"
    proc = subprocess.run(
        [sys.executable, "-m", "convexlab.cli", "gen", "cube", "--dim", "2", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert load_body(out).dim == 2


def test_python_dash_m_help():
    proc = subprocess.run(
        [sys.executable, "-m", "convexlab", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "usage: convexlab" in proc.stdout


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip()


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_parser_is_built_once_and_holds_no_function():
    """One parser per process, and nothing callable in it: a command is
    looked up by name when ``main`` runs it."""
    main(["--version"])
    assert cli._parser() is cli._parser()
    parsers = list(_parsers(cli._parser()))
    assert len(parsers) == 6
    for parser in parsers:
        assert not [v for v in parser._defaults.values() if callable(v)]
        assert not [a.default for a in parser._actions if callable(a.default)]


def test_main_runs_a_replaced_command(monkeypatch, tmp_path):
    """A command replaced after the parser was built (as a tracer wraps it)
    is the one that runs."""
    main(["--version"])
    seen = []
    monkeypatch.setattr(cli, "cmd_gen", lambda args: seen.append(args.kind) or 0)
    assert run("gen", "cube", "--dim", "2", "--out", str(tmp_path / "c.json")) == 0
    assert seen == ["cube"] and not (tmp_path / "c.json").exists()


def test_reused_parser_behaves_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CONVEXLAB_SEED", raising=False)
    out = tmp_path / "cube.json"
    argv = ["gen", "cube", "--dim", "2", "--out", str(out)]
    assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("convexlab ")
    assert run("gen", "cube", "--dim") == 1
    assert "argument --dim: expected one argument" in capsys.readouterr().err
    assert run(*argv) == 0
    config = json.loads(out.read_text())["config"]
    assert config == {"command": "gen", "dim": 2, "kind": "cube", "out": str(out),
                      "samples": 0, "seed": 0, "verts": 16}
    assert main(["--version"]) == 0
