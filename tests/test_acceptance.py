"""Acceptance gate: nine criteria, one printed pass/fail line each.

Each test prints its verdict directly to the terminal (bypassing capture) so
a plain ``pytest -v`` run shows the per-criterion lines alongside pytest's
own PASSED/FAILED markers.  Seeds are fixed; every run is deterministic.
"""

import math
import time

import numpy as np
import pytest

from convexlab.geometry import (
    Ellipsoid,
    cube,
    polar,
    random_directions,
    random_ellipsoid,
    random_symmetric_polytope,
    unit_ball_volume,
)
from convexlab.harness import (
    OrthantRegion,
    ball_deficit,
    cone_restricted_deficit,
    cone_sum_reconstruction,
    directional_deficit,
    orthant_pair,
    pl_triple_check,
    santalo_deficit,
)
from convexlab.isotropic import isotropize
from convexlab.moments import mc_second_moment, second_moment_matrix
from convexlab.stability import fit_loglog_slope, kt_sweep
from convexlab.yaoyao import dual_partition, sample_measure, yao_yao_equipartition

E1 = np.array([1.0, 0.0])


def verdict(capsys, num, name, ok, elapsed, detail=""):
    line = f"acceptance criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    line += f"  [{elapsed:.1f}s]"
    if detail:
        line += f"  {detail}"
    with capsys.disabled():
        print(line, flush=True)


def _bodies(n, count, verts, base_seed=0):
    return [random_symmetric_polytope(n, verts, seed=base_seed + s) for s in range(count)]


def test_criterion_1_moment_oracle_equivalence(capsys):
    """Exact second moments vs 1e7-point MC, 3 standard errors per entry."""
    start = time.monotonic()
    worst = 0.0
    bodies = _bodies(2, 25, 8) + _bodies(3, 25, 10)
    for k, body in enumerate(bodies):
        exact = second_moment_matrix(body, method="exact").matrix
        mc = mc_second_moment(body, 10**7, seed=2000 + k)
        ratio = np.abs(mc.matrix - exact) / mc.stderr
        worst = max(worst, float(ratio.max()))
    elapsed = time.monotonic() - start
    ok = worst <= 3.0 and elapsed < 120.0
    verdict(capsys, 1, "moment oracle equivalence", ok, elapsed,
            f"worst entry deviation {worst:.2f} sigma over {len(bodies)} bodies")
    assert worst <= 3.0
    assert elapsed < 120.0


def test_criterion_2_ellipsoid_equality_cases(capsys):
    start = time.monotonic()
    worst = 0.0
    for k in range(20):
        e = random_ellipsoid(2 + k % 2, seed=k)
        worst = max(worst, santalo_deficit(e).deficit, ball_deficit(e).deficit)
    mc_ok = True
    for k in range(3):
        e = random_ellipsoid(2, seed=50 + k)
        for rep in (santalo_deficit(e, method="mc", samples=400_000, seed=k),
                    ball_deficit(e, method="mc", samples=400_000, seed=k)):
            mc_ok &= abs(rep.deficit) <= rep.tolerance
    ball_value = ball_deficit(Ellipsoid.ball(2)).lhs
    value_ok = abs(ball_value - math.pi**2 / 8.0) < 1e-10
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and mc_ok and value_ok
    verdict(capsys, 2, "ellipsoid equality cases", ok, elapsed,
            f"max exact deficit {worst:.2e}, B2 value {ball_value:.12f}")
    assert worst < 1e-8
    assert mc_ok
    assert value_ok


def test_criterion_3_ball_inequality_sweep(capsys):
    start = time.monotonic()
    lows = []
    for body in _bodies(2, 100, 8) + _bodies(3, 100, 10):
        lows.append(ball_deficit(body).deficit)
    low = min(lows)
    cube_err = abs(ball_deficit(cube(2)).deficit - (math.pi**2 / 8.0 - 8.0 / 9.0))
    elapsed = time.monotonic() - start
    ok = low >= -1e-8 and cube_err < 1e-9 and elapsed < 300.0
    verdict(capsys, 3, "ball inequality sweep", ok, elapsed,
            f"min deficit {low:.3e} over 200 bodies, cube error {cube_err:.1e}")
    assert low >= -1e-8
    assert cube_err < 1e-9
    assert elapsed < 300.0


def test_criterion_4_directional_inequality(capsys):
    start = time.monotonic()
    low, worst_cert = math.inf, 0.0
    for k, body in enumerate(_bodies(2, 25, 8, base_seed=200) + _bodies(3, 25, 10, base_seed=200)):
        _, iso, cert = isotropize(body, target="polar")
        worst_cert = max(worst_cert, cert.off_diag_rel)
        dirs = random_directions(iso.dim, 20, np.random.default_rng(300 + k))
        for u in dirs:
            low = min(low, directional_deficit(iso, u, cert).deficit)
    elapsed = time.monotonic() - start
    ok = low >= -1e-8 and worst_cert < 1e-9
    verdict(capsys, 4, "directional inequality", ok, elapsed,
            f"min deficit {low:.3e} over 1000 checks, max off-diag {worst_cert:.1e}")
    assert low >= -1e-8
    assert worst_cert < 1e-9


@pytest.fixture(scope="module")
def partition_pipelines():
    """Polar-isotropic bodies with Yao-Yao partitions of the polar measure,
    shared between the equipartition and cone-restriction criteria."""
    out = []
    specs = [(2, seed) for seed in range(30)] + [(3, seed) for seed in range(10)]
    for n, seed in specs:
        body = random_symmetric_polytope(n, 4 * n, seed=seed)
        _, iso, _ = isotropize(body, target="polar")
        u = np.eye(n)[0]
        cloud = sample_measure(polar(iso), u, 200_000, seed=400 + seed)
        part = yao_yao_equipartition(cloud)
        out.append((iso, u, part))
    return out


def test_criterion_5_yaoyao_equipartition(capsys, partition_pipelines):
    start = time.monotonic()
    worst_mass = 0.0
    cover_ok = True
    for k, (iso, u, part) in enumerate(partition_pipelines):
        n = iso.dim
        worst_mass = max(worst_mass, float(np.max(np.abs(part.mass_fractions * 2.0**n - 1.0))))
        dirs = random_directions(n, 1000, np.random.default_rng(500 + k))
        hits = np.zeros(len(dirs), dtype=bool)
        for cone in dual_partition(part):
            hits |= np.asarray(cone.contains(dirs))
        cover_ok &= bool(hits.all())
    cloud = sample_measure(Ellipsoid.ball(2), E1, 2 * 10**7, seed=101)
    disk_part = yao_yao_equipartition(cloud)
    angle = math.acos(min(1.0, abs(float(disk_part.axis @ E1))))
    elapsed = time.monotonic() - start
    ok = worst_mass <= 5e-3 and cover_ok and angle <= 1e-3 and elapsed < 600.0
    verdict(capsys, 5, "yao-yao equipartition", ok, elapsed,
            f"worst mass dev {worst_mass:.2e}, disk axis angle {angle:.2e}")
    assert worst_mass <= 5e-3
    assert cover_ok
    assert angle <= 1e-3
    assert elapsed < 600.0


def test_criterion_6_cone_restricted_inequality(capsys, partition_pipelines):
    start = time.monotonic()
    worst = -math.inf
    recon_ok = True
    for k, (iso, u, part) in enumerate(partition_pipelines):
        for j, cone in enumerate(dual_partition(part)):
            rep = cone_restricted_deficit(iso, u, cone, samples=50_000, seed=600 + 16 * k + j)
            worst = max(worst, -rep.deficit / (rep.tolerance / 4.0))
            assert rep.passed, f"body {k} cone {j}: deficit {rep.deficit:.3e}"
        recon = cone_sum_reconstruction(polar(iso), part, samples=50_000, seed=900 + k)
        recon_ok &= recon.passed
    elapsed = time.monotonic() - start
    ok = worst <= 4.0 and recon_ok
    verdict(capsys, 6, "cone-restricted inequality", ok, elapsed,
            f"worst deficit at {worst:+.2f} sigma, reconstructions ok={recon_ok}")
    assert worst <= 4.0
    assert recon_ok


def test_criterion_7_prekopa_leindler_triple(capsys):
    start = time.monotonic()
    low = math.inf
    pairs_checked = 0
    for seed in range(5):
        body = random_symmetric_polytope(2, 8, seed=700 + seed)
        cloud = sample_measure(body, E1, 60_000, seed=seed)
        part = yao_yao_equipartition(cloud)
        for index in range(4):
            x_region, y_region, _ = orthant_pair(body, part, index)
            rep = pl_triple_check(x_region, y_region, pairs=10**5, seed=50 * seed + index)
            low = min(low, rep.deficit)
            pairs_checked += 1
    quarter = OrthantRegion(Ellipsoid.ball(2))
    eq = pl_triple_check(quarter, quarter, pairs=10**5, seed=99)
    elapsed = time.monotonic() - start
    ok = low >= -1e-8 and pairs_checked == 20 and abs(eq.deficit) <= max(eq.tolerance, 1e-8)
    verdict(capsys, 7, "prekopa-leindler triple", ok, elapsed,
            f"min deficit {low:.3e} over 20 pairs, ball equality gap {eq.deficit:.1e}")
    assert low >= -1e-8
    assert pairs_checked == 20
    assert abs(eq.deficit) <= max(eq.tolerance, 1e-8)


def test_criterion_8_stability_scaling(capsys):
    start = time.monotonic()
    ts = [round(0.01 * k, 2) for k in range(2, 11)]
    records = kt_sweep(2, ts, samples=10**7, seed=0)
    slope_d = fit_loglog_slope(ts, [r.deficit_santalo for r in records])
    slope_a = fit_loglog_slope(ts, [r.A_dist for r in records])
    ratios = [r.ratio for r in records]
    spread = max(ratios) / min(ratios)
    elapsed = time.monotonic() - start
    ok = 1.7 <= slope_d <= 2.3 and 0.8 <= slope_a <= 1.2 and spread < 10.0 and elapsed < 1200.0
    verdict(capsys, 8, "stability scaling", ok, elapsed,
            f"slope(deficit)={slope_d:.3f}, slope(A)={slope_a:.3f}, ratio spread {spread:.2f}x")
    assert 1.7 <= slope_d <= 2.3
    assert 0.8 <= slope_a <= 1.2
    assert spread < 10.0
    assert elapsed < 1200.0


def test_criterion_9_determinism(capsys, tmp_path, monkeypatch):
    from convexlab.cli import main

    start = time.monotonic()
    outputs = []
    for run_dir in ("run1", "run2"):
        d = tmp_path / run_dir
        d.mkdir()
        monkeypatch.chdir(d)
        assert main(["gen", "random-symmetric", "--dim", "2", "--verts", "8",
                     "--seed", "5", "--out", "body.json"]) == 0
        assert main(["gen", "kt", "--dim", "2", "--t", "0.05", "--out", "kt.json"]) == 0
        # the one artifact of the flag decomposition (exact H-polytope moments)
        assert main(["compute", "kt.json", "--out", "kt-compute.json"]) == 0
        assert main(["verify", "body.json", "--which", "all", "--seed", "6",
                     "--samples", "60000", "--out", "reports"]) == 0
        assert main(["yaoyao", "body.json", "--seed", "7", "--samples", "60000",
                     "--out", "part.json"]) == 0
        assert main(["stability", "kt-sweep", "--dim", "2", "--t", "0.04:0.08:2",
                     "--samples", "50000", "--seed", "8", "--out", "sweep.csv"]) == 0
        names = ["body.json", "kt.json", "kt-compute.json", "reports.jsonl", "reports.csv",
                 "part.json", "sweep.csv"]
        outputs.append({name: (d / name).read_bytes() for name in names})
    mismatches = [name for name in outputs[0] if outputs[0][name] != outputs[1][name]]
    elapsed = time.monotonic() - start
    verdict(capsys, 9, "byte-identical determinism", not mismatches, elapsed,
            f"{len(outputs[0])} artifact kinds compared" +
            (f", MISMATCH: {mismatches}" if mismatches else ""))
    assert not mismatches
