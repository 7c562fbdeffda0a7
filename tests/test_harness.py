"""Inequality reports: Santalo, trace-product, directional, cone-restricted,
the orthant Prekopa-Leindler step, and the consistency chain.

Frozen closed forms used as oracles:
    square [-1,1]^2:  |K||K*| = 8,        santalo deficit = pi^2 - 8
                      tr(M M*) = 8/9,     ball deficit = pi^2/8 - 8/9
                      chain: 64 <= (4 pi^2)(8/3)(2/3) = 64 pi^2 / 9
    orthant PL pair (square, cross):  int x1^2 = 1/3 and 1/12,
                      product 1/36 <= (pi/16)^2
"""

import math
import tracemalloc

import numpy as np
import pytest

import convexlab.geometry as geometry
from convexlab.geometry import (
    Ellipsoid,
    LinearMap,
    apply_map,
    cross_polytope,
    cube,
    polar,
    random_ellipsoid,
    random_symmetric_polytope,
)
from convexlab.harness import (
    DeficitReport,
    OrthantRegion,
    ball_deficit,
    chain_consistency,
    cone_restricted_deficit,
    cone_sum_reconstruction,
    directional_deficit,
    directional_product,
    orthant_pair,
    pl_triple_check,
    santalo_deficit,
    save_reports_csv,
    save_reports_jsonl,
)
from convexlab.isotropic import isotropize
from convexlab.yaoyao import dual_partition, sample_measure, yao_yao_equipartition

E1 = np.array([1.0, 0.0])


# ---------------------------------------------------------------------------
# Santalo volume product
# ---------------------------------------------------------------------------


def test_santalo_ellipsoid_equality():
    rep = santalo_deficit(random_ellipsoid(3, seed=0))
    assert rep.method == "exact"
    assert abs(rep.deficit) < 1e-10
    assert rep.passed


def test_santalo_square_exact(square):
    rep = santalo_deficit(square)
    assert rep.lhs == pytest.approx(8.0, abs=1e-12)
    assert rep.rhs == pytest.approx(math.pi**2, abs=1e-12)
    assert rep.deficit == pytest.approx(math.pi**2 - 8.0, abs=1e-12)
    assert rep.metadata["volume"] == pytest.approx(4.0, abs=1e-12)
    assert rep.metadata["volume_polar"] == pytest.approx(2.0, abs=1e-12)


def test_santalo_mc_agrees_with_exact(square):
    rep = santalo_deficit(square, method="mc", samples=400_000, seed=1)
    assert rep.method == "mc"
    assert rep.passed
    assert rep.lhs == pytest.approx(8.0, abs=rep.tolerance)


def test_santalo_nonnegative_on_random_bodies(random_bodies_2d):
    for body in random_bodies_2d:
        assert santalo_deficit(body).deficit >= -1e-8


# ---------------------------------------------------------------------------
# trace product (ball functional)
# ---------------------------------------------------------------------------


def test_ball_square_exact(square):
    rep = ball_deficit(square)
    assert rep.lhs == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert rep.rhs == pytest.approx(math.pi**2 / 8.0, abs=1e-12)
    assert rep.deficit == pytest.approx(math.pi**2 / 8.0 - 8.0 / 9.0, abs=1e-12)


def test_ball_unit_ball_value(disk):
    rep = ball_deficit(disk)
    assert rep.lhs == pytest.approx(math.pi**2 / 8.0, abs=1e-10)
    assert abs(rep.deficit) < 1e-10


def test_ball_linear_invariance(square):
    t = LinearMap(np.array([[1.3, 0.5], [-0.1, 0.8]]))
    rep = ball_deficit(apply_map(t, square))
    assert rep.lhs == pytest.approx(8.0 / 9.0, abs=1e-9)


def test_ball_nonnegative_on_random_bodies(random_bodies_3d):
    for body in random_bodies_3d:
        assert ball_deficit(body).deficit >= -1e-8


# ---------------------------------------------------------------------------
# directional inequality
# ---------------------------------------------------------------------------


def test_directional_requires_certificate(square):
    with pytest.raises(ValueError, match="certificate"):
        directional_deficit(square, E1, None)


def test_directional_square_axes(square):
    # the square's polar is isotropic already, so the certificate is clean
    _, iso, cert = isotropize(square, target="polar")
    rep = directional_deficit(iso, E1, cert)
    assert rep.rhs == pytest.approx((math.pi / 4.0) ** 2, abs=1e-12)
    assert rep.passed


def test_directional_ellipsoid_equality():
    e = random_ellipsoid(2, seed=3)
    _, iso, cert = isotropize(e, target="polar")
    for u in (E1, np.array([0.6, 0.8])):
        rep = directional_deficit(iso, u, cert)
        assert abs(rep.deficit) < 1e-9


def test_directional_mc_tolerance_is_propagated():
    """On the MC route the tolerance is four standard errors of the product
    of the two directional integrals, so it shrinks like 1/sqrt(samples)."""
    e = random_ellipsoid(3, seed=5)
    _, iso, cert = isotropize(e, target="polar")
    u = np.array([0.6, 0.0, 0.8])
    reps = [directional_deficit(iso, u, cert, method="mc", samples=s, seed=2) for s in (10**5, 4 * 10**5)]
    for rep in reps:
        assert rep.method == "mc" and rep.passed
        assert rep.tolerance == pytest.approx(4.0 * rep.metadata["stderr"], rel=1e-12)
        assert abs(rep.lhs - rep.rhs) < rep.tolerance
    assert reps[0].tolerance / reps[1].tolerance == pytest.approx(2.0, rel=0.1)
    assert reps[0].tolerance < 10.0 / math.sqrt(10**5)


def test_directional_rejects_bad_certificate(square):
    from convexlab.isotropic import IsotropicCertificate

    fake = IsotropicCertificate(
        map=LinearMap.identity(2), off_diag_rel=0.5, diag_spread_rel=0.5, volume_after=1.0
    )
    with pytest.raises(ValueError, match="isotropy"):
        directional_deficit(square, E1, fake)


def test_directional_product_square(square):
    # int_K x1^2 * int_{K*} x1^2 = (4/3)(1/3)
    val = directional_product(square, E1)
    assert val == pytest.approx(4.0 / 9.0, abs=1e-12)


# ---------------------------------------------------------------------------
# cone-restricted inequality (dual pairing through the polar partition)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def square_pipeline():
    """Polar-isotropic square, partition of the polar-side measure, duals."""
    body = cube(2)
    _, iso, _ = isotropize(body, target="polar")
    cloud = sample_measure(polar(iso), E1, 100_000, seed=0)
    part = yao_yao_equipartition(cloud)
    return iso, part, dual_partition(part)


def test_cone_restricted_square(square_pipeline):
    iso, part, duals = square_pipeline
    for k, cone in enumerate(duals):
        rep = cone_restricted_deficit(iso, E1, cone, samples=100_000, seed=20 + k)
        assert rep.rhs == pytest.approx((math.pi / 16.0) ** 2, abs=1e-12)
        assert rep.passed, f"cone {k}: {rep.deficit} < -{rep.tolerance}"


def test_cone_sum_reconstruction(square_pipeline):
    iso, part, _ = square_pipeline
    pol = polar(iso)
    rep = cone_sum_reconstruction(pol, part, samples=100_000, seed=5)
    assert rep.metadata["two_sided"]
    assert rep.passed
    # the exact full moment is the reconstruction target
    from convexlab.moments import second_moment_matrix

    assert rep.rhs == pytest.approx(second_moment_matrix(pol).matrix[0, 0], rel=1e-9)


def test_cone_restricted_random_bodies():
    for seed in range(2):
        body = random_symmetric_polytope(2, 8, seed=seed)
        _, iso, _ = isotropize(body, target="polar")
        cloud = sample_measure(polar(iso), E1, 60_000, seed=seed)
        part = yao_yao_equipartition(cloud)
        for k, cone in enumerate(dual_partition(part)):
            rep = cone_restricted_deficit(iso, E1, cone, samples=60_000, seed=100 + k)
            assert rep.passed


# ---------------------------------------------------------------------------
# orthant pairs and the Prekopa-Leindler step
# ---------------------------------------------------------------------------


def test_orthant_pair_geometry(square):
    cloud = sample_measure(square, E1, 60_000, seed=11)
    part = yao_yao_equipartition(cloud)
    x_region, y_region, w = orthant_pair(square, part, 0)
    xs = x_region.sample(2_000, seed=0)
    assert np.min(xs) >= -1e-9
    # <W x, e1> = +-<x, u> as linear forms
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((100, 2))
    lhs = np.abs(w(pts)[:, 0])
    rhs = np.abs(pts @ E1)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_orthant_pair_hypothesis(square):
    """X x Y pairs satisfy <x, y> <= 1: they came from a polar pair."""
    cloud = sample_measure(square, E1, 60_000, seed=12)
    part = yao_yao_equipartition(cloud)
    for index in range(4):
        x_region, y_region, _ = orthant_pair(square, part, index)
        xs = x_region.sample(3_000, seed=1)
        ys = y_region.sample(3_000, seed=2)
        assert float(np.einsum("ki,ki->k", xs, ys).max()) <= 1.0 + 1e-9


def test_pl_square_cross_exact(square, cross2):
    rep = pl_triple_check(OrthantRegion(square), OrthantRegion(cross2), pairs=20_000, seed=0)
    assert rep.method == "exact"
    assert rep.metadata["integral_f"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.metadata["integral_g"] == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert rep.lhs == pytest.approx(1.0 / 36.0, abs=1e-12)
    assert rep.rhs == pytest.approx((math.pi / 16.0) ** 2, abs=1e-12)
    assert rep.passed


def test_pl_equality_on_ball_orthant(disk):
    region = OrthantRegion(disk)
    rep = pl_triple_check(region, region, pairs=20_000, seed=1)
    assert rep.metadata["integral_f"] == pytest.approx(math.pi / 16.0, abs=1e-12)
    assert abs(rep.deficit) < 1e-12
    assert rep.metadata["hypothesis_margin"] <= 0.0 + 1e-12


def test_pl_hypothesis_violation_raises(square):
    big = apply_map(LinearMap(2.0 * np.eye(2)), square)
    with pytest.raises(ValueError, match="hypothesis"):
        pl_triple_check(OrthantRegion(big), OrthantRegion(big), pairs=5_000, seed=2)


def test_orthant_region_moment_routes(disk):
    region = OrthantRegion(disk)
    exact, se = region.coordinate_moment(0)
    assert se is None and exact == pytest.approx(math.pi / 16.0, abs=1e-12)
    est, se_mc = region.coordinate_moment(0, method="mc", samples=200_000, seed=4)
    assert abs(est - exact) <= 4.0 * se_mc


def test_orthant_clip_4d_bounded():
    """A 4D body with 100 facets has 4.6e6 candidate vertex subsets once the
    orthant is added; the clip goes to Qhull instead of listing them."""
    region = OrthantRegion(random_symmetric_polytope(4, 16, seed=1))
    tracemalloc.start()
    try:
        exact, se = region.coordinate_moment(0, method="exact")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert se is None
    assert peak < 16 * 2**20
    est, se_mc = region.coordinate_moment(0, method="mc", samples=10**6, seed=3)
    assert abs(est - exact) <= 4.0 * se_mc


@pytest.mark.parametrize("n,pairs", [(2, 8), (3, 10)])
def test_orthant_clip_qhull_matches_sweep(monkeypatch, n, pairs):
    body = apply_map(
        LinearMap(np.eye(n) + 0.3 * np.random.default_rng(n).standard_normal((n, n))),
        random_symmetric_polytope(n, pairs, seed=2),
    )
    routes = []
    for cap in (geometry.BRUTEFORCE_SUBSET_CAP, 0):
        monkeypatch.setattr(geometry, "BRUTEFORCE_SUBSET_CAP", cap)
        region = OrthantRegion(body)
        moments = [region.coordinate_moment(i, method="exact")[0] for i in range(n)]
        routes.append((np.unique(np.round(region._verts, 9), axis=0), region._verts, moments))
    (sweep_set, sweep_verts, sweep), (qhull_set, qhull_verts, qhull) = routes
    # the same vertices, each listed once
    np.testing.assert_allclose(qhull_set, sweep_set, atol=1e-9)
    assert len(sweep_verts) == len(qhull_verts) == len(sweep_set)
    np.testing.assert_allclose(qhull, sweep, rtol=1e-12)


# ---------------------------------------------------------------------------
# chain and report plumbing
# ---------------------------------------------------------------------------


def test_chain_square(square):
    rep = chain_consistency(square)
    assert rep.lhs == pytest.approx(64.0, abs=1e-9)
    assert rep.rhs == pytest.approx(64.0 * math.pi**2 / 9.0, abs=1e-9)
    assert rep.passed


def test_chain_ball_equality(disk):
    rep = chain_consistency(disk)
    assert abs(rep.deficit) < 1e-9


def test_report_passed_logic():
    good = DeficitReport("x", 1.0, 2.0, 1.0, 1e-8, "exact", {})
    assert good.passed
    bad = DeficitReport("x", 2.0, 1.0, -1.0, 1e-8, "exact", {})
    assert not bad.passed
    two_sided_off = DeficitReport("x", 1.0, 2.0, 1.0, 1e-3, "mc", {"two_sided": True})
    assert not two_sided_off.passed
    two_sided_ok = DeficitReport("x", 1.0, 1.0005, 0.0005, 1e-3, "mc", {"two_sided": True})
    assert two_sided_ok.passed


def test_report_files(tmp_path, square):
    reports = [santalo_deficit(square), ball_deficit(square)]
    jsonl = tmp_path / "reps.jsonl"
    csvp = tmp_path / "reps.csv"
    save_reports_jsonl(jsonl, reports, meta={"seed": 0})
    save_reports_csv(csvp, reports, meta={"seed": 0})
    lines = jsonl.read_text().splitlines()
    assert len(lines) == 3  # meta + 2 reports
    assert lines[0] == '{"seed": 0}'
    rows = csvp.read_text().splitlines()
    assert rows[0] == '# {"seed": 0}'
    assert rows[1].startswith("name,lhs,rhs,deficit")
    assert rows[2].split(",")[0] == "santalo"
