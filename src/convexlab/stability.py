"""Stability experiments around the volume-product extremizers.

Tools for measuring how far a body is from the ellipsoid family (homothetic
symmetric-difference distance, best-fit ellipsoid search) and the near-ball
bump family ``K_t`` used to probe the sharpness of the quadratic stability
estimates: the Santalo deficit of ``K_t`` scales like ``t^2`` while the
ellipsoid distance scales like ``|t|``.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .geometry import (
    Body,
    Ellipsoid,
    SymmetricHPolytope,
    polar,
    symmetric_direction_grid,
    unit_ball_volume,
)
from .harness import ball_deficit, santalo_deficit
from .moments import box_chunks, second_moment_matrix, volume

# bump plateau / support chordal radii.  A height-t bump of angular ramp
# width w is a valid support perturbation only while t * max(-phi'') <= 1,
# i.e. t <~ w^2 / 5.8 for the quintic bridge: the classical radii (1/8, 1/4)
# cap the usable range near t = 0.003 and the Wulff envelope then clips the
# ramp, bending the deficit scaling from t^2 toward t^(3/2).  The defaults
# below keep the condition strict through |t| = 0.167, past the sweep cap.
BUMP_INNER = 0.1
BUMP_OUTER = 1.0
T_CAP = 0.15
SWEEP_T_CAP = 0.12
MIN_GRID = {2: 256, 3: 2048, 4: 4096}
DEFAULT_GRID = {2: 2048, 3: 4096, 4: 8192}
MAX_FIT_ITER = 500


@dataclass(frozen=True)
class StabilityRecord:
    """One sweep entry: deficits, ellipsoid distance, and their ratio at a given t."""

    t: float
    vol_K: float
    vol_polar: float
    deficit_santalo: float
    deficit_ball: float
    A_dist: float
    ratio: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.A_dist < 0:
            raise ValueError("homothetic distance cannot be negative")

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "vol_K": self.vol_K,
            "vol_polar": self.vol_polar,
            "deficit_santalo": self.deficit_santalo,
            "deficit_ball": self.deficit_ball,
            "A_dist": self.A_dist,
            "ratio": self.ratio,
            "samples": self.samples,
            "seed": self.seed,
        }


_CSV_COLUMNS = (
    "t",
    "vol_K",
    "vol_polar",
    "deficit_santalo",
    "deficit_ball",
    "A_dist",
    "ratio",
    "samples",
    "seed",
)


def save_records_csv(path, records, meta: dict | None = None) -> None:
    """One header row, %.10g floats, optional leading ``#`` metadata comment."""
    with open(path, "w", newline="") as fh:
        if meta:
            fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for rec in records:
            row = rec.to_json_dict()
            writer.writerow(
                [
                    "%.10g" % row[c] if isinstance(row[c], float) else str(row[c])
                    for c in _CSV_COLUMNS
                ]
            )


def _membership_body(body: Body) -> Body:
    # H-polytope membership is an (m x n) matmul per point block; the vertex
    # form is never worse and unlocks the O(log m) angular test for polygons
    if isinstance(body, SymmetricHPolytope):
        return body.to_v()
    return body


def homothetic_distance(k_body: Body, c_body: Body, samples: int = 10**6, seed: int = 0) -> float:
    """MC estimate of ``|aK delta bC|`` with both bodies scaled to volume one.

    ``a = |K|^(-1/n)``, ``b = |C|^(-1/n)``: homothety is quotiented out, so the
    value is 0 for C = sK and at most 2 always.  Chunked and deterministic per
    seed.
    """
    n = k_body.dim
    if c_body.dim != n:
        raise ValueError("bodies live in different dimensions")
    alpha = volume(k_body) ** (-1.0 / n)
    beta = volume(c_body) ** (-1.0 / n)
    mk = _membership_body(k_body)
    mc = _membership_body(c_body)
    hi = np.maximum(alpha * mk.bounding_box()[1], beta * mc.bounding_box()[1])
    lo = -hi
    box_vol = float(np.prod(hi - lo))
    hits = 0
    for pts in box_chunks(lo, hi, samples, seed):
        hits += int(np.count_nonzero(mk.contains(pts / alpha) ^ mc.contains(pts / beta)))
    return box_vol * hits / samples


def _sym_from_vec(theta: np.ndarray, n: int) -> np.ndarray:
    s = np.zeros((n, n))
    s[np.diag_indices(n)] = theta[:n]
    iu = np.triu_indices(n, k=1)
    s[iu] = theta[n:]
    s[(iu[1], iu[0])] = theta[n:]
    return s


def _vec_from_sym(s: np.ndarray) -> np.ndarray:
    n = s.shape[0]
    return np.concatenate([np.diag(s), s[np.triu_indices(n, k=1)]])


def _sym_expm(s: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(s)
    return (v * np.exp(w)) @ v.T


def _sym_logm(q: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(q)
    return (v * np.log(w)) @ v.T


def _quadratic_monomials(pts: np.ndarray) -> np.ndarray:
    """Rows ``[x_1^2, .., x_n^2, 2 x_i x_j (i < j)]``, so that ``x^T Q x`` is the
    row times ``_vec_from_sym(Q)``."""
    iu = np.triu_indices(pts.shape[1], k=1)
    return np.column_stack([pts * pts, 2.0 * pts[:, iu[0]] * pts[:, iu[1]]])


def _count_inside(mono: list[np.ndarray], q: np.ndarray, level: float) -> int:
    """Number of cloud points with ``x^T q x <= level``; ``mono`` holds the
    quadratic monomials of the cloud in blocks."""
    w = _vec_from_sym(q)
    return sum(int(np.count_nonzero(block @ w <= level)) for block in mono)


def best_fit_ellipsoid(body: Body, samples: int = 10**6, seed: int = 0) -> tuple[Ellipsoid, float]:
    """Locally best o-symmetric ellipsoid under the homothetic distance.

    The shape matrix is parametrized as ``expm(S)`` with S symmetric
    (n(n+1)/2 coordinates), the search starts from the moment ellipsoid
    (shape proportional to the inverse second-moment matrix) and runs
    Nelder-Mead on a common-random-number MC objective: one fixed point cloud
    per run, K-membership cached, so each candidate only needs an ellipsoid
    membership pass and the objective is piecewise-smooth in the parameters.

    The cloud is cached as the quadratic monomials of its points in K, one
    block per sampling chunk, so an ellipsoid membership pass is one
    matrix-vector product per block.  The points themselves are not kept:
    the cache holds n(n+1)/2 floats per accepted point (3 in 2D, 10 in 4D),
    about ``samples * |K| / |box| * n(n+1)/2 * 8`` bytes in all -- 190 MB for
    a near-ball in 2D at 10^7 samples.  The product rounds differently from
    the quadratic form ``x^T q x``, so only a point within a few ulps of the
    boundary could be counted differently.

    Returns the fitted ellipsoid (scaled to ``|E| = |K|``) and a fresh-seed
    re-evaluation of A(K, E) at the optimum -- the re-evaluation avoids the
    low bias an optimizer extracts from its own sample noise.  Warns and
    returns the best iterate if the simplex search hits the iteration cap.
    """
    n = body.dim
    vol_k = volume(body)
    alpha = vol_k ** (-1.0 / n)
    memb = _membership_body(body)
    hi = alpha * memb.bounding_box()[1]
    lo = -hi
    box_vol = float(np.prod(hi - lo))
    mono = [
        _quadratic_monomials(cloud[memb.contains(cloud / alpha)])
        for cloud in box_chunks(lo, hi, samples, seed)
    ]
    weight = box_vol / samples
    wn = unit_ball_volume(n)

    def a_of(theta: np.ndarray) -> float:
        q = _sym_expm(_sym_from_vec(theta, n))
        # b = |E_q|^(-1/n); membership in bE_q is x^T q x <= b^2
        beta2 = (wn / math.sqrt(np.linalg.det(q))) ** (-2.0 / n)
        inter = weight * _count_inside(mono, q, beta2)
        return 2.0 * (1.0 - inter)

    q0 = np.linalg.inv(second_moment_matrix(body).matrix)
    q0 = q0 / np.linalg.det(q0) ** (1.0 / n)
    theta0 = _vec_from_sym(_sym_logm(q0))
    sim = np.vstack([theta0, theta0 + 0.05 * np.eye(theta0.size)])
    res = minimize(
        a_of,
        theta0,
        method="Nelder-Mead",
        options={
            "maxiter": MAX_FIT_ITER,
            "xatol": 2e-4,
            "fatol": 1e-7,
            "initial_simplex": sim,
        },
    )
    if not res.success:
        warnings.warn(
            "best-fit ellipsoid search hit the iteration cap; returning the best iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    q = _sym_expm(_sym_from_vec(res.x, n))
    scale = (wn / (vol_k * math.sqrt(np.linalg.det(q)))) ** (2.0 / n)
    ell = Ellipsoid(scale * q)
    a_est = homothetic_distance(body, ell, samples=samples, seed=seed + 7919)
    return ell, float(a_est)


def _bump_profile(r: np.ndarray, inner: float, outer: float) -> np.ndarray:
    """C^2 quintic bridge: 1 for r <= inner, 0 for r >= outer, zero first and
    second derivatives at both ends."""
    s = np.clip((r - inner) / (outer - inner), 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def kt_family(
    n: int,
    t: float,
    grid_size: int | None = None,
    seed_grid: int = 0,
    radii: tuple[float, float] = (BUMP_INNER, BUMP_OUTER),
) -> SymmetricHPolytope:
    """Near-ball body with support function ``1 + t*phi`` on a direction grid.

    ``phi(u) = chi(|u - u0|) + chi(|u + u0|)`` bumps the ball outward around
    the diagonal ``u0 = (1,..,1)/sqrt(n)``; chi is the quintic bridge falling
    1 -> 0 between the chordal radii.  The polytope is rescaled so its volume
    is exactly ``omega_n``.

    The body is the intersection of the prescribed halfspaces.  That equals
    the body *with support function* ``1 + t*phi`` only while the prescription
    is genuinely convex (``1 + t(phi + phi'') >= 0`` on the circle); beyond
    that the steep ramp gets clipped by its neighbors' envelope, the effective
    bump shape becomes t-dependent, and the t^2 deficit scaling degrades.  So
    every prescribed halfspace must touch the body: any facet with support
    strictly below its offset raises the support-condition error.  With the
    default radii this holds through the whole |t| <= 0.15 range; narrower
    bumps (e.g. the classical ``radii=(1/8, 1/4)``) hit the error at much
    smaller t, roughly ``(outer - inner)^2 / 5.8``.
    """
    if n not in DEFAULT_GRID:
        raise ValueError("kt family implemented for n in {2, 3, 4}")
    t = float(t)
    if abs(t) > T_CAP:
        raise ValueError(f"|t| = {abs(t):.3g} beyond the {T_CAP} cap for the bump family")
    size = DEFAULT_GRID[n] if grid_size is None else int(grid_size)
    if size < MIN_GRID[n]:
        raise ValueError(f"grid size {size} below the n = {n} minimum {MIN_GRID[n]}")
    inner, outer = float(radii[0]), float(radii[1])
    if not 0.0 < inner < outer:
        raise ValueError("bump radii must satisfy 0 < inner < outer")
    grid = symmetric_direction_grid(n, size, seed_grid)
    u0 = np.ones(n) / math.sqrt(n)
    dirs = np.vstack([grid, u0, -u0])
    phi = _bump_profile(np.linalg.norm(dirs - u0, axis=1), inner, outer) + _bump_profile(
        np.linalg.norm(dirs + u0, axis=1), inner, outer
    )
    h = 1.0 + t * phi
    pre = SymmetricHPolytope(dirs, h)
    verts = pre.to_v().vertices
    for lo in range(0, len(dirs), 1024):
        block = slice(lo, min(lo + 1024, len(dirs)))
        sup = np.max(verts @ dirs[block].T, axis=0)
        if np.any(sup < h[block] * (1.0 - 1e-9)):
            raise ValueError(
                f"support-function condition fails at t = {t:.4g}: "
                "ramp clipped by neighboring facets (reduce |t| or widen the radii)"
            )
    lam = (unit_ball_volume(n) / volume(pre)) ** (1.0 / n)
    return SymmetricHPolytope(dirs, lam * h)


def kt_sweep(
    n: int, t_list, samples: int = 10**7, seed: int = 0
) -> list[StabilityRecord]:
    """Deficits and ellipsoid distances of ``K_t`` across a range of bump sizes.

    Volumes, the Santalo deficit and the trace-product deficit are exact
    (polytope triangulation); only the ellipsoid distance is MC.  Expected
    orders: deficit ~ t^2, A_dist ~ |t|, so ``ratio = deficit_santalo /
    A_dist^2`` stays bounded across the sweep.
    """
    ts = [float(t) for t in t_list]
    if not ts:
        raise ValueError("empty t list")
    if min(ts) <= 0 or max(ts) > SWEEP_T_CAP:
        raise ValueError(f"sweep t values must lie in (0, {SWEEP_T_CAP}]")
    records = []
    for k, t in enumerate(ts):
        body = kt_family(n, t)
        san = santalo_deficit(body, method="exact")
        bal = ball_deficit(body, method="exact")
        _, a_dist = best_fit_ellipsoid(body, samples=samples, seed=seed + k)
        records.append(
            StabilityRecord(
                t=t,
                vol_K=san.metadata["volume"],
                vol_polar=san.metadata["volume_polar"],
                deficit_santalo=san.deficit,
                deficit_ball=bal.deficit,
                A_dist=a_dist,
                ratio=san.deficit / a_dist**2,
                samples=int(samples),
                seed=int(seed + k),
            )
        )
    return records


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or x.size != y.size:
        raise ValueError("need at least two matching points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs positive data")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])
