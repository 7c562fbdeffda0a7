"""Stability experiments around the volume-product extremizers.

Tools for measuring how far a body is from the ellipsoid family (homothetic
symmetric-difference distance, best-fit ellipsoid search) and the near-ball
bump family ``K_t`` used to probe the sharpness of the quadratic stability
estimates: the Santalo deficit of ``K_t`` scales like ``t^2`` while the
ellipsoid distance scales like ``|t|``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.optimize import minimize

from .geometry import (
    DEDUP_TOL,
    Body,
    Ellipsoid,
    SymmetricHPolytope,
    polar,
    symmetric_direction_grid,
    unit_ball_volume,
    write_csv,
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
# Sizes of the fit's product rule on S^(n-1) (``_sphere_rule``).  In 4D a
# random grid of 8192 directions fit K_0.08 worse (A 0.0231 against 0.0217).
SPHERE_RULE = {2: (1024,), 3: (32, 64), 4: (16, 32, 32)}
# Relative padding of the membership radii that bound the shell in which
# homothetic_distance asks ``contains`` (``_membership_radii``).
SHELL_MARGIN = 1e-6


@dataclass(frozen=True)
class StabilityRecord:
    """One sweep entry: deficits, ellipsoid distance, their ratio at a given t,
    and whether the best-fit search converged and in how many evaluations."""

    t: float
    vol_K: float
    vol_polar: float
    deficit_santalo: float
    deficit_ball: float
    A_dist: float
    ratio: float
    samples: int
    seed: int
    fit_converged: bool
    fit_evals: int

    def __post_init__(self):
        if self.A_dist < 0:
            raise ValueError("homothetic distance cannot be negative")

    def to_json_dict(self) -> dict:
        return asdict(self)


_CSV_COLUMNS = tuple(f.name for f in fields(StabilityRecord))


def save_records_csv(path, records, meta: dict | None = None) -> None:
    """One header row and %.10g floats (``geometry.write_csv``)."""
    rows = []
    for rec in records:
        row = rec.to_json_dict()
        # integers as written, fit_converged as 1/0: every cell parses as a number
        rows.append(
            [
                "%.10g" % row[c] if isinstance(row[c], float) else str(int(row[c]))
                for c in _CSV_COLUMNS
            ]
        )
    write_csv(path, _CSV_COLUMNS, rows, meta)


def _membership_radii(body: Body) -> tuple[float, float]:
    """Radii ``r < R`` with ``body.contains`` true on ``|x| <= r`` and false
    on ``|x| >= R``, padded as ``homothetic_distance`` sets out.

    A halfspace polytope's radii read what ``volume`` and ``bounding_box``
    cache, so a K_t adds no Qhull call; a vertex polytope's read its polar.
    A halfspace polytope has inradius ``min(offsets)`` (its
    normals are unit) and the circumradius of its ``_dual_facets`` vertices; a
    vertex polytope ``1 / max |w|`` over its polar's vertices w and the
    circumradius of its own vertices; an ellipsoid the extreme eigenvalues of
    its shape.
    """
    n = body.dim
    if isinstance(body, Ellipsoid):
        lam = np.linalg.eigvalsh(body.shape)
        inner, outer = 1.0 / math.sqrt(lam[-1]), 1.0 / math.sqrt(lam[0])
        # eigenvalue and quadratic-form roundoff, relative to the radii
        stray = 8.0 * n * n * np.finfo(float).eps * float(lam[-1] / lam[0])
    else:
        if isinstance(body, SymmetricHPolytope):
            inner, verts = float(np.min(body.offsets)), body._dual_facets()[0]
        else:
            inner = 1.0 / float(np.max(np.linalg.norm(polar(body).vertices, axis=1)))
            verts = body.vertices
        outer = float(np.max(np.linalg.norm(verts, axis=1)))
        # contains may read a vertex form of the body or its polar, deduped at
        # DEDUP_TOL * max(1, circumradius / 10): a facet moves by sqrt(n)
        # times that, relative to the radii at most that times max(R, 1 / r)
        size = max(outer, 1.0 / inner)
        stray = 2.0 * math.sqrt(n) * DEDUP_TOL * max(1.0, size / 10.0) * size
    pad = SHELL_MARGIN + stray
    return max(inner * (1.0 - pad), 0.0), outer * (1.0 + pad)


def _shell_hits(k_body, c_body, alpha, beta, pts, inner2, outer2) -> int:
    """The draws y of one chunk in exactly one of ``alpha K`` and ``beta C``,
    asking ``contains`` only where ``inner2 < |y|^2 < outer2``.

    A helper of its own so that its temporaries are freed before
    ``box_chunks`` draws the next chunk.
    """
    sq = pts[:, 0] * pts[:, 0]
    for j in range(1, pts.shape[1]):
        col = pts[:, j]
        sq += col * col
    shell = pts.compress((sq > inner2) & (sq < outer2), axis=0)
    return int(np.count_nonzero(k_body.contains(shell / alpha) ^ c_body.contains(shell / beta)))


def homothetic_distance(k_body: Body, c_body: Body, samples: int = 10**6, seed: int = 0) -> float:
    """MC estimate of ``|aK delta bC|`` with both bodies scaled to volume one.

    ``a = |K|^(-1/n)``, ``b = |C|^(-1/n)``: homothety is quotiented out, so the
    value is 0 for C = sK and at most 2 always.  Chunked and deterministic per
    seed.

    Membership is asked only in the shell where the two bodies can disagree.
    With ``r <= R`` the membership radii of a body (``_membership_radii``), a
    draw y with ``|y| <= min(a r_K, b r_C)`` lies in both scaled bodies and
    one with ``|y| >= max(a R_K, b R_C)`` in neither.  Neither is a hit, so
    the hit count, and the estimate, are those of testing every draw; on K_t
    against its fitted ellipsoid 7-19 % of the draws lie in the shell.

    The radii are padded by ``SHELL_MARGIN`` = 1e-6 relative, which is safe.
    ``CONTAIN_TOL`` (1e-9) only widens acceptance, and a draw outside the
    shell has gauge at least 1 + 1e-6 > 1 + ``CONTAIN_TOL`` in a body it lies
    outside.  The vertex dedups between the rows ``contains`` reads and those
    the radii read, such as a 2D halfspace polytope's vertex form, move
    facets by about 1e-10 relative at the scale of K_t, and eigenvalue
    roundoff is about eps times the condition number.  Bounds on both are added to the padding, so it
    holds at any scale and aspect ratio.
    """
    n = k_body.dim
    if c_body.dim != n:
        raise ValueError("bodies live in different dimensions")
    alpha = volume(k_body) ** (-1.0 / n)
    beta = volume(c_body) ** (-1.0 / n)
    hi = np.maximum(alpha * k_body.bounding_box()[1], beta * c_body.bounding_box()[1])
    lo = -hi
    box_vol = float(np.prod(hi - lo))
    (r_k, big_r_k), (r_c, big_r_c) = _membership_radii(k_body), _membership_radii(c_body)
    inner = min(alpha * r_k, beta * r_c)
    outer = max(alpha * big_r_k, beta * big_r_c)
    hits = 0
    for pts in box_chunks(lo, hi, samples, seed):
        hits += _shell_hits(k_body, c_body, alpha, beta, pts, inner * inner, outer * outer)
    return box_vol * hits / samples


# built once per dimension: a fit evaluates _sym_from_vec about 116 times
_SYM_INDEX = {n: np.triu_indices(n, k=1) for n in SPHERE_RULE}


def _sym_from_vec(theta: np.ndarray, n: int) -> np.ndarray:
    s = np.zeros((n, n))
    s[np.diag_indices(n)] = theta[:n]
    iu = _SYM_INDEX[n]
    s[iu] = theta[n:]
    s[(iu[1], iu[0])] = theta[n:]
    return s


def _vec_from_sym(s: np.ndarray) -> np.ndarray:
    return np.concatenate([np.diag(s), s[_SYM_INDEX[s.shape[0]]]])


def _sym_expm(s: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(s)
    return (v * np.exp(w)) @ v.T


def _sym_logm(q: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(q)
    return (v * np.log(w)) @ v.T


def _sphere_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions and weights of the product rule of ``SPHERE_RULE`` on S^(n-1).

    Even angles on S^1.  On S^2, Gauss-Legendre in z = cos(polar angle) times
    even azimuths, as dsigma = dz dphi.  On S^3, Hopf coordinates
    ``(sqrt(s) e^(ia), sqrt(1 - s) e^(ib))`` with Gauss-Legendre in s and even
    angles a and b, as dsigma = ds da db / 2.  The weights sum to |S^(n-1)|.
    """
    sizes = SPHERE_RULE[n]
    if n == 2:
        a = 2.0 * np.pi * np.arange(sizes[0]) / sizes[0]
        return np.column_stack([np.cos(a), np.sin(a)]), np.full(a.size, 2.0 * np.pi / a.size)
    x, wx = np.polynomial.legendre.leggauss(sizes[0])
    angles = [2.0 * np.pi * np.arange(m) / m for m in sizes[1:]]
    grid = np.meshgrid(x, *angles, indexing="ij")
    cell = math.prod(2.0 * np.pi / m for m in sizes[1:])
    weights = np.multiply.outer(cell * wx, np.ones(sizes[1:]))
    if n == 3:
        z, a = grid
        dirs = [np.sqrt(1.0 - z * z) * np.cos(a), np.sqrt(1.0 - z * z) * np.sin(a), z]
    else:
        # s = (x + 1) / 2 on [0, 1]: ds = dx / 2, and dsigma carries another 1/2
        x, a, b = grid
        p, q = np.sqrt(0.5 * (1.0 + x)), np.sqrt(0.5 * (1.0 - x))
        dirs = [p * np.cos(a), p * np.sin(a), q * np.cos(b), q * np.sin(b)]
        weights *= 0.25
    return np.stack(dirs, axis=-1).reshape(-1, n), weights.reshape(-1)


def _radial_distance(body: Body) -> Callable[[np.ndarray], float]:
    """``q -> A(K, E_q)`` by the radial volume formula on ``_sphere_rule``.

    ``|A delta B| = (1/n) int_{S^(n-1)} |rho_A^n - rho_B^n| dsigma``, with K
    scaled by ``|K|^(-1/n)`` and ``E_q = {x : x^T q x <= 1}`` by
    ``|E_q|^(-1/n)``, so ``rho^n`` is ``rho_K^n / |K|`` and ``(u^T q u)^(-n/2)
    sqrt(det q) / omega_n``.  The body's radial function is read once; each
    value is then one weighted sum over the rule's directions.
    """
    n = body.dim
    dirs, weights = _sphere_rule(n)
    rho_k = body.radial(dirs) ** n / volume(body)
    wn = unit_ball_volume(n)

    def a_of(q: np.ndarray) -> float:
        quad = np.einsum("ij,ij->i", dirs @ q, dirs)
        rho_e = quad ** (-0.5 * n) * (math.sqrt(np.linalg.det(q)) / wn)
        return float(weights @ np.abs(rho_k - rho_e)) / n

    return a_of


def best_fit_ellipsoid(
    body: Body, samples: int = 10**6, seed: int = 0
) -> tuple[Ellipsoid, float, bool, int]:
    """Locally best o-symmetric ellipsoid under the homothetic distance.

    The shape matrix is parametrized as ``expm(S)`` with S symmetric
    (n(n+1)/2 coordinates), the search starts from the moment ellipsoid
    (shape proportional to the inverse second-moment matrix) and runs
    Nelder-Mead on ``_radial_distance``: the radial volume formula on a fixed
    product rule over the sphere, deterministic and continuous in the shape.
    The search's memory and cost do not depend on ``samples``.

    Returns ``(ellipsoid, distance, converged, evals)``: the fitted
    ellipsoid (scaled to ``|E| = |K|``), the MC ``homothetic_distance``
    A(K, E) at the optimum on ``samples`` fresh draws (the one box stream of a
    call, seeded ``seed + 7919``), and the outcome of the simplex search:
    whether it converged within ``MAX_FIT_ITER`` iterations and how many
    objective evaluations it made.  A search that hits the cap still returns
    its best iterate.
    """
    n = body.dim
    vol_k = volume(body)
    wn = unit_ball_volume(n)
    a_of = _radial_distance(body)
    q0 = np.linalg.inv(second_moment_matrix(body).matrix)
    q0 = q0 / np.linalg.det(q0) ** (1.0 / n)
    theta0 = _vec_from_sym(_sym_logm(q0))
    sim = np.vstack([theta0, theta0 + 0.05 * np.eye(theta0.size)])
    res = minimize(
        lambda theta: a_of(_sym_expm(_sym_from_vec(theta, n))),
        theta0,
        method="Nelder-Mead",
        options={
            "maxiter": MAX_FIT_ITER,
            "xatol": 2e-4,
            "fatol": 1e-7,
            "initial_simplex": sim,
        },
    )
    q = _sym_expm(_sym_from_vec(res.x, n))
    scale = (wn / (vol_k * math.sqrt(np.linalg.det(q)))) ** (2.0 / n)
    ell = Ellipsoid(scale * q)
    a_est = homothetic_distance(body, ell, samples=samples, seed=seed + 7919)
    return ell, float(a_est), bool(res.success), int(res.nfev)


def _bump_profile(r: np.ndarray, inner: float, outer: float) -> np.ndarray:
    """C^2 quintic bridge: 1 for r <= inner, 0 for r >= outer, zero first and
    second derivatives at both ends."""
    s = np.clip((r - inner) / (outer - inner), 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def _kt_halfspaces(
    n: int, t: float, grid_size: int | None, seed_grid: int, radii: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """The prescribed directions of ``kt_family`` and their offsets
    ``1 + t*phi``, before the volume rescaling."""
    if n not in DEFAULT_GRID:
        raise ValueError("kt family implemented for n in {2, 3, 4}")
    if math.isnan(t):
        raise ValueError("t is NaN: the bump family needs a real t")
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
    return dirs, 1.0 + t * phi


def _clipped(pre: SymmetricHPolytope, dirs: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Which prescribed halfspaces ``<dirs_i, x> <= h_i`` of ``pre`` miss the
    body: support ``h_pre(dirs_i) < h_i (1 - 1e-9)``, decided as the full scan
    ``pre.support(dirs)`` decides it.

    ``pre``'s normals and offsets are ``dirs`` and ``h`` normalized, and its
    ``incident_support`` reads each support off the few vertices of the facets
    that meet ``dirs_i / h_i`` in the polar's hull.  The full scan runs only
    for the rows where that is below the floor or within 1e-12 of it (no hull
    vertex, or roundoff of the two scans could disagree).
    """
    floor = pre.offsets * (1.0 - 1e-9)
    scan = np.flatnonzero(pre.incident_support() < floor * (1.0 + 1e-12))
    clipped = np.zeros(h.size, dtype=bool)
    clipped[scan] = pre.support(dirs[scan]) < h[scan] * (1.0 - 1e-9)
    return clipped


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
    t = float(t)
    dirs, h = _kt_halfspaces(n, t, grid_size, seed_grid, radii)
    pre = SymmetricHPolytope(dirs, h)
    if np.any(_clipped(pre, dirs, h)):
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
    if not all(0 < t <= SWEEP_T_CAP for t in ts):  # NaN fails both comparisons
        raise ValueError(f"sweep t values must lie in (0, {SWEEP_T_CAP}], got {ts}")
    records = []
    for k, t in enumerate(ts):
        body = kt_family(n, t)
        san = santalo_deficit(body, method="exact")
        bal = ball_deficit(body, method="exact")
        _, a_dist, converged, evals = best_fit_ellipsoid(body, samples=samples, seed=seed + k)
        if a_dist == 0:
            raise ValueError(
                f"the Monte Carlo A_dist of K_t at t={t:g} is 0 with {samples} samples, "
                "so deficit / A_dist^2 is undefined; use more samples"
            )
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
                fit_converged=converged,
                fit_evals=evals,
            )
        )
    return records


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or x.size != y.size:
        raise ValueError("need at least two matching points")
    if np.unique(x).size < 2:
        raise ValueError("a slope needs at least two distinct x values")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs positive data")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])
