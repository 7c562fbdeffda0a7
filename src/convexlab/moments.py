"""Volumes and second-moment matrices of symmetric convex bodies.

Two routes everywhere: exact and Monte Carlo rejection sampling in the
bounding box.  The exact route sums closed-form simplex moments: over the
star triangulation of a vertex polytope, and over a flag decomposition of a
halfspace polytope read off the one hull of its polar (``_flag_moments``,
which enumerates no vertices); ellipsoids have closed forms.  Every Monte
Carlo route in the package draws its uniform box points through
``box_chunks``, ``MC_CHUNK`` rows at a time (directly, or through
``rejection_sample`` when it needs a fixed number of accepted points).
Every sampled integral of the form ``int f f^T dx`` with ``f`` a linear
projection of x -- the moment matrix, the directional moment
``int <x, u>^2`` and its cone or orthant restrictions -- is the one
estimator ``box_moments``.  The draws do not depend on the chunk size, and
accumulation runs in draw order, so results are bit-stable for a given seed
and chunk size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .geometry import (
    Body,
    Ellipsoid,
    SymmetricHPolytope,
    SymmetricVPolytope,
    _hull,
    _solid,
    polar,
    star_triangulation,
    unit_ball_volume,
)

# Rows per box draw.  A fixed-count rejection sampler over-draws up to one chunk.
MC_CHUNK = 1 << 16
# Chunks a fixed-count rejection sampler draws before giving up.
MAX_REJECT_ROUNDS = 20_000
# Point subsets per block of the flag decomposition's face-center pass.
FLAG_BLOCK = 1 << 13
# Hull simplices per block of the flag decomposition's piece sums: 2^12 and
# 2^13 took the kernel's peak on a 3D K_t (8192 simplices) above the 5 MiB of
# the per-order kernel it replaced.
FLAG_SIMPLICES = 1 << 11
# Below this acceptance rate the bounding box is so loose the body is treated
# as degenerate for rejection sampling.
MIN_ACCEPT_RATE = 1e-4


@dataclass(frozen=True)
class MomentMatrix:
    """Second-moment matrix ``M_ij = integral over the body of x_i x_j dx``.

    ``stderr``/``samples``/``seed`` are populated on the Monte Carlo route and
    None on the exact route.
    """

    dim: int
    matrix: np.ndarray
    volume: float
    stderr: np.ndarray | None = None
    samples: int | None = None
    seed: int | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.dim, self.dim):
            raise ValueError("moment matrix shape does not match dim")
        scale = max(float(np.max(np.abs(m))), 1e-300)
        if np.max(np.abs(m - m.T)) > 1e-12 * scale:
            raise ValueError("moment matrix must be symmetric")
        m = 0.5 * (m + m.T)
        if np.any(np.linalg.eigvalsh(m) <= 0):
            raise ValueError("moment matrix must be positive definite")
        if not self.volume > 0:
            raise ValueError("volume must be positive")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        if self.stderr is not None:
            se = np.asarray(self.stderr, dtype=float)
            se.flags.writeable = False
            object.__setattr__(self, "stderr", se)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


# ---------------------------------------------------------------------------
# exact route
# ---------------------------------------------------------------------------


def simplex_volume(vertices: np.ndarray) -> float:
    v = np.asarray(vertices, dtype=float)
    n = v.shape[1]
    return abs(float(np.linalg.det(v[1:] - v[0]))) / math.factorial(n)


def simplex_second_moment(vertices: np.ndarray) -> MomentMatrix:
    """Exact second-moment matrix of a simplex with n+1 vertices in R^n.

    Uses ``M = vol / ((n+1)(n+2)) * (sum_k v_k v_k^T + s s^T)`` with
    ``s = sum_k v_k``.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1] + 1:
        raise ValueError("a simplex in R^n needs exactly n+1 vertices")
    n = v.shape[1]
    vol = simplex_volume(v)
    scale = max(1.0, float(np.max(np.abs(v)))) ** n
    if vol <= 1e-14 * scale:
        raise ValueError("degenerate simplex")
    s = v.sum(axis=0)
    m = (v.T @ v + np.outer(s, s)) * (vol / ((n + 1) * (n + 2)))
    return MomentMatrix(dim=n, matrix=m, volume=vol)


def _simplex_stack_moments(simplices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized moment accumulation over a (k, n+1, n) simplex stack.

    Returns the moment matrix and ``|det|`` of each simplex's edge matrix
    (``n!`` times its volume).
    """
    n = simplices.shape[2]
    edges = simplices[:, 1:, :] - simplices[:, :1, :]
    dets = np.abs(np.linalg.det(edges))
    vols = dets / math.factorial(n)
    gram = np.einsum("kvi,kvj->kij", simplices, simplices)
    s = simplices.sum(axis=1)
    outer = np.einsum("ki,kj->kij", s, s)
    m = np.einsum("k,kij->ij", vols / ((n + 1) * (n + 2)), gram + outer)
    return m, dets


def _parity(perm: tuple[int, ...]) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


def _det(rows) -> np.ndarray:
    """Determinants of a stack of n x n matrices, n = 2, 3 or 4, in closed
    form: ``rows[i][j]`` is entry (i, j) of every matrix, one array over the
    stack.  ``np.linalg.det`` runs one LU per matrix and then
    ``sign * exp(sum log|u_ii|)``, about 20 times slower on a 3 x 3 stack.
    A 4 x 4 determinant is the Laplace expansion in the 2 x 2 minors of its
    first two rows and its last two."""
    n = len(rows)
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    pairs = list(itertools.combinations(range(4), 2))
    top = {(j, k): rows[0][j] * rows[1][k] - rows[0][k] * rows[1][j] for j, k in pairs}
    low = {(j, k): rows[2][j] * rows[3][k] - rows[2][k] * rows[3][j] for j, k in pairs}
    return (top[0, 1] * low[2, 3] - top[0, 2] * low[1, 3] + top[0, 3] * low[1, 2]
            + top[1, 2] * low[0, 3] - top[1, 3] * low[0, 2] + top[2, 3] * low[0, 1])


def _flag_moments(body: SymmetricHPolytope) -> tuple[np.ndarray, float]:
    """Moment matrix and volume of ``K = {x : <p_i, x> <= 1}`` from the one
    hull of its polar ``P = conv(p_i)``, with no vertex enumeration.

    A flag decomposition over the dual face lattice.  Each true facet T of P
    (``SymmetricHPolytope._dual_facets``) is a vertex ``v_T`` of K.  A set S
    of points of T spans a face of P, dual to the face of K whose vertices are
    the ``v_T`` of the true facets holding all of S; their mean ``c_S`` lies in
    that face.  Each hull simplex s, in each order pi of its n points, gives
    the piece ``(o, c_{pi_1}, c_{pi_1 pi_2}, ..., c_{pi_1..pi_n-1}, v_T(s))``
    with signed volume ``sign(det P[s]) * sgn(pi) * det / n!``, and the signed
    pieces sum to K.  Two things make the sum exact on merged facets:

    * ``c_S`` is keyed by the true facets that hold S, not by the simplices
      that hold it; Qhull may triangulate a face shared by two merged facets
      along different diagonals;
    * the sum is signed, and the flat simplices Qhull's triangulation puts
      inside a merged facet are dropped, like the slivers of a star
      triangulation: the others triangulate the facet, and a flat simplex's
      own sign is roundoff.

    The pieces are summed in blocks of ``FLAG_SIMPLICES`` simplices, with no
    per-simplex LAPACK call.  Each block gathers ``c_S`` and ``c_S - v_T`` as
    coordinate columns once per subset S, not once per order, and takes every
    determinant in closed form (``_det``).  A piece's moment is
    ``w (sum_k c_k c_k^T + s s^T)`` over its vertices c_k, with s their sum and
    w its signed volume, so a block adds one Gram of ``c_S`` weighted by the w
    of the orders whose chain holds S, one of ``v_T`` weighted by every w, and
    one of s per order.
    """
    pol = polar(body)
    pts = pol.vertices
    simplices = _hull(pol)[0]
    verts, facet = body._dual_facets()
    n, npts = body.dim, pts.shape[0]
    # point-facet incidence of P, from every simplex (flat ones too)
    incidence = csr_matrix(
        (np.ones(simplices.size), (simplices.ravel(), np.repeat(facet, n))),
        shape=(npts, verts.shape[0]),
    )
    incidence.data[:] = 1.0
    coords = pts.T.copy()
    dets = _det([coords[:, simplices[:, i]] for i in range(n)])
    keep = _solid(dets, pts)
    simplices, facet, orient = simplices[keep], facet[keep], np.sign(dets[keep])
    # centers[combo]: (c_S of every distinct subset, one coordinate per row;
    # index of each simplex's subset)
    centers = {}
    for k in range(1, n):
        combos = list(itertools.combinations(range(n), k))
        # a sorted subset is one integer in base npts, so np.unique runs on a flat array
        radix = npts ** np.arange(k, dtype=np.int64)
        codes, which = np.unique(np.sort(simplices[:, combos], axis=2) @ radix, return_inverse=True)
        keys = codes[:, None] // radix % npts
        pick = csr_matrix(
            (np.ones(keys.size), (np.repeat(np.arange(keys.shape[0]), k), keys.ravel())),
            shape=(keys.shape[0], npts),
        )
        mean = np.empty((keys.shape[0], n))
        # in blocks of subsets: the counts of all of them at once took about
        # 90 MB on a 4D K_t (110k three-point subsets, about 70 facets each)
        for lo in range(0, keys.shape[0], FLAG_BLOCK):
            holds = pick[lo : lo + FLAG_BLOCK] @ incidence
            holds.data = (holds.data == k).astype(float)  # facets holding all of S
            mean[lo : lo + FLAG_BLOCK] = (holds @ verts) / np.asarray(holds.sum(axis=1))
        which = which.reshape(simplices.shape[0], len(combos))
        mean = mean.T.copy()
        for j, combo in enumerate(combos):
            centers[combo] = (mean, which[:, j])
    orders = [
        (_parity(perm), [tuple(sorted(perm[:j])) for j in range(1, n)])
        for perm in itertools.permutations(range(n))
    ]
    tips = verts.T.copy()
    m = np.zeros((n, n))
    # each order's signed volumes, summed over all simplices at the end
    signed = np.empty((len(orders), facet.size))
    for lo in range(0, facet.size, FLAG_SIMPLICES):
        block = slice(lo, lo + FLAG_SIMPLICES)
        tip = tips[:, facet[block]]
        c = {combo: center[:, idx[block]] for combo, (center, idx) in centers.items()}
        # the determinant with v_T taken off the other rows: short edges, small roundoff
        edges = {combo: col - tip for combo, col in c.items()}
        weight = dict.fromkeys(c, 0.0)
        for (sign, chain), vol in zip(orders, signed):
            w = _det([edges[combo] for combo in chain] + [tip]) * (orient[block] * sign)
            vol[block] = w
            s = tip + sum(c[combo] for combo in chain)
            m += (s * w) @ s.T
            for combo in chain:
                weight[combo] = weight[combo] + w
        for combo, col in c.items():
            m += (col * weight[combo]) @ col.T
        m += (tip * signed[:, block].sum(axis=0)) @ tip.T
    fact = math.factorial(n)
    total = sum(float(np.sum(vol)) for vol in signed)
    return m / (fact * (n + 1) * (n + 2)), total / fact


def _polytope_moments(body: SymmetricVPolytope | SymmetricHPolytope) -> tuple[MomentMatrix, float]:
    """Exact moment matrix and volume of a polytope, computed once and cached
    on the body, like its polar.

    A vertex polytope takes its one star triangulation: the matrix's volume
    is the sum of the simplex volumes, and the volume is ``sum |det| / n!``,
    which can differ in the last bit.  A halfspace polytope takes the flag
    decomposition of its polar's hull (``_flag_moments``).
    """
    if body._moment is None:
        if isinstance(body, SymmetricHPolytope):
            m, vol = _flag_moments(body)
            mm = MomentMatrix(dim=body.dim, matrix=m, volume=vol)
        else:
            m, dets = _simplex_stack_moments(star_triangulation(body))
            fact = math.factorial(body.dim)
            mm = MomentMatrix(dim=body.dim, matrix=m, volume=float(np.sum(dets / fact)))
            vol = float(np.sum(dets)) / fact
        object.__setattr__(body, "_volume", vol)
        object.__setattr__(body, "_moment", mm)
    return body._moment, body._volume


def volume(body: Body) -> float:
    """Exact volume: closed form for ellipsoids, star triangulation for vertex
    polytopes, the flag decomposition of the polar's hull for halfspace ones."""
    if isinstance(body, Ellipsoid):
        return body.volume_exact()
    if not isinstance(body, (SymmetricVPolytope, SymmetricHPolytope)):
        raise TypeError("an exact volume requires a polytope or an ellipsoid")
    return _polytope_moments(body)[1]


def second_moment_matrix(
    body: Body,
    method: str = "auto",
    samples: int = 10**6,
    seed: int = 0,
) -> MomentMatrix:
    """Second-moment matrix of a body.

    ``method="auto"`` takes the exact route for polytopes and ellipsoids and
    falls back to Monte Carlo only for bodies that merely expose membership.
    """
    if method not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if method == "mc":
        return mc_second_moment(body, samples, seed)
    if isinstance(body, Ellipsoid):
        vol = body.volume_exact()
        m = vol / (body.dim + 2) * np.linalg.inv(body.shape)
        return MomentMatrix(dim=body.dim, matrix=m, volume=vol)
    if isinstance(body, (SymmetricVPolytope, SymmetricHPolytope)):
        return _polytope_moments(body)[0]
    if method == "exact":
        raise TypeError(f"no exact moment route for {type(body)!r}")
    return mc_second_moment(body, samples, seed)


def reference_ball_moment(n: int) -> float:
    """Directional second moment of the unit ball, ``omega_n / (n + 2)``."""
    return unit_ball_volume(n) / (n + 2)


# ---------------------------------------------------------------------------
# Monte Carlo route
# ---------------------------------------------------------------------------


def box_chunks(lo: np.ndarray | float, hi: np.ndarray, samples: int, seed: int):
    """Yield ``samples`` uniform draws in the box ``[lo, hi]``, ``MC_CHUNK`` rows at a time.

    The chunks concatenate to the single draw ``default_rng(seed).uniform(lo,
    hi, (samples, n))`` for every chunk size, so any consumer that accumulates
    in yield order is deterministic for a given seed and chunk.  ``lo`` may be
    a scalar shared by every coordinate.  Each chunk is one ``random`` draw
    scaled in place to ``lo + (hi - lo) * U``, numpy's own ``uniform`` formula
    (the same bits), one column at a time: an in-place broadcast of the span
    row over 2-4 columns runs numpy's inner loop once per row, and took longer
    than the draw itself.  A box with a non-finite bound or span raises
    ValueError.
    """
    if samples <= 0:
        raise ValueError(f"Monte Carlo needs a positive sample count, got {samples}")
    with np.errstate(over="ignore", invalid="ignore"):
        span = np.subtract(hi, lo, dtype=float)
    if not np.all(np.isfinite(span)):
        raise ValueError(f"the Monte Carlo box from {lo} to {hi} is not finite")
    offset = np.broadcast_to(np.asarray(lo, dtype=float), span.shape)
    rng = np.random.default_rng(seed)
    remaining = int(samples)
    while remaining > 0:
        k = min(MC_CHUNK, remaining)
        pts = rng.random((k, len(hi)))
        for j in range(pts.shape[1]):
            col = pts[:, j]
            col *= span[j]
            col += offset[j]
        yield pts
        remaining -= k


def rejection_sample(contains, lo, hi, count: int, seed: int) -> np.ndarray:
    """The first ``count`` points of the ``box_chunks`` stream that ``contains`` accepts.

    The result does not depend on ``MC_CHUNK``.  Gives up with ValueError
    after ``MAX_REJECT_ROUNDS`` chunks.
    """
    kept = []
    have = 0
    for pts in box_chunks(lo, hi, MAX_REJECT_ROUNDS * MC_CHUNK, seed):
        acc = pts.compress(contains(pts), axis=0)
        kept.append(acc)
        have += len(acc)
        if have >= count:
            return np.concatenate(kept)[:count]
    raise ValueError("rejection sampling failed: acceptance rate too low")


def box_moments(contains, lo, hi, samples: int, seed: int, proj=None, region=None):
    """Monte Carlo ``int f f^T dx`` over ``{contains} cap {region}``, ``f = x @ proj``.

    ``proj`` is an (n, k) matrix (None for the identity).  ``region`` is asked
    only about the rows ``contains`` accepted.  Returns the box-scaled
    estimate, its per-entry standard error and the number of accepted draws.
    Rows are selected with ``compress``, which gathers the rows of a boolean
    index several times faster on 2-4 columns.
    """
    s1 = s2 = 0.0
    accepted = 0
    for pts in box_chunks(lo, hi, samples, seed):
        acc = pts.compress(contains(pts), axis=0)
        if region is not None:
            acc = acc.compress(region(acc), axis=0)
        f = acc if proj is None else acc @ proj
        sq = f * f
        s1 += f.T @ f
        s2 += sq.T @ sq
        accepted += len(acc)
    if accepted / samples < MIN_ACCEPT_RATE:
        raise ValueError(
            f"rejection acceptance rate {accepted / samples:.2e} below {MIN_ACCEPT_RATE:.0e}: "
            "degenerate body or unusable bounding box"
        )
    box_vol = float(np.prod(hi - lo))
    mean = s1 / samples
    var = np.maximum(s2 / samples - mean**2, 0.0)
    return box_vol * mean, box_vol * np.sqrt(var / samples), accepted


def mc_volume(body: Body, samples: int, seed: int) -> tuple[float, float]:
    """Rejection-sampled volume estimate, returned with its standard error."""
    lo, hi = body.bounding_box()
    # a projection with no columns: only the accepted count is wanted
    _, _, accepted = box_moments(body.contains, lo, hi, samples, seed, np.empty((body.dim, 0)))
    box_vol = float(np.prod(hi - lo))
    p = accepted / samples
    return box_vol * p, box_vol * math.sqrt(p * (1.0 - p) / samples)


def mc_second_moment(body: Body, samples: int, seed: int) -> MomentMatrix:
    """Rejection-sampled second-moment matrix with per-entry standard errors."""
    lo, hi = body.bounding_box()
    m, stderr, accepted = box_moments(body.contains, lo, hi, samples, seed)
    vol = float(np.prod(hi - lo)) * accepted / samples
    return MomentMatrix(dim=body.dim, matrix=m, volume=vol, stderr=stderr, samples=int(samples), seed=seed)
