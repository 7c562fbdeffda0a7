"""Volumes and second-moment matrices of symmetric convex bodies.

Two routes everywhere: exact (star triangulation into simplices with a
closed-form simplex moment, or closed forms for ellipsoids) and Monte Carlo
rejection sampling in the bounding box.  Every Monte Carlo route in the
package draws its uniform box points through ``box_chunks``, ``MC_CHUNK``
rows at a time (directly, or through ``rejection_sample`` when it needs a
fixed number of accepted points).  Every sampled integral of the form
``int f f^T dx`` with ``f`` a linear projection of x -- the moment matrix,
the directional moment ``int <x, u>^2`` and its cone or orthant restrictions
-- is the one estimator ``box_moments``.  The draws do not depend on the
chunk size, and accumulation runs in draw order, so results are bit-stable
for a given seed and chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Body,
    Ellipsoid,
    SymmetricHPolytope,
    SymmetricVPolytope,
    polar,
    star_triangulation,
    unit_ball_volume,
)

# Rows per box draw.  A fixed-count rejection sampler over-draws up to one chunk.
MC_CHUNK = 1 << 16
# Chunks a fixed-count rejection sampler draws before giving up.
MAX_REJECT_ROUNDS = 20_000
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

    def to_json_dict(self) -> dict:
        return {
            "volume": self.volume,
            "matrix": self.matrix.tolist(),
            "stderr": None if self.stderr is None else self.stderr.tolist(),
            "samples": self.samples,
            "seed": self.seed,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "MomentMatrix":
        m = np.array(data["matrix"], dtype=float)
        se = data.get("stderr")
        return MomentMatrix(
            dim=m.shape[0],
            matrix=m,
            volume=float(data["volume"]),
            stderr=None if se is None else np.array(se, dtype=float),
            samples=data.get("samples"),
            seed=data.get("seed"),
        )


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


def _simplex_stack_moments(simplices: np.ndarray) -> tuple[np.ndarray, float]:
    """Vectorized moment/volume accumulation over a (k, n+1, n) simplex stack."""
    n = simplices.shape[2]
    edges = simplices[:, 1:, :] - simplices[:, :1, :]
    vols = np.abs(np.linalg.det(edges)) / math.factorial(n)
    gram = np.einsum("kvi,kvj->kij", simplices, simplices)
    s = simplices.sum(axis=1)
    outer = np.einsum("ki,kj->kij", s, s)
    m = np.einsum("k,kij->ij", vols / ((n + 1) * (n + 2)), gram + outer)
    return m, float(vols.sum())


def volume(body: Body) -> float:
    """Exact volume: closed form for ellipsoids, star triangulation otherwise."""
    if isinstance(body, Ellipsoid):
        return body.volume_exact()
    simplices = star_triangulation(body)
    n = body.dim
    edges = simplices[:, 1:, :] - simplices[:, :1, :]
    return float(np.sum(np.abs(np.linalg.det(edges)))) / math.factorial(n)


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
        m, vol = _simplex_stack_moments(star_triangulation(body))
        return MomentMatrix(dim=body.dim, matrix=m, volume=vol)
    if method == "exact":
        raise TypeError(f"no exact moment route for {type(body)!r}")
    return mc_second_moment(body, samples, seed)


def reference_ball_moment(n: int) -> float:
    """Directional second moment of the unit ball, ``omega_n / (n + 2)``."""
    return unit_ball_volume(n) / (n + 2)


def ball_functional(body: Body, method: str = "auto", samples: int = 10**6, seed: int = 0) -> float:
    """Trace product ``tr(M(K) M(K*))`` of a body and its polar.

    Invariant under linear maps of the body; maximized by ellipsoids, where it
    equals ``n (omega_n / (n+2))^2``.
    """
    mk = second_moment_matrix(body, method=method, samples=samples, seed=seed)
    mp = second_moment_matrix(polar(body), method=method, samples=samples, seed=seed + 1)
    return float(np.trace(mk.matrix @ mp.matrix))


# ---------------------------------------------------------------------------
# Monte Carlo route
# ---------------------------------------------------------------------------


def box_chunks(lo: np.ndarray | float, hi: np.ndarray, samples: int, seed: int):
    """Yield ``samples`` uniform draws in the box ``[lo, hi]``, ``MC_CHUNK`` rows at a time.

    The chunks concatenate to the single draw ``default_rng(seed).uniform(lo,
    hi, (samples, n))`` for every chunk size, so any consumer that accumulates
    in yield order is deterministic for a given seed and chunk.  ``lo`` may be
    a scalar shared by every coordinate.
    """
    if samples <= 0:
        raise ValueError(f"Monte Carlo needs a positive sample count, got {samples}")
    rng = np.random.default_rng(seed)
    remaining = int(samples)
    while remaining > 0:
        k = min(MC_CHUNK, remaining)
        yield rng.uniform(lo, hi, size=(k, len(hi)))
        remaining -= k


def rejection_sample(contains, lo, hi, count: int, seed: int) -> np.ndarray:
    """The first ``count`` points of the ``box_chunks`` stream that ``contains`` accepts.

    The result does not depend on ``MC_CHUNK``.  Gives up with ValueError
    after ``MAX_REJECT_ROUNDS`` chunks.
    """
    kept = []
    have = 0
    for pts in box_chunks(lo, hi, MAX_REJECT_ROUNDS * MC_CHUNK, seed):
        acc = pts[contains(pts)]
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
    """
    s1 = s2 = 0.0
    accepted = 0
    for pts in box_chunks(lo, hi, samples, seed):
        acc = pts[contains(pts)]
        if region is not None:
            acc = acc[region(acc)]
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
