"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps the public functions of each ``convexlab`` module and
the ``contains`` methods of the body and cone classes.  A wrapped function is
rebound under every name that any ``convexlab`` module holds for it (``polar``
is imported into six modules besides ``geometry``), and the install fails if
an unwrapped binding survives.  Wrappers keep a stack, so each span gets its
total time and its self time (total minus the time of its child spans).
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); names starting with "cli." are the CLI layer
FUNCTIONS = (
    ("geometry", "polar", "geometry.polar"),
    ("geometry", "vertex_enumeration", "geometry.vertex_enumeration"),
    ("geometry", "star_triangulation", "geometry.star_triangulation"),
    ("geometry", "load_body", "cli.load"),
    ("geometry", "save_body", "cli.write"),
    ("moments", "mc_second_moment", "moments.mc_second_moment"),
    ("moments", "mc_volume", "moments.mc_volume"),
    ("moments", "second_moment_matrix", "moments.second_moment_matrix"),
    ("moments", "volume", "moments.volume"),
    ("isotropic", "isotropize", "isotropic.isotropize"),
    ("yaoyao", "sample_measure", "yaoyao.sample_measure"),
    ("yaoyao", "yao_yao_equipartition", None),  # named by dimension
    ("yaoyao", "dual_partition", "yaoyao.dual_partition"),
    ("yaoyao", "save_partition", "cli.write"),
    ("harness", "santalo_deficit", "harness.santalo_deficit"),
    ("harness", "ball_deficit", "harness.ball_deficit"),
    ("harness", "directional_deficit", "harness.directional_deficit"),
    ("harness", "chain_consistency", "harness.chain_consistency"),
    ("harness", "cone_restricted_deficit", "harness.cone_restricted_deficit"),
    ("harness", "cone_sum_reconstruction", "harness.cone_sum_reconstruction"),
    ("harness", "orthant_pair", "harness.orthant_pair"),
    ("harness", "pl_triple_check", "harness.pl_triple_check"),
    ("harness", "save_reports_jsonl", "cli.write"),
    ("harness", "save_reports_csv", "cli.write"),
    ("stability", "kt_family", "stability.kt_family"),
    ("stability", "best_fit_ellipsoid", "stability.best_fit_ellipsoid"),
    ("stability", "homothetic_distance", "stability.homothetic_distance"),
    ("stability", "minimize", "stability.fit"),  # scipy's, as bound in stability
    ("stability", "save_records_csv", "cli.write"),
    ("cli", "cmd_gen", "cli.gen"),
    ("cli", "cmd_compute", "cli.compute"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_yaoyao", "cli.yaoyao"),
    ("cli", "cmd_stability", "cli.stability"),
)

# (module, class, method, span name)
METHODS = (
    ("geometry", "SymmetricVPolytope", "__post_init__", "geometry.vpoly_canonicalize"),
    ("geometry", "SymmetricVPolytope", "contains", None),
    ("geometry", "SymmetricHPolytope", "contains", None),
    ("geometry", "Ellipsoid", "contains", None),
    ("geometry", "SimplicialCone", "contains", None),
    ("harness", "OrthantRegion", "coordinate_moment", "harness.OrthantRegion.coordinate_moment"),
    ("harness", "OrthantRegion", "sample", "harness.OrthantRegion.sample"),
)

# must match the polygon test in SymmetricVPolytope.contains
ANGULAR_MIN_VERTICES = 64


def _contains_kind(body) -> str:
    cls = type(body).__name__
    if cls == "SymmetricVPolytope":
        angular = body.dim == 2 and body.vertices.shape[0] >= ANGULAR_MIN_VERTICES
        return "vpoly_angular" if angular else "vpoly"
    return {"SymmetricHPolytope": "hpoly", "Ellipsoid": "ellipsoid", "SimplicialCone": "cone"}[cls]


def _body_key(body) -> str:
    digest = hashlib.sha1(type(body).__name__.encode())
    for name in ("vertices", "normals", "offsets", "shape"):
        arr = getattr(body, name, None)
        if arr is not None:
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _hidden_references(mods: dict, originals: list) -> list[str]:
    """Holders of an original that rebinding module attributes cannot reach:
    module-level containers, and default arguments and closure cells of the
    functions and methods defined in the modules."""
    found = []
    for mod_name, mod in mods.items():
        for key, value in vars(mod).items():
            if isinstance(value, dict):
                held = list(value.values())
            elif isinstance(value, (list, tuple, set, frozenset)):
                held = list(value)
            else:
                held = []
            if inspect.isclass(value):
                funcs = [f for f in vars(value).values() if inspect.isfunction(f)]
            else:
                funcs = [value] if inspect.isfunction(value) else []
            for fn in funcs:
                if fn.__module__ != mod.__name__:
                    continue
                held += list(fn.__defaults__ or ()) + list((fn.__kwdefaults__ or {}).values())
                for cell in fn.__closure__ or ():
                    try:
                        held.append(cell.cell_contents)
                    except ValueError:  # empty cell
                        pass
            if any(item is fn for item in held for fn in originals):
                found.append(f"{mod_name}.{key}")
    return found


class Tracer:
    """Span totals for one traced run; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack: list[float] = []
        self._round_keys: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        start = time.perf_counter()
        self._stack.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dur
            self.total[name] += dur
            self.self_time[name] += dur - child
            self.calls[name] += 1

    def begin_round(self) -> None:
        """Distinct bodies for the triangulation repeat ratio are counted per round."""
        self._round_keys = set()

    def _wrap(self, name, fn):
        """A wrapper recording a span ``name``; ``None`` names it from the call."""
        tracer = self
        counts = self.counts
        if name is None and fn.__name__ == "contains":
            def wrapper(body, points, *args, **kwargs):
                span = f"geometry.contains.{_contains_kind(body)}.{body.dim}d"
                out = tracer._span(span, fn, (body, points) + args, kwargs)
                counts[span + ".points"] += np.size(out)
                counts["contains.accepted"] += int(np.count_nonzero(out))
                return out
        elif name is None:  # yao_yao_equipartition, named by the dimension of its cloud
            def wrapper(samples, *args, **kwargs):
                span = f"yaoyao.yao_yao_equipartition.{samples.dim}d"
                return tracer._span(span, fn, (samples,) + args, kwargs)
        elif name == "geometry.polar":
            def wrapper(body):
                counts["polar.hits"] += getattr(body, "_polar", None) is not None
                return tracer._span(name, fn, (body,), {})
        elif name == "geometry.star_triangulation":
            def wrapper(body):
                key = _body_key(body)
                if key not in tracer._round_keys:
                    tracer._round_keys.add(key)
                    counts["star_triangulation.distinct"] += 1
                return tracer._span(name, fn, (body,), {})
        elif name == "stability.fit":
            def wrapper(*args, **kwargs):
                res = tracer._span(name, fn, args, kwargs)
                counts["fit.evals"] += int(res.nfev)
                counts["fit.cap_hits"] += not res.success
                return res
        else:
            def wrapper(*args, **kwargs):
                return tracer._span(name, fn, args, kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, *callers) -> None:
        """Wrap; ``callers`` are modules outside the package that also hold
        bindings of wrapped functions (the workloads)."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "convexlab" or name.startswith("convexlab.")
        }
        mods.update({mod.__name__: mod for mod in callers})
        originals = []
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(mods["convexlab." + mod_name], attr)
            wrapped = self._wrap(span, original)
            originals.append(original)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapped)
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(mods["convexlab." + mod_name], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(span, original))
        missed = _hidden_references(mods, originals)
        if missed:
            self.uninstall()
            raise RuntimeError(f"unwrapped bindings survive in: {', '.join(missed)}")

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore = []


# ---------------------------------------------------------------------------
# per-layer metrics, per round of the workload

CONTAINS = (
    ("vpoly", 2), ("vpoly", 3), ("vpoly", 4), ("vpoly_angular", 2), ("hpoly", 3),
    ("ellipsoid", 2), ("ellipsoid", 3), ("ellipsoid", 4), ("cone", 2),
)

# (name, unit, better)
PER_LAYER = (
    [
        (f"geometry.contains.{kind}.{n}d.{m}", unit, "lower")
        for kind, n in CONTAINS
        for m, unit in (("ns_per_point", "ns"), ("points", "count"))
    ]
    + [
        ("geometry.contains.accept_ratio", "ratio", "higher"),
        ("geometry.polar.s", "s", "lower"),
        ("geometry.polar.calls", "count", "lower"),
        ("geometry.polar.cache_hit_ratio", "ratio", "higher"),
        ("geometry.vertex_enumeration.s", "s", "lower"),
        ("geometry.vertex_enumeration.calls", "count", "lower"),
        ("geometry.star_triangulation.s", "s", "lower"),
        ("geometry.star_triangulation.calls", "count", "lower"),
        ("geometry.star_triangulation.repeat_ratio", "ratio", "lower"),
        ("geometry.vpoly_canonicalize.s", "s", "lower"),
        ("moments.mc_second_moment.s", "s", "lower"),
        ("moments.mc_second_moment.self_s", "s", "lower"),
        ("moments.mc_volume.s", "s", "lower"),
        ("moments.second_moment_matrix.s", "s", "lower"),
        ("moments.second_moment_matrix.calls", "count", "lower"),
        ("moments.volume.s", "s", "lower"),
        ("moments.volume.calls", "count", "lower"),
        ("isotropic.isotropize.s", "s", "lower"),
        ("isotropic.isotropize.calls", "count", "lower"),
        ("yaoyao.sample_measure.s", "s", "lower"),
        ("yaoyao.sample_measure.self_s", "s", "lower"),
        ("yaoyao.yao_yao_equipartition.2d.s", "s", "lower"),
        ("yaoyao.dual_partition.s", "s", "lower"),
        ("harness.santalo_deficit.s", "s", "lower"),
        ("harness.ball_deficit.s", "s", "lower"),
        ("harness.directional_deficit.s", "s", "lower"),
        ("harness.chain_consistency.s", "s", "lower"),
        ("harness.cone_restricted_deficit.s", "s", "lower"),
        ("harness.cone_restricted_deficit.self_s", "s", "lower"),
        ("harness.cone_sum_reconstruction.s", "s", "lower"),
        ("harness.orthant_pair.s", "s", "lower"),
        ("harness.pl_triple_check.s", "s", "lower"),
        ("harness.OrthantRegion.coordinate_moment.s", "s", "lower"),
        ("harness.OrthantRegion.sample.s", "s", "lower"),
        ("stability.kt_family.s", "s", "lower"),
        ("stability.best_fit_ellipsoid.s", "s", "lower"),
        ("stability.best_fit_ellipsoid.self_s", "s", "lower"),
        ("stability.fit.evals", "count", "lower"),
        ("stability.fit.eval_ms", "ms", "lower"),
        ("stability.fit.cap_hits", "count", "lower"),
        ("stability.homothetic_distance.s", "s", "lower"),
    ]
    + [
        (f"cli.{cmd}.{m}", unit, "lower")
        for cmd in ("gen", "compute", "verify", "yaoyao", "stability")
        for m, unit in (("s", "s"), ("calls", "count"))
    ]
    + [
        ("cli.load.s", "s", "lower"),
        ("cli.write.s", "s", "lower"),
        ("setup.import_s", "s", "lower"),
    ]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, import_s: float) -> dict:
    """Every PER_LAYER metric, per round; 0 for a layer the workload never calls."""
    values = {"setup.import_s": import_s}
    for span, total in tracer.total.items():
        values[f"{span}.s"] = total / rounds
        values[f"{span}.self_s"] = tracer.self_time[span] / rounds
        values[f"{span}.calls"] = tracer.calls[span] / rounds
        if span.startswith("geometry.contains."):
            points = tracer.counts.get(span + ".points", 0.0)
            values[f"{span}.points"] = points / rounds
            values[f"{span}.ns_per_point"] = 1e9 * _ratio(tracer.self_time[span], points)
    c = dict(tracer.counts)
    points = sum(v for k, v in c.items() if k.endswith(".points"))
    evals = c.get("fit.evals", 0.0)
    values.update({
        "geometry.contains.accept_ratio": _ratio(c.get("contains.accepted", 0.0), points),
        "geometry.polar.cache_hit_ratio": _ratio(
            c.get("polar.hits", 0.0), tracer.calls.get("geometry.polar", 0)),
        "geometry.star_triangulation.repeat_ratio": _ratio(
            tracer.calls.get("geometry.star_triangulation", 0),
            c.get("star_triangulation.distinct", 0.0)),
        "stability.fit.evals": evals / rounds,
        "stability.fit.eval_ms": 1e3 * _ratio(tracer.total.get("stability.fit", 0.0), evals),
        "stability.fit.cap_hits": c.get("fit.cap_hits", 0.0) / rounds,
    })
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in PER_LAYER}
