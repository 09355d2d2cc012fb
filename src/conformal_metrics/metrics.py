"""Distances: closed-form hyperbolic distance through each domain's
uniformizer, Gauss-Legendre line quadrature of densities, and a two-stage
(grid Dijkstra + local relaxation) quasihyperbolic geodesic solver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import domains
from .domains import Domain
from .errors import (NoGridPathError, OutsideDomainError,
                     SingularPointError, at_point)

__all__ = [
    "Polyline",
    "SolverConfig",
    "path_quadrature",
    "hyperbolic_distance",
    "quasihyperbolic_distance",
    "quasihyperbolic_distance_detailed",
]

# 4-point Gauss-Legendre nodes/weights on [0, 1].
_X = math.sqrt(3.0 / 7.0 - 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
_Y = math.sqrt(3.0 / 7.0 + 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
_GL_NODES = 0.5 * (1.0 + np.array([-_Y, -_X, _X, _Y]))
_GL_WEIGHTS = 0.5 * np.array(
    [(18.0 - math.sqrt(30.0)) / 36.0, (18.0 + math.sqrt(30.0)) / 36.0,
     (18.0 + math.sqrt(30.0)) / 36.0, (18.0 - math.sqrt(30.0)) / 36.0]
)


@dataclass(frozen=True)
class Polyline:
    """Ordered interior points discretizing a rectifiable path."""

    points: tuple

    def __init__(self, points):
        pts = tuple(complex(p) for p in points)
        if len(pts) < 2:
            raise ValueError("a polyline needs at least 2 points")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError("consecutive polyline points must be distinct")
        object.__setattr__(self, "points", pts)

    def as_array(self) -> np.ndarray:
        return np.array(self.points, dtype=complex)


@dataclass(frozen=True)
class SolverConfig:
    grid_resolution: int = 200
    relax_iterations: int = 500
    relax_step: float = 0.1        # fraction of local delta
    path_nodes: int = 128
    quad_panels_per_segment: int = 16
    tolerance: float = 1e-6        # relative improvement stopping threshold

    def __post_init__(self):
        for name in ("grid_resolution", "path_nodes"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")
        if min(self.relax_iterations, self.quad_panels_per_segment) <= 0:
            raise ValueError("solver parameters must be positive")
        if not (0 < self.relax_step and 0 < self.tolerance < 1):
            raise ValueError("bad relax_step or tolerance")


# ---------------------------------------------------------------------------
# quadrature

def _weight_fn(density: str, D: Domain):
    if density == "quasihyperbolic":
        return lambda z: 1.0 / domains.delta_vec(D, z)
    if density == "hyperbolic":
        return lambda z: domains.density_vec(D, z)
    raise ValueError("density must be 'hyperbolic' or 'quasihyperbolic'")


@functools.lru_cache(maxsize=8)
def _panel_nodes(panels: int):
    """Composite GL4 nodes and weights on [0, 1]; read-only, as every caller
    shares them."""
    k = np.arange(panels)[:, None]
    t = ((k + _GL_NODES[None, :]) / panels).ravel()
    w = np.tile(_GL_WEIGHTS / panels, panels)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _segment_costs(weight, a: np.ndarray, b: np.ndarray, panels: int,
                   D: Domain | None = None) -> np.ndarray:
    """Composite GL4 quadrature of `weight` along segments a[..., i] ->
    b[..., i].  Stacked segment lists cost one pass, and each list's costs
    equal those of its own call bit for bit: the stacked `@ w` runs one
    gemv per list (a flat (rows, nodes) product would round differently)."""
    t, w = _panel_nodes(panels)
    z = a[..., None] + (b - a)[..., None] * t
    if D is not None and not np.all(domains.contains_vec(D, z)):
        raise OutsideDomainError("path exits domain at a quadrature node")
    return np.abs(b - a) * (weight(z) @ w)


def path_quadrature(density: str, D: Domain, path: Polyline,
                    panels: int = 16, tol: float = 1e-10) -> float:
    """Integral of the selected density along the polyline.

    Panel count doubles (up to 3 times) while successive refinements still
    disagree beyond `tol` relative.
    """
    weight = _weight_fn(density, D)
    p = path.as_array()
    a, b = p[:-1], p[1:]
    val = float(np.sum(_segment_costs(weight, a, b, panels, D)))
    for _ in range(3):
        panels *= 2
        finer = float(np.sum(_segment_costs(weight, a, b, panels)))
        if abs(finer - val) <= tol * max(1.0, abs(finer)):
            return finer
        val = finer
    return val


# ---------------------------------------------------------------------------
# hyperbolic distances

def hyperbolic_distance(D: Domain, z1: complex, z2: complex) -> float:
    """h_D(z1, z2) = asinh(|w1 - w2| / (2 sqrt(Im w1 Im w2))) with w = psi(z),
    psi the uniformizer of D onto the upper half-plane: the curvature -4
    closed form, on every simply connected domain."""
    if not domains.simply_connected(D):
        raise ValueError(f"hyperbolic distance needs a simply connected "
                         f"domain, got {D}")
    w1, w2 = at_point(domains.checked_psi, D, [z1, z2])[0].tolist()
    h = math.asinh(abs(w1 - w2)
                   / (2.0 * math.sqrt(w1.imag) * math.sqrt(w2.imag)))
    if not math.isfinite(h):  # psi, or the ratio, beyond the float range
        raise SingularPointError("hyperbolic distance is not a finite "
                                 "float here")
    return h


# ---------------------------------------------------------------------------
# quasihyperbolic geodesic solver

def _grid_box(D: Domain, z1: complex, z2: complex):
    """The grid's box on an unbounded domain: the endpoints' bounding box,
    padded."""
    pad = abs(z1 - z2) + 2.0 * max(
        domains.boundary_distance(D, z1), domains.boundary_distance(D, z2)
    )
    xmin = min(z1.real, z2.real) - pad
    xmax = max(z1.real, z2.real) + pad
    ymin = min(z1.imag, z2.imag) - pad
    ymax = max(z1.imag, z2.imag) + pad
    return xmin, xmax, ymin, ymax


def _grid_graph(D: Domain, box, n: int):
    """(graph, nodes, valid) of the n x n grid on box: node (i, j) is
    nodes[i * n + j]; graph is the CSR matrix of the 8-neighbour edges
    between valid nodes whose midpoint lies in D, weighted by Euclidean
    length / delta at the midpoint.  The arrays are read-only, as the graph
    of a bounded domain is shared by its solves."""
    from scipy.sparse import coo_matrix

    xmin, xmax, ymin, ymax = box
    xs = np.linspace(xmin, xmax, n)
    ys = np.linspace(ymin, ymax, n)
    cell = max(xs[1] - xs[0], ys[1] - ys[0])
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    nodes = gx + 1j * gy
    valid = domains.contains_vec(D, nodes)
    # Exclude nodes closer than half a cell to the boundary: their 1/delta
    # weights blow up and can tunnel across slits and punctures.
    d = np.where(valid, 1.0, np.nan)
    d[valid] = domains.delta_vec(D, nodes[valid])
    valid &= d > 0.5 * cell

    flat = nodes.ravel()
    vflat = valid.ravel()
    idx = np.arange(n * n)

    rows, cols, weights = [], [], []
    weightf = _weight_fn("quasihyperbolic", D)
    for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1)):
        src = idx.reshape(n, n)
        i0 = src[max(0, -di): n - max(0, di), max(0, -dj): n - max(0, dj)].ravel()
        i1 = i0 + di * n + dj
        ok = vflat[i0] & vflat[i1]
        i0, i1 = i0[ok], i1[ok]
        mids = 0.5 * (flat[i0] + flat[i1])
        inside = domains.contains_vec(D, mids)
        i0, i1, mids = i0[inside], i1[inside], mids[inside]
        w = np.abs(flat[i1] - flat[i0]) * weightf(mids)
        rows.append(i0)
        cols.append(i1)
        weights.append(w)
    if not sum(len(r) for r in rows):
        raise NoGridPathError("grid too coarse: no edges inside the domain")
    # the CSR form that dijkstra would otherwise build from the COO on
    # every call
    graph = coo_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * n, n * n),
    ).tocsr()
    for arr in (graph.data, graph.indices, graph.indptr, flat, vflat):
        arr.flags.writeable = False
    return graph, flat, vflat


@functools.lru_cache(maxsize=1)
def _bounded_grid_graph(D: Domain, n: int):
    """_grid_graph on D's bounding box.  The box, and so the graph, depends
    on D and n only, so consecutive solves in one bounded domain build it
    once; one entry (about 2.3 MB at n = 200)."""
    return _grid_graph(D, domains.bounding_box(D), n)


def _grid_dijkstra(D: Domain, z1: complex, z2: complex,
                   cfg: SolverConfig) -> np.ndarray:
    # scipy is imported by the solver stages only, so that a process that
    # never solves does not pay for loading it.
    from scipy.sparse.csgraph import dijkstra

    n = cfg.grid_resolution
    # an unbounded domain's box follows the endpoints: nothing to reuse
    if domains.bounding_box(D) is None:
        graph, flat, vflat = _grid_graph(D, _grid_box(D, z1, z2), n)
    else:
        graph, flat, vflat = _bounded_grid_graph(D, n)

    def snap(z):
        dist2 = np.abs(flat - z)
        dist2[~vflat] = np.inf
        j = int(np.argmin(dist2))
        if not np.isfinite(dist2[j]):
            raise NoGridPathError("no valid grid node near an endpoint")
        return j

    s, t = snap(z1), snap(z2)
    dist, pred = dijkstra(
        graph, directed=False, indices=s, return_predecessors=True
    )
    if not np.isfinite(dist[t]):
        raise NoGridPathError("grid disconnects the endpoints")
    path = [t]
    while path[-1] != s:
        path.append(int(pred[path[-1]]))
    pts = flat[np.array(path[::-1])]
    full = np.concatenate([[z1], pts, [z2]])
    keep = np.concatenate([[True], np.abs(np.diff(full)) > 1e-15])
    return full[keep]


def _resample(p: np.ndarray, m: int) -> np.ndarray:
    """m points at equal arc length along the polyline p; the node i lies on
    the first segment whose end is not short of its target."""
    seg = np.abs(np.diff(p))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] == 0:
        return p
    targets = np.linspace(0.0, s[-1], m)
    j = np.minimum(np.searchsorted(s[1:], targets), len(seg) - 1)
    frac = np.divide(targets - s[j], seg[j], out=np.zeros(m),
                     where=seg[j] != 0)
    out = p[j] + frac * (p[j + 1] - p[j])
    out[0], out[-1] = p[0], p[-1]
    keep = np.concatenate([[True], np.abs(np.diff(out)) > 1e-15])
    return out[keep]


def _relax(D: Domain, p: np.ndarray, cfg: SolverConfig):
    """Monotone local descent on the quadrature functional.

    Gradient by batched finite differences on segment costs, preconditioned
    by the tridiagonal weighted-Laplacian (the Hessian of the dominant
    length-times-weight part), so a unit step is close to a Newton step.  A
    trial update is accepted only if it stays interior and strictly lowers
    the functional, so the recorded history is non-increasing by
    construction.
    """
    from scipy.linalg import solve_banded

    weight = _weight_fn("quasihyperbolic", D)
    panels = cfg.quad_panels_per_segment

    def costs(q):
        return _segment_costs(weight, q[:-1], q[1:], panels)

    c_cur = costs(p)
    f_cur = float(np.sum(c_cur))
    if len(p) < 3:
        return p, [f_cur]

    h = 1e-7 * max(1.0, float(np.max(np.abs(np.diff(p)))))
    lr = 1.0
    history = [f_cur]
    for _ in range(cfg.relax_iterations):
        a, b = p[:-1], p[1:]
        # the segment costs with the left or the right end moved by h along
        # x, then along y, in one call
        clx, crx, cly, cry = _segment_costs(
            weight, np.stack([a + h, a, a + 1j * h, a]),
            np.stack([b, b + h, b, b + 1j * h]), panels)
        gx = (crx[:-1] - c_cur[:-1] + clx[1:] - c_cur[1:]) / h
        gy = (cry[:-1] - c_cur[:-1] + cly[1:] - c_cur[1:]) / h
        g = gx + 1j * gy
        gnorm = np.abs(g)
        if not np.any(gnorm > 0):
            break
        # Spring constants: mean weight on each segment over its length.
        seg = np.abs(b - a)
        k = c_cur / seg ** 2
        n_int = len(p) - 2
        band = np.zeros((3, n_int))
        band[1] = k[:-1] + k[1:]
        band[0, 1:] = -k[1:-1]
        band[2, :-1] = -k[1:-1]
        try:
            # both right-hand sides in one solve, each column as if alone
            x = solve_banded((1, 1), band, np.column_stack([g.real, g.imag]))
            g = x[:, 0] + 1j * x[:, 1]
        except np.linalg.LinAlgError:
            pass  # fall back to the raw gradient for this iteration
        cap = cfg.relax_step * domains.delta_vec(D, p[1:-1])
        accepted = False
        while lr > 1e-14:
            disp = -g * lr
            mag = np.abs(disp)
            over = mag > cap
            if np.any(over):
                disp[over] *= cap[over] / mag[over]
            trial = p.copy()
            trial[1:-1] = p[1:-1] + disp
            if np.all(domains.contains_vec(D, trial[1:-1])) and np.all(
                domains.delta_vec(D, trial[1:-1]) > 1e-12
            ):
                c_new = costs(trial)
                f_new = float(np.sum(c_new))
                if f_new < f_cur:
                    p, c_cur, f_cur = trial, c_new, f_new
                    accepted = True
                    lr = min(lr * 1.5, 1.0)
                    break
            lr *= 0.5
        history.append(f_cur)
        if not accepted:
            break
        if history[-2] - history[-1] < cfg.tolerance * max(f_cur, 1e-300):
            break
    return p, history


def quasihyperbolic_distance_detailed(D: Domain, z1: complex, z2: complex,
                                      cfg: SolverConfig | None = None):
    """As quasihyperbolic_distance, additionally returning the per-iteration
    relaxation objective history (non-increasing)."""
    cfg = cfg or SolverConfig()
    z1, z2 = complex(z1), complex(z2)
    for z in (z1, z2):
        if not domains.contains(D, z):
            raise OutsideDomainError(f"{z} is not interior to {D}")
    if z1 == z2:
        return 0.0, None, [0.0]
    init = _grid_dijkstra(D, z1, z2, cfg)
    init = _resample(init, cfg.path_nodes)
    relaxed, history = _relax(D, init, cfg)
    poly = Polyline(relaxed)
    value = path_quadrature("quasihyperbolic", D, poly,
                            panels=cfg.quad_panels_per_segment)
    return value, poly, history


def quasihyperbolic_distance(D: Domain, z1: complex, z2: complex,
                             cfg: SolverConfig | None = None):
    """Quasihyperbolic distance and the relaxed geodesic polyline.

    Stage 1: Dijkstra on an 8-connected grid restricted to D (edge weight =
    Euclidean length / delta at the midpoint).  Stage 2: monotone local
    relaxation of the node positions.  Returns (distance, Polyline); the
    geodesic is None for coincident endpoints.
    """
    value, poly, _ = quasihyperbolic_distance_detailed(D, z1, z2, cfg)
    return value, poly
