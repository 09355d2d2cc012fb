"""Distances: closed-form hyperbolic distance in the disk, Gauss-Legendre
line quadrature of densities, and a two-stage (grid Dijkstra + local
relaxation) quasihyperbolic geodesic solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra as _sparse_dijkstra

from . import domains
from .domains import Domain
from .errors import NoGridPathError, OutsideDomainError

__all__ = [
    "Polyline",
    "SolverConfig",
    "path_quadrature",
    "hyperbolic_distance_disk",
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

    def length(self) -> float:
        p = self.as_array()
        return float(np.sum(np.abs(np.diff(p))))


@dataclass(frozen=True)
class SolverConfig:
    grid_resolution: int = 200
    relax_iterations: int = 500
    relax_step: float = 0.1        # fraction of local delta
    path_nodes: int = 128
    quad_panels_per_segment: int = 16
    tolerance: float = 1e-6        # relative improvement stopping threshold

    def __post_init__(self):
        if min(self.grid_resolution, self.relax_iterations,
               self.path_nodes, self.quad_panels_per_segment) <= 0:
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


def _panel_nodes(panels: int):
    k = np.arange(panels)[:, None]
    t = ((k + _GL_NODES[None, :]) / panels).ravel()
    w = np.tile(_GL_WEIGHTS / panels, panels)
    return t, w


def _segment_costs(weight, a: np.ndarray, b: np.ndarray, panels: int,
                   D: Domain | None = None) -> np.ndarray:
    """Composite GL4 quadrature of `weight` along segments a[i] -> b[i]."""
    t, w = _panel_nodes(panels)
    z = a[:, None] + (b - a)[:, None] * t[None, :]
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

def hyperbolic_distance_disk(z1: complex, z2: complex) -> float:
    """artanh(|z1-z2| / |1 - conj(z1) z2|): the curvature -4 closed form."""
    z1, z2 = complex(z1), complex(z2)
    if abs(z1) >= 1 or abs(z2) >= 1:
        raise OutsideDomainError("hyperbolic_distance_disk needs |z| < 1")
    return math.atanh(abs(z1 - z2) / abs(1 - z1.conjugate() * z2))


# ---------------------------------------------------------------------------
# quasihyperbolic geodesic solver

def _grid_box(D: Domain, z1: complex, z2: complex):
    box = domains.bounding_box(D)
    if box is not None:
        return box
    pad = abs(z1 - z2) + 2.0 * max(
        domains.boundary_distance(D, z1), domains.boundary_distance(D, z2)
    )
    xmin = min(z1.real, z2.real) - pad
    xmax = max(z1.real, z2.real) + pad
    ymin = min(z1.imag, z2.imag) - pad
    ymax = max(z1.imag, z2.imag) + pad
    return xmin, xmax, ymin, ymax


def _grid_dijkstra(D: Domain, z1: complex, z2: complex,
                   cfg: SolverConfig) -> np.ndarray:
    n = cfg.grid_resolution
    xmin, xmax, ymin, ymax = _grid_box(D, z1, z2)
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
    if not rows or not sum(len(r) for r in rows):
        raise NoGridPathError("grid too coarse: no edges inside the domain")
    graph = coo_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * n, n * n),
    )

    def snap(z):
        dist2 = np.abs(flat - z)
        dist2[~vflat] = np.inf
        j = int(np.argmin(dist2))
        if not np.isfinite(dist2[j]):
            raise NoGridPathError("no valid grid node near an endpoint")
        return j

    s, t = snap(z1), snap(z2)
    dist, pred = _sparse_dijkstra(
        graph, directed=False, indices=s, return_predecessors=True
    )
    if not np.isfinite(dist[t]):
        raise NoGridPathError(
            "grid disconnects the endpoints; raise grid_resolution"
        )
    path = [t]
    while path[-1] != s:
        path.append(int(pred[path[-1]]))
    pts = flat[np.array(path[::-1])]
    full = np.concatenate([[z1], pts, [z2]])
    keep = np.concatenate([[True], np.abs(np.diff(full)) > 1e-15])
    return full[keep]


def _resample(p: np.ndarray, m: int) -> np.ndarray:
    seg = np.abs(np.diff(p))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] == 0:
        return p
    targets = np.linspace(0.0, s[-1], m)
    out = np.empty(m, dtype=complex)
    j = 0
    for i, tv in enumerate(targets):
        while j < len(seg) - 1 and s[j + 1] < tv:
            j += 1
        frac = 0.0 if seg[j] == 0 else (tv - s[j]) / seg[j]
        out[i] = p[j] + frac * (p[j + 1] - p[j])
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
    weight = _weight_fn("quasihyperbolic", D)
    panels = cfg.quad_panels_per_segment

    def total(q):
        return float(np.sum(_segment_costs(weight, q[:-1], q[1:], panels)))

    if len(p) < 3:
        f = total(p)
        return p, [f]

    h = 1e-7 * max(1.0, float(np.max(np.abs(np.diff(p)))))
    lr = 1.0
    f_cur = total(p)
    history = [f_cur]
    for _ in range(cfg.relax_iterations):
        a, b = p[:-1], p[1:]
        c0 = _segment_costs(weight, a, b, panels)
        clx = _segment_costs(weight, a + h, b, panels)
        crx = _segment_costs(weight, a, b + h, panels)
        cly = _segment_costs(weight, a + 1j * h, b, panels)
        cry = _segment_costs(weight, a, b + 1j * h, panels)
        gx = (crx[:-1] - c0[:-1] + clx[1:] - c0[1:]) / h
        gy = (cry[:-1] - c0[:-1] + cly[1:] - c0[1:]) / h
        g = gx + 1j * gy
        gnorm = np.abs(g)
        if not np.any(gnorm > 0):
            break
        # Spring constants: mean weight on each segment over its length.
        seg = np.abs(b - a)
        k = c0 / seg ** 2
        n_int = len(p) - 2
        band = np.zeros((3, n_int))
        band[1] = k[:-1] + k[1:]
        band[0, 1:] = -k[1:-1]
        band[2, :-1] = -k[1:-1]
        try:
            g = (solve_banded((1, 1), band, g.real)
                 + 1j * solve_banded((1, 1), band, g.imag))
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
                f_new = total(trial)
                if f_new < f_cur:
                    p, f_cur = trial, f_new
                    accepted = True
                    lr = min(lr * 1.5, 1.0)
                    break
            lr *= 0.5
        history.append(f_cur)
        if not accepted:
            break
        if len(history) >= 2 and history[-2] - history[-1] < cfg.tolerance * max(
            f_cur, 1e-300
        ):
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
