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
from .errors import (NoGridPathError, OutsideDomainError, QuadratureError,
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
# A quadrature piece is no longer than _PIECE_C times the radius on which
# 1/delta is analytic, nor than _KINK_C times that where delta's closed form
# changes pieces; a piece over its bound splits into up to 2**_FANOUT parts,
# down to _MIN_WIDTH of its segment (see _grade).
_PIECE_C = 0.5
_KINK_C = 1e-4
_FANOUT = 4
_MIN_WIDTH = 2.0 ** -60
# The relaxation moves a node by at most _RELAX_STEP times its delta per
# iteration.
_RELAX_STEP = 0.1


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
    path_nodes: int = 128
    tolerance: float = 1e-6        # relative improvement stopping threshold

    def __post_init__(self):
        for name in ("grid_resolution", "path_nodes"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")
        if self.relax_iterations <= 0:
            raise ValueError("solver parameters must be positive")
        if not 0 < self.tolerance < 1:
            raise ValueError("bad tolerance")


# ---------------------------------------------------------------------------
# quadrature

def _weight_fn(density: str, D: Domain):
    if density == "quasihyperbolic":
        return lambda z: 1.0 / domains.delta_vec(D, z)
    if density == "hyperbolic":
        return lambda z: domains.density_vec(D, z)
    raise ValueError("density must be 'hyperbolic' or 'quasihyperbolic'")


def _scale(D: Domain, z: np.ndarray) -> np.ndarray:
    """Rows: the radius about z on which 1/delta is analytic, at least
    _KINK_C delta (Kind.radius), and the index of the piece of delta's
    closed form that is least at z, the earlier one on a tie."""
    kind = domains.entry(D)
    pieces = kind.pieces(z, *D.params)
    d, label = pieces[0], 0
    for k, p in enumerate(pieces[1:], 1):
        label = np.where(p < d, k, label)
        np.minimum(d, p, out=d)  # the pieces are fresh arrays
    out = np.empty((2,) + d.shape)
    out[0] = (d if kind.radius is None
              else np.maximum(kind.radius(z, *D.params), _KINK_C * d))
    out[1] = label
    return out


def _grade(D: Domain, p: np.ndarray, c: float):
    """Composite GL4 rule for the segments p[i] -> p[i + 1], graded so that
    the node count follows length / delta.

    Each segment is split until every piece is no longer than c times the
    least analytic radius (_scale) at its ends and midpoint, and than
    _KINK_C times that where the least piece of delta is not the same at all
    three.  delta is 1-Lipschitz, so a piece keeps (1 - c/2) delta from the
    boundary; 1/delta is analytic around it on a region a fixed multiple of
    its length, but for the kinks, and GL4 converges geometrically.  A piece
    over its bound by a factor q splits into 2**ceil(log2 q) equal parts,
    at most 2**_FANOUT, so a deep grading takes few rounds.

    Returns ((t, w, seg, starts), resolved): the nodes t and weights w in the
    segment parameter s in [0, 1], the segment of each node and the first
    node of each segment, in order; and False when a piece still fails its
    bound at _MIN_WIDTH, as one does where a segment meets the boundary.
    """
    n = len(p) - 1
    a, step = p[:-1], np.diff(p)
    length = np.abs(step)
    seg = np.arange(n)
    lo, width = np.zeros(n), np.ones(n)
    at = _scale(D, np.concatenate([p, a + 0.5 * step]))
    at_lo, at_hi, at_mid = at[:, :n], at[:, 1:n + 1], at[:, n + 1:]
    done = []
    resolved = False
    while True:
        bound = c * np.minimum(np.minimum(at_lo[0], at_hi[0]), at_mid[0])
        bound[(at_lo[1] != at_mid[1]) | (at_mid[1] != at_hi[1])] *= _KINK_C
        # over its bound by this factor; inf where delta is not positive
        over = np.divide(length[seg] * width, bound,
                         out=np.full(len(seg), np.inf), where=bound > 0)
        split = over > 1.0
        if not split.any():
            resolved = True
            break
        if width[split].min() <= _MIN_WIDTH:
            break
        done.append((seg[~split], lo[~split], width[~split]))
        parts = 2 ** np.clip(np.ceil(np.log2(over[split])), 1, _FANOUT)
        parts = parts.astype(int)
        first = np.cumsum(parts) - parts
        at_first, at_last = at_lo[:, split], at_hi[:, split]
        seg = np.repeat(seg[split], parts)
        width = np.repeat(width[split] / parts, parts)
        j = np.arange(len(seg)) - np.repeat(first, parts)
        lo = np.repeat(lo[split], parts) + j * width
        inner = j > 0
        # the parts' inner ends, then their midpoints
        on = np.concatenate([seg[inner], seg])
        at = _scale(D, a[on] + step[on] * np.concatenate([lo[inner],
                                                          lo + 0.5 * width]))
        k = int(np.count_nonzero(inner))
        at_lo = np.empty((2, len(seg)))
        at_lo[:, ~inner], at_lo[:, inner] = at_first, at[:, :k]
        at_mid = at[:, k:]
        at_hi = np.empty_like(at_lo)
        at_hi[:, :-1] = at_lo[:, 1:]
        at_hi[:, first + parts - 1] = at_last
    if not done:
        return _whole_segments(n), resolved
    done.append((seg, lo, width))
    seg, lo, width = (np.concatenate(x) for x in zip(*done))
    order = np.lexsort((lo, seg))
    seg, lo, width = seg[order], lo[order], width[order]
    t = (lo[:, None] + width[:, None] * _GL_NODES).ravel()
    w = (width[:, None] * _GL_WEIGHTS).ravel()
    starts = _GL_NODES.size * np.searchsorted(seg, np.arange(n))
    return (t, w, np.repeat(seg, _GL_NODES.size), starts), resolved


@functools.lru_cache(maxsize=8)
def _whole_segments(n: int):
    """_grade's rule when no segment splits: GL4 on each of n segments;
    read-only, as every caller shares it."""
    rule = (np.tile(_GL_NODES, n), np.tile(_GL_WEIGHTS, n),
            np.repeat(np.arange(n), _GL_NODES.size),
            _GL_NODES.size * np.arange(n))
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _segment_costs(weight, a: np.ndarray, b: np.ndarray,
                   grading) -> np.ndarray:
    """Quadrature of `weight` along segments a[..., i] -> b[..., i] on the
    rule of _grade.  Stacked segment lists cost one pass and share the
    grading; each list's costs equal those of its own call bit for bit."""
    t, w, seg, starts = grading
    z = a[..., seg] + (b - a)[..., seg] * t
    return np.abs(b - a) * np.add.reduceat(weight(z) * w, starts, axis=-1)


def path_quadrature(density: str, D: Domain, path: Polyline,
                    tol: float = 1e-10) -> float:
    """Integral of the selected density along the polyline.

    GL4 on the pieces of _grade at c = _PIECE_C / 4, a quarter of the
    relaxation's bound.  The rule at twice that bound estimates the error:
    QuadratureError when the two differ by more than `tol` relative
    (absolute below 1), so an unconverged value is never returned.
    """
    weight = _weight_fn(density, D)
    p = path.as_array()
    if not np.all(domains.contains_vec(D, p)):
        raise OutsideDomainError("path has a node outside the domain")
    values = []
    for c in (0.5 * _PIECE_C, 0.25 * _PIECE_C):
        grading, resolved = _grade(D, p, c)
        if not resolved:
            raise OutsideDomainError("path meets the boundary of the domain")
        values.append(float(np.sum(
            _segment_costs(weight, p[:-1], p[1:], grading))))
    coarse, fine = values
    if abs(fine - coarse) > tol * max(1.0, abs(fine)):
        raise QuadratureError(
            f"quadrature not converged: {fine!r} on pieces of half the "
            f"length of those giving {coarse!r}")
    return fine


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
    """(xmin, xmax, ymin, ymax) of the grid.  A kind with a centre lies in
    the unit disk about it, so its box is the square about the centre, the
    same for every pair.  Otherwise it is the endpoints' bounding box,
    padded; when the segment z1 -> z2 leaves D (its grading does not
    resolve), the geodesic goes round the tip of a slit, and the box also
    holds the disc about the tip through the farther endpoint."""
    kind = domains.entry(D)
    if kind.centre is not None:
        c = kind.centre(*D.params)
        return c.real - 1.0, c.real + 1.0, c.imag - 1.0, c.imag + 1.0
    pad = abs(z1 - z2) + 2.0 * max(
        domains.boundary_distance(D, z1), domains.boundary_distance(D, z2)
    )
    xmin = min(z1.real, z2.real) - pad
    xmax = max(z1.real, z2.real) + pad
    ymin = min(z1.imag, z2.imag) - pad
    ymax = max(z1.imag, z2.imag) + pad
    segment = np.array([z1, z2])
    if kind.tip is not None and not _grade(D, segment, _PIECE_C)[1]:
        tip = kind.tip(*D.params)
        r = max(abs(z1 - tip), abs(z2 - tip))
        xmin, xmax = min(xmin, tip.real - r), max(xmax, tip.real + r)
        ymin, ymax = min(ymin, tip.imag - r), max(ymax, tip.imag + r)
    return xmin, xmax, ymin, ymax


# The grid graph's eight slots a row: the steps (di, dj) to the higher nodes
# (0, 1), (1, -1), (1, 0) and (1, 1), then their reverses, so that slot 7 - s
# holds the reverse of slot s.  _SLOT[di + 1, dj + 1] is the slot of a step.
_SLOT = np.array([[4, 5, 6], [7, -1, 0], [1, 2, 3]])


@functools.lru_cache(maxsize=4)
def _grid_columns(n: int):
    """(indices, indptr) of the n x n grid graph's CSR matrix in _SLOT's
    order; a slot past the grid's edge points at any column.  They depend on
    n only and are read-only, as every graph of size n shares them."""
    offsets = np.array([1, n - 1, n, n + 1, -n - 1, -n, 1 - n, -1],
                       dtype=np.int32)
    idx = np.arange(n * n, dtype=np.int32)
    cols = np.clip(idx[:, None] + offsets, 0, n * n - 1).ravel()
    indptr = np.arange(0, 8 * n * n + 1, 8, dtype=np.int32)
    for arr in (cols, indptr):
        arr.flags.writeable = False
    return cols, indptr


@functools.lru_cache(maxsize=1)
def _grid_graph(D: Domain, box, n: int):
    """(graph, nodes, valid) of the n x n grid on box: node (i, j) is
    nodes[i * n + j]; graph is the CSR matrix of the 8-neighbour edges
    between valid nodes whose midpoint lies in D, weighted by Euclidean
    length / delta at the midpoint.  Each edge is stored in both directions,
    and row k holds the edges to higher nodes, then those to lower ones,
    each by column, with inf for a missing edge: the order in which an
    undirected dijkstra scans the upper-triangular graph and its transpose,
    so a directed dijkstra on it gives the same dist and pred without
    transposing on every call.

    The last graph is kept for the next call with the same D, box and n: a
    bounded domain's box (_grid_box) is the same for every pair, so
    consecutive solves in it build the graph once; one entry (4.7 MB at
    n = 200, 1.4 MB of it _grid_columns).  The arrays are read-only, as the
    solves share them."""
    from scipy.sparse import csr_matrix

    xmin, xmax, ymin, ymax = box
    xs = np.linspace(xmin, xmax, n)
    ys = np.linspace(ymin, ymax, n)
    cell = max(xs[1] - xs[0], ys[1] - ys[0])
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    nodes = gx + 1j * gy
    # Exclude nodes closer than half a cell to the boundary: their 1/delta
    # weights blow up and can tunnel across slits and punctures.
    valid = domains.delta_vec(D, nodes) > 0.5 * cell

    def inverse_delta(mids, wanted):
        # 1/delta at the wanted midpoints inside D, inf (no edge) elsewhere
        d = domains.delta_vec(D, mids)
        return np.divide(1.0, d, out=np.full(mids.shape, np.inf),
                         where=wanted & (d > 0.0))

    # slot s: the grid slices of the edges' lower and higher ends
    every, lo, hi = slice(None), slice(None, -1), slice(1, None)
    ends = [((every, lo), (every, hi)), ((lo, hi), (hi, lo)),
            ((lo, every), (hi, every)), ((lo, lo), (hi, hi))]
    both = [valid[s0] & valid[s1] for s0, s1 in ends]
    # the midpoints of the steps (0, 1) and (1, 0), and the cell centres,
    # where both diagonals of a cell cross: three lattices for four slots
    up, centre, across = (
        inverse_delta(0.5 * (nodes[s0] + nodes[s1]), wanted)
        for (s0, s1), wanted in ((ends[0], both[0]),
                                 (ends[3], both[1] | both[3]),
                                 (ends[2], both[2])))
    inv = [up, np.where(both[1], centre, np.inf), across,
           np.where(both[3], centre, np.inf)]
    table = np.full((n, n, 8), np.inf)
    for slot, (s0, s1) in enumerate(ends):
        w = np.abs(nodes[s1] - nodes[s0]) * inv[slot]
        table[s0 + (slot,)] = table[s1 + (7 - slot,)] = w
    if np.isinf(table).all():
        raise NoGridPathError("grid too coarse: no edges inside the domain")
    cols, indptr = _grid_columns(n)
    graph = csr_matrix((table.ravel(), cols, indptr), shape=(n * n, n * n))
    flat, vflat = nodes.ravel(), valid.ravel()
    for arr in (graph.data, flat, vflat):
        arr.flags.writeable = False
    return graph, flat, vflat


def _line_cost(graph, n: int, s: int, t: int) -> float:
    """Length in the grid graph of the 8-neighbour grid line from node s to
    node t, whose node k is (i0 + round(k di / m), j0 + round(k dj / m)):
    an upper bound on the distance from s to t; inf when the line crosses a
    missing edge."""
    (i0, j0), (i1, j1) = divmod(s, n), divmod(t, n)
    m = max(abs(i1 - i0), abs(j1 - j0))
    k = np.arange(m + 1)
    i = i0 + np.rint(k * (i1 - i0) / max(m, 1)).astype(int)
    j = j0 + np.rint(k * (j1 - j0) / max(m, 1)).astype(int)
    slot = _SLOT[np.diff(i) + 1, np.diff(j) + 1]
    return float(np.sum(graph.data[8 * (i[:-1] * n + j[:-1]) + slot]))


def _grid_dijkstra(D: Domain, z1: complex, z2: complex,
                   cfg: SolverConfig) -> np.ndarray:
    # scipy is imported by the solver stages only, so that a process that
    # never solves does not pay for loading it.
    from scipy.sparse.csgraph import dijkstra

    n = cfg.grid_resolution
    graph, flat, vflat = _grid_graph(D, _grid_box(D, z1, z2), n)

    def snap(z):
        dist2 = np.abs(flat - z)
        dist2[~vflat] = np.inf
        j = int(np.argmin(dist2))
        if not np.isfinite(dist2[j]):
            raise NoGridPathError("no valid grid node near an endpoint")
        return j

    s, t = snap(z1), snap(z2)
    # every node of a shortest path from s to t is no farther from s than
    # the grid line is long, so the search stops there; the slack covers
    # the rounding of the two sums
    limit = _line_cost(graph, n, s, t) * (1.0 + 1e-9)
    dist, pred = dijkstra(graph, directed=True, indices=s,
                          return_predecessors=True, limit=limit)
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


def _precondition(k: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g solved against the tridiagonal weighted Laplacian of the spring
    constants k (one per segment, so len(k) = len(g) + 1), through LAPACK
    gtsv with both components as right-hand sides; g itself when the system
    is singular.  A non-finite system raises ValueError: gtsv would return
    NaN silently."""
    from scipy.linalg.lapack import dgtsv

    diag = k[:-1] + k[1:]
    rhs = np.column_stack([g.real, g.imag])
    if not (np.isfinite(diag).all() and np.isfinite(rhs).all()):
        raise ValueError("relaxation gradient is not finite")
    if len(g) == 1:
        if diag[0] == 0:
            return g
        x = rhs / diag[0]
    else:
        off = -k[1:-1]
        x, info = dgtsv(off, diag, off, rhs)[3:]
        if info > 0:
            return g
    return x[:, 0] + 1j * x[:, 1]


def _relax(D: Domain, p: np.ndarray, cfg: SolverConfig):
    """Monotone local descent on the quadrature functional.

    Gradient by batched finite differences on segment costs, preconditioned
    by the tridiagonal weighted-Laplacian (the Hessian of the dominant
    length-times-weight part), so a unit step is close to a Newton step.
    Each path is costed on its own grading (_grade), which the perturbed
    costs of the gradient reuse.  A trial update is accepted only if it
    stays interior, its grading resolves and it strictly lowers the
    functional, so the recorded history is non-increasing by construction.
    """
    weight = _weight_fn("quasihyperbolic", D)

    def costs(q):
        grading, resolved = _grade(D, q, _PIECE_C)
        return grading, resolved, _segment_costs(weight, q[:-1], q[1:],
                                                 grading)

    grading, _, c_cur = costs(p)
    f_cur = float(np.sum(c_cur))
    if len(p) < 3:
        return p, [f_cur]

    h = 1e-7 * max(1.0, float(np.max(np.abs(np.diff(p)))))
    lr = 1.0
    history = [f_cur]
    for _ in range(cfg.relax_iterations):
        a, b = p[:-1], p[1:]
        # the segment costs with the left or the right end moved by h along
        # x, then along y, in one call on the current grading
        clx, crx, cly, cry = _segment_costs(
            weight, np.stack([a + h, a, a + 1j * h, a]),
            np.stack([b, b + h, b, b + 1j * h]), grading)
        gx = (crx[:-1] - c_cur[:-1] + clx[1:] - c_cur[1:]) / h
        gy = (cry[:-1] - c_cur[:-1] + cly[1:] - c_cur[1:]) / h
        g = gx + 1j * gy
        if not np.any(np.abs(g) > 0):
            break
        # spring constants: mean weight on each segment over its length
        g = _precondition(c_cur / np.abs(b - a) ** 2, g)
        cap = _RELAX_STEP * domains.delta_vec(D, p[1:-1])
        accepted = False
        while lr > 1e-14:
            disp = -g * lr
            mag = np.abs(disp)
            over = mag > cap
            if np.any(over):
                disp[over] *= cap[over] / mag[over]
            trial = p.copy()
            trial[1:-1] = p[1:-1] + disp
            if np.all(domains.delta_vec(D, trial[1:-1]) > 1e-12):
                grading_new, resolved, c_new = costs(trial)
                f_new = float(np.sum(c_new))
                if resolved and f_new < f_cur:
                    p, grading, c_cur, f_cur = trial, grading_new, c_new, f_new
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
    value = path_quadrature("quasihyperbolic", D, poly)
    return value, poly, history


def quasihyperbolic_distance(D: Domain, z1: complex, z2: complex,
                             cfg: SolverConfig | None = None):
    """Quasihyperbolic distance and the relaxed geodesic polyline.

    Stage 1: Dijkstra on an 8-connected grid restricted to D (edge weight =
    Euclidean length / delta at the midpoint), searched no farther than the
    grid line between the endpoints costs.  Stage 2: monotone local
    relaxation of the node positions.  Returns (distance, Polyline); the
    geodesic is None for coincident endpoints.
    """
    value, poly, _ = quasihyperbolic_distance_detailed(D, z1, z2, cfg)
    return value, poly
