"""A second start for the quasihyperbolic solver, as a test reference: the
shortest path on an 8-connected grid restricted to D (edge weight =
Euclidean length / delta at the midpoint), found by scipy's Dijkstra.  It
picks the homotopy class itself, independently of the uniformizer psi, so
the relaxation from it checks the library's start from the hyperbolic
geodesic.  Needs scipy (the `test` extra).
"""

import functools

import numpy as np

from conformal_metrics import Polyline, SolverConfig, domains, metrics

# the finite end of a slit running to infinity, which a path between the
# slit's sides must go round; a kind with a centre has its square box
TIPS = {"koebe_slit_plane": -0.25 + 0j}


def grid_box(D, z1: complex, z2: complex):
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
    tip = TIPS.get(D.kind)
    if tip is not None and not metrics._grade(D, segment,
                                              metrics._PIECE_C)[1]:
        r = max(abs(z1 - tip), abs(z2 - tip))
        xmin, xmax = min(xmin, tip.real - r), max(xmax, tip.real + r)
        ymin, ymax = min(ymin, tip.imag - r), max(ymax, tip.imag + r)
    return xmin, xmax, ymin, ymax


# The grid graph's eight slots a row: the steps (di, dj) to the higher nodes
# (0, 1), (1, -1), (1, 0) and (1, 1), then their reverses, so that slot 7 - s
# holds the reverse of slot s.  SLOT[di + 1, dj + 1] is the slot of a step.
SLOT = np.array([[4, 5, 6], [7, -1, 0], [1, 2, 3]])


@functools.lru_cache(maxsize=4)
def grid_columns(n: int):
    """(indices, indptr) of the n x n grid graph's CSR matrix in SLOT's
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
def grid_graph(D, box, n: int):
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
    bounded domain's box (grid_box) is the same for every pair, so
    consecutive solves in it build the graph once.  The arrays are
    read-only, as the solves share them."""
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
        raise ValueError("grid too coarse: no edges inside the domain")
    cols, indptr = grid_columns(n)
    graph = csr_matrix((table.ravel(), cols, indptr), shape=(n * n, n * n))
    flat, vflat = nodes.ravel(), valid.ravel()
    for arr in (graph.data, flat, vflat):
        arr.flags.writeable = False
    return graph, flat, vflat


def line_cost(graph, n: int, s: int, t: int) -> float:
    """Length in the grid graph of the 8-neighbour grid line from node s to
    node t, whose node k is (i0 + round(k di / m), j0 + round(k dj / m)):
    an upper bound on the distance from s to t; inf when the line crosses a
    missing edge."""
    (i0, j0), (i1, j1) = divmod(s, n), divmod(t, n)
    m = max(abs(i1 - i0), abs(j1 - j0))
    k = np.arange(m + 1)
    i = i0 + np.rint(k * (i1 - i0) / max(m, 1)).astype(int)
    j = j0 + np.rint(k * (j1 - j0) / max(m, 1)).astype(int)
    slot = SLOT[np.diff(i) + 1, np.diff(j) + 1]
    return float(np.sum(graph.data[8 * (i[:-1] * n + j[:-1]) + slot]))


def grid_dijkstra(D, z1: complex, z2: complex, n: int = 200) -> np.ndarray:
    """The shortest path from z1 to z2 on the n x n grid graph, its ends
    joined to z1 and z2."""
    from scipy.sparse.csgraph import dijkstra

    graph, flat, vflat = grid_graph(D, grid_box(D, z1, z2), n)

    def snap(z):
        dist2 = np.abs(flat - z)
        dist2[~vflat] = np.inf
        j = int(np.argmin(dist2))
        if not np.isfinite(dist2[j]):
            raise ValueError("no valid grid node near an endpoint")
        return j

    s, t = snap(z1), snap(z2)
    # every node of a shortest path from s to t is no farther from s than
    # the grid line is long, so the search stops there; the slack covers
    # the rounding of the two sums
    limit = line_cost(graph, n, s, t) * (1.0 + 1e-9)
    dist, pred = dijkstra(graph, directed=True, indices=s,
                          return_predecessors=True, limit=limit)
    if not np.isfinite(dist[t]):
        raise ValueError("grid disconnects the endpoints")
    path = [t]
    while path[-1] != s:
        path.append(int(pred[path[-1]]))
    pts = flat[np.array(path[::-1])]
    full = np.concatenate([[z1], pts, [z2]])
    keep = np.concatenate([[True], np.abs(np.diff(full)) > 1e-15])
    return full[keep]


def grid_solve(D, z1: complex, z2: complex, n: int = 200,
               cfg: SolverConfig | None = None):
    """(k, path, history) of the library's relaxation from the grid path,
    resampled to cfg.path_nodes points, and its final quadrature."""
    cfg = cfg or SolverConfig()
    start = metrics._resample(grid_dijkstra(D, complex(z1), complex(z2), n),
                              cfg.path_nodes)
    p, history, pieces = metrics._relax(D, start, cfg)
    poly = Polyline(p)
    return (metrics.path_quadrature("quasihyperbolic", D, poly,
                                    pieces=pieces), poly, history)
