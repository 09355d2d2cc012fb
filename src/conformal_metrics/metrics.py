"""Distances: closed-form hyperbolic distance through each domain's
uniformizer, graded Gauss-Legendre and Gauss-Kronrod line quadrature of
densities, and a quasihyperbolic geodesic solver that relaxes the
hyperbolic geodesic.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import domains
from .domains import Domain
from .errors import (OutsideDomainError, QuadratureError, SingularPointError,
                     at_point)

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
# The 9-point Kronrod extension of GL4 (Kronrod 1965; QUADPACK, Piessens et
# al. 1983) on [0, 1]: GL4's nodes, bit for bit, and five more, in order;
# exact through degree 13.  _K9_LESS_GL4 holds K9's weights less GL4's.
_K9_NODES = np.empty(9)
_K9_NODES[1::2] = _GL_NODES
_K9_NODES[::2] = 0.5 * (1.0 + np.array(
    [-0.97656025073757311153, -0.6402862174963099824, 0.0,
     0.6402862174963099824, 0.97656025073757311153]))
_K9_WEIGHTS = 0.5 * np.array(
    [0.062977373665473014765, 0.1700536053357227268, 0.26679834045228444803,
     0.32694918960145162956, 0.34644298189013636168, 0.32694918960145162956,
     0.26679834045228444803, 0.1700536053357227268, 0.062977373665473014765])
_K9_LESS_GL4 = _K9_WEIGHTS.copy()
_K9_LESS_GL4[1::2] -= _GL_WEIGHTS
# path_quadrature certifies no tolerance below this rounding floor
# (QUADPACK's 50 eps)
_TOL_FLOOR = 50.0 * np.finfo(float).eps
# A quadrature piece is no longer than _PIECE_C times the radius on which
# 1/delta is analytic, nor than _KINK_C times that where delta's closed form
# changes pieces; a piece over its bound splits into up to 2**_FANOUT parts,
# down to _MIN_WIDTH of its segment, into at most _MAX_PIECES pieces in all
# (see _grade), and path_quadrature halves pieces within the same limits.
_PIECE_C = 0.5
_KINK_C = 1e-4
_FANOUT = 4
_MIN_WIDTH = 2.0 ** -60
_MAX_PIECES = 2 ** 18
# a piece over its bound by a factor of at most _SPLITS[i] splits into
# 2**(i + 1) parts, one over it by more into 2**_FANOUT
_SPLITS = 2.0 ** np.arange(1, _FANOUT)
# The relaxation moves a node by at most _RELAX_STEP times its delta per
# iteration; its quasi-Newton update keeps the last _MEMORY pairs.
_RELAX_STEP = 0.25
_MEMORY = 5


@dataclass(frozen=True)
class Polyline:
    """Ordered interior points discretizing a rectifiable path."""

    points: tuple

    def __init__(self, points):
        if isinstance(points, np.ndarray):
            # Python complexes, not one numpy scalar a point
            pts = tuple(complex(p) for p in points.tolist())
            repeated = (points[1:] == points[:-1]).any()
        else:
            pts = tuple(complex(p) for p in points)
            repeated = any(a == b for a, b in zip(pts, pts[1:]))
        if len(pts) < 2:
            raise ValueError("a polyline needs at least 2 points")
        if repeated:
            raise ValueError("consecutive polyline points must be distinct")
        object.__setattr__(self, "points", pts)

    def as_array(self) -> np.ndarray:
        return np.array(self.points, dtype=complex)


@dataclass(frozen=True)
class SolverConfig:
    relax_iterations: int = 500
    path_nodes: int = 128
    # the relaxation stops where no step's first-order gain reaches this
    # fraction of the functional
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.path_nodes < 2:
            raise ValueError("path_nodes must be at least 2")
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


def _least_piece(D: Domain, z: np.ndarray):
    """delta at z, the least of its closed form's pieces (Kind.pieces), and
    the index of that piece, the earlier one on a tie."""
    pieces = domains.entry(D).pieces(z, *D.params)
    d, label = pieces[0], 0
    for k, p in enumerate(pieces[1:], 1):
        label = np.where(p < d, k, label)
        np.minimum(d, p, out=d)  # the pieces are fresh arrays
    return d, label


def _scale(D: Domain, z: np.ndarray):
    """The radius about each point of z on which 1/delta is analytic, at
    least _KINK_C delta (Kind.radius), and the index of the piece of delta's
    closed form that is least there (_least_piece): an int array, or the
    int 0 where delta has one piece."""
    kind = domains.entry(D)
    d, label = _least_piece(D, z)
    if kind.radius is not None:
        d = np.maximum(kind.radius(z, *D.params), _KINK_C * d)
    return d, label


def _ends(at_lo, at_hi, at_new, parent, inner):
    """A quantity at the low ends, high ends and midpoints of parts cut
    from pieces.  at_lo and at_hi hold it at the pieces' ends, and parent is
    the piece of each part; inner lists the parts that start inside their
    piece, and at_new holds the quantity at their starts, then at every
    part's midpoint.  A part that starts or ends its piece takes the piece's
    value there."""
    k = len(inner)
    at_lo, at_hi = at_lo[parent], at_hi[parent]
    at_lo[inner] = at_hi[inner - 1] = at_new[:k]
    return at_lo, at_hi, at_new[k:]


def _grade(D: Domain, p: np.ndarray, c: float, pieces=None):
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

    The split starts from the whole segments, or from `pieces`, pieces that
    tile p's segments in order as _grade returns them, so that a grading of
    a path whose nodes moved a little (the relaxation's re-spacing), or at
    a smaller c, refines an earlier one: _scale is then evaluated once on
    all their ends and midpoints, and the result is never coarser than
    `pieces`.

    Returns (rule, resolved, pieces).  rule = (t, w, seg, starts): the
    nodes t and weights w in the segment parameter s in [0, 1], the segment
    of each node and the first node of each segment, in order.  resolved is
    False when a piece still fails its bound at _MIN_WIDTH, as one does
    where a segment meets the boundary, or when splitting would make more
    than _MAX_PIECES pieces, as a segment that grazes the boundary asks
    for.  pieces = (seg, lo, width): each piece's segment, and its start
    and width in s, in order; a piece that starts its segment has lo = 0.
    """
    n = len(p) - 1
    a = p[:-1]
    step = p[1:] - a
    length = np.abs(step)
    if pieces is None:
        # _scale at the nodes, then at the segments' midpoints
        seg, lo, width = _whole_segments(n)[1]
        r, label = _scale(D, np.concatenate([p, a + 0.5 * step]))
    else:
        # _scale at the nodes, then at the pieces' inner ends and midpoints
        seg, lo, width = pieces
        inner = lo.nonzero()[0]
        on = np.concatenate([seg[inner], seg])
        r, label = _scale(D, np.concatenate([p, a[on] + step[on] * (
            np.concatenate([lo[inner], lo + 0.5 * width]))]))
    r_lo, r_hi, r_mid = r[:n], r[1:n + 1], r[n + 1:]
    labelled = np.ndim(label) > 0
    if labelled:
        l_lo, l_hi, l_mid = label[:n], label[1:n + 1], label[n + 1:]
    if pieces is not None:
        # the pieces are parts cut from the whole segments
        r_lo, r_hi, r_mid = _ends(r_lo, r_hi, r_mid, seg, inner)
        if labelled:
            l_lo, l_hi, l_mid = _ends(l_lo, l_hi, l_mid, seg, inner)
    done = []
    finished = 0  # pieces in done
    resolved = False
    while True:
        bound = np.minimum(r_lo, r_hi)
        np.minimum(bound, r_mid, out=bound)
        bound *= c
        if labelled:
            kink = l_lo != l_mid
            kink |= l_mid != l_hi
            np.multiply(bound, _KINK_C, out=bound, where=kink)
        # over its bound by this factor; inf where delta is not positive
        over = np.divide(length[seg] * width, bound,
                         out=np.full(len(seg), np.inf), where=bound > 0)
        big = over > 1.0
        split = big.nonzero()[0]
        if not split.size:
            resolved = True
            break
        if width[split].min() <= _MIN_WIDTH:
            break
        # 2 ** ceil(log2 over), between 2 and 2 ** _FANOUT
        parts = 2 << _SPLITS.searchsorted(over[split])
        ends = parts.cumsum()
        finished += len(seg) - len(split)
        if finished + int(ends[-1]) > _MAX_PIECES:
            break
        kept = ~big
        done.append((seg[kept], lo[kept], width[kept]))
        # each part's piece, and its index among that piece's parts
        parent = split.repeat(parts)
        j = np.arange(len(parent)) - (ends - parts).repeat(parts)
        seg = seg[parent]
        width = width[parent] / parts.repeat(parts)
        lo = lo[parent] + j * width
        inner = j.nonzero()[0]
        # _scale at the parts' inner ends, then at their midpoints
        on = np.concatenate([seg[inner], seg])
        r, label = _scale(D, a[on] + step[on] * np.concatenate(
            [lo[inner], lo + 0.5 * width]))
        r_lo, r_hi, r_mid = _ends(r_lo, r_hi, r, parent, inner)
        if labelled:
            l_lo, l_hi, l_mid = _ends(l_lo, l_hi, label, parent, inner)
    if done:
        done.append((seg, lo, width))
        seg, lo, width = (np.concatenate(x) for x in zip(*done))
        order = np.lexsort((lo, seg))
        seg, lo, width = seg[order], lo[order], width[order]
    elif pieces is None:
        rule, pieces = _whole_segments(n)
        return rule, resolved, pieces
    t = (lo[:, None] + width[:, None] * _GL_NODES).ravel()
    w = (width[:, None] * _GL_WEIGHTS).ravel()
    starts = _GL_NODES.size * seg.searchsorted(np.arange(n))
    return ((t, w, seg.repeat(_GL_NODES.size), starts), resolved,
            (seg, lo, width))


@functools.lru_cache(maxsize=8)
def _whole_segments(n: int):
    """_grade's rule and pieces when no segment splits: GL4 on each of n
    segments; read-only, as every caller shares them."""
    rule = (np.tile(_GL_NODES, n), np.tile(_GL_WEIGHTS, n),
            np.repeat(np.arange(n), _GL_NODES.size),
            _GL_NODES.size * np.arange(n))
    pieces = (np.arange(n), np.zeros(n), np.ones(n))
    for arr in rule + pieces:
        arr.flags.writeable = False
    return rule, pieces


def _segment_costs(D: Domain, p: np.ndarray, grading):
    """The quasihyperbolic costs of the segments of p on the rule of _grade,
    and the values _node_gradient takes: each segment's step b - a, length
    and sum of 1/delta times the weights, and at the rule's nodes z, the
    label of the least piece of delta there (_least_piece), 1/delta and
    1/delta times the weights."""
    t, w, seg, starts = grading
    a = p[:-1]
    step = p[1:] - a
    z = a[seg] + step[seg] * t
    d, label = _least_piece(D, z)
    inv = 1.0 / d
    weighted = inv * w
    length = np.abs(step)
    total = np.add.reduceat(weighted, starts)
    return length * total, (step, length, total, z, label, inv, weighted)


def _node_gradient(D: Domain, grading, values):
    """The gradient of the sum of the segment costs of a path with respect
    to its interior nodes, as complex numbers d/dx + i d/dy, from the
    `values` _segment_costs returned with them on `grading`.

    The segment a -> b, of length L and direction u = (b - a) / L, costs
    C = L int w with w = 1/delta at a + t (b - a), so
        dC/da = -u int w + L int (1 - t) grad w,
        dC/db =  u int w + L int t grad w,
    where grad w = -grad delta / delta^2 and grad delta is the slope of the
    least piece of delta (Kind.slopes).  The integrals are the rule's own
    sums: the exact gradient of the discrete functional on this grading.
    """
    t, _, _, starts = grading
    step, length, total, z, label, inv, weighted = values
    slope, *rest = domains.entry(D).slopes(z, *D.params)
    for k, s in enumerate(rest, 1):
        slope = np.where(label == k, s, slope)
    # grad w times the weights
    dw = slope * (-inv * weighted)
    to_a = length * np.add.reduceat(dw * (1.0 - t), starts)
    to_b = length * np.add.reduceat(dw * t, starts)
    along = step / length * total
    return (along + to_b)[:-1] + (to_a - along)[1:]


def _kronrod(weight, p: np.ndarray, pieces) -> np.ndarray:
    """K9 of `weight` on each piece (seg, lo, width) of the segments
    p[i] -> p[i + 1], and K9 less GL4 there: a row per piece."""
    seg, lo, width = pieces
    a, step = p[seg], p[seg + 1] - p[seg]
    t = lo[:, None] + width[:, None] * _K9_NODES
    f = weight((a[:, None] + step[:, None] * t).ravel()).reshape(t.shape)
    scale = np.abs(step) * width
    return np.stack([scale * (f * _K9_WEIGHTS).sum(axis=1),
                     scale * (f * _K9_LESS_GL4).sum(axis=1)], axis=1)


def path_quadrature(density: str, D: Domain, path: Polyline,
                    tol: float = 1e-10, *, pieces=None) -> float:
    """Integral of the selected density along the polyline.

    The sum of K9 over `pieces`, those of a grading of the same path as
    _grade returns them (the solver passes its relaxation's last one), or
    over the pieces of _grade at c = _PIECE_C from scratch.  The sum of
    |GL4 - K9| over the pieces estimates the error.  While it exceeds `tol`
    times max(1, |K9|), each piece whose share exceeds that allowance over
    the number of pieces is halved, and only the halves are evaluated.
    QuadratureError when a piece to halve is at _MIN_WIDTH, when halving
    would make more than _MAX_PIECES pieces, or at once when `tol` is below
    the rounding floor _TOL_FLOOR: an unconverged value is never returned.
    ValueError when `tol` is negative or not finite.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and not negative, not {tol!r}")
    weight = _weight_fn(density, D)
    p = path.as_array()
    at_point(domains.checked_delta, D, p)
    if pieces is None:
        _, resolved, pieces = _grade(D, p, _PIECE_C)
        if not resolved:
            raise OutsideDomainError("path meets the boundary of the domain")
    if tol < _TOL_FLOOR:
        raise QuadratureError(f"quadrature not converged: tol {tol!r} is "
                              f"below the rounding floor {_TOL_FLOOR!r}")
    values = _kronrod(weight, p, pieces)
    while True:
        total = float(np.sum(values[:, 0]))
        allowance = tol * max(1.0, abs(total))
        error = np.abs(values[:, 1])
        estimate = float(np.sum(error))
        if estimate <= allowance:
            return total
        halve = error > allowance / len(error)
        seg, lo, width = pieces
        if (not halve.any() or width[halve].min() <= _MIN_WIDTH
                or len(error) + np.count_nonzero(halve) > _MAX_PIECES):
            raise QuadratureError(
                f"quadrature not converged: {total!r} with an error "
                f"estimate of {estimate!r}")
        half = 0.5 * width[halve]
        halves = (np.tile(seg[halve], 2),
                  np.concatenate([lo[halve], lo[halve] + half]),
                  np.tile(half, 2))
        kept = ~halve
        pieces = tuple(np.concatenate([x[kept], y])
                       for x, y in zip(pieces, halves))
        values = np.concatenate([values[kept], _kronrod(weight, p, halves)])


# ---------------------------------------------------------------------------
# hyperbolic distances

def _reduce(x: float, period: float) -> float:
    """x less the multiple of period that leaves it in [-period/2,
    period/2)."""
    return x - period * math.floor(x / period + 0.5)


def hyperbolic_distance(D: Domain, z1: complex, z2: complex) -> float:
    """h_D(z1, z2) = asinh(|w1 - w2| / (2 sqrt(Im w1 Im w2))) with w = psi(z),
    psi the uniformizer of D onto the upper half-plane: the curvature -4
    closed form.  Where psi is a local branch of the inverse of a covering
    (Kind.period), h is the least distance between the lifts, and it grows
    with |Re(w1 - w2)|, which is reduced by the period into [-period/2,
    period/2)."""
    w1, w2 = at_point(domains.checked_psi, D, [z1, z2])[0].tolist()
    period = domains.entry(D).period
    dw = w1 - w2 if period is None else complex(
        _reduce(w1.real - w2.real, period), w1.imag - w2.imag)
    h = math.asinh(abs(dw)
                   / (2.0 * math.sqrt(w1.imag) * math.sqrt(w2.imag)))
    if not math.isfinite(h):  # psi, or the ratio, beyond the float range
        raise SingularPointError("hyperbolic distance is not a finite "
                                 "float here")
    return h


# ---------------------------------------------------------------------------
# quasihyperbolic geodesic solver

def _geodesic_start(D: Domain, z1: complex, z2: complex, w1: complex,
                    w2: complex, m: int) -> np.ndarray:
    """The hyperbolic geodesic from z1 to z2 as m points at equal Euclidean
    arc length: psi^-1 of the half-plane geodesic between w1 and w2, lifts
    of z1 and z2 (psi of them, up to a deck translation).

    zeta = (w - w1) / (w - conj w1) sends w1 to 0 and the geodesic onto the
    radius to R e^{i phi}, R = tanh h.  That is sampled at 512 points uniform
    in h, zeta = tanh(t h) e^{i phi}, and mapped back by
    w = conj w1 + 2i Im w1 / (1 - zeta), with 1 - zeta in a form that keeps
    its digits as zeta nears 1.  lambda <= 1/delta <= Q lambda, so the
    path's quasihyperbolic length is at most Q times the least one in its
    class."""
    h = math.asinh(abs(w2 - w1) / (2.0 * math.sqrt(w1.imag * w2.imag)))
    phi = cmath.phase((w2 - w1) / (w2 - w1.conjugate()))
    th = h * np.linspace(0.0, 1.0, 512)
    tanh = np.tanh(th)
    one_minus_zeta = (2.0 / (np.exp(2.0 * th) + 1.0)
                      - 2j * tanh * math.sin(phi / 2) * cmath.exp(0.5j * phi))
    w = w1.conjugate() + 2j * w1.imag / one_minus_zeta
    with np.errstate(all="ignore"):
        p = domains.entry(D).psi_inv(w, *D.params)
    ends = np.array([z1, z2], dtype=complex)
    if not np.all(np.abs(p[[0, -1]] - ends) < domains.delta_vec(D, ends)):
        # psi is known up to a real factor only (the log strip far from its
        # end, Kind.psi), which psi^-1 does not undo: the domain is convex,
        # and the segment starts
        p = ends
    p[0], p[-1] = z1, z2
    return _resample(p, m)


def _resample(p: np.ndarray, m: int) -> np.ndarray:
    """m points at equal arc length along the polyline p; the node i lies on
    the first segment whose end is not short of its target.  A node within
    1e-15 of the one before it is dropped; if that would drop the end, the
    end stays and the inner nodes within 1e-15 of it go instead, so that a
    very short path keeps both its ends."""
    seg = np.abs(np.diff(p))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] == 0:
        return p
    targets = _spaced(s[-1], m)
    j = np.minimum(np.searchsorted(s[1:], targets), len(seg) - 1)
    frac = np.divide(targets - s[j], seg[j], out=np.zeros(m),
                     where=seg[j] != 0)
    out = p[j] + frac * (p[j + 1] - p[j])
    out[0], out[-1] = p[0], p[-1]
    keep = np.concatenate([[True], np.abs(np.diff(out)) > 1e-15])
    if not keep[-1]:
        keep[-1] = True
        keep[1:-1] &= np.abs(out[1:-1] - out[-1]) > 1e-15
    return out[keep]


def _spaced(length: float, m: int) -> np.ndarray:
    """m >= 2 points spaced equally from 0 to length: np.linspace(0, length,
    m) bit for bit, in fewer calls, unless length / (m - 1) underflows to
    0."""
    x = np.arange(m) * (length / (m - 1))
    x[-1] = length
    return x


def _precondition(k: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g solved against the tridiagonal weighted Laplacian of the spring
    constants k (one per segment, so len(k) = len(g) + 1): the chain of
    springs with fixed ends, whose Green's function gives, with the
    compliances s_i and t_i of the springs left and right of node i and
    S = s_i + t_i,
        x_i = (t_i sum_{m <= i} s_m g_m + s_i sum_{m > i} t_m g_m) / S.
    g itself when the system is singular (some k <= 0, or a compliance
    beyond the float range); ValueError when it is not finite."""
    if not (np.isfinite(k).all() and np.isfinite(g).all()):
        raise ValueError("relaxation gradient is not finite")
    if (k <= 0).any():
        return g
    c = 1.0 / k
    s, t = np.cumsum(c)[:-1], np.cumsum(c[::-1])[::-1][1:]
    total = s[-1] + c[-1]
    if not math.isfinite(total):
        return g
    # sum_{m > i} t_m g_m
    right = np.zeros_like(g)
    right[:-1] = np.cumsum((t * g)[:0:-1])[::-1]
    return (t * np.cumsum(s * g) + s * right) / total


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The real inner product of node displacements held as complex
    numbers."""
    return float(np.vdot(a, b).real)


def _remember(memory: list, s: np.ndarray, y: np.ndarray) -> list:
    """memory with the pair (s, y, 1 / s.y) appended and only its last
    _MEMORY pairs kept; memory itself when s.y <= 0, for which the update
    would not stay positive definite."""
    sy = _dot(s, y)
    if not sy > 0:
        return memory
    return (memory + [(s, y, 1.0 / sy)])[-_MEMORY:]


def _lbfgs_direction(k: np.ndarray, grad: np.ndarray, memory) -> np.ndarray:
    """The L-BFGS two-loop recursion (Nocedal 1980): the stored pairs
    (s, y, 1 / s.y), oldest first, update the inverse Hessian whose initial
    value is the spring chain's Green's function (_precondition).  With an
    empty memory that is _precondition(k, grad) itself; so is the result
    when the update's direction does not descend."""
    q = grad
    alphas = []
    for s, y, rho in reversed(memory):
        alphas.append(rho * _dot(s, q))
        q = q - alphas[-1] * y
    r = _precondition(k, q)
    for (s, y, rho), alpha in zip(memory, reversed(alphas)):
        r = r + (alpha - rho * _dot(y, r)) * s
    if memory and not _dot(grad, r) > 0:
        return _precondition(k, grad)
    return r


def _relax(D: Domain, p: np.ndarray, cfg: SolverConfig):
    """Monotone L-BFGS descent on the quadrature functional; returns the
    relaxed path, the objective history and the pieces of the path's
    grading (_grade), for the final quadrature to refine.

    Each path is costed on its own grading in one pass (_segment_costs),
    and an accepted path's gradient, the exact one of the functional on
    that grading (_node_gradient), is computed once from that pass's
    values.  The direction is the limited-memory quasi-Newton one
    (_lbfgs_direction) over the last _MEMORY pairs of node and gradient
    changes between accepted paths, whose initial inverse Hessian is the
    tridiagonal weighted Laplacian's (the Hessian of the dominant
    length-times-weight part); a pair enters only when s.y > 0.  The step
    is scaled as a whole so that no node moves by more than _RELAX_STEP
    times its delta; the delta that checks that a trial stays interior
    caps the next step once the trial is accepted.  A trial update is
    accepted only if it stays interior, its grading resolves and it
    strictly lowers the functional.  The descent stops when no step is
    accepted whose first-order gain, -grad . step, reaches cfg.tolerance
    times the functional: the line search gives up at such a step.  At a
    full step that gain is the size of the preconditioned gradient.  When
    the descent stops, the path re-spaced to equal arc length takes over,
    once, if it costs less, with an empty memory.  So the recorded history
    is non-increasing by construction.  A line-search trial is graded from
    scratch; the re-spaced path, whose node i moved only a little along the
    path, refines the grading of the path it re-spaces.
    """
    def cost(q, pieces=None):
        grading, resolved, pieces = _grade(D, q, _PIECE_C, pieces)
        costs, values = _segment_costs(D, q, grading)
        return grading, resolved, pieces, costs, values

    grading, resolved, pieces = _grade(D, p, _PIECE_C)
    if not resolved:
        raise OutsideDomainError("path meets the boundary of the domain")
    c_cur, values = _segment_costs(D, p, grading)
    grad = _node_gradient(D, grading, values)
    f_cur = float(np.sum(c_cur))
    # a node moves by at most its cap
    cap = _RELAX_STEP * domains.delta_vec(D, p[1:-1])

    lr = 1.0
    history = [f_cur]
    respaced = False
    # the pairs of _remember
    memory = []
    for _ in range(cfg.relax_iterations):
        if not (np.abs(grad) > 0).any():
            break
        # spring constants: mean weight on each segment over its length,
        # values[1]
        g = _lbfgs_direction(c_cur / values[1] ** 2, grad, memory)
        # the step is g times min(lr, reach): at reach the node nearest its
        # cap meets it
        mag = np.abs(g)
        reach = min(1.0, float(np.min(np.divide(
            cap, mag, out=np.full(len(g), np.inf), where=mag > 0))))
        moved = False
        while lr > 1e-14:
            disp = -g * min(lr, reach)
            # a step whose first-order gain is below the stopping threshold
            # ends the descent
            if -_dot(grad, disp) < cfg.tolerance * f_cur:
                break
            trial = p.copy()
            trial[1:-1] = p[1:-1] + disp
            d_trial = domains.delta_vec(D, trial[1:-1])
            if (d_trial > 1e-12).all():
                grading_new, resolved, pieces_new, c_new, values_new = cost(
                    trial)
                f_new = float(np.sum(c_new))
                if resolved and f_new < f_cur:
                    grad_new = _node_gradient(D, grading_new, values_new)
                    memory = _remember(memory, trial[1:-1] - p[1:-1],
                                       grad_new - grad)
                    p, grad, f_cur, pieces = trial, grad_new, f_new, pieces_new
                    c_cur, values = c_new, values_new
                    cap = _RELAX_STEP * d_trial
                    moved = True
                    lr = min(lr * 1.5, 1.0)
                    break
            lr *= 0.5
            while 0 < reach <= lr:  # min(lr, reach) is the rejected step
                lr *= 0.5
        history.append(f_cur)
        if moved:
            continue
        # stopped: the first time, the path re-spaced to equal arc length
        # goes on when it costs less
        if respaced:
            break
        respaced = True
        q = _resample(p, len(p))
        # segment i of q lies near segment i of p: its grading refines p's
        grading_q, resolved, pieces_q, c_q, values_q = cost(
            q, pieces if len(q) == len(p) else None)
        f_q = float(np.sum(c_q))
        if not (resolved and f_q < f_cur):
            break
        p, f_cur, pieces, c_cur, values = q, f_q, pieces_q, c_q, values_q
        grad = _node_gradient(D, grading_q, values)
        cap = _RELAX_STEP * domains.delta_vec(D, p[1:-1])
        history.append(f_cur)
        lr = 1.0
        memory = []
    return p, history, pieces


def _solve(D: Domain, z1: complex, z2: complex, w1: complex, w2: complex,
           cfg: SolverConfig):
    """(k, path, history) relaxed from the geodesic start between the lifts
    w1 and w2.  k is path_quadrature on the relaxation's last grading of the
    path: K9 on its pieces, at c = _PIECE_C, halved only where GL4 and K9
    disagree, so the path is not graded again."""
    p, history, pieces = _relax(D, _geodesic_start(D, z1, z2, w1, w2,
                                                   cfg.path_nodes), cfg)
    poly = Polyline(p)
    return (path_quadrature("quasihyperbolic", D, poly, pieces=pieces), poly,
            history)


def _lifts(D: Domain, z1: complex, z2: complex) -> list:
    """psi(z1) and the lifts of z2 that the solver relaxes between, psi
    read through domains.checked_psi, which raises for a point not in D.  A
    simply connected kind has the one lift.  On the punctured disk, the one
    kind with a period, Re psi = arg z, and a path whose lift ends at
    psi(z2) + 2 pi n winds through the angle theta = Re psi(z2) + 2 pi n -
    Re psi(z1).  In log-polar coordinates the metric |dz|/delta is
    w(rho) sqrt(drho^2 + dtheta^2), so theta -> alpha theta with |alpha| < 1
    shortens every path: no lift beats the one with theta reduced into
    [-pi, pi), but at theta = -pi its mirror, at pi, ties it."""
    w1, w2 = at_point(domains.checked_psi, D, [z1, z2])[0].tolist()
    t = domains.entry(D).period
    if t is None:
        return [(w1, w2)]
    d = _reduce(w2.real - w1.real, t)
    lifts = [(w1, complex(w1.real + d, w2.imag))]
    if d == -t / 2:
        lifts.append((w1, complex(w1.real + d + t, w2.imag)))
    return lifts


def quasihyperbolic_distance_detailed(D: Domain, z1: complex, z2: complex,
                                      cfg: SolverConfig | None = None):
    """As quasihyperbolic_distance, additionally returning the per-iteration
    relaxation objective history (non-increasing)."""
    cfg = cfg or SolverConfig()
    z1, z2 = complex(z1), complex(z2)
    lifts = _lifts(D, z1, z2)
    if z1 == z2:
        return 0.0, None, [0.0]
    return min((_solve(D, z1, z2, w1, w2, cfg) for w1, w2 in lifts),
               key=lambda solved: solved[0])


def quasihyperbolic_distance(D: Domain, z1: complex, z2: complex,
                             cfg: SolverConfig | None = None):
    """Quasihyperbolic distance and the relaxed geodesic polyline.

    The hyperbolic geodesic, psi^-1 of the half-plane geodesic, starts the
    relaxation: it lies in the geodesic's homotopy class, and its
    quasihyperbolic length is at most Q_D times the least (lambda <= 1/delta
    <= Q_D lambda).  On the punctured disk the lift whose winding is
    reduced into [-pi, pi) is solved, and at a winding of pi also its
    mirror, the lesser kept.  A monotone L-BFGS relaxation of the node
    positions follows.  Returns
    (distance, Polyline); the geodesic is None for coincident endpoints.
    """
    value, poly, _ = quasihyperbolic_distance_detailed(D, z1, z2, cfg)
    return value, poly
