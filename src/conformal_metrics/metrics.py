"""Distances: closed-form hyperbolic distance through each domain's
uniformizer, Gauss-Legendre line quadrature of densities, and a
quasihyperbolic geodesic solver that relaxes the hyperbolic geodesic.
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
# A quadrature piece is no longer than _PIECE_C times the radius on which
# 1/delta is analytic, nor than _KINK_C times that where delta's closed form
# changes pieces; a piece over its bound splits into up to 2**_FANOUT parts,
# down to _MIN_WIDTH of its segment, into at most _MAX_PIECES pieces in all
# (see _grade).
_PIECE_C = 0.5
_KINK_C = 1e-4
_FANOUT = 4
_MIN_WIDTH = 2.0 ** -60
_MAX_PIECES = 2 ** 18
# The relaxation moves a node by at most _RELAX_STEP times its delta per
# iteration; its quasi-Newton update keeps the last _MEMORY pairs.
_RELAX_STEP = 0.25
_MEMORY = 5


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


def _scale(D: Domain, z: np.ndarray) -> np.ndarray:
    """Rows: the radius about z on which 1/delta is analytic, at least
    _KINK_C delta (Kind.radius), and the index of the piece of delta's
    closed form that is least at z (_least_piece)."""
    kind = domains.entry(D)
    d, label = _least_piece(D, z)
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
    bound at _MIN_WIDTH, as one does where a segment meets the boundary, or
    when splitting would make more than _MAX_PIECES pieces, as a segment
    that grazes the boundary asks for.
    """
    n = len(p) - 1
    a, step = p[:-1], np.diff(p)
    length = np.abs(step)
    seg = np.arange(n)
    lo, width = np.zeros(n), np.ones(n)
    at = _scale(D, np.concatenate([p, a + 0.5 * step]))
    at_lo, at_hi, at_mid = at[:, :n], at[:, 1:n + 1], at[:, n + 1:]
    done = []
    finished = 0  # pieces in done
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
        parts = 2 ** np.clip(np.ceil(np.log2(over[split])), 1, _FANOUT)
        parts = parts.astype(int)
        finished += len(seg) - len(parts)
        if finished + int(parts.sum()) > _MAX_PIECES:
            break
        done.append((seg[~split], lo[~split], width[~split]))
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
    """Quadrature of `weight` along the segments a[i] -> b[i] on the rule
    of _grade."""
    t, w, seg, starts = grading
    z = a[seg] + (b - a)[seg] * t
    return np.abs(b - a) * np.add.reduceat(weight(z) * w, starts)


def _node_gradient(D: Domain, p: np.ndarray, grading):
    """The quasihyperbolic costs of the segments of p on the rule of _grade,
    those of _segment_costs bit for bit, and the gradient of their sum with
    respect to the interior nodes, as complex numbers d/dx + i d/dy.

    The segment a -> b, of length L and direction u = (b - a) / L, costs
    C = L int w with w = 1/delta at a + t (b - a), so
        dC/da = -u int w + L int (1 - t) grad w,
        dC/db =  u int w + L int t grad w,
    where grad w = -grad delta / delta^2 and grad delta is the slope of the
    least piece of delta (Kind.slopes).  The integrals are the rule's own
    sums: the exact gradient of the discrete functional on this grading.
    """
    t, w, seg, starts = grading
    a, step = p[:-1], np.diff(p)
    z = a[seg] + step[seg] * t
    d, label = _least_piece(D, z)
    slope, *rest = domains.entry(D).slopes(z, *D.params)
    for k, s in enumerate(rest, 1):
        slope = np.where(label == k, s, slope)
    inv = 1.0 / d
    weighted = inv * w
    # grad w times the weights
    dw = slope * (-inv * weighted)
    length = np.abs(step)
    total = np.add.reduceat(weighted, starts)
    to_a = length * np.add.reduceat(dw * (1.0 - t), starts)
    to_b = length * np.add.reduceat(dw * t, starts)
    along = step / length * total
    return length * total, (along + to_b)[:-1] + (to_a - along)[1:]


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
    at_point(domains.checked_delta, D, p)
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
    constants k (one per segment, so len(k) = len(g) + 1): the chain of
    springs with fixed ends, whose Green's function gives, with the
    compliances s_i and t_i of the springs left and right of node i and
    S = s_i + t_i,
        x_i = (t_i sum_{m <= i} s_m g_m + s_i sum_{m > i} t_m g_m) / S.
    g itself when the system is singular (some k <= 0, or a compliance
    beyond the float range); ValueError when it is not finite."""
    if not (np.isfinite(k).all() and np.isfinite(g).all()):
        raise ValueError("relaxation gradient is not finite")
    if np.any(k <= 0):
        return g
    c = 1.0 / k
    s, t = np.cumsum(c)[:-1], np.cumsum(c[::-1])[::-1][1:]
    total = s[-1] + c[-1]
    if not np.isfinite(total):
        return g
    right = np.cumsum((t * g)[::-1])[::-1]
    right = np.append(right[1:], 0.0)
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
    """Monotone L-BFGS descent on the quadrature functional.

    Each path is costed on its own grading (_grade), and an accepted path's
    gradient is the exact one of the functional on that grading
    (_node_gradient), computed once.  The direction is the limited-memory
    quasi-Newton one (_lbfgs_direction) over the last _MEMORY pairs of node
    and gradient changes between accepted paths, whose initial inverse
    Hessian is the tridiagonal weighted Laplacian's (the Hessian of the
    dominant length-times-weight part); a pair enters only when s.y > 0.
    The step is scaled as a whole so that no node moves by more than
    _RELAX_STEP times its delta.  A trial update is accepted only if it
    stays interior, its grading resolves and it strictly lowers the
    functional.  The descent stops when no step is accepted whose
    first-order gain, -grad . step, reaches cfg.tolerance times the
    functional: the line search gives up at such a step.  At a full step
    that gain is the size of the preconditioned gradient.  When the descent
    stops, the path re-spaced to equal arc length takes over, once, if it
    costs less, with an empty memory.  So the recorded history is
    non-increasing by construction.
    """
    weight = _weight_fn("quasihyperbolic", D)

    def cost(q):
        grading, resolved = _grade(D, q, _PIECE_C)
        return grading, resolved, float(np.sum(
            _segment_costs(weight, q[:-1], q[1:], grading)))

    grading, resolved = _grade(D, p, _PIECE_C)
    if not resolved:
        raise OutsideDomainError("path meets the boundary of the domain")
    c_cur, grad = _node_gradient(D, p, grading)
    f_cur = float(np.sum(c_cur))

    lr = 1.0
    history = [f_cur]
    respaced = False
    # the pairs of _remember
    memory = []
    for _ in range(cfg.relax_iterations):
        if not np.any(np.abs(grad) > 0):
            break
        # spring constants: mean weight on each segment over its length
        g = _lbfgs_direction(c_cur / np.abs(np.diff(p)) ** 2, grad, memory)
        # the step is g times min(lr, reach): at reach the node nearest its
        # cap meets it
        cap, mag = _RELAX_STEP * domains.delta_vec(D, p[1:-1]), np.abs(g)
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
            if np.all(domains.delta_vec(D, trial[1:-1]) > 1e-12):
                grading_new, resolved, f_new = cost(trial)
                if resolved and f_new < f_cur:
                    c_cur, grad_new = _node_gradient(D, trial, grading_new)
                    memory = _remember(memory, trial[1:-1] - p[1:-1],
                                       grad_new - grad)
                    p, grad, f_cur = trial, grad_new, f_new
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
        grading_q, resolved, f_q = cost(q)
        if not (resolved and f_q < f_cur):
            break
        p, f_cur = q, f_q
        c_cur, grad = _node_gradient(D, p, grading_q)
        history.append(f_cur)
        lr = 1.0
        memory = []
    return p, history


def _solve(D: Domain, z1: complex, z2: complex, w1: complex, w2: complex,
           cfg: SolverConfig):
    """(k, path, history) relaxed from the geodesic start between the lifts
    w1 and w2."""
    p, history = _relax(D, _geodesic_start(D, z1, z2, w1, w2,
                                           cfg.path_nodes), cfg)
    poly = Polyline(p)
    return path_quadrature("quasihyperbolic", D, poly), poly, history


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
