"""Sampled geometry: example gallery, winding counts, embeddedness scans.

Every sampled hypersurface is one `Immersion`: positions and unit normals in
Minkowski coordinates, the cells joining them and the normal flow time.
Curves have segments for cells and live in the hyperbolic plane inside
R^{1,2}; meshes, the gallery's product and the CLI's metric meshes, have
triangles in R^{1,3}.  All crossing detection happens after projecting to
the Poincare ball, where segments and triangles are honest Euclidean objects.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .conformal import ConformalMetric
from .correspondence import immerse, support_and_gauss
from .errors import (
    HyperquadricError,
    RootBracketError,
    SamplingError,
    SingularParameterError,
)
from .minkowski import (
    _last_axis_sum, flow_time, mink_inner, normal_flow, off_quadric, sample_count,
    to_poincare_ball)
from .sphere import BandChart, StereographicChart, constant_field, radial_band_field

SCAN_EPS = 1e-9        # shortest segment, smallest doubled face area a scan accepts
LADDER_DEPTH = 40      # ladder level of boundary_at_infinity's deepest probe
ESCAPE_RATIO = 1.2     # growth of phi_0 over the last ladder step that escapes:
                       # below the band's sqrt(2) from t = 15, above a compact image's 1
CLUSTER_RADIUS = 0.05  # angle within which escape directions share a cluster
CLOSE = 1e-6           # angle within which a certified pair shares a cluster
GAP = 2e-6             # margin beyond the radius that certifies a pair apart
CERT_ROWS = 128        # rows of the pairwise-cosine table held at once
_PAIR_BLOCK = 16384    # sweep candidates a `_box_pairs` block expands at once
PROFILE_PERIOD = 4.0 * math.pi   # parameter period of the profile curve


@dataclass(frozen=True)
class Immersion:
    """Sampled immersed hypersurface with its unit normal field, at normal
    flow time t.

    phi rows sit on the hyperboloid, eta rows on the unit de Sitter quadric,
    pointwise orthogonal.  cells index the rows: width 2 for the segments
    (i, i + 1 mod m) of a closed curve in the plane model (`closed_curve`),
    width 3 for the triangles of a mesh.
    """

    phi: np.ndarray
    eta: np.ndarray
    cells: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if np.any(off_quadric(self.phi, self.phi, -1.0) | (self.phi[..., 0] <= 0.0)):
            raise HyperquadricError("positions leave the hyperboloid")
        if np.any(off_quadric(self.eta, self.eta, 1.0)):
            raise HyperquadricError("normals are not unit spacelike")
        if np.any(off_quadric(self.phi, self.eta, 0.0)):
            raise HyperquadricError("normals are not orthogonal to positions")

    def ball_points(self):
        """Poincare ball points of phi; refuses the first that rounds onto the unit sphere."""
        p = to_poincare_ball(self.phi)
        inside = _last_axis_sum(p * p) < 1.0   # |p| < 1; fails on the gallery from t near 34
        if not np.all(inside):
            raise HyperquadricError(f"vertex {np.argmin(inside)} rounds onto the unit "
                                    f"sphere at flow time t = {self.t}")
        return p

    def gauss_directions(self):
        return support_and_gauss(self.phi + self.eta).gauss_point

    def flowed(self, t):
        phi, eta = normal_flow(self.phi, self.eta, t)
        return replace(self, phi=phi, eta=eta, t=self.t + t)


def closed_curve(phi, eta):
    """The closed curve through the rows of phi in order, the last joined
    back to the first."""
    i = np.arange(len(phi))
    return Immersion(phi, eta, np.stack([i, np.roll(i, -1)], axis=1))


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    params: dict
    payload: object


# -- the profile curve --------------------------------------------------------

def _profile_jets(u):
    """Position and first derivative of the triple-cover profile curve."""
    u = np.asarray(u, dtype=float)
    angles = np.stack([u / 2, u, 3 * u / 2])
    (sin1, sin2, sin3), (cos1, cos2, cos3) = np.sin(angles), np.cos(angles)
    r = sin1 * cos2
    R = cos1 - cos3 / 3
    rp = 0.5 * cos1 * cos2 - sin1 * sin2
    Rp = -0.5 * sin1 + 0.5 * sin3
    chr_, shr = np.cosh(r), np.sinh(r)
    chR, shR = np.cosh(R), np.sinh(R)
    a = np.stack([chr_ * chR, shr * chR, shR], axis=-1)
    da = np.stack([
        rp * shr * chR + Rp * chr_ * shR,
        rp * chr_ * chR + Rp * shr * shR,
        Rp * chR], axis=-1)
    return a, da


def _profile_frame(u):
    """Position and unit normal from one evaluation of the jets."""
    a, da = _profile_jets(u)
    # Lorentz cross of position and velocity, oriented so kappa < 1
    w = np.cross(a, da) * np.array([-1.0, 1.0, 1.0])
    norm_sq = mink_inner(w, w)
    if np.any(norm_sq <= 0.0):
        raise SingularParameterError("degenerate tangent on the profile curve")
    return a, -w / np.sqrt(norm_sq)[..., None]


def profile_curve(m):
    # the direction map turns three times: with m <= 6 each step is >= half a turn
    return closed_curve(*_profile_frame(
        np.linspace(0.0, PROFILE_PERIOD, sample_count(m, "m", 7), endpoint=False)))


def circle_curve(rho0, m=512):
    """Geodesic circle of hyperbolic radius rho0 > 0, outward normal: the
    point (1, 0, 0) flowed for time rho0 along its unit normals (0, cos u, sin u)."""
    if not rho0 > 0.0:   # written so that NaN fails
        raise SingularParameterError("circle radius must be positive")
    u = np.linspace(0.0, 2.0 * math.pi, sample_count(m, "m", 3), endpoint=False)
    normals = np.stack([np.zeros_like(u), np.cos(u), np.sin(u)], axis=-1)
    # -0.0, so that sinh(rho0) cos u underflowing to -0.0 keeps its sign
    return closed_curve(*normal_flow(np.array([1.0, -0.0, -0.0]), normals, rho0))


def product_mesh(m_u, m_v, length):
    """Profile curve crossed with a geodesic translation family in R^{1,3}.

    Vertices are indexed row-major over the (u, v) grid; the u direction is
    periodic, the v direction is an open interval [-length, length].
    """
    flow_time(length, "length")   # the v family's cosh and sinh stay finite
    sample_count(sample_count(m_u, "m_u", 3) * sample_count(m_v, "m_v", 2), "m_u * m_v")
    u = np.linspace(0.0, PROFILE_PERIOD, m_u, endpoint=False)
    v = np.linspace(-length, length, m_v)
    a, n = _profile_frame(u)
    ch, sh = np.cosh(v), np.sinh(v)
    phi = np.empty((m_u, m_v, 4))
    phi[..., :3] = a[:, None, :] * ch[None, :, None]
    phi[..., 3] = sh[None, :]
    eta = np.zeros((m_u, m_v, 4))
    eta[..., :3] = n[:, None, :]
    index = np.arange(m_u * m_v).reshape(m_u, m_v)
    return Immersion(phi.reshape(-1, 4), eta.reshape(-1, 4),
                     grid_faces(np.vstack([index, index[:1]])))


def grid_faces(index):
    """Triangles (q00, q10, q11) and (q00, q11, q01) of every cell of a
    vertex-index grid, row-major over the cells.  A periodic direction comes
    with its first row or column appended, so its closing cells are ordinary
    cells here."""
    q00, q10 = index[:-1, :-1], index[1:, :-1]
    q01, q11 = index[:-1, 1:], index[1:, 1:]
    cells = np.stack([np.stack([q00, q10, q11], axis=-1),
                      np.stack([q00, q11, q01], axis=-1)], axis=-2)
    return cells.reshape(-1, 3)


# -- gallery ------------------------------------------------------------------

def _geodesic_sphere(rho0):
    if not abs(rho0) < math.inf:
        raise SingularParameterError(f"rho0 = {rho0} is not finite")
    if rho0 == 0.0:
        raise SingularParameterError(
            "rho0 = 0 collapses to a point; use round-degenerate for that")
    return ConformalMetric(StereographicChart(), constant_field(rho0))


def _incomplete_band():
    """rho(s) = -log sqrt(1 - s^2) on the band |s| < 1, with analytic jets."""
    return ConformalMetric(BandChart(1.0), radial_band_field(
        f=lambda s: -0.5 * np.log1p(-s * s),
        fs=lambda s: s / (1.0 - s * s),
        fss=lambda s: (1.0 + s * s) / (1.0 - s * s) ** 2))


def _cylinder(t):
    """rho(s) = -log cos s on the full band, complete toward both poles."""
    if not 0.0 < t < math.inf:
        raise SingularParameterError("cylinder example needs finite flow offset t > 0")
    return ConformalMetric(BandChart(), radial_band_field(
        f=lambda s: -np.log(np.cos(s)),
        fs=np.tan,
        fss=lambda s: 1.0 / np.cos(s) ** 2), t=t)


# name -> (builder, {parameter: default}), in listing order
_GALLERY = {
    "geodesic-sphere": (_geodesic_sphere, {"rho0": 0.5 * math.log(2.0)}),
    "round-degenerate": (
        lambda: ConformalMetric(StereographicChart(), constant_field(0.0)), {}),
    "incomplete-band": (_incomplete_band, {}),
    "cylinder-delaunay": (_cylinder, {"t": 1.0}),
    "alpha-curve": (profile_curve, {"m": 4096}),
    "alpha-product": (product_mesh, {"m_u": 96, "m_v": 9, "length": 1.0}),
}
GALLERY_NAMES = tuple(_GALLERY)


def _exact(kind, key, value):
    """value as a kind, refused unless exact; a float NaN passes to the builder."""
    try:
        converted = kind(value)
        if converted == value or value != value:
            return converted
    except (TypeError, ValueError, OverflowError):
        pass
    raise SingularParameterError(
        f"parameter {key} = {value!r} does not convert exactly to {kind.__name__}")


def make_example(name, **params):
    """The named gallery entry; unknown names and parameters raise.  Each
    parameter is converted exactly to its default's type (m = 64.0 gives 64,
    m = 7.9 is refused) for the row's builder, which refuses values out of range."""
    if name not in _GALLERY:
        raise SingularParameterError(
            f"unknown example {name!r}; choose one of {', '.join(GALLERY_NAMES)}")
    builder, defaults = _GALLERY[name]
    extra = sorted(params.keys() - defaults.keys())
    if extra:
        raise SingularParameterError(f"unexpected parameters for {name}: {extra}")
    resolved = {key: _exact(type(default), key, params.get(key, default))
                for key, default in defaults.items()}
    return GalleryEntry(name=name, params=resolved, payload=builder(**resolved))


# -- winding ------------------------------------------------------------------

def gauss_winding(curve):
    """Degree of the light-cone direction map around the boundary circle."""
    gauss = curve.gauss_directions()
    if gauss.shape[-1] != 2:
        raise SingularParameterError("winding needs a curve in the plane model")
    ang = np.arctan2(gauss[:, 1], gauss[:, 0])
    steps = np.diff(np.concatenate([ang, ang[:1]]))
    steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
    if np.any(np.abs(steps) > 0.9 * np.pi):
        raise SamplingError(
            "direction jumps by nearly a half turn between samples; refine")
    total = float(steps.sum()) / (2.0 * np.pi)
    winding = round(total)
    if abs(total - winding) > 0.05:
        raise SamplingError("accumulated angle is not an integer multiple of a turn")
    return int(winding)


# -- crossing detection -------------------------------------------------------

def self_intersections(payload):
    """All transversal self-crossings of the projected payload, as a (k, 2)
    int64 array of the crossing cells' index pairs (i, j) (segments for
    curves, faces for meshes), i < j, in lexicographic order; (0, 2) when
    there are none.  Segments (curves) and triangles (meshes) go through one
    sweep over their closed bounding boxes, `_box_pairs`, whose every block
    goes through the narrow phase, which skips the cell pairs sharing a
    vertex; one sort of the hits' int64 keys i * n + j orders them."""
    width = payload.cells.shape[-1] if isinstance(payload, Immersion) else 0
    if width == 2:
        return _curve_crossings(payload)
    if width == 3:
        return _mesh_crossings(payload)
    raise SingularParameterError("crossing scan expects a curve or mesh payload")


def _box_pairs(lo, hi):
    """Blocks (i, j), i < j, of the index pairs of the closed boxes [lo, hi]
    (shape (n, d)) that overlap, each pair in one block, in no set order.
    Sort and sweep (Baraff, Cornell 1992): in the order of the lower x bounds,
    a box meets the later boxes whose lower x bound lies in its x extent, one
    run per box.  The runs starting in each `_PAIR_BLOCK` candidates are
    expanded together and cut down one axis at a time, in sorted positions on
    axis-major copies of the bounds; only the survivors map back to boxes."""
    n = len(lo)
    order = np.argsort(lo[:, 0], kind="stable")
    lo, hi = lo[order].T.copy(), hi[order].T.copy()
    stop = np.searchsorted(lo[0], hi[0], side="right")
    counts = stop - np.arange(1, n + 1)
    start = np.cumsum(counts) - counts
    lag = start - np.arange(1, n + 1)   # candidate index minus b, along each run
    cuts = [*np.flatnonzero(np.diff(start // _PAIR_BLOCK, prepend=-1)), n]
    for first, last in zip(cuts, cuts[1:]):
        runs = counts[first:last]
        a = np.repeat(np.arange(first, last), runs)
        b = np.arange(start[first], start[first] + len(a)) - np.repeat(lag[first:last], runs)
        for k in range(1, len(lo)):
            keep = np.flatnonzero((lo[k][b] <= hi[k][a]) & (lo[k][a] <= hi[k][b]))
            a, b = a[keep], b[keep]
        i, j = order[a], order[b]
        yield np.minimum(i, j), np.maximum(i, j)


def _cross(u, v):
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def _curve_crossings(curve):
    p = curve.ball_points()
    if p.shape[-1] != 2:
        raise SingularParameterError("crossing scan needs a curve in the plane model")
    m = len(p)
    b = np.roll(p, -1, axis=0)
    seg = b - p
    if np.any(np.hypot(seg[:, 0], seg[:, 1]) < SCAN_EPS):
        raise SamplingError("zero-length segment in the sampled curve")
    keys = [np.zeros(0, np.int64)]
    for i, j in _box_pairs(np.minimum(p, b), np.maximum(p, b)):
        # segments i < j share a vertex when j - i is 1, or m - 1 across the closing seam
        apart = (j - i >= 2) & (j - i <= m - 2)
        i, j = i[apart], j[apart]
        d1, d2, c, pi = seg[i], seg[j], p[j], p[i]
        hit = ((_cross(d1, c - pi) * _cross(d1, c + d2 - pi) < 0.0)
               & (_cross(d2, pi - c) * _cross(d2, b[i] - c) < 0.0))
        keys.append(i[hit] * m + j[hit])
    return np.stack(np.divmod(np.sort(np.concatenate(keys)), m), axis=1)


def _segment_hits_triangle(p0, p1, tri):
    """Mask of the segments p0->p1 that cross the interior of triangles tri
    (stacked along the first axis), strictly inside both."""
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    d = p1 - p0
    M = np.stack([e1, e2, -d], axis=-1)
    det = np.linalg.det(M)
    ok = np.abs(det) > 1e-14
    sol = np.full((len(tri), 3), -1.0)
    if ok.any():
        rhs = (p0 - tri[:, 0])[ok][..., None]
        sol[ok] = np.linalg.solve(M[ok], rhs)[..., 0]
    beta, gamma, t = sol[:, 0], sol[:, 1], sol[:, 2]
    inside = (beta > 0) & (gamma > 0) & (beta + gamma < 1) & (t > 0) & (t < 1)
    return ok & inside


# An edge test is skipped only when both endpoints lie more than this, in
# ball units, on one side of the other face's plane, and a face pair only
# when all three corners of one face do.  LAPACK's solve is backward stable,
# so a hit it reports (beta, gamma, t all in (0, 1)) lies within about 1e-14
# of the plane and no skipped test could report one.  Nor could a skipped
# pair: the hit lies on an edge of one face and within about 1e-14 of the
# other, so neither face lies wholly beyond the margin of the other's plane.
# The rounded normal tilts by 1e-16 / sin(smallest angle), small unless
# needle-thin.
PLANE_MARGIN = 1e-12


def _mesh_crossings(mesh):
    """Narrow phase: a pair crosses when any of its six edge tests hits,
    edges (0, 1), (1, 2), (2, 0) of face i against face j and of face j
    against face i.  Pairs sharing a vertex are dropped, and
    so are pairs with a face wholly on one side of the other's plane; of the
    rest, tests whose edge does not straddle the other face's plane are
    dropped (Moller, JGT 1997), and the slots left in each `_box_pairs`
    block go through one `_segment_hits_triangle` call.  That kernel must stay LAPACK's: the
    v = 0 row of `product_mesh` lies exactly in the ball plane p3 = 0, so its
    edges meet other faces exactly on their edges (beta + gamma = 1), where
    rounding decides the hit, and a Cramer's-rule solve reports other counts."""
    faces = mesh.cells
    tri = mesh.ball_points()[faces]
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    area2 = np.linalg.norm(normal, axis=-1)
    if np.any(area2 < SCAN_EPS):
        raise SamplingError("degenerate triangle in the mesh")
    offset = np.vecdot(normal, tri[:, 0])
    cols = faces.T.copy()
    a, b = np.array([0, 1, 2]), np.array([1, 2, 0])
    keys = [np.zeros(0, np.int64)]
    for i, j in _box_pairs(tri.min(axis=1), tri.max(axis=1)):
        fi, fj = [c[i] for c in cols], [c[j] for c in cols]
        shared = np.logical_or.reduce([x == y for x in fi for y in fj])
        i, j = i[~shared], j[~shared]
        # axis 1: face i's corners over face j's plane, then face j's over face i's
        face = np.stack([i, j], axis=1)
        plane = face[:, ::-1]
        height = np.vecdot(tri[face], normal[plane][:, :, None]) - offset[plane][..., None]
        tol = PLANE_MARGIN * area2[plane][..., None]
        above, below = height > tol, height < -tol
        straddle = ~((above[..., a] & above[..., b]) | (below[..., a] & below[..., b]))
        # a face with no edge straddling the other's plane has all three corners
        # beyond the margin on one side of it, so the pair cannot cross
        straddle &= straddle.any(-1).all(-1)[:, None, None]
        # surviving (pair, edge, direction) slots, in test order
        k, e, d = np.nonzero(straddle.transpose(0, 2, 1))
        edge = face[k, d]
        hit = _segment_hits_triangle(
            tri[edge, a[e]], tri[edge, b[e]], tri[plane[k, d]])
        k = np.unique(k[hit])
        keys.append(i[k] * len(faces) + j[k])
    return np.stack(np.divmod(np.sort(np.concatenate(keys)), len(faces)), axis=1)


# -- embedding time -----------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingReport:
    """Certified first embedded flow time: the payload has no self-crossings
    at t_embedded and crossings_before of them one tolerance earlier (None
    when it is embedded from the start)."""

    t_embedded: float
    crossings_before: Optional[int]


def first_embedded_time(payload, t_max=5.0, tol=1e-2):
    """Bisection on 'the flowed payload has no self-crossings'.

    Raises when the payload still crosses itself at t_max; returns time 0
    immediately for already-embedded input.  The bracket halves until it is
    at most tol wide or no float lies inside it.
    """
    if not (0.0 < tol < np.inf and 0.0 < t_max < np.inf):
        raise SingularParameterError("need finite positive t_max and tolerance")

    def count(t):
        return len(self_intersections(payload.flowed(t) if t else payload))

    c0 = count(0.0)
    if c0 == 0:
        return EmbeddingReport(0.0, None)
    c_top = count(t_max)
    if c_top != 0:
        raise RootBracketError(
            f"not embedded by t_max = {t_max} ({c_top} crossings remain)")
    lo, hi = 0.0, t_max
    c_lo = c0
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        c_mid = count(mid)
        if c_mid == 0:
            hi = mid
        else:
            lo, c_lo = mid, c_mid
    return EmbeddingReport(hi, c_lo)


# -- boundary at infinity -----------------------------------------------------

@dataclass(frozen=True)
class BoundaryCluster:
    direction: np.ndarray   # unit vector toward the ideal boundary
    count: int


def _near(v, centers, radius):
    """Whether the direction v lies within radius of each row of centers, by
    arccos of the clipped dot product.  vecdot runs the same dot kernel as
    `u @ w` on two vectors, so every decision is bit for bit that of one
    pairwise comparison; clip and arccos run in place on its result."""
    cos = np.vecdot(v, centers)
    return np.arccos(np.clip(cos, -1.0, 1.0, out=cos), out=cos) < radius


def _separated_founders(dirs, radius):
    """Index of the first direction within CLOSE of each direction, when
    every pair lies within CLOSE or beyond radius + GAP (cosines CERT_ROWS
    rows at a time) and 2 CLOSE < radius < pi - GAP; None otherwise."""
    if not 2.0 * CLOSE < radius < math.pi - GAP:
        return None
    first = np.empty(len(dirs), dtype=np.intp)
    for i in range(0, len(dirs), CERT_ROWS):
        cos = dirs[i:i + CERT_ROWS] @ dirs.T
        close = cos > math.cos(CLOSE)
        if not np.all(close | (cos < math.cos(radius + GAP))):
            return None
        first[i:i + CERT_ROWS] = close.argmax(axis=1)
    return first


def _cluster_directions(dirs, radius):
    """Greedy clustering of the unit directions `dirs` (shape (m, d)).

    Directions are visited in input order.  Each joins the first cluster,
    in creation order, whose normalised running sum lies within `radius`
    of it, by arccos of the clipped dot product; that cluster's sum and
    normalised centre are updated.  Otherwise the direction starts a new
    cluster.  Joining moves a centre, so the result depends on the input
    order.  One `_near` call tests a direction against every centre.

    Input that `_separated_founders` certifies skips the loop.  There,
    being within CLOSE is an equivalence (two steps stay below 2 CLOSE <
    radius + GAP), and a centre lies in the spherical hull of its members,
    within CLOSE of each; so a direction lies within CLOSE < radius of its
    own class's centre and beyond radius + GAP - CLOSE of every other, a
    1e-6 rad margin against rounding.  Each direction joins the cluster of
    the first direction within CLOSE of it; sums add members in input
    order and centres are s / sqrt(s . s), the loop's own arithmetic.
    """
    first = _separated_founders(dirs, radius)
    if first is not None:
        founders, label = np.unique(first, return_inverse=True)
        counts, sums = np.bincount(label), dirs[founders]
        for k in np.flatnonzero(counts > 1):
            sums[k] = np.cumsum(dirs[label == k], axis=0)[-1]
        centers = sums / np.sqrt(np.vecdot(sums, sums))[:, None]
        return list(map(BoundaryCluster, centers, counts.tolist()))
    sums, centers = np.empty_like(dirs), np.empty_like(dirs)
    counts = []
    for v in dirs:
        near = _near(v, centers[:len(counts)], radius)
        k = near.argmax() if counts else 0
        if counts and near[k]:
            sums[k] += v
            counts[k] += 1
        else:
            k = len(counts)
            sums[k] = v
            counts.append(1)
        s = sums[k]   # norm of a 1-D array: the square root of its dot product
        centers[k] = s / math.sqrt(s.dot(s))
    return list(map(BoundaryCluster, centers, counts))


def boundary_at_infinity(metric, t=1.0, n_directions=64):
    """Ideal boundary of a conformal metric, as clusters of escape
    directions within CLUSTER_RADIUS.

    Each ray (a sign and one of n_directions angles on the band chart, an
    angle on the stereographic chart) is probed at its two deepest ladder
    levels toward the domain edge: arcs 1 - 2^-(LADDER_DEPTH - 1) and
    1 - 2^-LADDER_DEPTH of the float below the band's edge, radii
    2^(LADDER_DEPTH - 2) and 2^(LADDER_DEPTH - 1) on the stereographic
    chart, all inside the chart.  Both probes are immersed at flow time t,
    and the ray escapes when the height phi_0 at the deeper probe is more
    than ESCAPE_RATIO times that at the other.  Its direction is the ball
    direction of its deepest probe, which matches the probe's Gauss point
    chart.embed(u): the ideal boundary is the boundary of the Gauss image,
    whatever t.  A compact image yields an empty list.  sample_count
    refuses an n_directions below 1 or with its 4 n_directions probes past
    MAX_SAMPLES, and immerse a non-finite t.
    """
    sample_count(4 * sample_count(n_directions, "n_directions"), "4 * n_directions")
    if not isinstance(metric, ConformalMetric):
        raise SingularParameterError(
            "boundary tracing needs a conformal-metric payload")
    chart = metric.chart
    angles = np.linspace(0.0, 2.0 * np.pi, n_directions, endpoint=False)
    if chart.kind == "band":
        ladder = 1.0 - 2.0 ** -np.array([LADDER_DEPTH - 1.0, LADDER_DEPTH])
        edge = np.nextafter(chart.edge, 0.0)
        arcs = np.multiply.outer([edge, -edge], ladder)
        probes = np.stack(np.broadcast_arrays(
            arcs[:, None, :], angles[None, :, None]), axis=-1)
    elif chart.kind == "stereographic":
        radii = 2.0 ** np.array([LADDER_DEPTH - 2.0, LADDER_DEPTH - 1.0])
        circle = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        probes = radii[:, None] * circle[:, None, :]
    else:
        raise SingularParameterError(f"unknown chart kind {chart.kind!r}")
    phi = immerse(metric, probes.reshape(-1, 2, 2), t).phi
    escaped = phi[:, 1, 0] > ESCAPE_RATIO * phi[:, 0, 0]
    p = to_poincare_ball(phi[escaped, 1])
    return _cluster_directions(p / np.linalg.norm(p, axis=-1)[:, None], CLUSTER_RADIUS)
