"""Sampled geometry: example gallery, winding counts, embeddedness scans.

Curves live in the hyperbolic plane inside R^{1,2}; the one meshed surface
lives in R^{1,3}.  All crossing detection happens after projecting to the
Poincare ball, where segments and triangles are honest Euclidean objects.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .conformal import ConformalMetric
from .correspondence import immerse, ricatti, support_and_gauss
from .errors import (
    RootBracketError,
    SamplingError,
    SingularParameterError,
)
from .minkowski import mink_inner, normal_flow, to_poincare_ball
from .sphere import BandChart, StereographicChart, constant_field, radial_band_field

FRAME_RTOL = 1e-8
SCAN_EPS = 1e-9        # shortest segment, smallest doubled face area a scan accepts
LADDER_DEPTH = 40      # ladder level of boundary_at_infinity's deepest probe
ESCAPE_RATIO = 1.5     # growth of phi_0 over the last ladder step that escapes
CLUSTER_RADIUS = 0.05  # angle within which escape directions share a cluster


def _check_frame(phi, eta):
    # written as "not within tolerance" so that NaN fails the check
    tol = FRAME_RTOL * np.maximum(1.0, phi[..., 0] ** 2)
    if not np.all(np.abs(mink_inner(phi, phi) + 1.0) <= tol):
        raise SingularParameterError("curve positions leave the hyperboloid")
    if not np.all(np.abs(mink_inner(eta, eta) - 1.0) <= tol):
        raise SingularParameterError("normals are not unit spacelike")
    if not np.all(np.abs(mink_inner(phi, eta)) <= tol):
        raise SingularParameterError("normals are not orthogonal to positions")


@dataclass(frozen=True)
class CurveImmersion:
    """Sampled closed curve with its unit normal field: the samples u run
    over [0, period) and the last one joins back to the first.

    phi rows sit on the hyperboloid, eta rows on the unit de Sitter quadric,
    pointwise orthogonal.  kappa, when present, holds the principal curvature
    in the orientation of eta.
    """

    u: np.ndarray
    phi: np.ndarray
    eta: np.ndarray
    period: float
    kappa: Optional[np.ndarray] = None

    def __post_init__(self):
        _check_frame(self.phi, self.eta)

    @property
    def resolution(self):
        return len(self.u)

    def ball_points(self):
        return to_poincare_ball(self.phi)

    def gauss_directions(self):
        return support_and_gauss(self.phi + self.eta).gauss_point

    def flowed(self, t):
        """Normal flow by time t; curvature transported when pole-free."""
        kappa = None
        if self.kappa is not None:
            try:
                kappa = ricatti(self.kappa, t)
            except SingularParameterError:
                kappa = None
        phi, eta = normal_flow(self.phi, self.eta, t)
        return replace(self, phi=phi, eta=eta, kappa=kappa)


@dataclass(frozen=True)
class MeshImmersion:
    """Triangulated hypersurface sample: vertex positions and unit normals in
    Minkowski coordinates plus a face index array."""

    phi: np.ndarray
    eta: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        _check_frame(self.phi, self.eta)

    def ball_points(self):
        return to_poincare_ball(self.phi)

    def flowed(self, t):
        phi, eta = normal_flow(self.phi, self.eta, t)
        return MeshImmersion(phi=phi, eta=eta, faces=self.faces)


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    params: dict
    payload: object


# -- the profile curve --------------------------------------------------------

def _profile_jets(u):
    """Position and first two derivatives of the triple-cover profile curve."""
    u = np.asarray(u, dtype=float)
    angles = np.stack([u / 2, u, 3 * u / 2])
    (sin1, sin2, sin3), (cos1, cos2, cos3) = np.sin(angles), np.cos(angles)
    r = sin1 * cos2
    R = cos1 - cos3 / 3
    rp = 0.5 * cos1 * cos2 - sin1 * sin2
    rpp = -1.25 * sin1 * cos2 - cos1 * sin2
    Rp = -0.5 * sin1 + 0.5 * sin3
    Rpp = -0.25 * cos1 + 0.75 * cos3
    chr_, shr = np.cosh(r), np.sinh(r)
    chR, shR = np.cosh(R), np.sinh(R)
    a = np.stack([chr_ * chR, shr * chR, shR], axis=-1)
    da = np.stack([
        rp * shr * chR + Rp * chr_ * shR,
        rp * chr_ * chR + Rp * shr * shR,
        Rp * chR], axis=-1)
    dda = np.stack([
        rpp * shr * chR + Rpp * chr_ * shR
        + (rp**2 + Rp**2) * chr_ * chR + 2 * rp * Rp * shr * shR,
        rpp * chr_ * chR + Rpp * shr * shR
        + (rp**2 + Rp**2) * shr * chR + 2 * rp * Rp * chr_ * shR,
        Rpp * chR + Rp**2 * shR], axis=-1)
    return a, da, dda


def _profile_frame(u):
    """Position, unit normal and curvature from one evaluation of the jets."""
    a, da, dda = _profile_jets(u)
    # Lorentz cross of position and velocity, oriented so kappa < 1
    w = np.cross(a, da) * np.array([-1.0, 1.0, 1.0])
    norm_sq = mink_inner(w, w)
    if np.any(norm_sq <= 0.0):
        raise SingularParameterError("degenerate tangent on the profile curve")
    n = -w / np.sqrt(norm_sq)[..., None]
    return a, n, mink_inner(dda, n) / mink_inner(da, da)


def profile_curve(m=4096):
    # the direction map turns three times: with m <= 6 each step is >= half a turn
    if m < 7:
        raise SamplingError("the profile curve needs at least seven samples")
    period = 4.0 * math.pi
    u = np.linspace(0.0, period, m, endpoint=False)
    phi, eta, kappa = _profile_frame(u)
    return CurveImmersion(u=u, phi=phi, eta=eta, period=period, kappa=kappa)


def circle_curve(rho0, m=512):
    """Geodesic circle of hyperbolic radius rho0 > 0, outward normal."""
    if rho0 <= 0.0:
        raise SingularParameterError("circle radius must be positive")
    period = 2.0 * math.pi
    u = np.linspace(0.0, period, m, endpoint=False)
    ch, sh = math.cosh(rho0), math.sinh(rho0)
    phi = np.stack([np.full_like(u, ch), sh * np.cos(u), sh * np.sin(u)], axis=-1)
    eta = np.stack([np.full_like(u, sh), ch * np.cos(u), ch * np.sin(u)], axis=-1)
    return CurveImmersion(u=u, phi=phi, eta=eta, period=period,
                          kappa=np.full(m, -1.0 / math.tanh(rho0)))


def product_mesh(m_u=96, m_v=9, length=1.0):
    """Profile curve crossed with a geodesic translation family in R^{1,3}.

    Vertices are indexed row-major over the (u, v) grid; the u direction is
    periodic, the v direction is an open interval [-length, length].
    """
    if m_u < 3 or m_v < 2:
        raise SamplingError("mesh grid too coarse to triangulate")
    u = np.linspace(0.0, 4.0 * math.pi, m_u, endpoint=False)
    v = np.linspace(-length, length, m_v)
    a, n, _ = _profile_frame(u)
    ch, sh = np.cosh(v), np.sinh(v)
    phi = np.empty((m_u, m_v, 4))
    phi[..., :3] = a[:, None, :] * ch[None, :, None]
    phi[..., 3] = sh[None, :]
    eta = np.zeros((m_u, m_v, 4))
    eta[..., :3] = n[:, None, :]
    index = np.arange(m_u * m_v).reshape(m_u, m_v)
    return MeshImmersion(
        phi=phi.reshape(-1, 4),
        eta=eta.reshape(-1, 4),
        faces=grid_faces(np.vstack([index, index[:1]])),
    )


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

GALLERY_NAMES = (
    "geodesic-sphere",
    "round-degenerate",
    "incomplete-band",
    "cylinder-delaunay",
    "alpha-curve",
    "alpha-product",
)


def incomplete_band_field():
    """rho(s) = -log sqrt(1 - s^2) on the band |s| < 1, with analytic jets."""
    return radial_band_field(
        f=lambda s: -0.5 * np.log1p(-s * s),
        fs=lambda s: s / (1.0 - s * s),
        fss=lambda s: (1.0 + s * s) / (1.0 - s * s) ** 2,
    )


def cylinder_field():
    """rho(s) = -log cos s on the full band; complete toward both poles."""
    return radial_band_field(
        f=lambda s: -np.log(np.cos(s)),
        fs=np.tan,
        fss=lambda s: 1.0 / np.cos(s) ** 2,
    )


def make_example(name, **params):
    """Construct a named gallery entry.  Unknown names and out-of-range
    parameters raise; each payload reproduces its defining formula exactly."""
    if name == "geodesic-sphere":
        rho0 = float(params.pop("rho0", 0.5 * math.log(2.0)))
        _no_extra(name, params)
        if not abs(rho0) < math.inf:
            raise SingularParameterError(f"rho0 = {rho0} is not finite")
        if rho0 == 0.0:
            raise SingularParameterError(
                "rho0 = 0 collapses to a point; use round-degenerate for that")
        payload = ConformalMetric(StereographicChart(), constant_field(rho0))
        resolved = {"rho0": rho0}
    elif name == "round-degenerate":
        _no_extra(name, params)
        payload = ConformalMetric(StereographicChart(), constant_field(0.0))
        resolved = {}
    elif name == "incomplete-band":
        _no_extra(name, params)
        payload = ConformalMetric(BandChart(1.0), incomplete_band_field())
        resolved = {}
    elif name == "cylinder-delaunay":
        t = float(params.pop("t", 1.0))
        _no_extra(name, params)
        if not 0.0 < t < math.inf:
            raise SingularParameterError("cylinder example needs finite flow offset t > 0")
        payload = ConformalMetric(BandChart(), cylinder_field(), t=t)
        resolved = {"t": t}
    elif name == "alpha-curve":
        m = int(params.pop("m", 4096))
        _no_extra(name, params)
        payload = profile_curve(m)
        resolved = {"m": m}
    elif name == "alpha-product":
        m_u = int(params.pop("m_u", 96))
        m_v = int(params.pop("m_v", 9))
        length = float(params.pop("length", 1.0))
        _no_extra(name, params)
        payload = product_mesh(m_u, m_v, length)
        resolved = {"m_u": m_u, "m_v": m_v, "length": length}
    else:
        raise SingularParameterError(
            f"unknown example {name!r}; choose one of {', '.join(GALLERY_NAMES)}")
    return GalleryEntry(name=name, params=resolved, payload=payload)


def _no_extra(name, params):
    if params:
        raise SingularParameterError(
            f"unexpected parameters for {name}: {sorted(params)}")


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
    there are none.  Segments (curves) and triangles (meshes) go
    through one sweep over their closed bounding boxes, `_box_pairs`, then
    one narrow phase over all overlapping pairs.  Curves skip segment pairs
    within 2 of each other around the closed curve; meshes skip face pairs
    sharing a vertex."""
    if isinstance(payload, CurveImmersion):
        return _curve_crossings(payload)
    if isinstance(payload, MeshImmersion):
        return _mesh_crossings(payload)
    raise SingularParameterError("crossing scan expects a curve or mesh payload")


def _box_pairs(lo, hi):
    """Index pairs (i, j), i < j, of the closed boxes [lo, hi] (shape (n, d))
    that overlap, in lexicographic order.  Sort and sweep (Baraff, Cornell
    1992): in the order of the lower x bounds, a box meets the later boxes
    whose lower x bound lies in its x extent, one run per box.  The runs are
    expanded together and cut down one axis at a time, all in sorted
    positions on axis-major copies of the bounds; only the survivors map
    back to box indices, ordered by one sort of the int64 key i * n + j."""
    n = len(lo)
    order = np.argsort(lo[:, 0], kind="stable")
    lo, hi = lo[order].T.copy(), hi[order].T.copy()
    stop = np.searchsorted(lo[0], hi[0], side="right")
    counts = stop - np.arange(1, n + 1)
    a = np.repeat(np.arange(n), counts)
    b = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - stop, counts)
    for k in range(1, len(lo)):
        keep = np.flatnonzero((lo[k][b] <= hi[k][a]) & (lo[k][a] <= hi[k][b]))
        a, b = a[keep], b[keep]
    i, j = order[a], order[b]
    key = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
    return key // n, key % n


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
    i, j = _box_pairs(np.minimum(p, b), np.maximum(p, b))
    # segments within 2 of each other, across the closing seam too, are adjacent
    apart = (j - i >= 3) & (j - i <= m - 3)
    i, j = i[apart], j[apart]
    d1, d2, c, pi = seg[i], seg[j], p[j], p[i]
    hit = ((_cross(d1, c - pi) * _cross(d1, c + d2 - pi) < 0.0)
           & (_cross(d2, pi - c) * _cross(d2, b[i] - c) < 0.0))
    return np.stack([i[hit], j[hit]], axis=1)


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
    dropped (Moller, JGT 1997), and the slots left go through one
    `_segment_hits_triangle` call.  That kernel must stay LAPACK's: the
    v = 0 row of `product_mesh` lies exactly in the ball plane p3 = 0, so its
    edges meet other faces exactly on their edges (beta + gamma = 1), where
    rounding decides the hit, and a Cramer's-rule solve reports other counts."""
    faces = mesh.faces
    tri = mesh.ball_points()[faces]
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    area2 = np.linalg.norm(normal, axis=-1)
    if np.any(area2 < SCAN_EPS):
        raise SamplingError("degenerate triangle in the mesh")
    offset = np.vecdot(normal, tri[:, 0])
    i, j = _box_pairs(tri.min(axis=1), tri.max(axis=1))
    cols = faces.T.copy()
    fi, fj = [c[i] for c in cols], [c[j] for c in cols]
    shared = np.logical_or.reduce([x == y for x in fi for y in fj])
    i, j = i[~shared], j[~shared]
    # axis 1: face i's corners over face j's plane, then face j's over face i's
    face = np.stack([i, j], axis=1)
    plane = face[:, ::-1]
    height = np.vecdot(tri[face], normal[plane][:, :, None]) - offset[plane][..., None]
    tol = PLANE_MARGIN * area2[plane][..., None]
    above, below = height > tol, height < -tol
    a, b = np.array([0, 1, 2]), np.array([1, 2, 0])
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
    return np.stack([i[k], j[k]], axis=1)


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
    immediately for already-embedded input.
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
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


def _cluster_directions(dirs, radius):
    """Greedy clustering of the unit directions `dirs` (shape (m, d)).

    Directions are visited in input order.  Each joins the first cluster,
    in creation order, whose normalised running sum lies within `radius`
    of it, by arccos of the clipped dot product; that cluster's sum and
    normalised centre are updated.  Otherwise the direction starts a new
    cluster.  Joining moves a centre, so the result depends on the input
    order.  One `_near` call tests a direction against every centre.
    """
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


def boundary_at_infinity(entry, t=1.0, n_directions=64):
    """Ideal boundary of a gallery entry's conformal-metric payload, as
    clusters of escape directions within CLUSTER_RADIUS.

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
    whatever t.  A compact image yields an empty list.  Parameters that
    would make that answer meaningless are refused: n_directions must be at
    least 1, and immerse refuses a non-finite t.
    """
    if n_directions < 1:
        raise SingularParameterError(
            f"need at least one direction, got n_directions={n_directions}")
    metric = entry.payload
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
