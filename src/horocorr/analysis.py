"""Sampled geometry: example gallery, winding counts, embeddedness scans.

Curves live in the hyperbolic plane inside R^{1,2}; the one meshed surface
lives in R^{1,3}.  All crossing detection happens after projecting to the
Poincare ball, where segments and triangles are honest Euclidean objects.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .conformal import ConformalMetric
from .correspondence import immerse, ricatti, support_and_gauss
from .errors import (
    RootBracketError,
    SamplingError,
    SingularParameterError,
)
from .minkowski import mink_inner, to_poincare_ball
from .sphere import BandChart, StereographicChart, constant_field, radial_band_field

FRAME_RTOL = 1e-8


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
    """Sampled closed (or open) curve with its unit normal field.

    phi rows sit on the hyperboloid, eta rows on the unit de Sitter quadric,
    pointwise orthogonal.  kappa, when present, holds the principal curvature
    in the orientation of eta.  phi_fn/eta_fn allow exact resampling.
    """

    u: np.ndarray
    phi: np.ndarray
    eta: np.ndarray
    period: float
    closed: bool = True
    kappa: Optional[np.ndarray] = None
    phi_fn: Optional[Callable] = None
    eta_fn: Optional[Callable] = None
    kappa_fn: Optional[Callable] = None

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
        ch, sh = math.cosh(t), math.sinh(t)
        kappa = None
        if self.kappa is not None:
            try:
                kappa = ricatti(self.kappa, t)
            except SingularParameterError:
                kappa = None
        phi_fn = eta_fn = None
        if self.phi_fn is not None and self.eta_fn is not None:
            base_phi, base_eta = self.phi_fn, self.eta_fn

            def phi_fn(uu):
                return base_phi(uu) * ch + base_eta(uu) * sh

            def eta_fn(uu):
                return base_phi(uu) * sh + base_eta(uu) * ch

        return replace(
            self,
            phi=self.phi * ch + self.eta * sh,
            eta=self.phi * sh + self.eta * ch,
            kappa=kappa,
            phi_fn=phi_fn,
            eta_fn=eta_fn,
            kappa_fn=None,
        )

    def resample(self, m):
        if self.phi_fn is None or self.eta_fn is None:
            raise SamplingError("no closed-form sampler attached to this curve")
        u = np.linspace(0.0, self.period, m, endpoint=not self.closed)
        kappa = None if self.kappa_fn is None else self.kappa_fn(u)
        return replace(
            self, u=u, phi=self.phi_fn(u), eta=self.eta_fn(u), kappa=kappa)


@dataclass(frozen=True)
class MeshImmersion:
    """Triangulated hypersurface sample: vertex positions and unit normals in
    Minkowski coordinates plus a face index array."""

    phi: np.ndarray
    eta: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        _check_frame(self.phi, self.eta)

    @property
    def vertices_ball(self):
        return to_poincare_ball(self.phi)

    def flowed(self, t):
        ch, sh = math.cosh(t), math.sinh(t)
        return MeshImmersion(
            phi=self.phi * ch + self.eta * sh,
            eta=self.phi * sh + self.eta * ch,
            faces=self.faces,
        )


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    params: dict
    payload: object


# -- the profile curve --------------------------------------------------------

def _profile_jets(u):
    """Position and first two derivatives of the triple-cover profile curve."""
    u = np.asarray(u, dtype=float)
    r = np.sin(u / 2) * np.cos(u)
    R = np.cos(u / 2) - np.cos(3 * u / 2) / 3
    rp = 0.5 * np.cos(u / 2) * np.cos(u) - np.sin(u / 2) * np.sin(u)
    rpp = -1.25 * np.sin(u / 2) * np.cos(u) - np.cos(u / 2) * np.sin(u)
    Rp = -0.5 * np.sin(u / 2) + 0.5 * np.sin(3 * u / 2)
    Rpp = -0.25 * np.cos(u / 2) + 0.75 * np.cos(3 * u / 2)
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


def _profile_normal(u):
    # Lorentz cross of position and velocity, oriented so kappa < 1
    a, da, _ = _profile_jets(u)
    c = np.cross(a, da)
    w = c * np.array([-1.0, 1.0, 1.0])
    norm_sq = mink_inner(w, w)
    if np.any(norm_sq <= 0.0):
        raise SingularParameterError("degenerate tangent on the profile curve")
    return -w / np.sqrt(norm_sq)[..., None]


def profile_position(u):
    return _profile_jets(u)[0]


def profile_curvature(u):
    """Principal curvature of the profile curve in its convex orientation
    (every value stays below 1)."""
    a, da, dda = _profile_jets(u)
    return mink_inner(dda, _profile_normal(u)) / mink_inner(da, da)


def profile_curve(m=4096):
    period = 4.0 * math.pi
    u = np.linspace(0.0, period, m, endpoint=False)
    return CurveImmersion(
        u=u,
        phi=profile_position(u),
        eta=_profile_normal(u),
        period=period,
        closed=True,
        kappa=profile_curvature(u),
        phi_fn=profile_position,
        eta_fn=_profile_normal,
        kappa_fn=profile_curvature,
    )


def circle_curve(rho0, m=512):
    """Geodesic circle of hyperbolic radius rho0 > 0, outward normal."""
    if rho0 <= 0.0:
        raise SingularParameterError("circle radius must be positive")
    period = 2.0 * math.pi

    def position(u):
        u = np.asarray(u, dtype=float)
        return np.stack([
            np.full_like(u, math.cosh(rho0)),
            math.sinh(rho0) * np.cos(u),
            math.sinh(rho0) * np.sin(u)], axis=-1)

    def normal(u):
        u = np.asarray(u, dtype=float)
        return np.stack([
            np.full_like(u, math.sinh(rho0)),
            math.cosh(rho0) * np.cos(u),
            math.cosh(rho0) * np.sin(u)], axis=-1)

    def curvature(u):
        return np.full(np.shape(u), -1.0 / math.tanh(rho0))

    u = np.linspace(0.0, period, m, endpoint=False)
    return CurveImmersion(
        u=u, phi=position(u), eta=normal(u), period=period, closed=True,
        kappa=curvature(u), phi_fn=position, eta_fn=normal, kappa_fn=curvature)


def product_mesh(m_u=96, m_v=9, length=1.0):
    """Profile curve crossed with a geodesic translation family in R^{1,3}.

    Vertices are indexed row-major over the (u, v) grid; the u direction is
    periodic, the v direction is an open interval [-length, length].
    """
    if m_u < 3 or m_v < 2:
        raise SamplingError("mesh grid too coarse to triangulate")
    u = np.linspace(0.0, 4.0 * math.pi, m_u, endpoint=False)
    v = np.linspace(-length, length, m_v)
    a = profile_position(u)
    n = _profile_normal(u)
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
    """rho(s) = -log sqrt(1 - s^2) on |s| < 1, with analytic jets."""
    return radial_band_field(
        f=lambda s: -0.5 * np.log1p(-s * s),
        fs=lambda s: s / (1.0 - s * s),
        fss=lambda s: (1.0 + s * s) / (1.0 - s * s) ** 2,
        domain_s=lambda s: np.abs(s) < 1.0,
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
        if rho0 == 0.0:
            raise SingularParameterError(
                "rho0 = 0 collapses to a point; use round-degenerate for that")
        payload = ConformalMetric(StereographicChart(2), constant_field(rho0))
        resolved = {"rho0": rho0}
    elif name == "round-degenerate":
        _no_extra(name, params)
        payload = ConformalMetric(StereographicChart(2), constant_field(0.0))
        resolved = {}
    elif name == "incomplete-band":
        _no_extra(name, params)
        payload = ConformalMetric(BandChart(2), incomplete_band_field())
        resolved = {}
    elif name == "cylinder-delaunay":
        t = float(params.pop("t", 1.0))
        _no_extra(name, params)
        if t <= 0.0:
            raise SingularParameterError("cylinder example needs flow offset t > 0")
        payload = ConformalMetric(BandChart(2), cylinder_field(), t=t)
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
    if not curve.closed:
        raise SamplingError("winding is defined for closed curves only")
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

@dataclass(frozen=True)
class CrossingRecord:
    """One transversal crossing between parameter cells i and j (segment or
    face indices), with its ball-coordinate location."""

    i: int
    j: int
    point: np.ndarray
    params: Optional[tuple] = None


def self_intersections(payload, eps=1e-9):
    """All transversal self-crossings of the projected payload.

    Curves: every non-adjacent segment pair (adjacency window of 2 samples).
    Meshes: every face pair not sharing a vertex, after an axis-aligned
    bounding-box prefilter.
    """
    if isinstance(payload, CurveImmersion):
        return _curve_crossings(payload, eps)
    if isinstance(payload, MeshImmersion):
        return _mesh_crossings(payload, eps)
    raise SingularParameterError("crossing scan expects a curve or mesh payload")


def _curve_crossings(curve, eps):
    p = curve.ball_points()
    if p.shape[-1] != 2:
        raise SingularParameterError("crossing scan needs a curve in the plane model")
    m = len(p)
    if not curve.closed:
        raise SamplingError("crossing scan currently expects a closed curve")
    b = np.roll(p, -1, axis=0)
    seg = b - p
    if np.any(np.hypot(seg[:, 0], seg[:, 1]) < eps):
        raise SamplingError("zero-length segment in the sampled curve")
    lo = np.minimum(p, b)
    hi = np.maximum(p, b)
    records = []
    for i in range(m):
        js = np.arange(i + 3, m)
        if i <= 1:
            # wraparound adjacency with the last segments
            js = js[js < m - 2 + i]
        if len(js) == 0:
            continue
        box = ((lo[js, 0] <= hi[i, 0]) & (lo[i, 0] <= hi[js, 0])
               & (lo[js, 1] <= hi[i, 1]) & (lo[i, 1] <= hi[js, 1]))
        js = js[box]
        if len(js) == 0:
            continue
        d1 = seg[i]
        c = p[js]
        d2 = seg[js]
        r1 = d1[0] * (c[:, 1] - p[i, 1]) - d1[1] * (c[:, 0] - p[i, 0])
        r2 = d1[0] * (c[:, 1] + d2[:, 1] - p[i, 1]) - d1[1] * (c[:, 0] + d2[:, 0] - p[i, 0])
        s1 = d2[:, 0] * (p[i, 1] - c[:, 1]) - d2[:, 1] * (p[i, 0] - c[:, 0])
        s2 = d2[:, 0] * (b[i, 1] - c[:, 1]) - d2[:, 1] * (b[i, 0] - c[:, 0])
        hit = (r1 * r2 < 0.0) & (s1 * s2 < 0.0)
        for idx in np.nonzero(hit)[0]:
            j = int(js[idx])
            denom = d1[0] * d2[idx, 1] - d1[1] * d2[idx, 0]
            ti = ((c[idx, 0] - p[i, 0]) * d2[idx, 1]
                  - (c[idx, 1] - p[i, 1]) * d2[idx, 0]) / denom
            tj = ((c[idx, 0] - p[i, 0]) * d1[1]
                  - (c[idx, 1] - p[i, 1]) * d1[0]) / denom
            records.append(CrossingRecord(
                i=i, j=j, point=p[i] + ti * d1, params=(float(ti), float(tj))))
    return records


def _segment_hits_triangle(p0, p1, tri):
    """Strict interior crossings of segments p0->p1 with triangles tri
    (stacked along the first axis)."""
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
    return ok & inside, p0 + t[:, None] * d


def _mesh_crossings(mesh, eps):
    verts = mesh.vertices_ball
    faces = mesh.faces
    tri = verts[faces]
    area2 = np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=-1)
    if np.any(area2 < eps):
        raise SamplingError("degenerate triangle in the mesh")
    lo = tri.min(axis=1)
    hi = tri.max(axis=1)
    records = []
    n_faces = len(faces)
    for i in range(n_faces):
        js = np.arange(i + 1, n_faces)
        box = np.all((lo[js] <= hi[i]) & (lo[i] <= hi[js]), axis=-1)
        js = js[box]
        if len(js) == 0:
            continue
        shared = np.isin(faces[js], faces[i]).any(axis=1)
        js = js[~shared]
        if len(js) == 0:
            continue
        found = np.zeros(len(js), dtype=bool)
        where = np.zeros((len(js), 3))
        for a, b in ((0, 1), (1, 2), (2, 0)):
            hit, pt = _segment_hits_triangle(
                np.broadcast_to(tri[i, a], (len(js), 3)),
                np.broadcast_to(tri[i, b], (len(js), 3)), tri[js])
            new = hit & ~found
            where[new] = pt[new]
            found |= hit
            hit, pt = _segment_hits_triangle(
                tri[js][:, a], tri[js][:, b],
                np.broadcast_to(tri[i], (len(js), 3, 3)))
            new = hit & ~found
            where[new] = pt[new]
            found |= hit
        for idx in np.nonzero(found)[0]:
            records.append(CrossingRecord(
                i=i, j=int(js[idx]), point=where[idx]))
    return records


# -- embedding time -----------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingReport:
    """Certified first embedded flow time: crossing counts straddle the
    reported time within the bisection tolerance."""

    t_embedded: float
    crossings_before: Optional[int]
    crossings_after: int
    tolerance: float


def first_embedded_time(payload, t_max=5.0, tol=1e-2):
    """Bisection on 'the flowed payload has no self-crossings'.

    Raises when the payload still crosses itself at t_max; returns time 0
    immediately for already-embedded input.
    """
    if tol <= 0.0 or t_max <= 0.0:
        raise SingularParameterError("need positive t_max and tolerance")

    def count(t):
        return len(self_intersections(payload.flowed(t) if t else payload))

    c0 = count(0.0)
    if c0 == 0:
        return EmbeddingReport(0.0, None, 0, tol)
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
    return EmbeddingReport(hi, c_lo, 0, tol)


# -- boundary at infinity -----------------------------------------------------

@dataclass(frozen=True)
class BoundaryCluster:
    direction: np.ndarray   # unit vector toward the ideal boundary
    count: int


def domain_edge(metric, sign, limit):
    """Largest radius along a coordinate ray that stays inside the field's
    domain, by bisection against the domain predicate."""
    probe = np.zeros(metric.chart.n)

    def inside(s):
        probe[0] = sign * s
        return metric.rho.in_domain(metric.chart, probe)

    if not inside(1e-9):
        raise SamplingError("field domain does not contain the chart center")
    lo, hi = 1e-9, limit
    if inside(hi):
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _cluster_directions(dirs, radius):
    """Greedy clustering of the unit directions `dirs` (shape (m, d)).

    Directions are visited in input order.  Each joins the first cluster,
    in creation order, whose normalised running sum lies within `radius`
    of it, by arccos of the clipped dot product; that cluster's sum and
    normalised centre are updated.  Otherwise the direction starts a new
    cluster.  Joining moves a centre, so the result depends on the input
    order.  Each direction is compared with every centre in one array
    operation; only the cluster that changed is renormalised.
    """
    sums = np.empty_like(dirs)
    centers = np.empty_like(dirs)
    counts = []
    for v in dirs:
        k = len(counts)
        # vecdot runs the same dot kernel as `u @ w` on two vectors, so every
        # decision is bit for bit that of one pairwise comparison
        dots = np.clip(np.vecdot(centers[:k], v), -1.0, 1.0)
        near = np.flatnonzero(np.arccos(dots) < radius)
        if near.size:
            j = near[0]
            sums[j] = sums[j] + v
            counts[j] += 1
        else:
            j = k
            sums[j] = v
            counts.append(1)
        centers[j] = sums[j] / np.linalg.norm(sums[j])
    return [BoundaryCluster(c, n) for c, n in zip(centers[:len(counts)].copy(), counts)]


def boundary_at_infinity(entry, escape_threshold=0.999, t=1.0,
                         n_directions=64, max_depth=40, cluster_radius=0.05):
    """Ideal boundary estimate of an immersed metric payload.

    Samples the domain along ladders accumulating at its edge, immerses,
    projects to the ball, keeps points with |p| > escape_threshold and
    clusters their directions.  A compact image yields an empty list.
    Parameters that would make that answer meaningless are refused:
    escape_threshold must lie in (0, 1), cluster_radius in (0, pi/2] (so a
    direction joins a cluster only when its dot product with the centre is
    positive, and no cluster sum can cancel), t must be finite and
    n_directions, max_depth at least 1.
    """
    if not 0.0 < escape_threshold < 1.0:
        raise SingularParameterError(
            f"escape threshold must lie in (0, 1), got {escape_threshold}")
    if not 0.0 < cluster_radius <= math.pi / 2:
        raise SingularParameterError(
            f"cluster radius must lie in (0, pi/2], got {cluster_radius}")
    if n_directions < 1 or max_depth < 1:
        raise SingularParameterError(
            f"need at least one direction and one ladder level, got "
            f"n_directions={n_directions}, max_depth={max_depth}")
    if not math.isfinite(t):
        raise SingularParameterError(f"flow time must be finite, got {t}")
    metric = entry.payload if isinstance(entry, GalleryEntry) else entry
    if not isinstance(metric, ConformalMetric):
        raise SingularParameterError(
            "boundary tracing needs a conformal-metric payload")
    chart = metric.chart
    angles = np.linspace(0.0, 2.0 * np.pi, n_directions, endpoint=False)
    if chart.kind == "band":
        if chart.n != 2:
            raise SingularParameterError("band boundary tracing implemented for n = 2")
        ladder = 1.0 - 2.0 ** -np.arange(1.0, max_depth + 1)
        arcs = np.concatenate([sign * domain_edge(metric, sign, np.pi / 2) * ladder
                               for sign in (1.0, -1.0)])
        probes = np.stack(np.meshgrid(arcs, angles, indexing="ij"), axis=-1)
    elif chart.kind == "stereographic":
        radii = 2.0 ** np.arange(float(max_depth))
        circle = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        probes = radii[:, None, None] * circle
    else:
        raise SingularParameterError(f"unknown chart kind {chart.kind!r}")
    probes = probes.reshape(-1, 2)
    probes = probes[metric.rho.in_domain(chart, probes)]
    p = to_poincare_ball(immerse(metric, probes, t).phi)
    norm = np.linalg.norm(p, axis=-1)
    escaped = norm > escape_threshold
    return _cluster_directions(p[escaped] / norm[escaped][:, None], cluster_radius)
