"""Tests for the gallery, winding counts, crossing scans and boundary tracing."""

import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from horocorr import analysis, cli
from horocorr.analysis import (
    EmbeddingReport,
    Immersion,
    BoundaryCluster,
    boundary_at_infinity,
    circle_curve,
    closed_curve,
    first_embedded_time,
    gauss_winding,
    make_example,
    product_mesh,
    profile_curve,
    self_intersections,
)
from horocorr.conformal import ConformalMetric, schouten
from horocorr.correspondence import CANONICAL, lambda_kappa
from horocorr.errors import (
    ChartDomainError,
    GeometryError,
    HyperquadricError,
    RootBracketError,
    SamplingError,
    SingularParameterError,
)
from horocorr.minkowski import MAX_SAMPLES, from_poincare_ball, mink_inner
from horocorr.sphere import (
    BandChart,
    ScalarField,
    StereographicChart,
    constant_field,
    radial_band_field,
)
from horocorr.verify import CRITERIA


def reference_cluster_directions(dirs, radius):
    # the original per-pair greedy loop, kept as the oracle for
    # analysis._cluster_directions, which tests all centres at once
    clusters = []
    for v in dirs:
        for c in clusters:
            center = c[0] / np.linalg.norm(c[0])
            if math.acos(float(np.clip(v @ center, -1.0, 1.0))) < radius:
                c[0] = c[0] + v
                c[1] += 1
                break
        else:
            clusters.append([v.copy(), 1])
    return [BoundaryCluster(c[0] / np.linalg.norm(c[0]), c[1]) for c in clusters]


def band_horosphere():
    """rho = -log(2 sin^2(pi/4 - s/2)), which is -log(1 - sin s), on the band:
    a horosphere whose one ideal point is the north pole."""
    return ConformalMetric(BandChart(), radial_band_field(
        f=lambda s: -np.log(2.0 * np.sin(np.pi / 4 - s / 2) ** 2),
        fs=lambda s: 1.0 / np.tan(np.pi / 4 - s / 2),
        fss=lambda s: 0.5 / np.sin(np.pi / 4 - s / 2) ** 2))


def stereographic_horosphere():
    """rho = log((1 + |u|^2)/2) on the stereographic chart: a horosphere
    whose one ideal point is the chart's missing pole."""
    def value(u):
        return np.log(0.5 * (1.0 + np.sum(u * u, axis=-1)))

    def gradient(u):
        return 2.0 * u / (1.0 + np.sum(u * u, axis=-1))[..., None]

    def hessian(u):
        f = 1.0 + np.sum(u * u, axis=-1)[..., None, None]
        return 2.0 * np.eye(2) / f - 4.0 * u[..., :, None] * u[..., None, :] / f**2

    return ConformalMetric(StereographicChart(), ScalarField(value, gradient, hessian))


def boundary_metric(name):
    # the gallery's metric examples and the two horospheres, which are not
    # in the gallery
    if name == "band-horosphere":
        return band_horosphere()
    if name == "stereographic-horosphere":
        return stereographic_horosphere()
    return make_example(name).payload


def reference_curve_crossings(curve):
    # the original per-segment loop, kept as the oracle for the sweep in
    # analysis._curve_crossings
    p = curve.ball_points()
    m = len(p)
    b = np.roll(p, -1, axis=0)
    seg = b - p
    lo = np.minimum(p, b)
    hi = np.maximum(p, b)
    pairs = []
    for i in range(m):
        js = np.arange(i + 2, m)
        if i == 0:
            # the last segment shares vertex 0 with the first
            js = js[js < m - 1]
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
        pairs += [(i, int(j)) for j in js[hit]]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def brute_force_curve_crossings(curve):
    # every segment pair i < j whose vertex sets {i, i + 1}, {j, j + 1}
    # (mod m) are disjoint, through the same strict two-sided test; no boxes
    p = curve.ball_points()
    m = len(p)
    b = np.roll(p, -1, axis=0)

    def side(a, d, q):
        return d[0] * (q[1] - a[1]) - d[1] * (q[0] - a[0])

    pairs = []
    for i in range(m):
        for j in range(i + 1, m):
            if {i, (i + 1) % m} & {j, (j + 1) % m}:
                continue
            d1, d2 = b[i] - p[i], b[j] - p[j]
            if (side(p[i], d1, p[j]) * side(p[i], d1, b[j]) < 0.0
                    and side(p[j], d2, p[i]) * side(p[j], d2, b[i]) < 0.0):
                pairs.append((i, j))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def reference_mesh_crossings(mesh):
    # the original per-face loop, kept as the oracle for the sweep in
    # analysis._mesh_crossings
    faces = mesh.cells
    tri = mesh.ball_points()[faces]
    lo = tri.min(axis=1)
    hi = tri.max(axis=1)
    pairs = []
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
        for a, b in ((0, 1), (1, 2), (2, 0)):
            found |= analysis._segment_hits_triangle(
                np.broadcast_to(tri[i, a], (len(js), 3)),
                np.broadcast_to(tri[i, b], (len(js), 3)), tri[js])
            found |= analysis._segment_hits_triangle(
                tri[js][:, a], tri[js][:, b],
                np.broadcast_to(tri[i], (len(js), 3, 3)))
        pairs += [(i, int(j)) for j in js[found]]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def brute_force_mesh_crossings(mesh):
    # every face pair i < j at once: the closed-box test on all axes, the
    # shared-vertex drop, then the six edge tests of the per-face loop; no
    # sort, sweep or plane rejection
    faces = mesh.cells
    tri = mesh.ball_points()[faces]
    lo = tri.min(axis=1)
    hi = tri.max(axis=1)
    i, j = np.triu_indices(len(faces), 1)
    box = np.ones(len(i), dtype=bool)
    for axis in range(3):
        box &= (lo[j, axis] <= hi[i, axis]) & (lo[i, axis] <= hi[j, axis])
    i, j = i[box], j[box]
    shared = (faces[i][:, :, None] == faces[j][:, None, :]).any(axis=(1, 2))
    i, j = i[~shared], j[~shared]
    found = np.zeros(len(i), dtype=bool)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        for edge, other in ((i, j), (j, i)):
            found |= analysis._segment_hits_triangle(
                tri[edge, a], tri[edge, b], tri[other])
    return np.stack([i[found], j[found]], axis=1).astype(np.int64)


def assert_same_records(got, want):
    assert got.dtype == np.int64 and got.shape == (len(got), 2)
    assert want.dtype == np.int64 and want.shape == (len(want), 2)
    np.testing.assert_array_equal(got, want)


def assert_same_clusters(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.count == b.count
        np.testing.assert_array_equal(a.direction, b.direction)


def lifted_normal(phi, w):
    # project an ambient direction onto the tangent-orthogonal unit normal
    w = np.broadcast_to(np.asarray(w, float), phi.shape).copy()
    w = w + mink_inner(w, phi)[..., None] * phi
    return w / np.sqrt(mink_inner(w, w))[..., None]


def piercing_mesh(shift=0.0):
    """Two transversal triangles whose normal flows pull them apart; a shift
    moves the second along the first axis, 0.5 clear of the first."""
    ball = np.array([
        [-0.02, -0.10, -0.10],
        [-0.02, 0.20, -0.10],
        [-0.02, -0.10, 0.20],
        [-0.12 + shift, 0.00, 0.00],
        [0.08 + shift, -0.06, 0.00],
        [0.08 + shift, 0.06, 0.00],
    ])
    phi = from_poincare_ball(ball)
    eta = np.vstack([
        lifted_normal(phi[:3], np.array([0.0, 1.0, 0.0, 0.0])),
        lifted_normal(phi[3:], np.array([0.0, -1.0, 0.0, 0.0])),
    ])
    return Immersion(phi, eta, np.array([[0, 1, 2], [3, 4, 5]]))


# each example's resolved default parameters, value, type and order pinned
GALLERY_DEFAULTS = {
    "geodesic-sphere": {"rho0": 0.5 * math.log(2.0)},
    "round-degenerate": {},
    "incomplete-band": {},
    "cylinder-delaunay": {"t": 1.0},
    "alpha-curve": {"m": 4096},
    "alpha-product": {"m_u": 96, "m_v": 9, "length": 1.0},
}


class TestGalleryEntries:
    def test_names_in_listing_order(self):
        assert analysis.GALLERY_NAMES == tuple(GALLERY_DEFAULTS)

    @pytest.mark.parametrize("name", analysis.GALLERY_NAMES)
    def test_default_params(self, name):
        params = make_example(name).params
        expected = GALLERY_DEFAULTS[name]
        assert list(params.items()) == list(expected.items())
        assert list(map(type, params.values())) == list(map(type, expected.values()))

    def test_params_coerced_to_default_types(self):
        entry = make_example("alpha-curve", m=64.0)
        assert entry.params == {"m": 64} and type(entry.params["m"]) is int
        assert len(entry.payload.phi) == 64
        mesh = make_example("alpha-product", m_u=24.0, m_v=5, length=1).params
        assert list(map(type, mesh.values())) == [int, int, float]

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([(name, key) for name, defaults in GALLERY_DEFAULTS.items()
                            for key in defaults]), st.data())
    def test_parameters_convert_exactly_or_are_refused(self, parameter, data):
        # m = 7.9 once built 7 samples; NaN, inf, "x" and None escaped as
        # ValueError, OverflowError or TypeError; length = inf warned
        name, key = parameter
        kind = type(GALLERY_DEFAULTS[name][key])
        # sizes stay small, as a huge m or m_u * m_v allocates its samples
        wide = st.floats(-64.0, 64.0) if kind is int else st.floats()
        value = data.draw(st.one_of(st.integers(-3, 40), wide, st.sampled_from(
            [7.9, 64.0, math.nan, math.inf, -math.inf, True, None, "x", "7", 1j])))
        exact = isinstance(value, (int, float)) and (   # bool is an int
            kind is float or (math.isfinite(value) and value == int(value)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                entry = make_example(name, **{key: value})
            except GeometryError as exc:
                assert exact or (type(exc) is SingularParameterError and key in str(exc))
                return
        assert exact
        assert entry.params[key] == value and type(entry.params[key]) is kind

    def test_refusal_messages(self):
        with pytest.raises(SingularParameterError) as unknown:
            make_example("klein-bottle")
        assert str(unknown.value) == (
            "unknown example 'klein-bottle'; choose one of geodesic-sphere, "
            "round-degenerate, incomplete-band, cylinder-delaunay, alpha-curve, "
            "alpha-product")
        with pytest.raises(SingularParameterError) as extra:
            make_example("alpha-product", z=1, m_u=24, a=2)
        assert str(extra.value) == "unexpected parameters for alpha-product: ['a', 'z']"
        with pytest.raises(SingularParameterError) as zero:
            make_example("geodesic-sphere", rho0=0)
        assert str(zero.value) == (
            "rho0 = 0 collapses to a point; use round-degenerate for that")

    def test_profile_reference_point(self):
        curve = make_example("alpha-curve", m=64).payload
        expected = np.array([math.cosh(2 / 3), 0.0, math.sinh(2 / 3)])
        assert np.allclose(curve.phi[0], expected, atol=1e-12)

    def test_profile_closes_up(self):
        start, end = (analysis._profile_frame(np.array([u])) for u in (0.0, 4 * np.pi))
        for a, b in zip(start, end):
            assert np.allclose(a, b, atol=1e-12)

    def test_band_value_at_half(self):
        metric = make_example("incomplete-band").payload
        value = metric.rho.value(np.array([0.5, 0.0]))
        assert value == pytest.approx(-0.5 * math.log(0.75), abs=1e-13)

    def test_cylinder_spectrum_with_offset(self):
        metric = make_example("cylinder-delaunay", t=0.7).payload
        eig = schouten(metric, np.array([0.3, 1.1])).eigenvalues
        half = 0.5 * math.exp(-1.4)
        assert np.allclose(eig, [-half, half], atol=1e-9)

    def test_metric_entries_are_two_dimensional(self):
        # mesh export and band boundary tracing assume charts on S^2
        metrics = [entry.payload for entry in map(make_example, analysis.GALLERY_NAMES)
                   if isinstance(entry.payload, ConformalMetric)]
        assert metrics and all(metric.chart.n == 2 for metric in metrics)

    def test_sphere_requires_radius(self):
        with pytest.raises(SingularParameterError):
            make_example("geodesic-sphere", rho0=0.0)
        entry = make_example("geodesic-sphere", rho0=0.3)
        assert entry.params["rho0"] == 0.3

    def test_degenerate_round_entry(self):
        metric = make_example("round-degenerate").payload
        assert metric.rho.value(np.array([0.4, -0.2])) == 0.0

    def test_unknown_name_and_stray_params(self):
        with pytest.raises(SingularParameterError):
            make_example("klein-bottle")
        with pytest.raises(SingularParameterError):
            make_example("alpha-curve", radius=2.0)
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(SingularParameterError, match="finite flow offset t > 0"):
                make_example("cylinder-delaunay", t=t)
        for rho0 in (math.nan, math.inf, -math.inf):
            with pytest.raises(SingularParameterError, match="not finite"):
                make_example("geodesic-sphere", rho0=rho0)

    def test_product_vertices_inside_ball(self):
        mesh = make_example("alpha-product", m_u=24, m_v=5, length=0.8).payload
        radii = np.linalg.norm(mesh.ball_points(), axis=1)
        assert np.all(radii < 1.0)
        assert mesh.cells.shape == (2 * 24 * 4, 3)


class TestProfileJets:
    def test_one_jet_evaluation_per_build(self, monkeypatch):
        calls = []
        jets = analysis._profile_jets
        monkeypatch.setattr(analysis, "_profile_jets",
                            lambda u: calls.append(1) or jets(u))
        profile_curve(64)
        assert len(calls) == 1
        product_mesh(96, 9, 1.0)
        assert len(calls) == 2


class TestCurveType:
    @pytest.mark.parametrize("broken, message", [
        (lambda c: {"phi": 1.1 * c.phi}, "positions leave the hyperboloid"),
        (lambda c: {"eta": 1.1 * c.eta}, "normals are not unit spacelike"),
        # eta cosh s + phi sinh s stays unit spacelike, at <phi, eta> = -sinh s
        (lambda c: {"eta": math.cosh(0.1) * c.eta + math.sinh(0.1) * c.phi},
         "normals are not orthogonal to positions"),
        (lambda c: {"phi": np.where(np.arange(32)[:, None] == 5, np.nan, c.phi)},
         "positions leave the hyperboloid"),
        (lambda c: {"eta": np.where(np.arange(32)[:, None] == 5, np.nan, c.eta)},
         "normals are not unit spacelike"),
        # on the quadrics and orthogonal, but on the hyperboloid's lower sheet
        (lambda c: {"phi": -c.phi, "eta": -c.eta}, "positions leave the hyperboloid"),
    ], ids=["off-hyperboloid", "not-unit", "not-orthogonal", "nan-position", "nan-normal",
            "lower-sheet"])
    def test_frame_validation(self, broken, message):
        curve = circle_curve(0.5, 32)
        with pytest.raises(HyperquadricError) as err:
            replace(curve, **broken(curve))
        assert str(err.value) == message

    @pytest.mark.parametrize("m", [6, 3, 2, 0, -5])
    def test_profile_needs_seven_samples(self, m):
        with pytest.raises(SamplingError) as err:
            profile_curve(m)
        assert str(err.value) == f"m = {m} is not an integer in [7, {MAX_SAMPLES}]"
        assert len(profile_curve(7).phi) == 7

    def test_profile_winding_is_three_or_refused(self):
        # the direction map turns three times; at m = 3..6 every step is at
        # least half a turn, too coarse for gauss_winding to read the turns
        for m in range(3, 41):
            try:
                assert gauss_winding(profile_curve(m)) == 3, m
            except SamplingError:
                pass

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_nonfinite_flow_time_rejected(self, t):
        # refused by name before cosh and sinh build NaN or inf frames
        with pytest.raises(SingularParameterError, match="flow time .* is not finite"):
            profile_curve(64).flowed(t)
        with pytest.raises(SingularParameterError, match="flow time .* is not finite"):
            make_example("alpha-product").payload.flowed(t)

    def test_flowed_matches_direct_formula(self):
        t = 0.35
        for payload in (profile_curve(128), circle_curve(0.7, 256), product_mesh(24, 5, 0.8)):
            moved = payload.flowed(t)
            expected_phi = payload.phi * math.cosh(t) + payload.eta * math.sinh(t)
            expected_eta = payload.phi * math.sinh(t) + payload.eta * math.cosh(t)
            assert np.allclose(moved.phi, expected_phi, atol=1e-12)
            assert np.allclose(moved.eta, expected_eta, atol=1e-12)
            assert moved.cells is payload.cells and moved.t == t

    @pytest.mark.parametrize("m", [3, 4, 5, 256])
    @pytest.mark.parametrize("rho0", [1e-310, 1e-9, 0.7, 2.0, 41.3, 354.198])
    def test_circle_matches_closed_form(self, rho0, m):
        # the geodesic circle of radius rho0 with its outward normal, in
        # closed form, bit for bit, signed zeros of an underflowing sinh too
        u = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        ch, sh = math.cosh(rho0), math.sinh(rho0)
        phi = np.stack([np.full_like(u, ch), sh * np.cos(u), sh * np.sin(u)], axis=-1)
        eta = np.stack([np.full_like(u, sh), ch * np.cos(u), ch * np.sin(u)], axis=-1)
        curve = circle_curve(rho0, m)
        assert curve.phi.tobytes() == phi.tobytes()
        assert curve.eta.tobytes() == eta.tobytes()
        np.testing.assert_array_equal(curve.cells, [(i, (i + 1) % m) for i in range(m)])

    @pytest.mark.parametrize("rho0, message", [
        (800.0, "flow time = 800.0 is not finite"),
        (math.inf, "flow time = inf is not finite"),
        (math.nan, "circle radius must be positive"),
        (0.0, "circle radius must be positive"),
        (-1.0, "circle radius must be positive")])
    def test_circle_radius_refused(self, rho0, message):
        with pytest.raises(SingularParameterError, match=message):
            circle_curve(rho0, 16)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_circle_needs_three_samples(self, m):
        # m = 0 built an empty curve, certified embedded at t = 0 with
        # winding 0; m = 2 wound twice
        with pytest.raises(SamplingError) as err:
            circle_curve(0.5, m)
        assert str(err.value) == f"m = {m} is not an integer in [3, {MAX_SAMPLES}]"


METRIC = make_example("incomplete-band").payload

# each builder or command by the count it takes: (call with count n, the
# count's name, its minimum)
COUNTED = {
    "profile_curve": (profile_curve, "m", 7),
    "circle_curve": (lambda n: circle_curve(0.5, n), "m", 3),
    "product_mesh-m_u": (lambda n: product_mesh(n, 9, 1.0), "m_u", 3),
    "product_mesh-m_v": (lambda n: product_mesh(96, n, 1.0), "m_v", 2),
    "boundary_at_infinity": (lambda n: boundary_at_infinity(METRIC, n_directions=n),
                             "n_directions", 1),
    "metric_mesh": (lambda n: cli._metric_mesh(METRIC, n, 0.0), "azimuths", 3),
    "metric_samples": (lambda n: cli._metric_samples(METRIC, n, np.random.default_rng(0)),
                       "samples", 0),
}


def refusal(build):
    """The SamplingError message of build(), and the tracemalloc peak in
    bytes on the way to it."""
    tracemalloc.start()
    try:
        with pytest.raises(SamplingError) as err:
            build()
        return str(err.value), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSampleCount:
    # one rule, minkowski.sample_count, refuses every count that is not an
    # integer in [minimum, MAX_SAMPLES], before anything sized by it exists
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(COUNTED)), st.data())
    def test_refused_by_name_before_allocation(self, case, data):
        build, name, minimum = COUNTED[case]
        n = data.draw(st.one_of(
            st.sampled_from([7.5, math.nan, "7"]),
            st.integers(max_value=minimum - 1),
            st.integers(MAX_SAMPLES + 1, 10**30)))
        message, peak = refusal(lambda: build(n))
        assert message == f"{name} = {n!r} is not an integer in [{minimum}, {MAX_SAMPLES}]"
        assert peak < 1e6

    @pytest.mark.parametrize("build, message", [
        (lambda: product_mesh(300, 300, 1.0), "m_u * m_v = 90000"),
        (lambda: boundary_at_infinity(METRIC, n_directions=16385), "4 * n_directions = 65540"),
        (lambda: cli._metric_mesh(METRIC, 363, 0.0), "mesh vertices = 65703"),
    ], ids=["product-mesh", "boundary-probes", "metric-mesh"])
    def test_products_of_counts_in_range(self, build, message):
        # every factor passes; the points they make together do not
        got, peak = refusal(build)
        assert got == f"{message} is not an integer in [1, {MAX_SAMPLES}]"
        assert peak < 1e6

    def test_bounds_are_taken(self):
        assert len(profile_curve(MAX_SAMPLES).phi) == MAX_SAMPLES
        assert len(product_mesh(3, 2, 1.0).phi) == 6
        assert cli._metric_samples(METRIC, 0, np.random.default_rng(0)).shape == (0, 2)
        assert len(cli._metric_mesh(METRIC, 362, 0.0).phi) == 362 * 181


class TestWinding:
    def test_profile_winds_three_times(self):
        assert gauss_winding(profile_curve(4096)) == 3
        assert gauss_winding(profile_curve(8192)) == 3

    def test_circle_winds_once(self):
        assert gauss_winding(circle_curve(0.7, 256)) == 1

    def test_coarse_sampling_rejected(self):
        with pytest.raises(SamplingError, match="direction jumps by nearly a half turn"):
            gauss_winding(profile_curve(8))


class TestCrossings:
    def test_circle_is_embedded(self):
        assert self_intersections(circle_curve(0.9, 512)).shape == (0, 2)

    @pytest.mark.parametrize("payload", [circle_curve(0.7, 256), piercing_mesh(0.5)],
                             ids=["circle", "faces-apart"])
    def test_no_crossing_is_empty_pair_array(self, payload):
        pairs = self_intersections(payload)
        assert pairs.dtype == np.int64 and pairs.shape == (0, 2)

    def test_profile_count_stable_under_refinement(self):
        count = len(self_intersections(profile_curve(4096)))
        assert count == 8
        assert len(self_intersections(profile_curve(8192))) == count

    def test_records_well_formed(self):
        curve = profile_curve(2048)
        pairs = self_intersections(curve)
        m = len(curve.phi)
        assert len(pairs) > 0
        for i, j in pairs:
            assert 0 <= i < j < m
            assert min(j - i, m - (j - i)) > 1

    def test_flow_does_not_clear_triple_cover(self):
        # the direction map winds three times; an embedded closed curve
        # winds once, so crossings must survive arbitrary flow times
        flowed = profile_curve(1024).flowed(5.0)
        assert len(self_intersections(flowed)) > 0

    def test_zero_length_segment_rejected(self):
        curve = circle_curve(0.5, 64)
        stalled = replace(
            curve,
            phi=np.repeat(curve.phi[::2], 2, axis=0),
            eta=np.repeat(curve.eta[::2], 2, axis=0),
        )
        with pytest.raises(SamplingError):
            self_intersections(stalled)

    @pytest.mark.parametrize("width", [1, 4])
    def test_other_cell_widths_refused(self, monkeypatch, width):
        # only segments and triangles have a scan; nothing reaches the mesh scan
        def unreachable(payload):
            raise AssertionError("mesh scan reached")

        monkeypatch.setattr(analysis, "_mesh_crossings", unreachable)
        curve = circle_curve(0.7, 16)
        cells = np.arange(16 * width).reshape(16, width) % 16
        with pytest.raises(SingularParameterError, match="curve or mesh payload"):
            self_intersections(Immersion(curve.phi, curve.eta, cells))

    def test_mesh_pierce_detected(self):
        np.testing.assert_array_equal(self_intersections(piercing_mesh()), [[0, 1]])

    def test_product_mesh_crosses_itself(self):
        mesh = make_example("alpha-product", m_u=96, m_v=5, length=0.6).payload
        assert len(self_intersections(mesh)) > 0


def seam_loop_curve():
    """Closed polygon whose segment m - 2 crosses segment 0, two apart
    across the closing seam: the two share no vertex, so the crossing is
    reported."""
    ball = np.array([
        [0.0, 0.0], [0.2, 0.0], [0.3, -0.2], [0.2, -0.4],
        [-0.1, -0.4], [-0.2, -0.2], [0.1, -0.1], [0.1, 0.1],
    ])
    phi = from_poincare_ball(ball)
    return closed_curve(phi, lifted_normal(phi, [0.0, 0.0, 1.0]))


def brute_force_box_pairs(lo, hi):
    n = len(lo)
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if np.all(lo[i] <= hi[j]) and np.all(lo[j] <= hi[i])]


def grid_boxes(d):
    # integer corners and extents, so lower-bound ties, boxes that only
    # touch and zero-width boxes are common
    corner = st.lists(st.integers(0, 6), min_size=d, max_size=d)
    extent = st.lists(st.integers(0, 3), min_size=d, max_size=d)

    def build(boxes):
        lo = np.array([c for c, _ in boxes], dtype=float).reshape(-1, d)
        return lo, lo + np.array([e for _, e in boxes], dtype=float).reshape(-1, d)

    return st.lists(st.tuples(corner, extent), max_size=30).map(build)


@st.composite
def tied_float_boxes(draw, d):
    # float corners and extents, with the lower x bounds drawn from at most
    # three shared values, so the stable sort meets many ties
    xs = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
    n = draw(st.integers(0, 30))
    row = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    lo = np.array(draw(st.lists(row, min_size=n, max_size=n))).reshape(n, d)
    lo[:, 0] = [draw(st.sampled_from(xs)) for _ in range(n)]
    extent = st.lists(st.floats(0.0, 0.5), min_size=d, max_size=d)
    return lo, lo + np.array(draw(st.lists(extent, min_size=n, max_size=n))).reshape(n, d)


def box_pairs(lo, hi):
    # analysis._box_pairs' blocks, concatenated and ordered by the key i * n + j
    blocks = list(analysis._box_pairs(lo, hi))
    for i, j in blocks:
        assert i.dtype == j.dtype == np.int64
        assert np.all(i < j)
    i = np.concatenate([np.zeros(0, np.int64), *(i for i, _ in blocks)])
    j = np.concatenate([np.zeros(0, np.int64), *(j for _, j in blocks)])
    order = np.argsort(i * len(lo) + j, kind="stable")
    return i[order], j[order]


ONE_BLOCK = 2**62   # a _PAIR_BLOCK no candidate count reaches


class TestBoxPairs:
    @pytest.mark.parametrize("block", [1, 7, analysis._PAIR_BLOCK])
    def test_matches_brute_force(self, block):
        # hypothesis does not reset function-scoped fixtures between examples,
        # so the block size is patched around the whole run
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_PAIR_BLOCK", block)
            self.check_brute_force()

    @staticmethod
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(
        lambda d: st.one_of(grid_boxes(d), tied_float_boxes(d))))
    def check_brute_force(boxes):
        lo, hi = boxes
        i, j = box_pairs(lo, hi)
        # a pair found in two blocks would show up twice here
        assert list(zip(i.tolist(), j.tolist())) == brute_force_box_pairs(lo, hi)

    def test_long_chain_of_touching_boxes(self):
        # n * n exceeds 2**32, so the pair key i * n + j needs 64 bits
        n = 70_000
        lo = np.repeat(np.arange(n, dtype=float)[:, None], 3, axis=1)
        assert len(list(analysis._box_pairs(lo, lo + 1.0))) > 1
        i, j = box_pairs(lo, lo + 1.0)
        np.testing.assert_array_equal(i, np.arange(n - 1))
        np.testing.assert_array_equal(j, np.arange(1, n))

    @pytest.mark.parametrize("d", [2, 3])
    def test_empty_and_single(self, d):
        for n in (0, 1):
            i, j = box_pairs(np.zeros((n, d)), np.ones((n, d)))
            assert len(i) == len(j) == 0

    def test_touching_boxes_overlap(self):
        lo = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 2.0, 0.0]])
        i, j = box_pairs(lo, lo + 1.0)
        assert list(zip(i.tolist(), j.tolist())) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("payload", [
        *[make_example("alpha-product").payload.flowed(t) for t in (0.0, 1.0, 5.0)],
        *[profile_curve(m).flowed(t) for m in (1024, 8192) for t in (0.0, 5.0)],
    ], ids=[*[f"mesh-t{t}" for t in (0, 1, 5)],
            *[f"curve-{m}-t{t}" for m in (1024, 8192) for t in (0, 5)]])
    def test_scan_does_not_depend_on_the_block_size(self, payload, monkeypatch):
        # every test acts on one pair, and the hits are ordered by one final
        # sort, so where a block ends changes no bit of the scan
        monkeypatch.setattr(analysis, "_PAIR_BLOCK", ONE_BLOCK)
        whole = self_intersections(payload)
        monkeypatch.setattr(analysis, "_PAIR_BLOCK", 64)
        blocked = self_intersections(payload)
        assert len(whole) > 0
        assert (blocked.dtype, blocked.shape) == (whole.dtype, whole.shape)
        assert blocked.tobytes() == whole.tobytes()


FLOW_TIMES = [0.25 * k for k in range(21)]


class TestSweepMatchesReference:
    @pytest.mark.parametrize("t", [0.0, 1.0, 2.5, 5.0])
    @pytest.mark.parametrize("m", [1024, 8192])
    def test_profile_curve(self, m, t):
        curve = profile_curve(m).flowed(t)
        assert_same_records(self_intersections(curve),
                            reference_curve_crossings(curve))

    def test_control_circle(self):
        curve = circle_curve(0.7, 256)
        assert_same_records(self_intersections(curve),
                            reference_curve_crossings(curve))

    def test_every_small_profile_curve(self):
        # the shared-vertex rule at its edges, where m = 4 leaves two pairs;
        # profile_curve refuses m < 7, so the frame is sampled directly
        counts = []
        for m in range(4, 41):
            u = np.linspace(0.0, analysis.PROFILE_PERIOD, m, endpoint=False)
            curve = closed_curve(*analysis._profile_frame(u))
            got = self_intersections(curve)
            assert_same_records(got, reference_curve_crossings(curve))
            assert_same_records(got, brute_force_curve_crossings(curve))
            counts.append(len(got))
        assert counts[3:9] == [1, 1, 4, 6, 4, 6]   # m = 7..12

    def test_loop_across_the_seam_is_reported(self):
        curve = seam_loop_curve()
        m = len(curve.phi)
        for shift in range(m):
            rolled = replace(curve, phi=np.roll(curve.phi, shift, axis=0),
                             eta=np.roll(curve.eta, shift, axis=0))
            want = np.array([sorted([shift, (m - 2 + shift) % m])])
            assert_same_records(self_intersections(rolled), want)
            assert_same_records(reference_curve_crossings(rolled), want)

    @pytest.mark.parametrize("t", FLOW_TIMES)
    def test_product_mesh(self, t):
        self.check_product_mesh({}, t)

    @pytest.mark.parametrize("t", FLOW_TIMES)
    @pytest.mark.parametrize("params", [
        {"m_v": 8}, {"m_u": 96, "m_v": 5, "length": 0.6}])
    def test_other_product_meshes(self, params, t):
        # m_v = 8 has no v = 0 row lying in the ball plane p3 = 0
        self.check_product_mesh(params, t)

    @staticmethod
    def check_product_mesh(params, t):
        mesh = make_example("alpha-product", **params).payload.flowed(t)
        got = self_intersections(mesh)
        assert len(got) > 0
        assert_same_records(got, brute_force_mesh_crossings(mesh))

    def test_piercing_mesh(self):
        mesh = piercing_mesh()
        assert_same_records(self_intersections(mesh),
                            brute_force_mesh_crossings(mesh))

    @pytest.mark.parametrize("mesh", [
        make_example("alpha-product").payload,
        make_example("alpha-product").payload.flowed(5.0),
        piercing_mesh(),
    ], ids=["default-t0", "default-t5", "piercing"])
    def test_brute_force_matches_per_face_loop(self, mesh):
        # the oracle above against the original per-face loop
        pairs = brute_force_mesh_crossings(mesh)
        assert len(pairs) > 0
        assert_same_records(pairs, reference_mesh_crossings(mesh))


@st.composite
def near_plane_pairs(draw):
    """Two triangles, one corner of the first at height 0, +-1e-13 or +-1e-11
    over the second's plane, above a point inside or on the edge of it.
    The second triangle's plane is sometimes z = const, where the heights
    are computed without rounding."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    height = draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, -1e-11]))
    other = rng.uniform(-0.5, 0.5, (3, 3))
    weights = rng.dirichlet(np.ones(3))
    if draw(st.booleans()):
        other[:, 2] = other[0, 2]
    if draw(st.booleans()):
        weights[rng.integers(3)] = 0.0
        weights /= weights.sum()
    unit = np.cross(other[1] - other[0], other[2] - other[0])
    unit /= np.linalg.norm(unit)
    corner = weights @ other + height * unit
    if unit[0] == unit[1] == 0.0:
        corner[2] = other[0, 2] + height
    first = np.vstack([corner, corner + rng.uniform(-0.4, 0.4, (2, 3))])
    return two_face_mesh(draw, first[rng.permutation(3)], other)


@st.composite
def near_plane_faces(draw):
    """Two triangles, the whole first one on one side of the second's plane:
    its corners lie at height 0, +-1e-13, +-1e-11 or +-1e-9 over that plane,
    above points inside or a little outside the second triangle.  The first
    is sometimes tilted, its corners at between half and 1.5 times that
    height, and sometimes touches the plane, some corners at height 0; only
    touching faces give the kernel hits.  The second triangle's plane is
    sometimes z = const, where the heights are computed without rounding."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    height = draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, -1e-11, 1e-9, -1e-9]))
    other = rng.uniform(-0.5, 0.5, (3, 3))
    if draw(st.booleans()):
        other[:, 2] = other[0, 2]
    spread = draw(st.sampled_from([1.0, 1.5]))
    weights = spread * rng.dirichlet(np.ones(3), 3) - (spread - 1.0) / 3.0
    heights = height * (rng.uniform(0.5, 1.5, 3) if draw(st.booleans()) else np.ones(3))
    if draw(st.booleans()):
        heights *= rng.integers(0, 2, 3)
    unit = np.cross(other[1] - other[0], other[2] - other[0])
    unit /= np.linalg.norm(unit)
    first = weights @ other + heights[:, None] * unit
    if unit[0] == unit[1] == 0.0:
        first[:, 2] = other[0, 2] + heights
    return two_face_mesh(draw, first, other)


def two_face_mesh(draw, first, other):
    # the two triangles as faces 0 and 1 or 1 and 0
    for tri in (first, other):
        # no needle-thin faces: the margin argument needs a well-rounded normal
        e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
        area = np.linalg.norm(np.cross(e1, e2))
        assume(area > 0.05 * np.linalg.norm(e1) * np.linalg.norm(e2))
    verts = np.vstack([first, other][::draw(st.sampled_from([1, -1]))])
    return SimpleNamespace(ball_points=lambda: verts,
                           cells=np.array([[0, 1, 2], [3, 4, 5]]))


def counted_kernel_rows(monkeypatch):
    # the row count of every _segment_hits_triangle call from here on
    rows = []
    kernel = analysis._segment_hits_triangle

    def counted(p0, p1, tri):
        rows.append(len(tri))
        return kernel(p0, p1, tri)

    monkeypatch.setattr(analysis, "_segment_hits_triangle", counted)
    return rows


class TestPlaneSideRejection:
    @settings(max_examples=300, deadline=None)
    @given(near_plane_pairs())
    def test_corner_near_the_plane_matches_reference(self, mesh):
        assert_same_records(analysis._mesh_crossings(mesh),
                            reference_mesh_crossings(mesh))

    @settings(max_examples=300, deadline=None)
    @given(near_plane_faces())
    def test_face_near_the_plane_matches_reference(self, mesh):
        assert_same_records(analysis._mesh_crossings(mesh),
                            reference_mesh_crossings(mesh))

    @pytest.mark.parametrize("block", [analysis._PAIR_BLOCK, 64])
    def test_one_kernel_call_per_block(self, monkeypatch, block):
        # the slots of each block go through one kernel call, and the calls
        # of a blocked scan add up to the single-block scan's rows
        rows = counted_kernel_rows(monkeypatch)
        pairs = []
        blocks = analysis._box_pairs

        def counted(lo, hi):
            for i, j in blocks(lo, hi):
                pairs.append(len(i))
                yield i, j

        monkeypatch.setattr(analysis, "_box_pairs", counted)
        for mesh, want in ((make_example("alpha-product").payload.flowed(5.0), 10_735),
                           (make_example("alpha-product").payload, None),
                           (make_example("alpha-product", m_v=8).payload.flowed(2.5), None),
                           (piercing_mesh(), None), (piercing_mesh().flowed(2.0), None)):
            monkeypatch.setattr(analysis, "_PAIR_BLOCK", ONE_BLOCK)
            rows.clear()
            self_intersections(mesh)
            (whole,) = rows
            assert want in (None, whole)
            monkeypatch.setattr(analysis, "_PAIR_BLOCK", block)
            rows.clear()
            pairs.clear()
            self_intersections(mesh)
            assert len(rows) == len(pairs)
            assert sum(rows) == whole
            # six edge tests per pair at most
            assert all(r <= 6 * p for r, p in zip(rows, pairs))
            # the piercing meshes have a handful of faces and so one block
            assert len(rows) > 1 or block > 64 or len(mesh.cells) < 64

    def test_few_slots_reach_the_kernel(self, monkeypatch):
        # the reference makes six edge tests per face pair
        rows = counted_kernel_rows(monkeypatch)
        mesh = make_example("alpha-product").payload.flowed(5.0)
        assert len(self_intersections(mesh)) == 1396
        scanned = sum(rows)
        rows.clear()
        reference_mesh_crossings(mesh)
        assert scanned <= 0.2 * sum(rows)

    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
    def test_middle_row_lies_in_a_ball_plane(self, t):
        # v = 0 gives p3 = sinh(0) = 0 exactly, and the flow keeps it there,
        # so that row's edges meet other faces exactly on their edges
        mesh = product_mesh(96, 9, 1.0).flowed(t)
        middle = mesh.ball_points().reshape(96, 9, 3)[:, 4]
        assert np.all(middle[:, 2] == 0.0)


class TestBallRounding:
    def test_payloads_carry_their_flow_time(self):
        assert profile_curve(64).t == 0.0
        assert profile_curve(64).flowed(1.0).flowed(2.5).t == 3.5
        mesh = product_mesh(24, 5, 0.8).flowed(1.5)
        assert mesh.t == 1.5 and mesh.flowed(-0.5).t == 1.0

    def test_names_the_first_vertex_on_the_sphere(self):
        d = np.array([1.0, 40.0, 41.0])
        phi = np.stack([np.cosh(d), np.sinh(d), np.zeros(3)], axis=-1)
        eta = np.broadcast_to([0.0, 0.0, 1.0], phi.shape)
        curve = replace(closed_curve(phi, eta), t=2.0)
        first = replace(closed_curve(phi[:1], eta[:1]), t=2.0)
        np.testing.assert_allclose(first.ball_points(), [[math.tanh(0.5), 0.0]])
        with pytest.raises(HyperquadricError) as err:
            curve.ball_points()
        assert str(err.value) == "vertex 1 rounds onto the unit sphere at flow time t = 2.0"

    @pytest.mark.parametrize("payload", [profile_curve(1024), product_mesh(96, 9, 1.0)],
                             ids=["curve", "mesh"])
    def test_far_flow_is_refused(self, payload):
        # at t = 40 the ball radius rounds to 1 and past it; the scan used to
        # count crossings among those points
        message = r"^vertex \d+ rounds onto the unit sphere at flow time t = 40.0$"
        with pytest.raises(HyperquadricError, match=message):
            payload.flowed(40.0).ball_points()
        with pytest.raises(HyperquadricError, match=message):
            first_embedded_time(payload, t_max=40.0)


class TestEmbeddingTime:
    def test_circle_needs_no_flow(self):
        report = first_embedded_time(circle_curve(0.8, 256))
        assert report.t_embedded == 0.0
        assert report.crossings_before is None

    def test_triple_cover_never_unfolds(self):
        with pytest.raises(RootBracketError, match="not embedded by t_max"):
            first_embedded_time(profile_curve(1024), t_max=5.0)

    def test_tiny_window_reports_t_max(self):
        with pytest.raises(RootBracketError, match="not embedded by t_max"):
            first_embedded_time(profile_curve(1024), t_max=0.01)

    def test_separating_mesh_gets_certificate(self):
        report = first_embedded_time(piercing_mesh(), t_max=2.0, tol=0.05)
        assert 0.0 < report.t_embedded < 2.0
        assert report.crossings_before >= 1
        # tol sets the bracket: embedded at t_embedded, crossing one tol earlier
        mesh = piercing_mesh()
        assert len(self_intersections(mesh.flowed(report.t_embedded))) == 0
        assert len(self_intersections(mesh.flowed(report.t_embedded - 0.05))) >= 1

    def test_bisection_ends_at_the_float_spacing(self, monkeypatch):
        # crossings below t = 1 + 1e-9; with a tol below the float spacing
        # there, the bisection once went on forever, one scan a turn
        times = []

        def crossings_below(payload):
            times.append(payload.t)
            if len(times) > 200:
                raise AssertionError("the bisection does not end")
            return np.zeros((int(payload.t < 1.0 + 1e-9), 2), np.int64)

        monkeypatch.setattr(analysis, "self_intersections", crossings_below)
        report = first_embedded_time(circle_curve(0.5, 16), t_max=5.0, tol=1e-300)
        assert report == EmbeddingReport(1.0 + 1e-9, 1)
        # 0 and t_max, then one halving of [0, 5] per bit down to the spacing at 1
        assert len(times) <= 2 + 55

    def test_bad_window_parameters(self):
        with pytest.raises(SingularParameterError):
            first_embedded_time(circle_curve(0.8, 64), t_max=-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"tol": math.nan}, {"tol": math.inf},
        {"t_max": math.nan}, {"t_max": math.inf}])
    def test_nonfinite_window_parameters(self, kwargs):
        # tol = nan would skip the bisection and certify t_max
        with pytest.raises(SingularParameterError, match="finite positive"):
            first_embedded_time(piercing_mesh(), **kwargs)

    def test_certificate_for_triple_cover_fails_unfolding_check(self, monkeypatch):
        # a bisection that certifies the profile curve contradicts the
        # winding obstruction; the control circle keeps the real answer
        def certify_everything(payload, **kwargs):
            try:
                return first_embedded_time(payload, **kwargs)
            except RootBracketError:
                return EmbeddingReport(2.0, 8)

        monkeypatch.setattr("horocorr.verify.first_embedded_time",
                            certify_everything)
        result = dict(CRITERIA)["unfolding"]()
        assert not result.passed
        assert "found EmbeddingReport(t_embedded=2.0" in result.details
        assert "control circle winds [1], embedded at t=0.0" in result.details


def profile_kappa(m, h=1e-5):
    """Principal curvature of the profile curve at its m samples, in the
    orientation of its normal: kappa = -<d phi, d eta> / <d phi, d phi> from
    central differences of the frame, so no curvature of the program's."""
    u = np.linspace(0.0, analysis.PROFILE_PERIOD, m, endpoint=False)
    (phi_p, eta_p), (phi_m, eta_m) = (analysis._profile_frame(u + s) for s in (h, -h))
    dphi, deta = phi_p - phi_m, eta_p - eta_m
    return -mink_inner(dphi, deta) / mink_inner(dphi, dphi)


class TestCurvatureSign:
    def test_profile_stays_horospherically_convex(self):
        # along the curve d psi = (1 - kappa) d phi: the light-cone direction
        # turns the same way on every step while 1 - kappa keeps its sign
        gauss = profile_curve(4096).gauss_directions()
        angle = np.arctan2(gauss[:, 1], gauss[:, 0])
        steps = (np.diff(angle, append=angle[:1]) + np.pi) % (2.0 * np.pi) - np.pi
        assert np.all(steps > 0.0)
        kappa = profile_kappa(4096)
        assert np.max(kappa) < 1.0
        assert np.min(kappa) > -20.0

    def test_product_scalar_curvature_negative(self):
        # scalar curvature of the product with three flat directions:
        # 2(n - 1) times the sum of the Schouten entries T(-kappa_i)
        spectrum = np.zeros((256, 4))
        spectrum[:, 0] = profile_kappa(256)
        schouten_entries = lambda_kappa(spectrum, CANONICAL, "kappa_to_lambda")
        assert np.all(6.0 * np.sum(schouten_entries, axis=-1) < 0.0)


class TestBoundaryAtInfinity:
    def test_compact_example_has_no_boundary(self):
        assert boundary_at_infinity(make_example("geodesic-sphere").payload) == []

    def test_band_boundary_sits_at_unit_latitudes(self):
        clusters = boundary_at_infinity(make_example("incomplete-band").payload)
        assert clusters
        latitudes = np.array([
            math.asin(float(np.clip(c.direction[2], -1.0, 1.0)))
            for c in clusters])
        assert np.all(np.abs(np.abs(latitudes) - 1.0) < 1e-2)
        assert latitudes.max() > 0.0 and latitudes.min() < 0.0

    def test_cylinder_boundary_is_two_poles(self):
        clusters = boundary_at_infinity(make_example("cylinder-delaunay").payload)
        assert len(clusters) == 2
        tops = sorted(clusters, key=lambda c: c.direction[2])
        south, north = tops[0].direction, tops[1].direction
        assert np.allclose(north, [0.0, 0.0, 1.0], atol=1e-2)
        assert np.allclose(south, [0.0, 0.0, -1.0], atol=1e-2)
        assert np.linalg.norm(north + south) < 2e-2

    def test_curve_payload_rejected(self):
        with pytest.raises(SingularParameterError):
            boundary_at_infinity(make_example("alpha-curve").payload)

    @pytest.mark.parametrize("kwargs, error", [
        ({"n_directions": 0}, SamplingError), ({"n_directions": -1}, SamplingError),
        ({"t": math.inf}, SingularParameterError), ({"t": -math.inf}, SingularParameterError),
        ({"t": math.nan}, SingularParameterError),
    ])
    def test_meaningless_parameters_rejected(self, kwargs, error):
        with pytest.raises(error):
            boundary_at_infinity(make_example("incomplete-band").payload, **kwargs)

    @pytest.mark.parametrize("name", [
        "incomplete-band", "cylinder-delaunay", "geodesic-sphere"])
    @pytest.mark.parametrize("n_directions", [64, 16])
    def test_clusters_match_reference_loop(self, monkeypatch, name, n_directions):
        # the escape directions are tight poles or rays spaced beyond the
        # radius, so the certified path builds the clusters without the loop
        seen = []
        cluster = analysis._cluster_directions

        def recording(dirs, radius):
            seen.append((dirs, radius))
            return cluster(dirs, radius)

        monkeypatch.setattr(analysis, "_cluster_directions", recording)
        near_calls = spy_near(monkeypatch)
        got = boundary_at_infinity(make_example(name).payload, n_directions=n_directions)
        (dirs, radius), = seen
        assert near_calls == []
        assert_same_clusters(got, reference_cluster_directions(dirs, radius))

    def test_dense_band_rays_fall_back_to_the_loop(self, monkeypatch):
        # at 68 directions the band's rays lie closer than the radius and
        # chain, so they are not certified; the loop gives 68 clusters
        seen = []
        cluster = analysis._cluster_directions

        def recording(dirs, radius):
            seen.append((dirs, radius))
            return cluster(dirs, radius)

        monkeypatch.setattr(analysis, "_cluster_directions", recording)
        near_calls = spy_near(monkeypatch)
        got = boundary_at_infinity(make_example("incomplete-band").payload, n_directions=68)
        (dirs, radius), = seen
        assert len(dirs) == 136 and len(got) == 68
        assert len(near_calls) == 136
        assert_same_clusters(got, reference_cluster_directions(dirs, radius))

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 15.0, 30.0, 300.0])
    @pytest.mark.parametrize("name, clusters", [
        ("band-horosphere", 1), ("stereographic-horosphere", 1),
        ("cylinder-delaunay", 2), ("incomplete-band", 128),
        ("geodesic-sphere", 0)])
    def test_cluster_count_does_not_depend_on_t(self, name, clusters, t):
        # the normal flow does not move the ideal boundary; from t = 15 on
        # the band's phi_0 grows by only sqrt(2) over the last ladder step
        assert len(boundary_at_infinity(boundary_metric(name), t=t)) == clusters

    @pytest.mark.parametrize("t", [0.0, 1.0, 8.0])
    @pytest.mark.parametrize("name, rays", [
        ("band-horosphere", 64), ("stereographic-horosphere", 64),
        ("cylinder-delaunay", 128), ("incomplete-band", 128),
        ("geodesic-sphere", 0)])
    def test_escape_directions_are_gauss_points(self, monkeypatch, name, rays, t):
        # the ideal boundary is the boundary of the Gauss image: each escape
        # direction is chart.embed of its ray's deepest probe
        immersed, clustered = [], []
        immerse, cluster = analysis.immerse, analysis._cluster_directions

        def recording_immerse(metric, u, t):
            point = immerse(metric, u, t)
            immersed.append((u, point))
            return point

        def recording_cluster(dirs, radius):
            clustered.append(dirs)
            return cluster(dirs, radius)

        monkeypatch.setattr(analysis, "immerse", recording_immerse)
        monkeypatch.setattr(analysis, "_cluster_directions", recording_cluster)
        metric = boundary_metric(name)
        boundary_at_infinity(metric, t=t)
        ((u, point),), (dirs,) = immersed, clustered
        assert u.shape == (len(u), 2, 2)
        escaped = point.phi[:, 1, 0] > analysis.ESCAPE_RATIO * point.phi[:, 0, 0]
        assert np.count_nonzero(escaped) == len(dirs) == rays
        gauss = metric.chart.embed(u[escaped, 1])
        assert np.max(np.abs(dirs - gauss), initial=0.0) < 1e-10

    def test_nonfinite_probe_raises(self):
        # rho = -log1p(-sin s) is the band horosphere written naively: sin s
        # rounds to 1 at the deepest band probe, so rho is inf there
        metric = ConformalMetric(BandChart(), radial_band_field(
            f=lambda s: -np.log1p(-np.sin(s)),
            fs=lambda s: np.cos(s) / (1.0 - np.sin(s)),
            fss=lambda s: 1.0 / (1.0 - np.sin(s))))
        with np.errstate(divide="ignore"), pytest.raises(
                ChartDomainError, match="not finite at chart point"):
            boundary_at_infinity(metric)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, math.pi / 2, exclude_min=True), st.integers(1, 8))
    def test_every_ray_of_any_band_is_immersed(self, edge, n_directions):
        # the ladder is scaled from the float below the chart's edge, so no
        # probe leaves the chart and no ray is dropped
        immersed, immerse = [], analysis.immerse

        def recording_immerse(metric, u, t):
            immersed.append(u)
            return immerse(metric, u, t)

        chart = BandChart(edge)
        field = make_example("cylinder-delaunay").payload.rho
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "immerse", recording_immerse)
            boundary_at_infinity(ConformalMetric(chart, field), n_directions=n_directions)
        (u,) = immersed
        assert u.shape == (2 * n_directions, 2, 2)
        assert np.all(chart.contains(u))
        ladder = 1.0 - 2.0 ** -np.array([analysis.LADDER_DEPTH - 1.0, analysis.LADDER_DEPTH])
        np.testing.assert_array_equal(np.abs(u[..., 0]), np.broadcast_to(
            np.nextafter(edge, 0.0) * ladder, u.shape[:-1]))


def unit_directions(d):
    # a few base directions, then a sequence drawn from them and their
    # antipodes, so repeats and antipodal pairs are common
    component = st.floats(-1.0, 1.0)
    base = st.lists(st.lists(component, min_size=d, max_size=d)
                    .filter(lambda v: np.linalg.norm(v) > 1e-3),
                    min_size=1, max_size=12)
    picks = st.lists(st.tuples(st.integers(0, 11), st.sampled_from([1.0, -1.0])),
                     max_size=60)

    def build(args):
        vs, idx = args
        vs = np.array(vs) / np.linalg.norm(vs, axis=1)[:, None]
        out = [sign * vs[i % len(vs)] for i, sign in idx]
        return np.array(out).reshape(-1, d)

    return st.tuples(base, picks).map(build)


RADII = st.floats(0.0, math.pi, exclude_min=True)


def spy_near(patch):
    # the radii handed to analysis._near: one call per direction the loop
    # visits, none on the certified path
    calls, near = [], analysis._near

    def recording(v, centers, radius):
        calls.append(radius)
        return near(v, centers, radius)

    patch.setattr(analysis, "_near", recording)
    return calls


@st.composite
def separated_directions(draw, d):
    # near-repeats, jittered by at most 1e-9, of bases that lie with their
    # antipodes pairwise beyond radius + 1e-3: every pair is within CLOSE
    # or beyond radius + GAP, so the certificate holds
    radius = draw(st.floats(1e-5, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = []
    for v in rng.normal(size=(draw(st.integers(1, 8)), d)):
        v /= np.linalg.norm(v)
        if all(math.acos(min(1.0, abs(v @ b))) > radius + 1e-3 for b in bases):
            bases.append(v)
    bases = np.array(bases + [-b for b in bases])
    m = draw(st.integers(0, 120))
    dirs = bases[rng.integers(0, len(bases), m)]
    jitter = rng.uniform(-1e-9, 1e-9, size=(m, d)) / math.sqrt(d)
    dirs = dirs + jitter * (rng.random((m, 1)) < draw(st.floats(0.0, 1.0)))
    return dirs / np.linalg.norm(dirs, axis=1)[:, None], radius


@st.composite
def jittered_directions(draw, d):
    # clouds of directions around a few bases, spread at the cluster radius,
    # so that a centre moved by its earlier members often flips the
    # decision for a later direction
    radius = draw(st.floats(0.01, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = rng.normal(size=(draw(st.integers(1, 3)), d))
    bases /= np.linalg.norm(bases, axis=1)[:, None]
    m = draw(st.integers(0, 150))
    dirs = bases[rng.integers(0, len(bases), m)] + radius * rng.normal(size=(m, d))
    return dirs / np.linalg.norm(dirs, axis=1)[:, None], radius


def on_circle(*angles):
    return np.array([[math.cos(a), math.sin(a)] for a in angles])


class TestClusterDirections:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(unit_directions), RADII)
    def test_matches_reference_loop(self, dirs, radius):
        # an antipodal pair in one cluster sums to zero; both versions
        # then divide by zero the same way
        with np.errstate(invalid="ignore", divide="ignore"):
            got = analysis._cluster_directions(dirs, radius)
            want = reference_cluster_directions(dirs, radius)
        assert_same_clusters(got, want)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1), RADII)
    def test_matches_reference_on_random_directions(self, d, seed, radius):
        dirs = np.random.default_rng(seed).normal(size=(100, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        assert_same_clusters(analysis._cluster_directions(dirs, radius),
                             reference_cluster_directions(dirs, radius))

    def test_empty_input(self):
        assert analysis._cluster_directions(np.empty((0, 3)), 0.05) == []

    def test_single_direction(self):
        (c,) = analysis._cluster_directions(np.array([[0.6, 0.8]]), 0.05)
        assert c.count == 1
        np.testing.assert_array_equal(c.direction, [0.6, 0.8])

    def test_repeated_direction_forms_one_cluster(self):
        dirs = np.tile([0.0, 0.6, 0.8], (5, 1))
        (c,) = analysis._cluster_directions(dirs, 0.05)
        assert c.count == 5
        assert_same_clusters([c], reference_cluster_directions(dirs, 0.05))

    def test_antipodal_pair_forms_two_clusters(self):
        dirs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]] * 3)
        got = analysis._cluster_directions(dirs, 0.05)
        assert [c.count for c in got] == [3, 3]
        assert_same_clusters(got, reference_cluster_directions(dirs, 0.05))

    def test_radius_is_exclusive(self):
        # the angle between orthogonal directions is exactly the float pi/2
        dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = analysis._cluster_directions(dirs, math.pi / 2)
        assert [c.count for c in got] == [1, 1]
        assert_same_clusters(got, reference_cluster_directions(dirs, math.pi / 2))

    def test_order_decides_membership(self):
        # b sits within the radius of a and of c, but a and c are apart:
        # b joins whichever cluster exists first
        a, b, c = (np.array([math.cos(x), math.sin(x)]) for x in (0.0, 0.04, 0.08))
        first = analysis._cluster_directions(np.array([a, b, c]), 0.05)
        last = analysis._cluster_directions(np.array([c, b, a]), 0.05)
        assert [k.count for k in first] == [2, 1]
        assert [k.count for k in last] == [2, 1]
        assert first[0].direction[1] < last[0].direction[1]

    def test_moved_centre_drops_a_candidate(self):
        # 0.08 lies within 0.1 of the founder, but not of the centre at
        # -0.0495 that -0.099 leaves behind
        dirs = on_circle(0.0, -0.099, 0.08)
        got = analysis._cluster_directions(dirs, 0.1)
        assert [c.count for c in got] == [2, 1]
        assert_same_clusters(got, reference_cluster_directions(dirs, 0.1))

    def test_moved_centre_takes_a_non_candidate(self):
        # 0.145 lies beyond 0.1 of the founder, but within it of the centre
        # at 0.0495 that 0.099 leaves behind
        dirs = on_circle(0.0, 0.099, 0.145)
        got = analysis._cluster_directions(dirs, 0.1)
        assert [c.count for c in got] == [3]
        assert_same_clusters(got, reference_cluster_directions(dirs, 0.1))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(jittered_directions))
    def test_matches_reference_on_jittered_directions(self, case):
        dirs, radius = case
        assert_same_clusters(analysis._cluster_directions(dirs, radius),
                             reference_cluster_directions(dirs, radius))

    def test_matches_reference_on_many_directions(self):
        rng = np.random.default_rng(5000)
        bases = rng.normal(size=(12, 3))
        bases /= np.linalg.norm(bases, axis=1)[:, None]
        dirs = bases[rng.integers(0, 12, 5000)] + 0.08 * rng.normal(size=(5000, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        got = analysis._cluster_directions(dirs, 0.1)
        assert sum(c.count for c in got) == 5000
        assert_same_clusters(got, reference_cluster_directions(dirs, 0.1))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(separated_directions))
    def test_separated_directions_skip_the_loop(self, case):
        dirs, radius = case
        with pytest.MonkeyPatch.context() as patch:
            near_calls = spy_near(patch)
            got = analysis._cluster_directions(dirs, radius)
        assert near_calls == []
        assert_same_clusters(got, reference_cluster_directions(dirs, radius))

    @pytest.mark.parametrize("offset", [1e-7, -1e-7])
    def test_pair_near_the_radius_falls_back_to_the_loop(self, monkeypatch, offset):
        # neither within CLOSE nor beyond radius + GAP: not certified
        dirs = on_circle(0.0, 0.05 + offset, 0.0)
        near_calls = spy_near(monkeypatch)
        got = analysis._cluster_directions(dirs, 0.05)
        assert len(near_calls) == 3
        assert [c.count for c in got] == ([2, 1] if offset > 0 else [3])
        assert_same_clusters(got, reference_cluster_directions(dirs, 0.05))

    @pytest.mark.parametrize("radius", [
        analysis.CLOSE, 2.0 * analysis.CLOSE, math.pi - analysis.GAP, math.pi])
    def test_radius_without_room_for_the_certificate(self, monkeypatch, radius):
        # a tight cluster and its antipode, certified at radius 0.05; c lies
        # 5e-7 from -a, so within pi of a, which joins them at radius pi
        a = np.array([0.0, 0.6, 0.8])
        b, c = a + [1e-9, 0.0, 0.0], -a + [5e-7, 0.0, 0.0]
        dirs = np.array([a, -a, b / np.linalg.norm(b), c / np.linalg.norm(c), a])
        assert analysis._separated_founders(dirs, 0.05) is not None
        near_calls = spy_near(monkeypatch)
        got = analysis._cluster_directions(dirs, radius)
        assert len(near_calls) == len(dirs)
        assert_same_clusters(got, reference_cluster_directions(dirs, radius))
