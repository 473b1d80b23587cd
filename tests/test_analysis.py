"""Tests for the gallery, winding counts, crossing scans and boundary tracing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from horocorr.analysis import (
    CurveImmersion,
    MeshImmersion,
    boundary_at_infinity,
    circle_curve,
    first_embedded_time,
    gauss_winding,
    make_example,
    product_mesh,
    profile_curvature,
    profile_curve,
    self_intersections,
)
from horocorr.conformal import horospherical_scalar, schouten
from horocorr.correspondence import ricatti
from horocorr.errors import (
    RootBracketError,
    SamplingError,
    SingularParameterError,
)
from horocorr.minkowski import from_poincare_ball, mink_inner


def lifted_normal(phi, w):
    # project an ambient direction onto the tangent-orthogonal unit normal
    w = np.broadcast_to(np.asarray(w, float), phi.shape).copy()
    w = w + mink_inner(w, phi)[..., None] * phi
    return w / np.sqrt(mink_inner(w, w))[..., None]


def piercing_mesh():
    """Two transversal triangles whose normal flows pull them apart."""
    ball = np.array([
        [-0.02, -0.10, -0.10],
        [-0.02, 0.20, -0.10],
        [-0.02, -0.10, 0.20],
        [-0.12, 0.00, 0.00],
        [0.08, -0.06, 0.00],
        [0.08, 0.06, 0.00],
    ])
    phi = from_poincare_ball(ball)
    eta = np.vstack([
        lifted_normal(phi[:3], np.array([0.0, 1.0, 0.0, 0.0])),
        lifted_normal(phi[3:], np.array([0.0, -1.0, 0.0, 0.0])),
    ])
    return MeshImmersion(phi=phi, eta=eta, faces=np.array([[0, 1, 2], [3, 4, 5]]))


class TestGalleryEntries:
    def test_profile_reference_point(self):
        curve = make_example("alpha-curve", m=64).payload
        expected = np.array([math.cosh(2 / 3), 0.0, math.sinh(2 / 3)])
        assert np.allclose(curve.phi[0], expected, atol=1e-12)

    def test_profile_closes_up(self):
        curve = profile_curve(16)
        assert np.allclose(curve.phi_fn(np.array([curve.period])),
                           curve.phi_fn(np.array([0.0])), atol=1e-12)

    def test_band_value_at_half(self):
        metric = make_example("incomplete-band").payload
        value = metric.rho.value(np.array([0.5, 0.0]))
        assert value == pytest.approx(-0.5 * math.log(0.75), abs=1e-13)

    def test_cylinder_spectrum_with_offset(self):
        metric = make_example("cylinder-delaunay", t=0.7).payload
        eig = schouten(metric, np.array([0.3, 1.1])).eigenvalues
        half = 0.5 * math.exp(-1.4)
        assert np.allclose(eig, [-half, half], atol=1e-9)

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
        with pytest.raises(SingularParameterError):
            make_example("cylinder-delaunay", t=-1.0)

    def test_product_vertices_inside_ball(self):
        mesh = make_example("alpha-product", m_u=24, m_v=5, length=0.8).payload
        radii = np.linalg.norm(mesh.vertices_ball, axis=1)
        assert np.all(radii < 1.0)
        assert len(mesh.faces) == 2 * 24 * 4


class TestCurveType:
    def test_frame_validation(self):
        curve = circle_curve(0.5, 32)
        with pytest.raises(SingularParameterError):
            replace(curve, eta=1.1 * curve.eta)

    def test_nonfinite_flow_time_rejected(self):
        # NaN and inf frames fail the frame check instead of building NaN data
        with pytest.raises(SingularParameterError):
            profile_curve(64).flowed(float("nan"))
        with pytest.raises(SingularParameterError), np.errstate(invalid="ignore"):
            make_example("alpha-product").payload.flowed(float("inf"))

    def test_flowed_matches_direct_formula(self):
        curve = profile_curve(128)
        t = 0.35
        moved = curve.flowed(t)
        expected_phi = curve.phi * math.cosh(t) + curve.eta * math.sinh(t)
        assert np.allclose(moved.phi, expected_phi, atol=1e-12)
        assert np.allclose(moved.kappa, ricatti(curve.kappa, t), atol=1e-12)

    def test_resample_matches_fresh_build(self):
        again = profile_curve(64).resample(256)
        fresh = profile_curve(256)
        assert np.allclose(again.phi, fresh.phi, atol=1e-12)
        assert np.allclose(again.kappa, fresh.kappa, atol=1e-12)

    def test_resample_needs_samplers(self):
        bare = replace(profile_curve(64), phi_fn=None, eta_fn=None)
        with pytest.raises(SamplingError):
            bare.resample(128)


class TestWinding:
    def test_profile_winds_three_times(self):
        assert gauss_winding(profile_curve(4096)) == 3
        assert gauss_winding(profile_curve(8192)) == 3

    def test_circle_winds_once(self):
        assert gauss_winding(circle_curve(0.7, 256)) == 1

    def test_open_arc_rejected(self):
        arc = replace(circle_curve(0.7, 64), closed=False)
        with pytest.raises(SamplingError):
            gauss_winding(arc)

    def test_coarse_sampling_rejected(self):
        with pytest.raises(SamplingError):
            gauss_winding(circle_curve(0.7, 2))


class TestCrossings:
    def test_circle_is_embedded(self):
        assert self_intersections(circle_curve(0.9, 512)) == []

    def test_profile_count_stable_under_refinement(self):
        count = len(self_intersections(profile_curve(4096)))
        assert count == 8
        assert len(self_intersections(profile_curve(8192))) == count

    def test_records_well_formed(self):
        curve = profile_curve(2048)
        records = self_intersections(curve)
        m = curve.resolution
        for rec in records:
            assert 0 <= rec.i < rec.j < m
            gap = min(rec.j - rec.i, m - (rec.j - rec.i))
            assert gap > 2
            ti, tj = rec.params
            assert 0.0 < ti < 1.0 and 0.0 < tj < 1.0
            assert np.linalg.norm(rec.point) < 1.0

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

    def test_mesh_pierce_detected(self):
        records = self_intersections(piercing_mesh())
        assert len(records) == 1
        assert (records[0].i, records[0].j) == (0, 1)

    def test_product_mesh_crosses_itself(self):
        mesh = make_example("alpha-product", m_u=96, m_v=5, length=0.6).payload
        assert len(self_intersections(mesh)) > 0


class TestEmbeddingTime:
    def test_circle_needs_no_flow(self):
        report = first_embedded_time(circle_curve(0.8, 256))
        assert report.t_embedded == 0.0
        assert report.crossings_before is None
        assert report.crossings_after == 0

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
        assert report.crossings_after == 0
        assert report.tolerance == 0.05

    def test_bad_window_parameters(self):
        with pytest.raises(SingularParameterError):
            first_embedded_time(circle_curve(0.8, 64), t_max=-1.0)


class TestCurvatureSign:
    def test_profile_stays_horospherically_convex(self):
        kappa = profile_curvature(np.linspace(0, 4 * np.pi, 4096, endpoint=False))
        assert np.max(kappa) < 1.0
        assert np.min(kappa) > -20.0

    def test_product_scalar_curvature_negative(self):
        kappa = profile_curvature(np.linspace(0, 4 * np.pi, 256, endpoint=False))
        for k in kappa:
            assert horospherical_scalar(np.array([k, 0.0, 0.0, 0.0])) < 0.0


class TestBoundaryAtInfinity:
    def test_compact_example_has_no_boundary(self):
        assert boundary_at_infinity(make_example("geodesic-sphere")) == []

    def test_band_boundary_sits_at_unit_latitudes(self):
        clusters = boundary_at_infinity(make_example("incomplete-band"))
        assert clusters
        latitudes = np.array([
            math.asin(float(np.clip(c.direction[2], -1.0, 1.0)))
            for c in clusters])
        assert np.all(np.abs(np.abs(latitudes) - 1.0) < 1e-2)
        assert latitudes.max() > 0.0 and latitudes.min() < 0.0

    def test_cylinder_boundary_is_two_poles(self):
        clusters = boundary_at_infinity(make_example("cylinder-delaunay"))
        assert len(clusters) == 2
        tops = sorted(clusters, key=lambda c: c.direction[2])
        south, north = tops[0].direction, tops[1].direction
        assert np.allclose(north, [0.0, 0.0, 1.0], atol=1e-2)
        assert np.allclose(south, [0.0, 0.0, -1.0], atol=1e-2)
        assert np.linalg.norm(north + south) < 2e-2

    def test_curve_payload_rejected(self):
        with pytest.raises(SingularParameterError):
            boundary_at_infinity(make_example("alpha-curve"))
