import math

import numpy as np
import pytest

from horocorr.errors import ChartDomainError
from horocorr.sphere import (
    BandChart,
    StereographicChart,
    constant_field,
    fd_jet,
    field_from_ambient,
    gradient_hessian,
    radial_band_field,
    ScalarField,
)


def band_example_field(h=1e-4):
    # rho(s) = -1/2 log(1 - s^2) on |s| < 1, with analytic jets
    return radial_band_field(
        f=lambda s: -0.5 * np.log(1.0 - s * s),
        fs=lambda s: s / (1.0 - s * s),
        fss=lambda s: (1.0 + s * s) / (1.0 - s * s) ** 2,
        domain_s=lambda s: abs(s) < 1.0,
        h=h,
    )


class TestCharts:
    def test_stereographic_metric_at_origin(self):
        chart = StereographicChart(2)
        np.testing.assert_allclose(chart.metric(np.zeros(2)), 4.0 * np.eye(2))
        np.testing.assert_allclose(chart.metric_inverse(np.zeros(2)), 0.25 * np.eye(2))

    def test_band_christoffels_vanish_on_equator(self):
        chart = BandChart(2)
        gamma = chart.christoffels(np.array([0.0, 0.3]))
        np.testing.assert_allclose(gamma[0], 0.0, atol=1e-15)

    def test_band_radial_christoffel_value(self):
        # Gamma^s_theta,theta = tan(s) cos(s)^2 at s = pi/6
        chart = BandChart(2)
        gamma = chart.christoffels(np.array([np.pi / 6, 1.1]))
        assert gamma[0, 1, 1] == pytest.approx(math.sqrt(3) / 4, abs=1e-12)
        assert gamma[0, 0, 0] == 0.0
        assert gamma[0, 0, 1] == 0.0

    def test_christoffels_symmetric_lower_indices(self, rng):
        for chart in (BandChart(3), StereographicChart(3)):
            for _ in range(20):
                u = rng.uniform(0.2, 1.0, size=3)
                gamma = chart.christoffels(u)
                np.testing.assert_allclose(gamma, np.swapaxes(gamma, 1, 2), atol=1e-14)

    def test_embedding_is_unit_and_matches_metric(self, rng):
        # J^T J equals the chart metric (the embedding is isometric)
        for chart in (BandChart(2), BandChart(3), StereographicChart(2)):
            for _ in range(20):
                u = rng.uniform(0.2, 1.0, size=chart.n)
                x = chart.embed(u)
                assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
                J = chart.jacobian(u)
                np.testing.assert_allclose(J.T @ J, chart.metric(u), atol=1e-10)

    def test_band_jacobian_matches_fd(self, rng):
        chart = BandChart(3)
        h = 1e-6
        for _ in range(10):
            u = rng.uniform(0.3, 1.0, size=3)
            J = chart.jacobian(u)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd = (chart.embed(u + e) - chart.embed(u - e)) / (2 * h)
                np.testing.assert_allclose(J[:, i], fd, atol=1e-8)

    def test_band_range_error(self):
        with pytest.raises(ChartDomainError):
            BandChart(2).embed(np.array([np.pi / 2, 0.0]))

    def test_metric_compatibility_invariant(self, rng):
        # d_k g_ij = Gamma^m_ki g_mj + Gamma^m_kj g_im at 100 random band points
        chart = BandChart(2)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            u = np.array([rng.uniform(-1.2, 1.2), rng.uniform(0.0, 2 * np.pi)])
            gamma = chart.christoffels(u)
            g = chart.metric(u)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                dg = (chart.metric(u + e) - chart.metric(u - e)) / (2 * h)
                pred = np.einsum("mi,mj->ij", gamma[:, k, :], g) \
                    + np.einsum("mj,im->ij", gamma[:, k, :], g)
                worst = max(worst, np.abs(dg - pred).max())
        assert worst < 1e-8


class TestFdJet:
    def test_quadratic_exact(self):
        A = np.array([[2.0, -1.0], [-1.0, 3.0]])
        b = np.array([0.5, -0.7])
        field = ScalarField(lambda u: float(u @ A @ u + b @ u))
        val, grad, hess = fd_jet(field, np.array([0.3, -0.2]), h=1e-3)
        u = np.array([0.3, -0.2])
        assert val == pytest.approx(u @ A @ u + b @ u)
        np.testing.assert_allclose(grad, 2 * A @ u + b, atol=1e-9)
        np.testing.assert_allclose(hess, 2 * A, atol=1e-6)

    def test_second_order_convergence(self):
        field = ScalarField(lambda u: math.sin(u[0]))
        u = np.array([0.7])
        _, g1, _ = fd_jet(field, u, h=1e-2)
        _, g2, _ = fd_jet(field, u, h=5e-3)
        err1 = abs(g1[0] - math.cos(0.7))
        err2 = abs(g2[0] - math.cos(0.7))
        assert err1 / err2 >= 3.5  # halving h must cut the error ~4x

    def test_rejects_nonpositive_step(self):
        field = ScalarField(lambda u: 0.0)
        with pytest.raises(ChartDomainError):
            fd_jet(field, np.array([0.0]), h=0.0)

    def test_stencil_domain_guard(self):
        chart = BandChart(2)
        field = band_example_field(h=1e-2)
        with pytest.raises(ChartDomainError):
            fd_jet(field, np.array([0.995, 0.0]), h=1e-2, chart=chart)

    def test_stencil_room_is_what_the_stencil_reaches(self):
        # central_jet reaches +-h along each axis and the +-h diagonal
        # corners, so a point 1.5h inside the domain edge has room and a
        # point 0.5h inside does not
        chart = BandChart(2)
        h = 1e-3
        field = radial_band_field(f=np.exp, fs=np.exp, fss=np.exp,
                                  domain_s=lambda s: np.abs(s) < 0.5, h=h)
        u = np.array([0.5 - 1.5 * h, 0.7])
        value, grad, hess = fd_jet(field, u, h=h, chart=chart)
        assert value == pytest.approx(math.exp(u[0]), rel=1e-12)
        np.testing.assert_allclose(grad, field.gradient(u), atol=1e-6)
        np.testing.assert_allclose(hess, field.hessian(u), atol=1e-6)
        exact = gradient_hessian(field, chart, u)
        fd = gradient_hessian(field.without_jets(), chart, u)
        np.testing.assert_allclose(fd.gradient, exact.gradient, atol=1e-6)
        np.testing.assert_allclose(
            fd.covariant_hessian, exact.covariant_hessian, atol=1e-6)
        with pytest.raises(ChartDomainError):
            fd_jet(field, np.array([0.5 - 0.5 * h, 0.7]), h=h, chart=chart)


class TestGradientHessian:
    def test_constant_field(self):
        chart = BandChart(2)
        out = gradient_hessian(constant_field(3.0), chart, np.array([0.4, 1.0]))
        np.testing.assert_allclose(out.gradient, 0.0)
        assert out.grad_norm_sq == 0.0
        np.testing.assert_allclose(out.covariant_hessian, 0.0)

    def test_band_example_first_derivative(self):
        chart = BandChart(2)
        out = gradient_hessian(band_example_field(), chart, np.array([0.5, 0.3]))
        assert out.gradient[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_band_example_second_derivative(self):
        chart = BandChart(2)
        out = gradient_hessian(band_example_field(), chart, np.array([0.5, 0.3]))
        assert out.covariant_hessian[0, 0] == pytest.approx(1.25 / 0.5625, abs=1e-12)

    def test_band_example_fd_matches_analytic(self):
        chart = BandChart(2)
        u = np.array([0.5, 0.3])
        exact = gradient_hessian(band_example_field(), chart, u)
        fd = gradient_hessian(band_example_field().without_jets(), chart, u)
        np.testing.assert_allclose(fd.gradient, exact.gradient, atol=1e-4)
        np.testing.assert_allclose(
            fd.covariant_hessian, exact.covariant_hessian, atol=1e-4)

    def test_angular_covariant_hessian(self):
        # for a radial field, rho_{theta,theta} = -Gamma^s_theta,theta rho_s
        chart = BandChart(2)
        u = np.array([0.5, 0.3])
        out = gradient_hessian(band_example_field(), chart, u)
        s = u[0]
        expected = -math.tan(s) * math.cos(s) ** 2 * (s / (1 - s * s))
        assert out.covariant_hessian[1, 1] == pytest.approx(expected, abs=1e-12)

    def test_chart_agreement_on_grad_norm(self):
        # the same intrinsic field through two charts gives the same |grad|^2
        F = lambda x: math.sin(x[0]) * x[2] + 0.3 * x[1]
        band = BandChart(2)
        stereo = StereographicChart(2)
        f_band = field_from_ambient(band, F)
        f_st = field_from_ambient(stereo, F)
        for u_band in (np.array([0.4, 0.9]), np.array([-0.3, 2.2])):
            x = band.embed(u_band)
            # invert the stereographic embedding: u = (x_1..x_n)/(1 + x_{n+1})
            u_st = x[:-1] / (1.0 + x[-1])
            a = gradient_hessian(f_band, band, u_band).grad_norm_sq
            b = gradient_hessian(f_st, stereo, u_st).grad_norm_sq
            assert a == pytest.approx(b, abs=1e-6)

    def test_domain_error(self):
        chart = BandChart(2)
        with pytest.raises(ChartDomainError):
            gradient_hessian(band_example_field(), chart, np.array([1.2, 0.0]))
