"""Tests for the symmetric-function calculus and its two-sided conjugation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocorr.conformal import horospherical_curvature, horospherical_scalar
from horocorr.correspondence import CANONICAL, OPPOSITE, lambda_kappa, ricatti
from horocorr.errors import RootBracketError, SingularParameterError
from horocorr.weingarten import (
    CONE_C,
    CONE_GAMMA_N,
    CONE_K,
    HYPERSURFACE_SIDE,
    METRIC_SIDE,
    ConePoint,
    CurvatureFunction,
    admissible_constant,
    conjugate,
    elementary_symmetric,
    ellipticity_check,
    flow_conjugate,
    flow_shift,
    hessian_transform,
    hr_inequality,
    in_cone,
    mean_function,
    power_mean,
    t_map,
)


def sum_function(n):
    # hypersurface-side trace, analytic gradient of ones
    return CurvatureFunction(
        side=HYPERSURFACE_SIDE,
        n=n,
        eval=lambda x: float(np.sum(x)),
        gradient=lambda x: np.ones(n),
        name="trace",
    )


class TestConeMap:
    def test_reference_values(self):
        assert np.allclose(t_map(np.zeros(3)), -0.5 * np.ones(3))
        assert np.allclose(t_map(np.ones(3)), np.zeros(3))
        # fixed point data for the inverse
        assert np.allclose(t_map(np.zeros(2), "c_to_k"), np.ones(2))

    def test_domain_errors(self):
        with pytest.raises(SingularParameterError):
            t_map(np.array([0.5, -1.0]), "k_to_c")
        with pytest.raises(SingularParameterError):
            t_map(np.array([0.5, 0.0]), "c_to_k")
        with pytest.raises(SingularParameterError):
            t_map(np.zeros(2), "sideways")

    @given(st.lists(st.floats(-0.99, 50.0), min_size=1, max_size=5))
    def test_roundtrip(self, coords):
        x = np.asarray(coords)
        back = t_map(t_map(x, "k_to_c"), "c_to_k")
        assert np.all(np.abs(back - x) <= 1e-12 * (1.0 + np.abs(x)))

    def test_cone_membership(self):
        assert in_cone([0.4, -3.0], CONE_C)
        assert not in_cone([0.5, 0.0], CONE_C)
        assert in_cone([-0.9, 100.0], CONE_K)
        assert not in_cone([-1.0, 0.0], CONE_K)
        assert in_cone([0.1, 0.1], CONE_GAMMA_N)
        ConePoint(np.array([0.2, 0.3]), CONE_GAMMA_N)
        with pytest.raises(SingularParameterError):
            ConePoint(np.array([0.2, -0.3]), CONE_GAMMA_N)

    def test_order_preserved_between_cones(self, rng):
        # pushing a K-point along the positive cone moves its image up in C
        x = rng.uniform(-0.99, 3.0, size=(1000, 4))
        d = rng.uniform(0.01, 2.0, size=(1000, 4))
        y0, y1 = t_map(x), t_map(x + d)
        assert np.all(y1 - y0 > 0)
        assert np.all(y1 < 0.5)
        # converse direction by pullback
        frac = rng.uniform(0.01, 0.99, size=(1000, 4))
        y = y0 + frac * (0.5 - y0)
        assert np.all(t_map(y, "c_to_k") > x)


class TestBuiltins:
    def test_sigma_values(self):
        s2 = elementary_symmetric(4, 2)
        assert s2(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(35.0)
        s4 = elementary_symmetric(4, 4)
        assert s4(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(24.0)
        assert mean_function(3)(np.array([0.1, 0.2, 0.3])) == pytest.approx(0.2)
        assert power_mean(2, 2.0)(np.array([3.0, 4.0])) == pytest.approx(
            math.sqrt(12.5))

    @given(st.permutations([0.11, -0.4, 0.3, 0.07]))
    def test_symmetry(self, perm):
        s2 = elementary_symmetric(4, 2)
        assert s2(np.array(perm)) == pytest.approx(s2(np.array([0.11, -0.4, 0.3, 0.07])))

    def test_analytic_gradients_match_fd(self, rng):
        h = 1e-6
        for F in (elementary_symmetric(3, 2), elementary_symmetric(3, 3),
                  power_mean(3, 3.0)):
            x = rng.uniform(0.05, 0.45, size=3)
            grad = np.asarray(F.gradient(x))
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd = (F.eval(x + e) - F.eval(x - e)) / (2 * h)
                assert grad[i] == pytest.approx(fd, abs=1e-7)

    def test_power_mean_rejects_nonpositive(self):
        with pytest.raises(SingularParameterError):
            power_mean(2, 2.0)(np.array([1.0, -1.0]))


class TestConjugation:
    def test_trace_conjugate_values(self):
        for n in (2, 3, 5):
            W = conjugate(elementary_symmetric(n, 1))
            assert W.side == HYPERSURFACE_SIDE
            assert W(np.ones(n)) == pytest.approx(0.0, abs=1e-14)
            assert W(np.zeros(n)) == pytest.approx(-n / 2)

    def test_double_conjugation_is_identity(self, rng):
        F = elementary_symmetric(3, 2)
        FF = conjugate(conjugate(F))
        assert FF.side == METRIC_SIDE
        for _ in range(20):
            y = rng.uniform(-2.0, 0.49, size=3)
            assert FF(y) == pytest.approx(F(y), abs=1e-12)

    def test_conjugate_gradient_matches_fd(self, rng):
        W = conjugate(elementary_symmetric(3, 2))
        h = 1e-6
        for _ in range(10):
            x = rng.uniform(-0.5, 2.0, size=3)
            grad = np.asarray(W.gradient(x))
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd = (W.eval(x + e) - W.eval(x - e)) / (2 * h)
                assert grad[i] == pytest.approx(fd, abs=1e-6)

    def test_cone_transport(self):
        W = conjugate(elementary_symmetric(2, 1))
        # trace of lambda positive iff trace condition after mapping back
        assert W.cone(np.array([2.0, 3.0]))       # T gives positive entries
        assert not W.cone(np.array([0.0, 0.0]))   # maps to (-1/2, -1/2)
        assert not W.cone(np.array([-1.5, 0.0]))  # outside K entirely


class TestFlowConjugation:
    def test_shift_at_origin(self):
        W = sum_function(4)
        for t in (0.0, 0.3, 1.7):
            Wt = flow_conjugate(W, t)
            assert Wt(np.zeros(4)) == pytest.approx(-4 * math.tanh(t), abs=1e-12)

    def test_zero_time_is_identity(self, rng):
        W = conjugate(elementary_symmetric(3, 2))
        W0 = flow_conjugate(W, 0.0)
        x = rng.uniform(-0.5, 0.5, size=3)
        assert W0(x) == pytest.approx(W(x), abs=1e-14)

    def test_semigroup(self, rng):
        W = sum_function(3)
        s, t = 0.4, 0.9
        Wst = flow_conjugate(flow_conjugate(W, s), t)
        Wsum = flow_conjugate(W, s + t)
        for _ in range(50):
            x = rng.uniform(-0.9, 0.9, size=3)
            assert Wst(x) == pytest.approx(Wsum(x), abs=1e-9)

    def test_gradient_matches_fd(self):
        # arbitration point: the chain rule puts (1 - x tanh t)^2 in the
        # denominator; the sign variant fails away from x = 0
        W = sum_function(3)
        t = 0.7
        th = math.tanh(t)
        Wt = flow_conjugate(W, t)
        x = np.array([0.3, -0.4, 2.0])
        grad = np.asarray(Wt.gradient(x))
        h = 1e-6
        fd = np.empty(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd[i] = (Wt.eval(x + e) - Wt.eval(x - e)) / (2 * h)
        assert np.max(np.abs(grad - fd)) < 1e-7
        rival = (1.0 - th**2) / (1.0 + x * th) ** 2
        assert np.max(np.abs(rival - fd)) > 1e-3

    def test_pole_raises(self):
        W = sum_function(2)
        Wt = flow_conjugate(W, math.atanh(0.5))
        with pytest.raises(SingularParameterError):
            Wt(np.array([2.0, 0.0]))

    def test_metric_side_rejected(self):
        with pytest.raises(SingularParameterError):
            flow_conjugate(elementary_symmetric(2, 1), 1.0)


class TestEllipticity:
    def test_sigma_family_elliptic(self, rng):
        points = [rng.uniform(0.05, 0.45, size=3) for _ in range(10)]
        for F in (elementary_symmetric(3, 1), elementary_symmetric(3, 2),
                  conjugate(elementary_symmetric(3, 2))):
            pts = points if F.side == METRIC_SIDE else [
                t_map(p, "c_to_k") for p in points]
            records = ellipticity_check(F, pts)
            assert all(r.elliptic and r.smooth for r in records)

    def test_min_function_kink_detected(self):
        F = CurvatureFunction(
            side=METRIC_SIDE, n=2,
            eval=lambda x: float(np.min(x)), name="min")
        smooth_pt = np.array([0.1, 0.3])
        kink_pt = np.array([0.2, 0.2])
        rec_smooth, rec_kink = ellipticity_check(F, [smooth_pt, kink_pt])
        assert rec_smooth.smooth
        assert not rec_kink.smooth
        assert not rec_kink.elliptic
        # away from the diagonal only one slot carries slope
        assert not rec_smooth.elliptic

    def test_nonfinite_evaluation_raises(self):
        def shy_log(x):
            with np.errstate(invalid="ignore"):
                return float(np.log(x[0]))

        F = CurvatureFunction(side=METRIC_SIDE, n=1, eval=shy_log, name="log")
        with pytest.raises(SingularParameterError):
            ellipticity_check(F, [np.array([-1.0])])


class TestHessianTransform:
    def test_trace_closed_form(self):
        kappa = np.array([0.5, -0.2, 0.1])
        M = hessian_transform(elementary_symmetric(3, 1), kappa)
        expected = np.diag(-2.0 / (1.0 + kappa) ** 3)
        assert np.allclose(M, expected, atol=1e-12)

    def test_matches_fd_hessian_of_conjugate(self):
        F = elementary_symmetric(3, 2)
        W = conjugate(F)
        kappa = np.array([0.5, -0.2, 0.1])
        M = hessian_transform(F, kappa)
        h = 1e-4
        fd = np.empty((3, 3))
        w0 = W.eval(kappa)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd[i, i] = (W.eval(kappa + e) - 2 * w0 + W.eval(kappa - e)) / h**2
        for i in range(3):
            for j in range(i + 1, 3):
                ei, ej = np.zeros(3), np.zeros(3)
                ei[i], ej[j] = h, h
                fd[i, j] = fd[j, i] = (
                    W.eval(kappa + ei + ej) - W.eval(kappa + ei - ej)
                    - W.eval(kappa - ei + ej) + W.eval(kappa - ei - ej)
                ) / (4 * h**2)
        assert np.max(np.abs(M - fd)) < 1e-5

    def test_requires_metric_side(self):
        with pytest.raises(SingularParameterError):
            hessian_transform(sum_function(2), np.zeros(2))


class TestOrderInequality:
    def test_equality_at_zero(self):
        lhs, rhs, holds = hr_inequality(np.zeros(5))
        assert holds and lhs == pytest.approx(rhs) == pytest.approx(-5.0)

    def test_reference_point(self):
        lhs, rhs, holds = hr_inequality(np.ones(4))
        assert holds and lhs == pytest.approx(0.0) and rhs == pytest.approx(4.0)

    def test_bulk_sweep(self, rng):
        a = rng.uniform(-1.0 + 1e-9, 10.0, size=(100_000, 4))
        lhs = np.sum((a - 1.0) / (a + 1.0), axis=1)
        rhs = 2.0 * np.sum(a, axis=1) - 4
        assert np.all(lhs <= rhs + 1e-12)
        # the batch form repeats the reference arithmetic row by row
        batch_lhs, batch_rhs, holds = hr_inequality(a)
        np.testing.assert_array_equal(batch_lhs, lhs)
        np.testing.assert_array_equal(batch_rhs, rhs)
        assert np.all(holds)
        assert hr_inequality(a[0]) == (lhs[0], rhs[0], True)

    def test_domain_error(self):
        with pytest.raises(SingularParameterError):
            hr_inequality(np.array([0.0, -1.0]))

    def test_nonnegative_trace_transfers(self, rng):
        # metric-side trace >= 0 forces hypersurface-side trace >= n in the
        # opposite orientation
        lam = rng.uniform(-1.0, 0.5 - 1e-9, size=(400_000, 3))
        lam = lam[np.sum(lam, axis=1) >= 0.0]
        assert len(lam) > 50_000
        kappa = t_map(lam, "c_to_k")
        assert np.all(np.sum(kappa, axis=1) >= 3 - 1e-9)
        # spot-check the orientation convention used for the transfer
        spot = lambda_kappa(lam[0], orientation=OPPOSITE, direction="lambda_to_kappa")
        assert np.allclose(spot, kappa[0])


class TestAdmissibleConstant:
    def test_trace_quarter(self):
        root = admissible_constant(elementary_symmetric(4, 1), 1.0, (0.01, 0.49))
        assert root == pytest.approx(0.25, abs=1e-10)

    def test_shifted_trace_matches_flat_eigenvalue(self):
        n = 3
        W = CurvatureFunction(
            side=HYPERSURFACE_SIDE, n=n,
            eval=lambda x: float(np.sum(x)) - n, name="trace-shift")
        root = admissible_constant(W, 0.0, (0.5, 2.0))
        assert root == pytest.approx(1.0, abs=1e-10)
        lam = lambda_kappa(root, orientation=OPPOSITE, direction="kappa_to_lambda")
        assert lam == pytest.approx(0.0, abs=1e-12)

    def test_bracket_error(self):
        with pytest.raises(RootBracketError):
            admissible_constant(elementary_symmetric(4, 1), 4.0, (0.01, 0.49))

    def test_decreasing_root_rejected(self):
        F = CurvatureFunction(
            side=METRIC_SIDE, n=2, eval=lambda x: -float(np.sum(x)), name="neg")
        with pytest.raises(RootBracketError):
            admissible_constant(F, 0.0, (-0.3, 0.3))


NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])

# every map built on the Moebius core, applied to a point of three entries
CORE_MAPS = {
    "canonical lambda->kappa": lambda x: lambda_kappa(x, CANONICAL, "lambda_to_kappa"),
    "canonical kappa->lambda": lambda x: lambda_kappa(x, CANONICAL, "kappa_to_lambda"),
    "opposite lambda->kappa": lambda x: lambda_kappa(x, OPPOSITE, "lambda_to_kappa"),
    "opposite kappa->lambda": lambda x: lambda_kappa(x, OPPOSITE, "kappa_to_lambda"),
    "t_map k_to_c": lambda x: t_map(x, "k_to_c"),
    "t_map c_to_k": lambda x: t_map(x, "c_to_k"),
    "ricatti": lambda x: ricatti(x, 0.7),
    "flow_conjugate": lambda x: flow_conjugate(sum_function(3), 0.7).eval(x),
    "conjugate": lambda x: conjugate(elementary_symmetric(3, 2)).eval(x),
    "hr_inequality": hr_inequality,
    "horospherical_scalar": horospherical_scalar,
}

# (map, inputs it excludes): the half-line past each pole, in both directions
EXCLUDED = {
    "canonical lambda->kappa": (CORE_MAPS["canonical lambda->kappa"], st.floats(0.5, 1e12)),
    "canonical kappa->lambda": (CORE_MAPS["canonical kappa->lambda"], st.floats(1.0, 1e12)),
    "opposite lambda->kappa": (CORE_MAPS["opposite lambda->kappa"], st.floats(0.5, 1e12)),
    "opposite kappa->lambda": (CORE_MAPS["opposite kappa->lambda"], st.floats(-1e12, -1.0)),
    "t_map k_to_c": (CORE_MAPS["t_map k_to_c"], st.floats(-1e12, -1.0)),
    "t_map c_to_k": (CORE_MAPS["t_map c_to_k"], st.floats(0.5, 1e12)),
    "hr_inequality": (lambda x: hr_inequality([0.0, x]), st.floats(-1e12, -1.0)),
    "horospherical_curvature": (lambda x: horospherical_curvature(x, 0.0),
                                st.floats(1.0, 1e12)),
}


class TestMoebiusCore:
    @given(st.sampled_from(sorted(CORE_MAPS)), NONFINITE, st.integers(0, 2))
    def test_nonfinite_input_rejected(self, name, bad, slot):
        x = np.array([0.1, -0.2, 0.3])
        x[slot] = bad
        with pytest.raises(SingularParameterError):
            CORE_MAPS[name](x)

    @given(NONFINITE)
    def test_nonfinite_flow_time_rejected(self, t):
        with pytest.raises(SingularParameterError):
            ricatti(0.2, t)
        with pytest.raises(SingularParameterError):
            flow_conjugate(sum_function(2), t)

    @given(st.data())
    def test_excluded_half_lines_rejected(self, data):
        fn, bad = EXCLUDED[data.draw(st.sampled_from(sorted(EXCLUDED)))]
        with pytest.raises(SingularParameterError):
            fn(data.draw(bad))

    @given(st.floats(0.05, 5.0), st.booleans())
    def test_flow_pole_rejected(self, t, backward):
        t = -t if backward else t
        with pytest.raises(SingularParameterError):
            ricatti(1.0 / math.tanh(t), t)

    @given(st.floats(-5.0, 0.9), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    @settings(deadline=None)
    def test_flow_composes_by_matrix_product(self, kappa, s, t):
        composed = flow_shift(t) @ flow_shift(s)
        np.testing.assert_allclose(composed.matrix / composed.matrix[0, 0],
                                   flow_shift(s + t).matrix, atol=1e-14)
        twice = ricatti(ricatti(kappa, s), t)
        assert twice == pytest.approx(float(composed(kappa)), rel=1e-12, abs=1e-12)
        assert twice == pytest.approx(ricatti(kappa, s + t), rel=1e-9, abs=1e-9)

    @given(st.floats(-1e3, 0.499), st.sampled_from([CANONICAL, OPPOSITE]))
    @settings(deadline=None)
    def test_lambda_round_trip(self, lam, orientation):
        kappa = lambda_kappa(lam, orientation, "lambda_to_kappa")
        back = lambda_kappa(kappa, orientation, "kappa_to_lambda")
        assert back == pytest.approx(lam, rel=1e-9, abs=1e-9)
