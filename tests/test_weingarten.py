"""Tests for the symmetric-function calculus and its two-sided conjugation."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horocorr.correspondence import CANONICAL, OPPOSITE, lambda_kappa, ricatti
from horocorr.errors import SingularParameterError
from horocorr.sphere import central_gradient
from horocorr.weingarten import (
    HYPERSURFACE_SIDE,
    METRIC_SIDE,
    T,
    T_INV,
    CurvatureFunction,
    Mobius,
    conjugate,
    elementary_symmetric,
    flow_conjugate,
    flow_shift,
    hessian_transform,
    hr_inequality,
    t_map,
)


def sum_function(n):
    # hypersurface-side trace, analytic gradient of ones
    return CurvatureFunction(
        side=HYPERSURFACE_SIDE,
        eval=lambda x: float(np.sum(x)),
        gradient=lambda x: np.ones(n),
    )


class TestConeMap:
    def test_reference_values(self):
        assert np.allclose(t_map(np.zeros(3)), -0.5 * np.ones(3))
        assert np.allclose(t_map(np.ones(3)), np.zeros(3))
        # fixed point data for the inverse
        assert np.allclose(t_map(np.zeros(2), "c_to_k"), np.ones(2))

    def test_inverse_is_the_signed_adjugate(self):
        # T_INV is written out: the adjugate of T's matrix, signed by its
        # determinant so that it is defined on the image of T
        (a, b), (c, d) = T.matrix
        adjugate = np.array([[d, -b], [-c, a]])
        assert T_INV.matrix.tobytes() == (np.sign(a * d - b * c) * adjugate).tobytes()
        assert T_INV.two_sided == T.two_sided

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
        assert s2.eval(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(35.0)
        s4 = elementary_symmetric(4, 4)
        assert s4.eval(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(24.0)

    @given(st.permutations([0.11, -0.4, 0.3, 0.07]))
    def test_symmetry(self, perm):
        s2 = elementary_symmetric(4, 2)
        assert s2.eval(np.array(perm)) == pytest.approx(
            s2.eval(np.array([0.11, -0.4, 0.3, 0.07])))

    def test_analytic_gradients_match_fd(self, rng):
        h = 1e-6
        for F in (elementary_symmetric(3, 2), elementary_symmetric(3, 3)):
            x = rng.uniform(0.05, 0.45, size=3)
            grad = np.asarray(F.gradient(x))
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd = (F.eval(x + e) - F.eval(x - e)) / (2 * h)
                assert grad[i] == pytest.approx(fd, abs=1e-7)


class TestConjugation:
    def test_trace_conjugate_values(self):
        for n in (2, 3, 5):
            W = conjugate(elementary_symmetric(n, 1))
            assert W.side == HYPERSURFACE_SIDE
            assert W.eval(np.ones(n)) == pytest.approx(0.0, abs=1e-14)
            assert W.eval(np.zeros(n)) == pytest.approx(-n / 2)

    def test_double_conjugation_is_identity(self, rng):
        F = elementary_symmetric(3, 2)
        FF = conjugate(conjugate(F))
        assert FF.side == METRIC_SIDE
        for _ in range(20):
            y = rng.uniform(-2.0, 0.49, size=3)
            assert FF.eval(y) == pytest.approx(F.eval(y), abs=1e-12)

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


class TestFlowConjugation:
    def test_shift_at_origin(self):
        W = sum_function(4)
        for t in (0.0, 0.3, 1.7):
            Wt = flow_conjugate(W, t)
            assert Wt.eval(np.zeros(4)) == pytest.approx(-4 * math.tanh(t), abs=1e-12)

    def test_zero_time_is_identity(self, rng):
        W = conjugate(elementary_symmetric(3, 2))
        W0 = flow_conjugate(W, 0.0)
        x = rng.uniform(-0.5, 0.5, size=3)
        assert W0.eval(x) == pytest.approx(W.eval(x), abs=1e-14)

    def test_semigroup(self, rng):
        W = sum_function(3)
        s, t = 0.4, 0.9
        Wst = flow_conjugate(flow_conjugate(W, s), t)
        Wsum = flow_conjugate(W, s + t)
        for _ in range(50):
            x = rng.uniform(-0.9, 0.9, size=3)
            assert Wst.eval(x) == pytest.approx(Wsum.eval(x), abs=1e-9)

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
            Wt.eval(np.array([2.0, 0.0]))

    def test_metric_side_rejected(self):
        with pytest.raises(SingularParameterError):
            flow_conjugate(elementary_symmetric(2, 1), 1.0)


class TestEllipticity:
    def test_sigma_family_elliptic(self, rng):
        # every analytic partial is positive, and matches central differences;
        # conjugation carries the positivity across the dictionary
        points = rng.uniform(0.05, 0.45, size=(10, 3))
        for F in (elementary_symmetric(3, 1), elementary_symmetric(3, 2),
                  conjugate(elementary_symmetric(3, 2))):
            pts = points if F.side == METRIC_SIDE else t_map(points, "c_to_k")
            grad = F.gradient(pts)
            assert np.all(grad > 0.0)
            np.testing.assert_allclose(grad, central_gradient(F.eval, pts, 1e-5),
                                       rtol=1e-7, atol=1e-10)


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

    def test_requires_analytic_jets(self):
        F = replace(elementary_symmetric(3, 2), hessian=None)
        with pytest.raises(SingularParameterError, match="analytic jets"):
            hessian_transform(F, np.zeros(3))


class TestOrderInequality:
    def test_equality_at_zero(self):
        lhs, rhs = hr_inequality(np.zeros(5))
        assert lhs == pytest.approx(rhs) == pytest.approx(-5.0)

    def test_reference_point(self):
        lhs, rhs = hr_inequality(np.ones(4))
        assert lhs == pytest.approx(0.0) and rhs == pytest.approx(4.0)

    def test_bulk_sweep(self, rng):
        a = rng.uniform(-1.0 + 1e-9, 10.0, size=(100_000, 4))
        lhs = np.sum((a - 1.0) / (a + 1.0), axis=1)
        rhs = 2.0 * np.sum(a, axis=1) - 4
        assert np.all(lhs <= rhs + 1e-12)
        # the batch form repeats the reference arithmetic row by row
        batch_lhs, batch_rhs = hr_inequality(a)
        np.testing.assert_array_equal(batch_lhs, lhs)
        np.testing.assert_array_equal(batch_rhs, rhs)
        assert hr_inequality(a[0]) == (lhs[0], rhs[0])

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
        composed = Mobius(flow_shift(t).matrix @ flow_shift(s).matrix, two_sided=True)
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


BIG = np.finfo(float).max

# T's denominator 2x + 2 is 1e154 at 5e153; the others cross it nearby
WIDE_DENOMINATORS = [5e153, math.nextafter(5e153, math.inf), 1e154,
                     math.nextafter(1e154, math.inf), -1e154, 1e155, -1e155,
                     1e200, -1e200, 1e300, -1e300]


class TestMobiusLargeInput:
    # (map, x, limit of the map as x -> +-infinity)
    CASES = [
        (T, 1e308, 0.5), (T, BIG, 0.5),
        (T_INV, -1e308, -1.0), (T_INV, -BIG, -1.0),
        (flow_shift(1.0), 1e308, -1.0 / math.tanh(1.0)),
        (flow_shift(1.0), -1e308, -1.0 / math.tanh(1.0)),
        (flow_shift(1.0), BIG, -1.0 / math.tanh(1.0)),
        (flow_shift(1.0), -BIG, -1.0 / math.tanh(1.0)),
    ]

    @pytest.mark.parametrize("f, x, limit", CASES)
    def test_limit_without_warning(self, f, x, limit):
        # pytest turns any RuntimeWarning into an error
        assert f(x) == pytest.approx(limit, rel=1e-15)
        assert f(np.array([x, 0.0]))[0] == pytest.approx(limit, rel=1e-15)
        assert f.derivative(x) == 0.0

    @pytest.mark.parametrize("f, x", [(T, -1e308), (T, -BIG), (T_INV, 1e308),
                                      (T_INV, BIG)])
    def test_far_side_still_rejected(self, f, x):
        with pytest.raises(SingularParameterError):
            f(x)

    @given(st.sampled_from([T, T_INV, flow_shift(1.0), flow_shift(-0.3),
                            flow_shift(0.0)]),
           st.floats(-1e300, 1e300))
    @example(T, 1e155)
    @example(flow_shift(1.0), -1e200)
    @example(T_INV, -1e300)
    @example(T_INV, -6.095276815878463e+17)
    def test_matches_literal_formula(self, f, x):
        (a, b), (c, d) = f.matrix
        denom = c * x + d
        if (abs(denom) < 1e-14 if f.two_sided else denom <= 0.0):
            with pytest.raises(SingularParameterError):
                f(x)
            return
        assert f(x) == (a * x + b) / denom
        if abs(x) <= 1e150:
            # squared by one rounded product: a float64 scalar's ** 2 goes
            # through libm's pow, one ulp off at x = -6.095276815878463e+17
            assert f.derivative(x) == (a * d - b * c) / (denom * denom)
        else:
            # the literal denom**2 overflows past 1.3e154: compare with the
            # exact quotient, rounded once, to within two roundings
            exact = float(Fraction(a * d - b * c) / Fraction(denom) ** 2)
            assert math.isclose(f.derivative(x), exact, rel_tol=4.5e-16, abs_tol=5e-324)

    def test_affine_map_at_large_input(self):
        identity = Mobius(np.eye(2), two_sided=True)
        assert identity(BIG) == BIG and identity(-1e308) == -1e308

    @given(st.sampled_from([T, T_INV, flow_shift(1.0), flow_shift(-0.3)]),
           st.lists(st.one_of(st.sampled_from(WIDE_DENOMINATORS),
                              st.floats(-1e300, 1e300), st.floats(-10.0, 10.0)),
                    min_size=1, max_size=6),
           st.sampled_from(["0d", "1d", "2d"]))
    @example(T, [0.3, 1e155, 2.0], "1d")
    @example(T, [math.nextafter(5e153, math.inf)], "0d")
    @example(flow_shift(1.0), [-1e200, 1e300, 0.5, 3.0], "2d")
    @settings(max_examples=200, deadline=None)
    def test_derivative_matches_masked_formula(self, f, values, layout):
        # every input divides through the wide-denominator masks, which divide
        # by exactly 1.0 while no |denominator| exceeds 1e154; the bits are
        # those of the masked formula at every scale
        x = np.array(values[0]) if layout == "0d" else np.array(values)
        if layout == "2d" and len(values) % 2 == 0:
            x = x.reshape(2, -1)
        assert outcome(f.derivative, x) == outcome(
            lambda v: masked_derivative(f, v), x)


def masked_derivative(f, x):
    """Mobius.derivative's masked formula, written out as the oracle: every
    input divides through the wide-denominator masks."""
    _, s, denom = f._check(x)
    (a, b), (c, d) = f.matrix
    wide = np.abs(denom) > 1e154
    once = np.where(wide, denom, 1.0)
    return (a * d - b * c) * s**2 / np.where(wide, 1.0, denom)**2 / once / once


def reference_terms(self, x):
    """Mobius._terms as it was before its all-finite branch: every input
    takes the masked, rescaled path."""
    x = np.asarray(x, dtype=float)
    (_, _), (c, d) = self.matrix
    u, s = np.where(np.isfinite(x), x, 0.0), 1.0
    if c != 0.0 and u.size and np.max(np.abs(u)) > 1e300:
        huge = np.abs(u) > 1e300
        u, s = np.where(huge, np.sign(u), u), 1.0 / np.where(huge, np.abs(u), 1.0)
    denom = c * u + d * s
    inside = np.abs(denom) >= 1e-14 * s if self.two_sided else denom > 0.0
    return x, np.isfinite(x) & inside, u, s, denom


class ReferenceMobius(Mobius):
    _terms = reference_terms


def outcome(method, x):
    """Bits, type and shape of a result, or the type and text of the raise."""
    try:
        out = method(x)
    except SingularParameterError as exc:
        return type(exc), str(exc)
    return type(out), np.shape(out), np.asarray(out).tobytes()


FLOW_TIMES = [1.0, -0.3, 0.0, 2.5]
SPECIAL = ([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300,
            math.nextafter(1e300, math.inf), math.nextafter(-1e300, -math.inf),
            1e308, -1e308, BIG, math.inf, -math.inf, math.nan, -1.0, 0.5,
            math.nextafter(-1.0, 0.0), math.nextafter(0.5, 0.0)]
           + [1.0 / math.tanh(t) for t in FLOW_TIMES if t])


class TestMobiusFastPath:
    # finite input within +-1e300 skips the masks: the same bits and raises
    # as the masked path, which every input took before
    @given(st.sampled_from(["T", "T_INV"] + FLOW_TIMES),
           st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(-10.0, 10.0),
                              st.floats(allow_nan=True, allow_infinity=True)),
                    max_size=6),
           st.sampled_from(["0d", "1d", "2d"]))
    @example("T", [0.3, -0.0, 2.0], "1d")
    @example(1.0, [1e300, -1e300], "2d")
    @example("T_INV", [0.5], "0d")
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_terms(self, which, values, layout):
        f = {"T": T, "T_INV": T_INV}[which] if isinstance(which, str) else flow_shift(which)
        ref = ReferenceMobius(f.matrix, f.two_sided)
        x = np.array(values[:1] or [0.25])[0] if layout == "0d" else np.array(values)
        if layout == "2d" and len(values) % 2 == 0:
            x = x.reshape(2, -1)
        for name in ("__call__", "derivative"):
            assert outcome(getattr(f, name), x) == outcome(getattr(ref, name), x)


def reference_sigma(x, k):
    """sigma_k as the calculus computed it before batching: a coefficient of
    np.poly on the negated entries."""
    return float(np.poly(-np.asarray(x, dtype=float))[k])


def reference_sigma_jets(x, k):
    """Gradient and Hessian of sigma_k as computed before batching, from
    np.delete copies of one point."""
    n = len(x)
    grad = np.array([reference_sigma(np.delete(x, i), k - 1) if k > 1 else 1.0
                     for i in range(n)])
    H = np.zeros((n, n))
    if k >= 2:
        for i in range(n):
            for j in range(i + 1, n):
                rest = np.delete(x, [i, j])
                H[i, j] = H[j, i] = reference_sigma(rest, k - 2) if k > 2 else 1.0
    return grad, H


@st.composite
def batches(draw, lo, hi, max_n=5, max_m=6):
    """An (m, n) array of eigenvalue points with entries in [lo, hi]."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    row = st.lists(st.floats(lo, hi), min_size=n, max_size=n)
    return np.array(draw(st.lists(row, min_size=m, max_size=m)))


def assert_stacks_singles(fn, x):
    """fn on the batch x equals fn on each row, stacked, bit for bit."""
    np.testing.assert_array_equal(fn(x), np.stack([fn(row) for row in x]))


class TestCalculusBatchConvention:
    """An (m, n) batch of eigenvalue points runs through the same code as
    one point and agrees bit for bit with the stacked single-point calls."""

    @given(batches(-10.0, 10.0), st.data())
    @settings(deadline=None)
    def test_sigma_matches_reference(self, x, data):
        k = data.draw(st.integers(1, x.shape[1]))
        F = elementary_symmetric(x.shape[1], k)
        np.testing.assert_array_equal(F.eval(x), [reference_sigma(r, k) for r in x])
        grads, hessians = zip(*(reference_sigma_jets(r, k) for r in x))
        np.testing.assert_array_equal(F.gradient(x), np.stack(grads))
        np.testing.assert_array_equal(F.hessian(x), np.stack(hessians))

    @given(batches(-0.99, 5.0), st.data())
    @settings(deadline=None)
    def test_jets_and_conjugates(self, x, data):
        n = x.shape[1]
        F = elementary_symmetric(n, data.draw(st.integers(1, n)))
        for G in (F, conjugate(F)):
            for jet in (G.eval, G.gradient, G.hessian):
                if jet is not None:
                    assert_stacks_singles(jet, x)
        assert_stacks_singles(lambda v: hessian_transform(F, v), x)
        for part in range(2):
            assert_stacks_singles(lambda v: hr_inequality(v)[part], x)

    @given(batches(-0.9, 0.9), st.data(), st.floats(-1.0, 1.0))
    @settings(deadline=None)
    def test_flow_conjugate(self, x, data, t):
        n = x.shape[1]
        W = flow_conjugate(elementary_symmetric(
            n, data.draw(st.integers(1, n)), HYPERSURFACE_SIDE), t)
        for jet in (W.eval, W.gradient):
            assert_stacks_singles(jet, x)

    def test_single_point_gives_scalars(self):
        x = np.array([0.1, 0.2, 0.3])
        value = elementary_symmetric(3, 2).eval(x)
        assert np.ndim(value) == 0
        assert value == reference_sigma(x, 2)
        lhs, rhs = hr_inequality(x)
        assert np.ndim(lhs) == np.ndim(rhs) == 0
