import math

import numpy as np
import pytest

from qesbethe import numerics
from qesbethe.errors import (
    DivergentProduct,
    InexactDivision,
    InversionAsymmetry,
    NoConvergence,
    PoleOfGamma,
    SingularJacobian,
)
from qesbethe.numerics import (
    NewtonOptions,
    _broyden_update,
    binomial_shift,
    chebyshev_matrix,
    convolve_rows,
    divide_rows_exact,
    eig_general,
    log_gamma,
    newton_solve,
    poly_roots,
    q_pochhammer_inf,
    symmetric_rows_to_eta,
)
from qesbethe.models import model_spec
from qesbethe.wavefun import default_grid

from conftest import ALL_FAMILIES, draw_params
from reference_algebra import (
    LaurentC,
    PolynomialC,
    chebyshev_t_coefficients,
    eta_power_as_laurent,
    laurent_divide_exact,
    laurent_mul,
    laurent_scale_arg,
    poly_divide_exact,
    poly_from_roots,
    poly_monomial,
    poly_mul,
    poly_shift,
    symmetric_laurent_to_eta,
)


def coeffs_close(p: PolynomialC, expected, atol=1e-12):
    got = np.zeros(len(expected), dtype=complex)
    got[: len(p.coeffs)] = p.coeffs
    np.testing.assert_allclose(got, np.asarray(expected, dtype=complex), atol=atol)


class TestPolyShift:
    def test_square_shifted_by_minus_i(self):
        p = poly_monomial(2, "x")
        coeffs_close(poly_shift(p, -1j), [-1, -2j, 1])

    def test_constant_invariant(self):
        p = PolynomialC((3.5 + 1j,), "x")
        assert poly_shift(p, 2.3 - 0.7j).coeffs == p.coeffs

    def test_cube_shifted_by_i(self):
        # (x+i)^3 = x^3 + 3i x^2 - 3x - i, expanded by hand
        coeffs_close(poly_shift(poly_monomial(3, "x"), 1j), [-1j, -3, 3j, 1])

    def test_round_trip_random_degree_30(self, rng):
        # The round trip has condition number growing like 4^deg: 1e-12 is
        # achievable (and asserted) through degree 10; beyond that the
        # tolerance follows the conditioning envelope.  Shifts are +-i, the
        # values the difference operators actually use.
        for _ in range(60):
            deg = int(rng.integers(1, 31))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            p = PolynomialC(tuple(coeffs), "x")
            c = 1j * float(rng.choice([-1.0, 1.0]))
            back = poly_shift(poly_shift(p, c), -c)
            scale = p.inf_norm()
            tol = 1e-12 * max(1.0, 4.0 ** (deg - 10))
            for a, b in zip(back.coeffs, p.coeffs):
                assert abs(a - b) <= tol * scale


    def test_binomial_rows_are_shifted_monomials(self):
        # exact: the binomial coefficients stay below 2^53 through n = 56
        for n in (1, 2, 7, 40, 57):
            for c in (1j, -1j, 1.0):
                table = binomial_shift(n, c)
                for k in range(n):
                    want = poly_shift(poly_monomial(k, "x"), c).coeffs
                    assert tuple(table[k, : k + 1]) == want
                    assert not table[k, k + 1 :].any()
        assert not binomial_shift(5, 1j).flags.writeable


class TestPolyMul:
    def test_difference_of_squares(self):
        p = PolynomialC((1, 1), "x")
        q = PolynomialC((1, -1), "x")
        coeffs_close(poly_mul(p, q), [1, 0, -1])

    def test_zero_annihilates(self):
        assert poly_mul(PolynomialC((1, 2), "x"), PolynomialC((), "x")).coeffs == ()

    def test_three_factor_product(self):
        # (x-1)(x+1)(x-i) = x^3 - i x^2 - x + i
        p = poly_from_roots([1, -1, 1j], "x")
        coeffs_close(p, [1j, -1, -1j, 1])


    def test_rows_equal_np_convolve(self, rng):
        rows = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        kernel = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = convolve_rows(rows, kernel)
        for row, out in zip(rows, got):
            np.testing.assert_allclose(out, np.convolve(row, kernel), rtol=0, atol=1e-14)


class TestPolyDivideExact:
    def test_linear_factor(self):
        p = PolynomialC((-1, 0, 1), "x")
        d = PolynomialC((-1, 1), "x")
        coeffs_close(poly_divide_exact(p, d), [1, 1])

    def test_constructed_kinematic_product(self):
        den = poly_mul(PolynomialC((0, 2j), "x"), PolynomialC((1, 2j), "x"))
        num = poly_mul(den, PolynomialC((1, 0, 1), "x"))
        coeffs_close(poly_divide_exact(num, den), [1, 0, 1])

    def test_perturbed_numerator_raises(self):
        p = PolynomialC((1 + 1e-3, 0, 1), "x")
        d = PolynomialC((-1j, 1), "x")
        with pytest.raises(InexactDivision):
            poly_divide_exact(p, d, tol=1e-9)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            poly_divide_exact(PolynomialC((1,), "x"), PolynomialC((), "x"))


    def test_rows_match_one_at_a_time(self, rng):
        d = PolynomialC((0, 0, 4, 0, 16), "x")  # the centrifugal denominator product
        rows = []
        for _ in range(6):
            q = PolynomialC(tuple(rng.standard_normal(7) + 1j * rng.standard_normal(7)), "x")
            rows.append(list(poly_mul(q, d).coeffs))
        rows[2][1] += 1e-3  # perturbed: not divisible
        rows[4][0] += 1e-3
        rows.append([0j] * 11)  # a zero row divides exactly
        quot, errors = divide_rows_exact(np.array(rows), d.coeffs, 1e-9)
        assert sorted(errors) == [2, 4]
        for i, row in enumerate(rows):
            p = PolynomialC(tuple(row), "x")
            if i in errors:
                with pytest.raises(InexactDivision) as exc:
                    poly_divide_exact(p, d, 1e-9)
                assert str(errors[i]) == str(exc.value)
            else:
                want = np.zeros(quot.shape[1], dtype=complex)
                coeffs = poly_divide_exact(p, d, 1e-9).coeffs
                want[: len(coeffs)] = coeffs
                np.testing.assert_allclose(quot[i], want, rtol=0, atol=1e-13)

    def test_row_shorter_than_divisor_fails(self):
        quot, errors = divide_rows_exact(np.array([[1.0, 2.0]]), [1.0, 0.0, 1.0], 1e-9)
        assert quot.shape == (1, 0) and list(errors) == [0]


class TestPolyRoots:
    def test_quadratic_pm_i(self):
        roots = sorted(poly_roots([[1, 0, 1]])[0], key=lambda z: z.imag)
        np.testing.assert_allclose(roots, [-1j, 1j], atol=1e-12)

    def test_double_root(self):
        roots = poly_roots([np.array([1, -2, 1])])[0]
        np.testing.assert_allclose(sorted(r.real for r in roots), [1, 1], atol=1e-7)

    def test_cubic_integers(self):
        np.testing.assert_allclose(
            sorted(r.real for r in poly_roots([[-6, 11, -6, 1]])[0]), [1, 2, 3], atol=1e-10
        )

    def test_batch_is_np_roots_bit_for_bit(self, rng):
        # zero constant coefficients give exact zero roots, listed last;
        # zero top coefficients are dropped; one batch mixes the degrees
        polys = [
            [0, 0, 2.0, -3.0, 1.0],
            [0, 1.0],
            [3.0],
            [0, 0, 5.0 - 1j],
            [1.0, 2.0, 3.0, 0.0],
            *(rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in (2, 5, 5, 9, 9, 9)),
        ]
        for poly, roots in zip(polys, poly_roots(polys), strict=True):
            want = np.roots(np.asarray(poly, dtype=complex)[::-1])
            assert np.asarray(roots, dtype=complex).tobytes() == want.astype(complex).tobytes()

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_roots([[1.0, 1.0], [0.0, 0.0]])

    def test_round_trip_with_matching(self, rng):
        scipy_optimize = pytest.importorskip("scipy.optimize", exc_type=ImportError)
        for _ in range(10):
            n = int(rng.integers(2, 21))
            while True:
                roots = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                sep = min(
                    abs(roots[i] - roots[j])
                    for i in range(n)
                    for j in range(i + 1, n)
                )
                if sep >= 1e-3:
                    break
            (found,) = poly_roots([poly_from_roots(list(roots), "x").coeffs])
            cost = np.abs(np.subtract.outer(np.asarray(found), roots))
            rows, cols = scipy_optimize.linear_sum_assignment(cost)
            assert cost[rows, cols].max() < 1e-8


class TestEig:
    def test_diagonal(self):
        w, _ = eig_general(np.diag([2.0, 3.0]).astype(complex))
        np.testing.assert_allclose(sorted(v.real for v in w), [2, 3])

    def test_antidiagonal(self):
        # characteristic polynomial lambda^2 - 4
        w, _ = eig_general(np.array([[0, -2], [-2, 0]], dtype=complex))
        np.testing.assert_allclose(sorted(v.real for v in w), [-2, 2], atol=1e-12)

    def test_one_by_one(self):
        w, v = eig_general(np.array([[7 + 1j]]))
        assert w.tolist() == [7 + 1j] and v.tolist() == [[1.0]]

    def test_trace_identity_random(self, rng):
        for n in (2, 8, 32, 64):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            w, _ = eig_general(a)
            norm = np.linalg.norm(a, 2)
            assert abs(w.sum() - np.trace(a)) <= 1e-9 * norm

    def test_residual_contract(self, rng):
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        w, v = eig_general(a)
        for lam, vec in zip(w, v.T):
            assert np.linalg.norm(a @ vec - lam * vec) <= 1e-10 * np.linalg.norm(a, 2)
            np.testing.assert_allclose(np.linalg.norm(vec), 1.0, rtol=1e-12)

    def test_huge_entries_do_not_overflow_the_check(self):
        # ||A v - w v|| of 1e200 * A overflows; the check runs on A / max|A|
        a = np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 1.0], [0.0, 0.7, 2.0]], dtype=complex)
        small = np.sort_complex(eig_general(a)[0])
        big = np.sort_complex(eig_general(1e200 * a)[0])
        np.testing.assert_allclose(big, 1e200 * small, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_pair_fails(self, monkeypatch):
        a = np.diag([1.0, 2.0]).astype(complex)
        w, v = np.linalg.eig(a)
        v = v.copy()
        v[0, 1] = np.nan
        monkeypatch.setattr(np.linalg, "eig", lambda _: (w, v))
        with pytest.raises(NoConvergence, match="residual nan above"):
            eig_general(a)

    def test_first_failing_pair_named(self, monkeypatch):
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        w, v = np.linalg.eig(a)
        bad = w.copy()
        bad[1:] += [1e-3, 1e-1]  # pairs 1 and 2 fail; 1 is reported
        monkeypatch.setattr(np.linalg, "eig", lambda _: (bad, v))
        with pytest.raises(NoConvergence, match=r"residual 1\.000e-03 above"):
            eig_general(a)

    def test_dim_guard(self):
        with pytest.raises(ValueError):
            eig_general(np.zeros((257, 257), dtype=complex))


class TestNewton:
    def test_square_root_of_minus_one(self):
        sol = newton_solve(lambda v: np.array([v[0] ** 2 + 1]), [0.9j]).x
        np.testing.assert_allclose(sol[0], 1j, atol=1e-10)

    def test_linear_single_step(self):
        sol = newton_solve(lambda v: np.array([v[0] - 5.0]), [0.0]).x
        np.testing.assert_allclose(sol[0], 5.0, atol=1e-12)

    @staticmethod
    def pair_system(v):
        # x + y = 3, x y = 2 has the solution (1, 2) near the start below
        return np.array([v[0] + v[1] - 3.0, v[0] * v[1] - 2.0])

    def test_two_variable_system(self):
        sol = newton_solve(self.pair_system, [0.9, 2.2]).x
        np.testing.assert_allclose(sorted(s.real for s in sol), [1.0, 2.0], atol=1e-10)

    def test_singular_jacobian(self):
        with pytest.raises(SingularJacobian):
            newton_solve(lambda v: np.array([v[0] ** 2, v[1] ** 2]) * 0.0 + 1.0, [1.0, 1.0])

    def test_non_finite_jacobian_is_singular(self):
        # the residual is finite at the start only: the finite-difference
        # column of the second unknown is NaN, and no SVD may run on it
        x0 = np.array([1.0, 2.0], dtype=complex)

        def f(v):
            return np.array([v[0] - 3.0, v[1] - 3.0 if v[1] == x0[1] else np.nan])

        with pytest.raises(SingularJacobian, match="column 1 is not finite"):
            newton_solve(f, x0)

    # the roots of the wide system: unknowns 400 orders of magnitude apart
    WIDE = np.array([1e-200, 1.0, 1e200]) * np.exp(0.3j)

    def wide_system(self, scale=1.0):
        return lambda v: (v / (scale * self.WIDE)) ** 2 - 1.0

    def test_unknowns_are_scaled_by_the_start(self):
        # the accuracy asserted is the tolerance asked for: held steps stop
        # as soon as ||f|| meets it
        report = newton_solve(self.wide_system(), 1.002 * self.WIDE, NewtonOptions(tol=1e-15))
        assert report.fd_jacobians == 1 and report.iterations <= 4
        assert np.abs(report.x / self.WIDE - 1.0).max() <= 1e-15

    def test_jacobian_is_returned_in_the_callers_variables(self):
        first = newton_solve(self.wide_system(), 1.00005 * self.WIDE)
        assert first.inverse is not None
        # d/dv (v/c)^2 = 2 v / c^2 near v = c, so the inverse is c^2 / (2 v):
        # held from the start, which is within 1e-4 of c
        np.testing.assert_allclose(np.diag(first.inverse) / self.WIDE, 0.5, rtol=1e-4)
        nearby = newton_solve(self.wide_system(1.001), first.x, inverse=first.inverse)
        assert nearby.fd_jacobians == 0 < nearby.iterations
        assert np.abs(nearby.x / (1.001 * self.WIDE) - 1.0).max() <= 1e-12

    def test_no_convergence(self):
        with pytest.raises(NoConvergence):
            newton_solve(
                lambda v: np.array([v[0] ** 2 + 1.0]),
                [100.0],
                NewtonOptions(max_iter=3),
            )

    def test_fd_jacobian_is_held_once_built(self):
        report = newton_solve(self.pair_system, [0.9, 2.2])
        assert report.fd_jacobians == 1 < report.iterations

    def test_ill_conditioned_jacobian_is_singular(self):
        # finite and invertible: kappa_1 = ||J||_1 ||J^-1||_1 = 1.5e12 is
        # above COND_LIMIT, while the 2-norm condition number is 7.5e11
        jac = np.array([[2e-12, 2e-12, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        with pytest.raises(SingularJacobian, match=r"condition estimate 1\.500e\+12"):
            newton_solve(lambda v: jac @ (v - [2.0, 3.0, 4.0]), [1.0, 1.0, 1.0])

    def test_exact_jacobian_builds_none(self):
        x0 = np.array([0.9, 2.2], dtype=complex)
        exact = np.array([[1.0, 1.0], [x0[1], x0[0]]])
        report = newton_solve(self.pair_system, x0, inverse=np.linalg.inv(exact))
        assert report.fd_jacobians == 0 < report.iterations
        np.testing.assert_allclose(report.x, [1.0, 2.0], atol=1e-10)

    def test_wrong_jacobian_is_replaced(self):
        opts = NewtonOptions(tol=1e-14)
        fresh = newton_solve(self.pair_system, [0.9, 2.2], opts).x
        report = newton_solve(self.pair_system, [0.9, 2.2], opts, inverse=0.1 * np.eye(2))
        assert report.fd_jacobians >= 1
        assert np.max(np.abs(report.x - fresh)) <= 1e-12
        assert not np.allclose(report.inverse, 0.1 * np.eye(2))

    def test_stalled_held_step_refreshes(self):
        # the held Jacobian points the wrong way, so its full step grows
        # ||f||; a damped step with it would stall after every halving
        report = newton_solve(
            lambda v: np.array([v[0] - 5.0]),
            [0.0],
            NewtonOptions(max_iter=1),
            inverse=np.array([[-1.0]]),
        )
        assert report.fd_jacobians == 1
        np.testing.assert_allclose(report.x, [5.0], atol=1e-12)

    def test_singular_held_jacobian_refreshes(self):
        report = newton_solve(self.pair_system, [0.9, 2.2], inverse=np.zeros((2, 2)))
        assert report.fd_jacobians >= 1
        np.testing.assert_allclose(report.x, [1.0, 2.0], atol=1e-10)

    def test_held_steps_do_not_count_against_max_iter(self):
        # x^2 = 2 from x = 1, holding the exact Jacobian there: the secant
        # (Broyden) steps halve ||f|| each time and take six to reach 1e-11
        report = newton_solve(
            lambda v: np.array([v[0] ** 2 - 2.0]),
            [1.0],
            NewtonOptions(max_iter=1),
            inverse=np.array([[0.5]]),
        )
        assert report.fd_jacobians == 0 and report.iterations > 1
        np.testing.assert_allclose(report.x, [math.sqrt(2.0)], atol=1e-10)

    def test_broyden_update_meets_the_secant_condition(self, rng):
        n = 4
        inv = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s = rng.normal(size=n) + 1j * rng.normal(size=n)
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        updated = inv.copy()
        _broyden_update(updated, s, y)
        np.testing.assert_allclose(updated @ y, s, rtol=0, atol=1e-12 * np.abs(s).max())
        # a step orthogonal to inv @ y leaves the update undefined: no update
        s = np.array([1.0, 0.0], dtype=complex)
        kept = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        _broyden_update(kept, s, np.array([1.0, 0.0], dtype=complex))
        np.testing.assert_array_equal(kept, [[0.0, 1.0], [1.0, 0.0]])

    def test_broyden_solves_a_linear_map_without_refresh(self):
        # Broyden's method ends on a linear map in at most 2n steps (Gay,
        # SIAM J. Numer. Anal. 16 (1979) 623); a held Jacobian about 20%
        # off still halves ||f|| on every one of them
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        b = np.array([1.0, -2.0])
        report = newton_solve(
            lambda v: a @ v - b,
            [0.0, 0.0],
            NewtonOptions(tol=1e-12, max_iter=1),
            inverse=np.linalg.inv([[2.4, 0.8], [0.3, 3.3]]),
        )
        assert report.fd_jacobians == 0 and report.iterations <= 2 * b.size + 1
        np.testing.assert_allclose(report.x, np.linalg.solve(a, b), atol=1e-12)


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_at_half(self):
        np.testing.assert_allclose(log_gamma(0.5).real, 0.5 * math.log(math.pi), rtol=1e-13)
        assert abs(log_gamma(0.5).imag) < 1e-14

    def test_poles(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(PoleOfGamma):
                log_gamma(z)

    def test_functional_equation_grid(self, rng):
        # log G(z+1) - log G(z) - log z lies in 2 pi i Z
        for _ in range(100):
            z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            if abs(z.imag) < 1e-3 and z.real <= 0:
                continue
            gap = log_gamma(z + 1) - log_gamma(z) - np.log(complex(z))
            assert abs(gap.real) < 1e-11 * max(1.0, abs(log_gamma(z)))
            k = gap.imag / (2 * math.pi)
            assert abs(k - round(k)) < 1e-9

    def test_recursion_anchor_3_plus_4i(self):
        # ladder up from z+4 and descend by the recursion
        z = 3 + 4j
        anchor = log_gamma(z + 4)
        descended = anchor - sum(np.log(z + k) for k in range(4))
        np.testing.assert_allclose(descended, log_gamma(z), rtol=1e-12)


    @staticmethod
    def assert_matches_scipy(z):
        ref = pytest.importorskip("scipy.special", exc_type=ImportError).loggamma(z)
        got = log_gamma(z)
        assert got.shape == z.shape
        err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 1e-13, z.flat[err.argmax()]

    def test_matches_scipy_on_square(self):
        re, im = np.meshgrid(np.linspace(-30, 30, 241), np.linspace(-30, 30, 241))
        z = (re + 1j * im).ravel()
        self.assert_matches_scipy(z[~((z.imag == 0) & (z.real == np.round(z.real)) & (z.real <= 0))])

    def test_matches_scipy_on_random_points(self, rng):
        z = rng.uniform(-30, 30, 20000) + 1j * rng.uniform(-30, 30, 20000)
        self.assert_matches_scipy(z.reshape(100, 200))

    def test_matches_scipy_on_family_arguments(self, rng):
        """p +- i(x +- i/2) and +-2i(x +- i/2) on every default grid."""
        for family in ALL_FAMILIES:
            for _ in range(5):
                spec = model_spec(family, M=2, sector="even" if family.startswith("sextic") else None,
                                  **draw_params(family, rng))
                if spec.chart.trigonometric:
                    continue
                p = np.asarray(spec.potential.constants)[:, None]
                for n in (12, 20):
                    x = np.asarray(default_grid(spec, n).points)
                    for y in (x - 0.5j, x + 0.5j):
                        args = [p + 1j * y, p - 1j * y, p.conj() - 1j * y, 2j * y, -2j * y]
                        self.assert_matches_scipy(np.concatenate([np.ravel(a) for a in args]))

    def test_scalar_in_scalar_out(self):
        assert isinstance(log_gamma(2.5 + 1j), complex)
        assert log_gamma(np.asarray([2.5 + 1j])).shape == (1,)

    def test_pole_in_array(self):
        with pytest.raises(PoleOfGamma, match="-3"):
            log_gamma(np.asarray([1.5, -3.0, 2.0]))


def sequential_q_pochhammer(a: complex, q: float) -> complex:
    """Reference: multiply factors one at a time until |a q^n| < 1e-17."""
    out, term = 1.0 + 0j, complex(a)
    while abs(term) >= 1e-17:
        out *= 1.0 - term
        term *= q
    return out


class TestQPochhammer:
    @pytest.mark.parametrize("q", [0.02, 0.3, 0.5, 0.8, 0.9, 0.97])
    def test_batched_equals_sequential(self, q, rng):
        """rtol 1e-14 up to q = 0.9 (at most 373 factors; the verified
        range q <= 0.8 takes at most 177); beyond, n eps for n factors,
        since the rounding of either product grows with n."""
        a = rng.uniform(-1, 1, (4, 25)) + 1j * rng.uniform(-1, 1, (4, 25))
        a = a / np.abs(a) * rng.uniform(0, 1 / q, a.shape)  # |a| up to 1/q
        got = q_pochhammer_inf(a, q)
        assert got.shape == a.shape
        want = np.vectorize(lambda v: sequential_q_pochhammer(v, q))(a)
        factors = math.log(1e-17 * q) / math.log(q)
        rtol = 1e-14 if q <= 0.9 else factors * np.finfo(float).eps
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)

    def test_term_count_guard(self):
        with pytest.raises(DivergentProduct, match="factors"):
            q_pochhammer_inf(0.5, 1.0 - 1e-9)

    def test_zero_argument(self):
        assert q_pochhammer_inf(0.0, 0.5) == 1.0

    def test_euler_half(self):
        # direct product evaluated to machine precision
        np.testing.assert_allclose(
            q_pochhammer_inf(0.5, 0.5).real, 0.2887880950866024, rtol=1e-13
        )

    def test_first_factor_vanishes(self):
        assert q_pochhammer_inf(1.0, 0.5) == 0.0

    def test_recursion_property(self, rng):
        for _ in range(25):
            q = float(rng.uniform(0.1, 0.9))
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            lhs = q_pochhammer_inf(a, q)
            rhs = (1 - a) * q_pochhammer_inf(a * q, q)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_block_size_leaves_value(self, rng, monkeypatch):
        """The broadcast block only bounds memory: any budget gives the
        same product up to the rounding of the product order."""
        a = rng.uniform(-0.7, 0.7, 300) + 1j * rng.uniform(-0.7, 0.7, 300)
        want = q_pochhammer_inf(a, 0.8)
        for budget in (1, 7, 299, 10**6):
            monkeypatch.setattr(numerics, "_Q_BUDGET", budget)
            np.testing.assert_allclose(q_pochhammer_inf(a, 0.8), want, rtol=1e-14, atol=0)

    def test_preconditions(self):
        with pytest.raises(DivergentProduct):
            q_pochhammer_inf(0.5, 1.5)
        with pytest.raises(DivergentProduct):
            q_pochhammer_inf(4.0, 0.5)
        # the boundary |a| = 1/q is admitted
        q_pochhammer_inf(2.0, 0.5)


class TestLaurent:
    def test_mul_and_eval(self, rng):
        p = LaurentC(-2, (1.0, 0.5j, -2.0))
        q = LaurentC(1, (3.0, 1.0))
        prod = laurent_mul(p, q)
        z = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        np.testing.assert_allclose(prod(z), p(z) * q(z), rtol=1e-12)

    def test_scale_arg(self):
        p = LaurentC(-1, (2.0, 1.0, 3.0))
        q = laurent_scale_arg(p, 0.5)
        np.testing.assert_allclose(q(1.2), p(0.6), rtol=1e-12)

    def test_divide_exact_roundtrip(self):
        a = LaurentC(-1, (1.0, 2.0, 1.0))
        b = LaurentC(-2, (0.5, 0.0, -1.5))
        prod = laurent_mul(a, b)
        back = laurent_divide_exact(prod, b)
        assert back.lo == a.lo
        np.testing.assert_allclose(back.coeffs, a.coeffs, atol=1e-12)

    def test_chebyshev_rows(self):
        rows = chebyshev_t_coefficients(4)
        assert rows[2] == (-1.0, 0.0, 2.0)
        assert rows[4] == (1.0, 0.0, -8.0, 0.0, 8.0)

    def test_eta_power_roundtrip(self, rng):
        # eta^k as a Laurent polynomial converts back to the unit vector
        for k in range(6):
            eta_coeffs = symmetric_laurent_to_eta(eta_power_as_laurent(k))
            expected = [0.0] * (k + 1)
            expected[k] = 1.0
            np.testing.assert_allclose(eta_coeffs, expected, atol=1e-13)

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError):
            symmetric_laurent_to_eta(LaurentC(-1, (1.0, 0.0, 2.0)))

    def test_chebyshev_matrix_rows(self):
        rows = chebyshev_t_coefficients(9)
        table = chebyshev_matrix(10)
        assert tuple(table[0, :1]) == rows[0]
        for k in range(1, 10):
            assert tuple(table[k, : k + 1]) == tuple(2.0 * c for c in rows[k])
            assert not table[k, k + 1 :].any()

    def test_symmetric_rows_match_one_at_a_time(self):
        powers = [eta_power_as_laurent(k) for k in range(6)]
        rows = np.zeros((7, 11), dtype=complex)  # exponents -5 .. 5
        for k, f in enumerate(powers):
            rows[k, f.lo + 5 : f.hi + 6] = f.coeffs
        rows[6, [4, 6]] = [1.0, 2.0]  # z^-1 + 2z: asymmetric at |k| = 1
        eta, errors = symmetric_rows_to_eta(rows, -5)
        for k, f in enumerate(powers):
            want = symmetric_laurent_to_eta(f)
            np.testing.assert_allclose(eta[k, : len(want)], want, atol=1e-13)
            assert not eta[k, len(want) :].any()
        assert list(errors) == [6]
        with pytest.raises(InversionAsymmetry) as exc:
            symmetric_laurent_to_eta(LaurentC(-1, (1.0, 0.0, 2.0)))
        assert str(errors[6]) == str(exc.value)
