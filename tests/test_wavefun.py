import math

import numpy as np
import pytest

from qesbethe.bethe import solve
from qesbethe.errors import PoleOfGamma, PoleOfPotential
from qesbethe.models import model_spec
from qesbethe.numerics import q_pochhammer_inf
from qesbethe.wavefun import (
    default_grid,
    eigenfunction_value,
    grid_rows,
    phi0_squared,
    schrodinger_residual,
    zero_mode_residual,
)

from conftest import ALL_FAMILIES, draw_params, spec_for, specs_with_restricted


def random_admissible_points(spec, rng, n=20):
    grid = default_grid(spec, 64)
    lo, hi = grid.points[0].real, grid.points[-1].real
    return [complex(rng.uniform(lo, hi)) for _ in range(n)]


class TestPhi0Squared:
    def test_crossed_at_origin(self):
        spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=0.0)
        np.testing.assert_allclose(phi0_squared(spec, 0.0), 1.0, rtol=1e-13)

    def test_sextic_at_origin(self):
        spec = model_spec("sextic-i", M=2, sector="even", a=1, b=1, c=1)
        np.testing.assert_allclose(phi0_squared(spec, 0.0), 1.0, rtol=1e-13)

    def test_trig_all_zero_params(self):
        spec = model_spec("trig-q", M=1, a=0, b=0, c=0, d=0, e=0, q=0.5)
        val = phi0_squared(spec, math.pi / 2)
        expected = q_pochhammer_inf(-1.0, 0.5) ** 2  # z = i, z^2 = z^-2 = -1
        np.testing.assert_allclose(val, expected, rtol=1e-12)

    def test_positivity_on_real_grids(self, rng):
        for family in ALL_FAMILIES:
            params = draw_params(family, rng)
            if family == "mp-crossed":
                params["a1"] = abs(params["a1"])  # real positive ranges
                params["a2"] = abs(params["a2"])
            spec = model_spec(
                family,
                M=2,
                sector="even" if family.startswith("sextic") else "full",
                **params,
            )
            for x in default_grid(spec, 16).points:
                v = phi0_squared(spec, x)
                assert v.real > 0
                assert abs(v.imag) <= 1e-10 * abs(v)

    def test_gamma_pole_guard(self):
        spec = model_spec("centrifugal-i", M=1, b=1.2, c=0.7, d=2.2, e=0.9, f=1.6)
        with pytest.raises(PoleOfGamma):
            phi0_squared(spec, 0.0)  # Gamma(+-2ix) poles at the origin


class TestZeroMode:
    def test_symmetric_point_exact(self):
        # equal parameters make both sides identical expressions at x = 0
        spec = model_spec("sextic-i", M=2, sector="even", a=1.3, b=1.3, c=1.3)
        assert zero_mode_residual(spec, 0.0) <= 1e-12

    def test_generic_point_sextic(self):
        spec = model_spec("sextic-i", M=2, sector="even", a=1.0, b=2.0, c=3.0)
        assert zero_mode_residual(spec, 0.7) <= 1e-10

    def test_generic_point_trig(self):
        spec = model_spec("trig-q", M=1, a=0.3, b=0, c=0, d=0, e=0, q=0.5)
        assert zero_mode_residual(spec, 1.0) <= 1e-10

    def test_twenty_random_points_per_family(self, rng):
        # every family, and every restricted model
        for spec in specs_with_restricted(3, rng):
            for x in random_admissible_points(spec, rng):
                assert zero_mode_residual(spec, x) <= 1e-10, (spec.family, spec.dropped, x)


class TestSchrodingerResidual:
    def test_hand_worked_state(self):
        spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=math.pi / 2)
        sol = solve(spec)[1]
        assert schrodinger_residual(spec, [sol], 0.3)[0] <= 1e-12

    def test_m_zero_state(self):
        spec = model_spec("mp-crossed", M=0, a1=1, a2=1, beta=0.4)
        sol = solve(spec)[0]
        assert schrodinger_residual(spec, [sol], 0.9)[0] <= 1e-12

    def test_wrong_eigenvalue_detected(self):
        import dataclasses

        spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=math.pi / 2)
        sol = solve(spec)[1]
        bad = dataclasses.replace(sol, E_formula=sol.E_formula + 1.0)
        assert schrodinger_residual(spec, [bad], 0.3)[0] > 1e-3

    def test_every_solution_every_family(self, rng):
        for family in ALL_FAMILIES:
            spec = spec_for(family, 4, rng)
            sols = solve(spec)
            for x in default_grid(spec, 8).points:
                assert max(schrodinger_residual(spec, sols, x)) <= 1e-8

    def test_beta_near_zero_escaped_roots_pass(self):
        """Just off beta = 0 the largest roots sit near 1/(2|beta|), where
        the Bethe equations are flat: a closed form weighting them by
        2 sin(beta) missed E_oracle by ~6e-10 and the check by ~2e-7.  The
        eigen-equation eigenvalue passes on the verify grid, and the same
        roots with the oracle eigenvalue pass to 1e-12, so the check and
        the roots are sound."""
        import dataclasses

        spec = model_spec(
            "mp-crossed", M=7,
            a1=complex(2.4382823351740726, 0.7119514191580878),
            a2=complex(0.7125707424400739, -0.745496478313193),
            beta=-0.0004886281286418104,
        )
        points = default_grid(spec, 12).points
        sols = solve(spec)
        exact = [dataclasses.replace(sol, E_formula=sol.E_oracle) for sol in sols]
        assert max(r.max() for r in schrodinger_residual(spec, sols, points)) <= 1e-8
        assert max(r.max() for r in schrodinger_residual(spec, exact, points)) <= 1e-12

    def test_homotopy_seeded_beta_near_zero(self):
        """At beta = -1e-8 the largest roots sit near 1/(2|beta|) and
        Psi(x -+ i)/Psi(x) - 1 is ~1e-8: formed as the difference of two
        products it cancelled to 1.03e-8 against the 1e-8 check."""
        spec = model_spec(
            "mp-crossed", M=7,
            a1=complex(2.4382823351740726, 0.7119514191580878),
            a2=complex(0.7125707424400739, -0.745496478313193),
            beta=-1e-8,
        )
        sols = solve(spec, seed_mode="homotopy")
        points = default_grid(spec, 12).points
        assert max(r.max() for r in schrodinger_residual(spec, sols, points)) <= 1e-8

    def test_finite_where_psi_vanishes(self):
        """At a state's own root, where Psi(x) = 0, the residual reads the
        Bethe equation V Psi(x - i) + V* Psi(x + i) = 0; at x = 0 in the odd
        sector it reads V(0) = V*(0).  Either is finite and small, with no
        RuntimeWarning."""
        spec = model_spec("mp-crossed", M=3, a1=1.1 + 0.4j, a2=0.8 - 0.3j, beta=0.6)
        for sol in solve(spec):
            at_roots = schrodinger_residual(spec, [sol], list(sol.roots.roots_x) + [0.4])[0]
            assert np.isfinite(at_roots).all() and at_roots.max() <= 1e-8
        odd = model_spec("sextic-i", M=3, sector="odd", a=1.0, b=2.0, c=3.0)
        assert 0j in default_grid(odd, 7).points
        for residual in schrodinger_residual(odd, solve(odd), default_grid(odd, 7).points):
            assert np.isfinite(residual).all() and residual.max() <= 1e-12

    def test_each_solution_reads_as_alone(self, rng):
        # V, V*, alpha_M and eta are shared by a model's solutions: each
        # residual equals its one-element call bit for bit
        for family in ALL_FAMILIES:
            spec = spec_for(family, 4, rng)
            sols = solve(spec)
            points = default_grid(spec, 12).points
            together = schrodinger_residual(spec, sols, points)
            assert len(together) == len(sols)
            for sol, residual in zip(sols, together):
                (alone,) = schrodinger_residual(spec, [sol], points)
                assert residual.tobytes() == alone.tobytes()


class TestGridRows:
    def test_row_shape_and_consistency(self):
        spec = model_spec("sextic-i", M=2, sector="even", a=1, b=2, c=3)
        sol = solve(spec)[0]
        rows = grid_rows(spec, sol, default_grid(spec, 7))
        assert len(rows) == 7
        for row in rows:
            assert set(row) == {
                "x_re", "x_im", "phi0sq_re", "phi0sq_im", "psi_re", "psi_im", "residual",
            }
            x = complex(row["x_re"], row["x_im"])
            np.testing.assert_allclose(
                complex(row["psi_re"], row["psi_im"]),
                eigenfunction_value(spec, sol, x),
                rtol=1e-12,
            )
            assert row["residual"] <= 1e-8

    def test_grid_needs_a_point(self):
        spec = model_spec("sextic-i", M=2, sector="even", a=1, b=2, c=3)
        assert len(default_grid(spec, 1).points) == 1
        for n in (0, -3):
            with pytest.raises(ValueError):
                default_grid(spec, n)


class TestBatchedEqualsScalar:
    """An array of points gives, point by point, what one call per point
    gives, in the shape of the input.  numpy's vectorised log/exp may round
    array lanes differently from a lone element, so values agree to a few
    ulp of their log-space size (rtol 1e-13) and the residuals, which are
    relative errors themselves, to atol 1e-14."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_every_check(self, family, rng):
        spec = spec_for(family, 3, rng)
        pts = np.asarray(default_grid(spec, 12).points + tuple(random_admissible_points(spec, rng, 8)))
        pts = pts.reshape(4, 5)

        def check(fn, *args, **tol):
            batch = fn(spec, *args, pts)
            assert batch.shape == pts.shape
            one_by_one = [[fn(spec, *args, x) for x in row] for row in pts]
            np.testing.assert_allclose(batch, one_by_one, **tol)

        check(zero_mode_residual, rtol=0, atol=1e-14)
        check(phi0_squared, rtol=1e-13)
        sols = solve(spec)
        for sol, residual in zip(sols, schrodinger_residual(spec, sols, pts)):
            assert residual.shape == pts.shape
            one_by_one = [[schrodinger_residual(spec, [sol], x)[0] for x in row] for row in pts]
            np.testing.assert_allclose(residual, one_by_one, rtol=0, atol=1e-14)
            check(eigenfunction_value, sol, rtol=1e-13)

    def test_scalar_in_scalar_out(self):
        spec = model_spec("sextic-i", M=2, sector="even", a=1.0, b=2.0, c=3.0)
        assert isinstance(zero_mode_residual(spec, 0.7), float)
        assert isinstance(phi0_squared(spec, 0.7), complex)
        assert isinstance(schrodinger_residual(spec, solve(spec)[:1], 0.7)[0], float)

    def test_potential_pole_names_the_point(self):
        spec = model_spec("centrifugal-i", M=1, b=1.2, c=0.7, d=2.2, e=0.9, f=1.6)
        with pytest.raises(PoleOfPotential, match=r"grid point x = 0\.5j"):
            zero_mode_residual(spec, [1.0, 0.5j, 2.0])  # V*(x - i/2) = V*(0)

    def test_gamma_pole_names_the_point(self):
        spec = model_spec("centrifugal-i", M=1, b=1.2, c=0.7, d=2.2, e=0.9, f=1.6)
        with pytest.raises(PoleOfGamma, match=r"grid point x = 0j"):
            phi0_squared(spec, [1.0, 2.0, 0.0])
