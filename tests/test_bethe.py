import cmath
import math

import numpy as np
import pytest

from qesbethe.bethe import (
    bae_residual,
    eigenvalue_from_roots,
    newton_polish,
    restricted_eigenvalue,
    solve,
)
from qesbethe.errors import DegenerateRoots
from qesbethe.hamiltonian import build_matrix
from qesbethe.models import drop_factors, model_spec
from qesbethe.spectral import RootSet, extract_roots, oracle_spectrum

from conftest import ALL_FAMILIES, spec_for


def mp_rootset(*xs):
    xs = tuple(complex(x) for x in xs)
    return RootSet(xs, xs)


class TestResidual:
    def test_hand_worked_single_root(self):
        # M = 1, a1 = a2 = 1, beta = pi/2: the equation reduces to x^2 = 1
        spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=math.pi / 2)
        res = bae_residual(spec, mp_rootset(1.0))
        assert res[0] < 1e-14
        res = bae_residual(spec, mp_rootset(-1.0))
        assert res[0] < 1e-14

    def test_wrong_root_detected(self):
        spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=math.pi / 2)
        res = bae_residual(spec, mp_rootset(0.5))
        assert res[0] > 1e-3

    def test_oracle_roots_satisfy_equations(self, rng):
        for family in ALL_FAMILIES:
            spec = spec_for(family, 2, rng)
            pairs = oracle_spectrum(build_matrix(spec))
            for pair in pairs:
                if pair.degree == 0:
                    continue
                roots = extract_roots(pair, spec, expected=pair.degree)
                res = bae_residual(spec, roots, allow_degenerate=True)
                assert max(res) <= 1e-9

    def test_degenerate_roots_raise(self):
        spec = model_spec("mp-crossed", M=2, a1=1, a2=1, beta=0.5)
        with pytest.raises(DegenerateRoots):
            bae_residual(spec, mp_rootset(0.7, 0.7 + 1e-12))

    def test_sign_flip_invariance(self, rng):
        # x_l -> -x_l leaves residuals unchanged for the x^2 families
        for family in ("sextic-i", "sextic-ii", "centrifugal-i", "centrifugal-ii"):
            M = 6 if family.startswith("sextic") else 3
            spec = spec_for(family, M, rng)
            pairs = oracle_spectrum(build_matrix(spec))
            pair = pairs[-1]
            roots = extract_roots(pair, spec, expected=pair.degree)
            res0 = bae_residual(spec, roots, allow_degenerate=True)
            flipped = RootSet(
                tuple(-x for x in roots.roots_x), roots.roots_eta, roots.roots_z
            )
            res1 = bae_residual(spec, flipped, allow_degenerate=True)
            np.testing.assert_allclose(res0, res1, atol=1e-12)

    def test_z_inversion_invariance(self, rng):
        spec = spec_for("trig-q", 4, rng)
        pairs = oracle_spectrum(build_matrix(spec))
        pair = pairs[-1]
        roots = extract_roots(pair, spec)
        res0 = bae_residual(spec, roots, allow_degenerate=True)
        inverted = RootSet(
            roots.roots_x,
            roots.roots_eta,
            tuple(1.0 / z for z in roots.roots_z),
        )
        res1 = bae_residual(spec, inverted, allow_degenerate=True)
        np.testing.assert_allclose(res0, res1, atol=1e-12)


class TestNewtonPolish:
    def test_perturbed_seed_returns_to_roots(self, rng):
        spec = model_spec("mp-crossed", M=4, a1=1.3, a2=0.9, beta=0.8)
        sols = solve(spec)
        exact = sols[2].roots
        noise = 1e-3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        seed = mp_rootset(*(np.asarray(exact.roots_x) + noise))
        polished, flags, _res = newton_polish(spec, seed)
        assert flags.polished
        np.testing.assert_allclose(
            sorted(r.real for r in polished.roots_x),
            sorted(r.real for r in exact.roots_x),
            atol=1e-9,
        )

    def test_exact_seed_is_fixed_point(self):
        spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=math.pi / 2)
        polished, flags, _res = newton_polish(spec, mp_rootset(1.0))
        assert flags.polished
        np.testing.assert_allclose(polished.roots_x, [1.0], atol=1e-12)

    def test_coincident_seed_flagged_not_fatal(self):
        spec = model_spec("mp-crossed", M=2, a1=1, a2=1, beta=0.5)
        seed = mp_rootset(0.7, 0.7)
        polished, flags, _res = newton_polish(spec, seed)
        assert flags.jacobian_singular or flags.degenerate or not flags.polished
        assert polished.roots_x  # the seed always comes back

    def test_empty_rootset_noop(self):
        spec = model_spec("mp-crossed", M=0, a1=1, a2=1, beta=0.5)
        polished, flags, _res = newton_polish(spec, mp_rootset())
        assert flags.polished and len(polished) == 0


class TestRootGauge:
    @pytest.mark.parametrize("seed_mode", ["oracle", "homotopy"])
    def test_trig_roots_in_gauge(self, rng, seed_mode):
        # polished and continued roots get the representatives of the seeds:
        # |z| <= 1, Im z >= 0 on the unit circle, x = -i log z with
        # Re x = +pi on the negative real z axis
        for M in (4, 5, 6):
            for _ in range(2):
                spec = spec_for("trig-q", M, rng)
                for sol in solve(spec, seed_mode=seed_mode):
                    for x, z in zip(sol.roots.roots_x, sol.roots.roots_z, strict=True):
                        assert abs(z) <= 1.0
                        if abs(abs(z) - 1.0) < 1e-12:
                            assert z.imag >= 0
                        if z.real < 0 and abs(z.imag) < 1e-12 * abs(z):
                            z = complex(z.real, abs(z.imag))
                            assert x.real > 0
                        assert x == -1j * cmath.log(z)


class TestEigenvalueFormula:
    def test_hand_worked_value(self):
        spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=math.pi / 2)
        e = eigenvalue_from_roots(spec, mp_rootset(1.0))
        np.testing.assert_allclose(e, 2.0, atol=1e-14)

    def test_beta_zero_root_independent(self):
        spec = model_spec("mp-crossed", M=2, a1=1, a2=1, beta=0.0)
        e = eigenvalue_from_roots(spec, mp_rootset(0.3, -1.2))
        np.testing.assert_allclose(e, 10.0, atol=1e-13)

    def test_trig_empty_rootset(self):
        spec = model_spec("trig-q", M=0, a=0.5, b=0.4, c=0.3, d=0.2, e=0.1, q=0.5)
        e = eigenvalue_from_roots(spec, RootSet((), (), ()))
        np.testing.assert_allclose(e, 0.0, atol=1e-14)

    def test_count_mismatch_rejected(self):
        spec = model_spec("mp-crossed", M=3, a1=1, a2=1, beta=0.4)
        with pytest.raises(ValueError):
            eigenvalue_from_roots(spec, mp_rootset(1.0))

    def test_symmetric_dependence_on_eta_sum(self, rng):
        # E depends on the roots only through sum(eta): permutations and
        # eta-sum-preserving perturbations leave it unchanged
        spec = model_spec("mp-crossed", M=3, a1=1.2 + 0.3j, a2=0.7, beta=0.9)
        xs = [0.4 + 0.1j, -1.1, 2.3 - 0.2j]
        e0 = eigenvalue_from_roots(spec, mp_rootset(*xs))
        e1 = eigenvalue_from_roots(spec, mp_rootset(*reversed(xs)))
        delta = complex(rng.standard_normal(), rng.standard_normal())
        e2 = eigenvalue_from_roots(spec, mp_rootset(xs[0] + delta, xs[1] - delta, xs[2]))
        assert abs(e0 - e1) <= 1e-12 * max(1.0, abs(e0))
        assert abs(e0 - e2) <= 1e-12 * max(1.0, abs(e0))

    def test_restricted_models(self):
        mp = drop_factors(model_spec("mp-crossed", M=3, a1=1.1, a2=1.0, beta=0.4), ("a2",))
        np.testing.assert_allclose(
            restricted_eigenvalue(mp, 3), 6 * math.cos(0.4), rtol=1e-13
        )
        wil = drop_factors(
            model_spec("centrifugal-i", M=2, b=0.8, c=1.3, d=2.0, e=0.6, f=1.0), ("f",)
        )
        np.testing.assert_allclose(restricted_eigenvalue(wil, 2), 2 * (2 + 4.7 - 1))
        cdh = drop_factors(
            model_spec("centrifugal-i", M=2, b=0.8, c=1.3, d=2.0, e=1.0, f=1.0), ("e", "f")
        )
        np.testing.assert_allclose(restricted_eigenvalue(cdh, 2), 2.0)


class TestSolve:
    def test_hand_worked_pair(self):
        spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=math.pi / 2)
        sols = solve(spec)
        np.testing.assert_allclose([s.E_formula for s in sols], [-2, 2], atol=1e-12)
        np.testing.assert_allclose(sols[0].roots.roots_x, [-1.0], atol=1e-12)
        np.testing.assert_allclose(sols[1].roots.roots_x, [1.0], atol=1e-12)
        assert max(s.residual_max for s in sols) < 1e-12

    def test_m_zero(self):
        spec = model_spec("mp-crossed", M=0, a1=1, a2=1, beta=0.9)
        sols = solve(spec)
        assert len(sols) == 1
        assert len(sols[0].roots) == 0
        np.testing.assert_allclose(sols[0].E_formula, 0.0, atol=1e-14)

    def test_sextic_even_oracle_agreement(self):
        spec = model_spec("sextic-i", M=2, sector="even", a=1, b=1, c=1)
        sols = solve(spec)
        assert len(sols) == 2
        for s in sols:
            assert s.discrepancy <= 1e-8 * max(1.0, abs(s.E_oracle))
        # the matrix [[0, -2], [4, 18]] has eigenvalues 9 +- sqrt(73)
        np.testing.assert_allclose(
            [s.E_oracle.real for s in sols],
            [9 - math.sqrt(73), 9 + math.sqrt(73)],
            rtol=1e-12,
        )

    def test_trace_identity_over_solutions(self, rng):
        for family in ALL_FAMILIES:
            spec = spec_for(family, 5, rng)
            om = build_matrix(spec)
            sols = solve(spec)
            total = sum(s.E_formula for s in sols)
            scale = max(1.0, abs(np.trace(om.matrix)))
            assert abs(total - np.trace(om.matrix)) <= 1e-8 * scale

    def test_deterministic_ordering(self, rng):
        spec = spec_for("trig-q", 6, rng)
        a = solve(spec)
        b = solve(spec)
        assert [s.E_oracle for s in a] == [s.E_oracle for s in b]
        for x, y in zip(a, b):
            assert x.roots.roots_eta == y.roots.roots_eta

    def test_oracle_consistency_compact_sweep(self, rng):
        for family in ALL_FAMILIES:
            for M in (0, 1, 3, 6):
                spec = spec_for(family, M, rng)
                for s in solve(spec):
                    assert s.residual_max <= 1e-9
                    assert s.discrepancy <= 1e-8 * max(1.0, abs(s.E_oracle))
