import math

import numpy as np
import pytest

from qesbethe.hamiltonian import build_matrix
from qesbethe.models import model_spec
from qesbethe.spectral import (
    canonical_z_from_eta,
    extract_roots,
    oracle_spectrum,
    root_set,
)

from conftest import ALL_FAMILIES, spec_for
from reference_algebra import poly_from_roots


class TestOracleSpectrum:
    def test_hand_worked_pair(self):
        spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=math.pi / 2)
        pairs = oracle_spectrum(build_matrix(spec))
        np.testing.assert_allclose([p.eigenvalue for p in pairs], [-2, 2], atol=1e-12)
        # monic eigenpoly for lambda = 2 is eta - 1
        np.testing.assert_allclose(pairs[1].eigenpoly, [-1, 1], atol=1e-12)
        np.testing.assert_allclose(pairs[0].eigenpoly, [1, 1], atol=1e-12)

    def test_m_zero_single_pair(self):
        spec = model_spec("trig-q", M=0, a=0.3, b=0.1, c=0, d=0, e=0, q=0.5)
        pairs = oracle_spectrum(build_matrix(spec))
        assert len(pairs) == 1
        assert pairs[0].eigenpoly.tolist() == [1]

    def test_eigenpoly_contract(self, rng):
        # read-only, monic with a top coefficient of exactly 1.0, and
        # degree one less than its size
        for family in ALL_FAMILIES:
            for M in (0, 3, 6):
                for pair in oracle_spectrum(build_matrix(spec_for(family, M, rng))):
                    poly = pair.eigenpoly
                    assert poly[-1] == 1.0 and pair.degree == poly.size - 1
                    with pytest.raises(ValueError):
                        poly[0] = 2.0

    def test_continuous_hahn_degeneration_spectrum(self):
        # beta = 0, a1 = a2 = 1: eigenvalues m(m + 3), m = 0..3
        spec = model_spec("mp-crossed", M=3, a1=1, a2=1, beta=0.0)
        pairs = oracle_spectrum(build_matrix(spec))
        np.testing.assert_allclose(
            [p.eigenvalue.real for p in pairs], [0, 4, 10, 18], atol=1e-10
        )

    def test_sorted_by_real_then_imag(self, rng):
        spec = spec_for("centrifugal-ii", 6, rng)
        pairs = oracle_spectrum(build_matrix(spec))
        keys = [(p.eigenvalue.real, p.eigenvalue.imag) for p in pairs]
        assert keys == sorted(keys)

    def test_trace_identity(self, rng):
        for family in ALL_FAMILIES:
            spec = spec_for(family, 7, rng)
            om = build_matrix(spec)
            pairs = oracle_spectrum(om)
            gap = abs(sum(p.eigenvalue for p in pairs) - np.trace(om.matrix))
            assert gap <= 1e-9 * max(1.0, np.linalg.norm(om.matrix, 2))

    def test_spectrum_reality_in_hermitian_ranges(self, rng):
        # real positive parameters (and a conjugate pair for the crossed
        # model) give real spectra
        specs = [
            model_spec("mp-crossed", M=6, a1=1.1 + 0.4j, a2=1.1 - 0.4j, beta=0.8),
            spec_for("sextic-i", 8, rng),
            spec_for("sextic-ii", 7, rng),
            spec_for("centrifugal-i", 6, rng),
            spec_for("centrifugal-ii", 6, rng),
            spec_for("trig-q", 6, rng),
        ]
        for spec in specs:
            for p in oracle_spectrum(build_matrix(spec)):
                lam = p.eigenvalue
                assert abs(lam.imag) <= 1e-8 * max(1.0, abs(lam.real))


class TestExtractRoots:
    def test_linear_eta_poly(self):
        spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=math.pi / 2)
        pairs = oracle_spectrum(build_matrix(spec))
        roots = extract_roots(pairs[1], spec)
        np.testing.assert_allclose(roots.roots_x, [1.0], atol=1e-12)

    def test_sqrt_representative_for_sextic(self, rng):
        spec = spec_for("sextic-i", 8, rng)
        pairs = oracle_spectrum(build_matrix(spec))
        for pair in pairs:
            roots = extract_roots(pair, spec)
            for x, e in zip(roots.roots_x, roots.roots_eta):
                assert x.real > 0 or (abs(x.real) < 1e-14 and x.imag >= 0)
                assert abs(x * x - e) <= 1e-12 * max(1.0, abs(e))

    def test_trig_representative_inside_disc(self, rng):
        spec = spec_for("trig-q", 5, rng)
        pairs = oracle_spectrum(build_matrix(spec))
        for pair in pairs:
            roots = extract_roots(pair, spec, expected=pair.degree)
            for z, e in zip(roots.roots_z, roots.roots_eta):
                assert abs(z) <= 1.0 + 1e-12
                assert abs(0.5 * (z + 1 / z) - e) <= 1e-10 * max(1.0, abs(e))

    def test_z_from_eta_unit(self):
        assert abs(canonical_z_from_eta(1.0) - 1.0) < 1e-12

    def test_single_root_representatives(self):
        from qesbethe.spectral import OracleEigenpair, canonical_x_from_eta

        # eta - 4 over eta = x^2 picks the representative x = 2
        sx = model_spec("sextic-i", M=2, sector="even", a=1, b=1, c=1)
        pair = OracleEigenpair(0.0, np.array([-4.0, 1.0]))
        np.testing.assert_allclose(extract_roots(pair, sx).roots_x, [2.0], atol=1e-12)
        # eta - 1 over eta = cos x picks z = 1, x = 0
        tq = model_spec("trig-q", M=1, a=0.1, b=0, c=0, d=0, e=0, q=0.5)
        pair = OracleEigenpair(0.0, np.array([-1.0, 1.0]))
        roots = extract_roots(pair, tq)
        np.testing.assert_allclose(roots.roots_z, [1.0], atol=1e-7)
        np.testing.assert_allclose(canonical_x_from_eta(tq, 1.0), 0.0, atol=1e-7)

    def test_root_count_bookkeeping(self, rng):
        expected = {
            "mp-crossed": lambda M: M,
            "sextic-i": lambda M: M // 2 if M % 2 == 0 else (M - 1) // 2,
            "sextic-ii": lambda M: M // 2 if M % 2 == 0 else (M - 1) // 2,
            "centrifugal-i": lambda M: M,
            "centrifugal-ii": lambda M: M,
            "trig-q": lambda M: M,
        }
        for family in ALL_FAMILIES:
            for M in (2, 5, 8):
                spec = spec_for(family, M, rng)
                pairs = oracle_spectrum(build_matrix(spec))
                want = expected[family](M)
                full_degree = [p for p in pairs if p.degree == want]
                assert full_degree, f"no full-degree state for {family} M={M}"
                roots = extract_roots(full_degree[-1], spec)
                assert len(roots) == want

    def test_reconstruction_from_roots(self, rng):
        for family in ("mp-crossed", "sextic-ii", "centrifugal-i"):
            spec = spec_for(family, 6, rng)
            pairs = oracle_spectrum(build_matrix(spec))
            for pair in pairs:
                if pair.truncated:
                    continue
                roots = extract_roots(pair, spec)
                rebuilt = poly_from_roots(roots.roots_eta, "eta")
                scale = np.abs(pair.eigenpoly).max()
                for a, b in zip(rebuilt.coeffs, pair.eigenpoly):
                    assert abs(a - b) <= 1e-9 * scale

    def test_degree_mismatch_rejected(self):
        spec = model_spec("mp-crossed", M=2, a1=1, a2=1, beta=0.4)
        pairs = oracle_spectrum(build_matrix(spec))
        with pytest.raises(ValueError):
            extract_roots(pairs[0], spec, expected=5)


class TestRootSet:
    def test_close_pair_flagged(self):
        spec = model_spec("mp-crossed", M=2, a1=1, a2=1, beta=0.5)
        assert root_set(spec, [0.7, 0.7 + 1e-9]).degenerate
        assert not root_set(spec, [0.8, 0.7]).degenerate
        assert root_set(spec, [0.8, 0.7]).roots_x == (0.7, 0.8)

    def test_representatives_independent_of_input_branch(self):
        # x and -x, or z and 1/z (conj z on the unit circle), name one root
        odd = model_spec("sextic-i", M=5, sector="odd", a=1, b=2, c=3)
        xs = [0.3 + 1.2j, -0.4 + 0.1j, -0.5j]
        assert root_set(odd, xs) == root_set(odd, [-x for x in xs])
        # sorted by eta = x^2, each x with Re x > 0 (or Re x = 0, Im x >= 0)
        assert root_set(odd, xs).roots_x == (0.3 + 1.2j, 0.5j, 0.4 - 0.1j)
        tq = model_spec("trig-q", M=3, a=0.4, b=-0.3, c=0.25, d=0.6, e=-0.5, q=0.55)
        zs = [0.3 + 0.2j, np.exp(-0.7j), -2.5 + 0j]
        inverted = root_set(tq, [1.0 / z for z in zs])
        direct = root_set(tq, zs)
        np.testing.assert_allclose(direct.roots_z, inverted.roots_z, rtol=1e-15)
        for z in direct.roots_z:
            assert abs(z) <= 1.0
        assert direct.roots_z[1] == np.exp(0.7j)

    def test_trig_x_on_negative_z_axis_is_plus_pi(self):
        # z just above, on and just below the negative real axis (signed
        # zeros included) names one x: Re x = +pi, never -pi
        tq = model_spec("trig-q", M=1, a=0.4, b=-0.3, c=0.25, d=0.6, e=-0.5, q=0.55)
        for z in (-0.3 + 1e-18j, complex(-0.3, 0.0), -0.3 - 1e-18j, complex(-0.3, -0.0)):
            x = root_set(tq, [z]).roots_x[0]
            assert x.real == math.pi
            assert x.imag == -math.log(0.3)
