import cmath
import math

import numpy as np
import pytest

from qesbethe import bethe, homotopy
from qesbethe.bethe import (
    bae_residual,
    eigenvalue_from_roots,
    newton_polish,
    residual_map,
    solve,
)
from qesbethe.errors import DegenerateRoots, NoConvergence
from qesbethe.hamiltonian import build_matrix
from qesbethe.models import drop_factors, eta, model_spec, sector_degrees
from qesbethe.spectral import RootSet, extract_roots, oracle_spectrum, root_set

from conftest import ALL_FAMILIES, spec_for
from reference_algebra import paper_eigenvalue, restricted_eigenvalue


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
                (roots,) = extract_roots([pair], spec)
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
            (roots,) = extract_roots([pair], spec)
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
        (roots,) = extract_roots([pair], spec)
        assert len(roots) == spec.M
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
        (e,) = eigenvalue_from_roots(spec, [mp_rootset(1.0)])
        np.testing.assert_allclose(e, 2.0, atol=1e-14)

    def test_beta_zero_root_independent(self):
        # the paper's closed form at the graded point beta = 0
        spec = model_spec("mp-crossed", M=2, a1=1, a2=1, beta=0.0)
        e = paper_eigenvalue(spec, mp_rootset(0.3, -1.2))
        np.testing.assert_allclose(e, 10.0, atol=1e-13)

    def test_trig_empty_rootset(self):
        spec = model_spec("trig-q", M=0, a=0.5, b=0.4, c=0.3, d=0.2, e=0.1, q=0.5)
        (e,) = eigenvalue_from_roots(spec, [RootSet((), (), ())])
        np.testing.assert_allclose(e, 0.0, atol=1e-14)

    def test_count_mismatch_rejected(self):
        # fewer roots are lower-degree states; more roots than the subspace
        # degree carries are not a state of the model
        spec = model_spec("mp-crossed", M=3, a1=1, a2=1, beta=0.4)
        with pytest.raises(ValueError):
            eigenvalue_from_roots(spec, [mp_rootset(1.0, -0.5, 0.2, 2.0)])

    def test_symmetric_dependence_on_eta_sum(self, rng):
        # the paper's closed form depends on the roots only through
        # sum(eta): permutations and eta-sum-preserving perturbations leave
        # it unchanged
        spec = model_spec("mp-crossed", M=3, a1=1.2 + 0.3j, a2=0.7, beta=0.9)
        xs = [0.4 + 0.1j, -1.1, 2.3 - 0.2j]
        e0 = paper_eigenvalue(spec, mp_rootset(*xs))
        e1 = paper_eigenvalue(spec, mp_rootset(*reversed(xs)))
        delta = complex(rng.standard_normal(), rng.standard_normal())
        e2 = paper_eigenvalue(spec, mp_rootset(xs[0] + delta, xs[1] - delta, xs[2]))
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

    @pytest.mark.parametrize(
        "spec",
        [
            model_spec("mp-crossed", M=6, a1=1.3 + 0.4j, a2=0.8 - 0.2j, beta=0.0),
            model_spec("trig-q", M=6, a=0.45, b=-0.3, c=0.2, d=0.6, e=0.0, q=0.65),
            drop_factors(model_spec("mp-crossed", M=5, a1=1.1, a2=1.0, beta=0.4), ("a2",)),
            drop_factors(
                model_spec("centrifugal-i", M=5, b=0.8, c=1.3, d=2.0, e=0.6, f=1.0), ("f",)
            ),
            drop_factors(
                model_spec("centrifugal-i", M=5, b=0.8, c=1.3, d=2.0, e=1.0, f=1.0), ("e", "f")
            ),
        ],
        ids=["mp-beta0", "trig-e0", "mp-no-a2", "wilson", "cdh"],
    )
    def test_paper_form_at_graded_and_restricted_points(self, spec):
        # every degree coexists here: each state is read at its own degree
        for sol in solve(spec):
            degree = sector_degrees(spec)[len(sol.roots)]
            paper = paper_eigenvalue(spec, sol.roots, degree)
            scale = max(1.0, abs(sol.E_oracle))
            assert abs(paper - sol.E_formula) <= 1e-12 * scale
            assert abs(sol.E_formula - sol.E_oracle) <= 1e-12 * scale

    @pytest.mark.parametrize("offset", [0.0, 1e-10])
    def test_root_on_the_anchor_uses_the_fallback(self, monkeypatch, offset):
        spec = model_spec("sextic-i", M=4, sector="even", a=1.1, b=0.7, c=2.0)
        on_anchor = eta(spec, bethe.ANCHOR) * (1.0 + offset)
        roots = RootSet((0j, 0j), (on_anchor, -1.3 + 0.4j))
        (e,) = eigenvalue_from_roots(spec, [roots])
        assert cmath.isfinite(e)
        monkeypatch.setattr(bethe, "ANCHOR", bethe.FALLBACK_ANCHOR)
        assert [e] == eigenvalue_from_roots(spec, [roots])

    def test_each_root_set_reads_as_alone(self):
        # the anchors' root-free terms are shared by a model's root sets:
        # each value equals its one-element call, bit for bit, whichever
        # anchor it is read at
        spec = model_spec("sextic-i", M=4, sector="even", a=1.1, b=0.7, c=2.0)
        on_anchor = RootSet((0j, 0j), (eta(spec, bethe.ANCHOR), -1.3 + 0.4j))
        sets = [root_set(spec, [0.4 + 0.2j, 1.7]), on_anchor, RootSet((), ()),
                root_set(spec, [0.9 - 0.1j])]
        assert eigenvalue_from_roots(spec, sets) == [
            eigenvalue_from_roots(spec, [roots])[0] for roots in sets
        ]


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


def meets_criterion_one(sol) -> bool:
    return sol.residual_max <= 1e-9 and sol.discrepancy <= 1e-8 * max(1.0, abs(sol.E_oracle))


# all five numerator parameters of one sign: the ground state has one near
# root and five rungs of the escaped-root ladder
SAME_SIGN = model_spec("trig-q", M=6, a=0.684, b=0.668, c=0.849, d=0.707, e=0.596, q=0.405)
# a draw from the benchmark's trig-q envelope (|a..e| in (0.2, 0.6), q in
# (0.5, 0.8)) with truncated states
ENVELOPE_M6 = model_spec(
    "trig-q", M=6, a=0.39720920749269706, b=0.22432108518322244, c=0.42223844676828937,
    d=-0.5518604693339688, e=-0.2256857749248764, q=0.761026550698251,
)

# the 50th trig-q draw of conftest's draw_params from default_rng(11): the
# degree-0 leg of its ground state ends with a root on eta = 1 at M = 9
# when it walks the real a axis
FIXED_POINT_LEG = {
    "a": -0.7066286477023541, "b": -0.7582076136694641, "c": -0.5628668645267257,
    "d": -0.5718546835615754, "e": -0.7251789684750364, "q": 0.5767318141201416,
}
# the 50th full-domain trig-q draw of bench/workloads' draw_params from
# default_rng(11), whose real-axis ground-state leg does the same at M 11-13
FIXED_POINT_FULL = {
    "a": -0.794573051028378, "b": -0.861281847012507, "c": -0.6086411447878987,
    "d": -0.6202653907396376, "e": -0.8185647992277136, "q": 0.551325083110672,
}


class TestTruncatedTrigStates:
    @pytest.mark.parametrize("seed_mode", ["oracle", "homotopy"])
    def test_same_sign_ground_state(self, seed_mode):
        assert meets_criterion_one(solve(SAME_SIGN, seed_mode=seed_mode)[0])

    def test_oracle_mode_continues_only_truncated_states(self):
        spec = spec_for("trig-q", 8, np.random.default_rng(11))
        truncated = [p.truncated for p in oracle_spectrum(build_matrix(spec))]
        assert any(truncated) and not all(truncated)
        sols = solve(spec)
        assert [s.seed_source == "homotopy" for s in sols] == truncated
        assert all(meets_criterion_one(s) for s in sols)

    def test_oracle_mode_builds_two_matrices(self, monkeypatch):
        """The model's own matrix and the start model's, whatever the
        number of truncated states."""
        built = []

        def counted(spec):
            built.append(spec.M)
            return build_matrix(spec)

        monkeypatch.setattr(bethe, "build_matrix", counted)
        monkeypatch.setattr(homotopy, "build_matrix", counted)
        spec = spec_for("trig-q", 8, np.random.default_rng(11))
        assert sum(s.seed_source == "homotopy" for s in solve(spec)) > 2
        assert built == [spec.M, spec.M]

    @pytest.mark.parametrize("spec", [SAME_SIGN, ENVELOPE_M6], ids=["same-sign", "envelope"])
    def test_unseeded_truncated_state_is_unpolished(self, spec, monkeypatch):
        """With every leg failing, a truncated state comes back with its
        representable roots, unpolished: no Newton solve runs on them."""

        def failing(*args):
            raise NoConvergence("forced for every leg")

        monkeypatch.setattr(homotopy, "_continuation_leg", failing)
        pairs = oracle_spectrum(build_matrix(spec))
        sols = solve(spec)
        assert any(p.truncated for p in pairs)
        for pair, sol in zip(pairs, sols):
            if pair.truncated:
                assert sol.seed_source == "oracle"
                assert not sol.flags.polished and sol.flags.degenerate
                assert len(sol.roots) == pair.degree < spec.M

    @pytest.mark.parametrize(
        ("M", "params"),
        [(M, FIXED_POINT_LEG) for M in (9, 10, 12, 13)]
        + [(M, FIXED_POINT_FULL) for M in (11, 12, 13)],
        ids=["9", "10", "12", "13", "full-11", "full-12", "full-13"],
    )
    @pytest.mark.parametrize("seed_mode", ["oracle", "homotopy"])
    def test_fixed_point_leg_is_right_or_unpolished(self, seed_mode, M, params):
        """Every state meets criterion 1, and the ground state is seeded by
        continuation: its leg through complex a misses the fixed point
        eta = 1 that the real-axis leg ends on."""
        sols = solve(model_spec("trig-q", M=M, **params), seed_mode=seed_mode)
        assert sols[0].seed_source == "homotopy"
        assert all(meets_criterion_one(sol) for sol in sols)


class TestFixedPoints:
    @pytest.mark.parametrize("family", ["trig-q", "centrifugal-i", "centrifugal-ii"])
    def test_equation_holds_identically(self, family, rng):
        """At eta = +-1 (z = +-1) and eta = 0 the native variable equals eta,
        and a root there solves its own equation whatever the others are:
        the two cross-multiplied sides agree bit for bit, and the ratio
        form of residual_map to the rounding of one complex division."""
        spec = spec_for(family, 4, rng)
        assert spec.info.fixed_points
        for p in spec.info.fixed_points:
            for j in range(spec.M):
                native = rng.uniform(0.1, 0.6, spec.M) * np.exp(1j * rng.uniform(0, 3, spec.M))
                native[j] = p
                assert abs(residual_map(spec)(native)[j]) <= 1e-15
                roots = root_set(spec, native)
                k = roots.roots_eta.index(p)
                assert bae_residual(spec, roots)[k] == 0.0

    def test_polish_onto_a_fixed_point_is_not_polished(self):
        """State 12 of this draw is seeded from its own eigenvector and
        Newton ends with a root on z = 1, at an eigenvalue gap of 0.70."""
        spec = model_spec(
            "trig-q", M=12, a=-0.5335926269841753, b=-0.4883196149168232,
            c=-0.5619259564049126, d=0.18507588639408276, e=-0.2232430853697623,
            q=0.9795036114431088,
        )
        sol = solve(spec)[12]
        assert sol.seed_source == "oracle"
        assert not sol.flags.polished
        assert all(abs(abs(e) - 1.0) > 1e-3 for e in sol.roots.roots_eta)
