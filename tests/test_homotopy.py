import numpy as np
import pytest
import scipy.special

from conftest import spec_for
from qesbethe import homotopy
from qesbethe.bethe import solve
from qesbethe.errors import DegenerateLeadingCoefficient
from qesbethe.homotopy import CONTINUATION_STEPS, laguerre_nodes
from qesbethe.models import model_spec


@pytest.mark.parametrize("n", range(1, 25))
def test_laguerre_nodes_match_scipy(n):
    for alpha in (-0.99, -0.5, 0.0, 0.37, 1.0, 2.5, 7.0, 19.3, 40.0, 59.9):
        want, _ = scipy.special.roots_genlaguerre(n, alpha)
        got = laguerre_nodes(n, alpha)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestHomotopySeeding:
    def test_crossed_family_full_coverage(self):
        spec = model_spec("mp-crossed", M=4, a1=1.2, a2=0.8, beta=0.9)
        sols = solve(spec, seed_mode="homotopy")
        assert all(s.seed_source == "homotopy" for s in sols)
        for s in sols:
            assert s.residual_max <= 1e-9
            assert s.discrepancy <= 1e-8 * max(1.0, abs(s.E_oracle))

    def test_trig_family_full_coverage(self):
        spec = model_spec("trig-q", M=3, a=0.5, b=-0.2, c=0.25, d=0.4, e=-0.35, q=0.6)
        sols = solve(spec, seed_mode="homotopy")
        assert all(s.seed_source == "homotopy" for s in sols)
        for s in sols:
            assert s.residual_max <= 1e-9

    def test_matches_oracle_seeded_solutions(self):
        spec = model_spec("mp-crossed", M=3, a1=1.4 + 0.2j, a2=0.9 - 0.1j, beta=0.7)
        by_homotopy = solve(spec, seed_mode="homotopy")
        by_oracle = solve(spec)
        for h, o in zip(by_homotopy, by_oracle):
            assert abs(h.E_formula - o.E_formula) <= 1e-9 * max(1.0, abs(o.E_formula))
            np.testing.assert_allclose(
                np.asarray(h.roots.roots_eta), np.asarray(o.roots.roots_eta), atol=1e-8
            )

    def test_unsupported_family_falls_back(self):
        spec = model_spec("sextic-i", M=4, sector="even", a=1.0, b=2.0, c=0.7)
        sols = solve(spec, seed_mode="homotopy")
        assert all(s.seed_source == "oracle" for s in sols)
        assert all(s.residual_max <= 1e-9 for s in sols)

    def test_failed_start_state_falls_back_alone(self, monkeypatch):
        real = homotopy.poly_roots

        def failing(poly, *args, **kwargs):
            if poly.degree == 2:
                raise DegenerateLeadingCoefficient("forced for the degree-2 start state")
            return real(poly, *args, **kwargs)

        monkeypatch.setattr(homotopy, "poly_roots", failing)
        spec = model_spec("mp-crossed", M=4, a1=1.2, a2=0.8, beta=0.9)
        sols = solve(spec, seed_mode="homotopy")
        assert len(sols) == spec.M + 1
        assert [s.seed_source for s in sols].count("oracle") == 1
        for s in sols:
            assert s.residual_max <= 1e-9
            assert s.discrepancy <= 1e-8 * max(1.0, abs(s.E_oracle))


@pytest.mark.parametrize("M", (4, 6, 8))
@pytest.mark.parametrize("family", ("mp-crossed", "trig-q"))
def test_homotopy_coverage_with_carried_jacobian(family, M, rng, monkeypatch):
    """Every state of acceptance-range draws is reached by continuation,
    meets criterion 1 and matches the oracle-seeded eigenvalue, while each
    leg builds fewer finite-difference Jacobians than it takes Newton
    iterations."""
    reports = []
    real = homotopy.newton_solve

    def recorded(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(homotopy, "newton_solve", recorded)
    for _ in range(3):
        spec = spec_for(family, M, rng)
        reports.clear()
        sols = solve(spec, seed_mode="homotopy")
        assert all(s.seed_source == "homotopy" for s in sols)
        for h, o in zip(sols, solve(spec)):
            assert h.residual_max <= 1e-9
            assert h.discrepancy <= 1e-8 * max(1.0, abs(h.E_oracle))
            assert abs(h.E_formula - o.E_formula) <= 1e-9 * max(1.0, abs(o.E_formula))
        assert len(reports) == (M + 1) * CONTINUATION_STEPS
        for leg in range(M + 1):
            steps = reports[leg * CONTINUATION_STEPS : (leg + 1) * CONTINUATION_STEPS]
            assert sum(r.fd_jacobians for r in steps) < sum(r.iterations for r in steps)
