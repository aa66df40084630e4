from dataclasses import replace as dc_replace

import numpy as np
import pytest

from conftest import spec_for
from qesbethe import bethe, homotopy
from qesbethe.bethe import solve
from qesbethe.errors import NoConvergence
from qesbethe.hamiltonian import build_matrix
from qesbethe.homotopy import (
    CONTINUATION_STEPS,
    _continued,
    homotopy_root_sets,
    laguerre_nodes,
)
from qesbethe.models import model_spec
from qesbethe.numerics import NewtonReport
from qesbethe.spectral import oracle_spectrum


@pytest.mark.parametrize("n", range(1, 25))
def test_laguerre_nodes_match_scipy(n):
    special = pytest.importorskip("scipy.special", exc_type=ImportError)
    for alpha in (-0.99, -0.5, 0.0, 0.37, 1.0, 2.5, 7.0, 19.3, 40.0, 59.9):
        want, _ = special.roots_genlaguerre(n, alpha)
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
        real = homotopy.extract_roots

        def failing(pair, *args, **kwargs):
            if pair.degree == 2:
                raise NoConvergence("forced for the degree-2 start state")
            return real(pair, *args, **kwargs)

        monkeypatch.setattr(homotopy, "extract_roots", failing)
        spec = model_spec("mp-crossed", M=4, a1=1.2, a2=0.8, beta=0.9)
        sols = solve(spec, seed_mode="homotopy")
        assert len(sols) == spec.M + 1
        assert [s.seed_source for s in sols].count("oracle") == 1
        for s in sols:
            assert s.residual_max <= 1e-9
            assert s.discrepancy <= 1e-8 * max(1.0, abs(s.E_oracle))

    def test_escaped_roots_at_zero_fall_back_alone(self):
        """With b = 0 the trigonometric escaped-root law z ~ -(abcde) q^(2k)
        puts every escaped root at z = 0, the pole of eta = (z + 1/z)/2:
        the states that have escaped roots fall back to oracle seeds, and
        the top state, which has none, is still continued."""
        spec = model_spec("trig-q", M=3, a=0.5, b=0.0, c=0.25, d=0.4, e=-0.35, q=0.6)
        sols = solve(spec, seed_mode="homotopy")
        assert [s.seed_source for s in sols].count("homotopy") == 1
        assert all(s.residual_max <= 1e-9 for s in sols)

    def test_every_start_state_of_a_wide_model_reaches_newton(self, monkeypatch):
        """At M = 32 the start eigenpolynomials of the top degrees span
        coefficient norms up to 1e19 against their exact monic leading
        coefficient; each of the M + 1 legs must still get its roots and
        take all of its continuation steps.  Newton is stubbed out, so the
        legs land nowhere and only the step count is checked."""
        calls = []

        def recorded(f, x0, opts, inverse=None):
            calls.append(len(x0))
            return NewtonReport(x0, None, 0, 0)

        monkeypatch.setattr(homotopy, "newton_solve", recorded)
        spec = spec_for("mp-crossed", 32, np.random.default_rng(7))
        eigenvalues = [p.eigenvalue for p in oracle_spectrum(build_matrix(spec))]
        homotopy_root_sets(spec, eigenvalues, set(range(len(eigenvalues))))
        assert len(calls) == (spec.M + 1) * CONTINUATION_STEPS
        assert set(calls) == {spec.M}


@pytest.mark.parametrize(
    ("family", "M"),
    [(f, M) for f in ("mp-crossed", "trig-q") for M in (4, 6, 8)] + [("mp-crossed", 16)],
)
def test_homotopy_coverage_with_carried_jacobian(family, M, rng, monkeypatch):
    """Every state of acceptance-range draws (three each up to M = 8, one at
    M = 16) is reached by continuation, meets criterion 1 and matches the
    oracle-seeded eigenvalue, while each leg builds fewer finite-difference
    Jacobians than it takes Newton iterations.  A leg's last step is
    corrected to the polish tolerance, so the polish of every continuation
    seed takes no Newton iteration."""
    reports, polishes = [], []
    real = homotopy.newton_solve

    def recorded(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    def polish(*args, **kwargs):
        polishes.append(real(*args, **kwargs))
        return polishes[-1]

    monkeypatch.setattr(homotopy, "newton_solve", recorded)
    for _ in range(3 if M <= 8 else 1):
        spec = spec_for(family, M, rng)
        # oracle mode continues truncated trig-q states too: solve it first
        oracle = solve(spec)
        reports.clear()
        polishes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(bethe, "newton_solve", polish)
            sols = solve(spec, seed_mode="homotopy")
        assert all(s.seed_source == "homotopy" for s in sols)
        assert len(polishes) == M + 1
        assert [r.iterations for r in polishes] == [0] * (M + 1)
        for h, o in zip(sols, oracle):
            assert h.residual_max <= 1e-9
            assert h.discrepancy <= 1e-8 * max(1.0, abs(h.E_oracle))
            assert abs(h.E_formula - o.E_formula) <= 1e-9 * max(1.0, abs(o.E_formula))
        assert len(reports) == (M + 1) * CONTINUATION_STEPS
        for leg in range(M + 1):
            steps = reports[leg * CONTINUATION_STEPS : (leg + 1) * CONTINUATION_STEPS]
            assert sum(r.fd_jacobians for r in steps) < sum(r.iterations for r in steps)


@pytest.mark.parametrize("M", (4, 6, 8))
@pytest.mark.parametrize("family", ("mp-crossed", "trig-q"))
def test_held_steps_solve_no_linear_system(family, M, monkeypatch):
    """Every Jacobian is inverted once and its inverse held, so each step
    costs one matrix-vector product: a homotopy-seeded solve runs no
    linear solve at all, and each continuation correction one inversion
    per finite-difference Jacobian it builds."""
    solves, inversions = [], []
    real_solve, real_inv = np.linalg.solve, np.linalg.inv

    def counted_solve(*args, **kwargs):
        solves.append(None)
        return real_solve(*args, **kwargs)

    def counted_inv(*args, **kwargs):
        inversions.append(None)
        return real_inv(*args, **kwargs)

    reports = []
    real_newton = homotopy.newton_solve

    def recorded(*args, **kwargs):
        before = len(inversions)
        report = real_newton(*args, **kwargs)
        reports.append((len(inversions) - before, report))
        return report

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(homotopy, "newton_solve", recorded)
    spec = spec_for(family, M, np.random.default_rng(11))
    assert all(s.seed_source == "homotopy" for s in solve(spec, seed_mode="homotopy"))
    assert not solves
    fd_jacobians = sum(r.fd_jacobians for _n, r in reports)
    assert 0 < fd_jacobians < sum(r.iterations for _n, r in reports)
    assert [n for n, _r in reports] == [r.fd_jacobians for _n, r in reports]


@pytest.mark.parametrize("family", ("mp-crossed", "trig-q"))
def test_escaped_roots_start_each_step_at_their_leading_order_position(family, monkeypatch):
    """Each root's leading-order law is t^p: p = 0 for the m near roots and,
    for the M - m escaped ones, p = -1 for the crossed family (x ~ 1/beta)
    and p = 1 for the trigonometric one (z ~ a).  The second step of a leg
    starts every root at the last step's ratio to its law, the third
    extrapolates that ratio linearly from the last two steps, and every
    later one quadratically from the last three (the steps are equal)."""
    spec = spec_for(family, 6, np.random.default_rng(11))
    target = spec.real_param(spec.info.continuation)
    start = _continued(spec, 0.0)
    ts = [(k + 1) / CONTINUATION_STEPS * target for k in range(CONTINUATION_STEPS)]
    steps = []
    real = homotopy.newton_solve

    def recorded(f, x0, opts, inverse=None):
        report = real(f, x0, opts, inverse)
        steps.append((np.array(x0), report.x.copy()))
        return report

    monkeypatch.setattr(homotopy, "newton_solve", recorded)
    for pair in oracle_spectrum(build_matrix(start)):
        steps.clear()
        homotopy._continuation_leg(spec, start, pair, target)
        assert len(steps) == CONTINUATION_STEPS
        power = np.zeros(spec.M)
        power[pair.degree :] = -1.0 if family == "mp-crossed" else 1.0

        def moved(j, k):
            """Step j's roots, moved along their laws to step k."""
            return steps[j][1] * (ts[k] / ts[j]) ** power

        for k in range(1, CONTINUATION_STEPS):
            if k == 1:
                want = moved(0, 1)
            elif k == 2:
                want = 2.0 * moved(1, 2) - moved(0, 2)
            else:
                want = 3.0 * moved(k - 1, k) - 3.0 * moved(k - 2, k) + moved(k - 3, k)
            np.testing.assert_allclose(steps[k][0], want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("family", ("mp-crossed", "trig-q"))
def test_held_inverse_is_carried_in_the_law_frame(family, monkeypatch):
    """Before step k the inverse that step k - 1 returned has its rows
    multiplied by law[k] / law[k - 1]: each row maps residuals to one
    root's move, which scales like that root's leading-order law.  The
    near-root rows pass bit for bit, and a step that returns no inverse
    hands none on."""
    spec = spec_for(family, 6, np.random.default_rng(11))
    target = spec.real_param(spec.info.continuation)
    start = _continued(spec, 0.0)
    pair = next(p for p in oracle_spectrum(build_matrix(start)) if p.degree == 3)
    ts = [(k + 1) / CONTINUATION_STEPS * target for k in range(CONTINUATION_STEPS)]
    law = np.ones((CONTINUATION_STEPS, spec.M), dtype=complex)
    law[:, 3:] = homotopy._far_seeds(spec, 3, ts)
    dropped = 5  # this step's report hands on no inverse
    steps = []
    real = homotopy.newton_solve

    def recorded(f, x0, opts, inverse=None):
        report = real(f, x0, opts, inverse)
        if len(steps) == dropped:
            report = dc_replace(report, inverse=None)
        steps.append((None if inverse is None else inverse.copy(), report.inverse))
        return report

    monkeypatch.setattr(homotopy, "newton_solve", recorded)
    homotopy._continuation_leg(spec, start, pair, target)
    assert len(steps) == CONTINUATION_STEPS
    assert steps[0][0] is None and steps[dropped + 1][0] is None
    carried = 0
    for k in range(1, CONTINUATION_STEPS):
        supplied, returned = steps[k][0], steps[k - 1][1]
        if returned is None:
            assert supplied is None
            continue
        carried += 1
        np.testing.assert_array_equal(supplied, (law[k] / law[k - 1])[:, None] * returned)
        np.testing.assert_array_equal(supplied[:3], returned[:3])
    assert carried >= CONTINUATION_STEPS - 3


@pytest.mark.parametrize("family", ("mp-crossed", "trig-q"))
def test_escaped_root_law_takes_one_laguerre_solve_per_leg(family, monkeypatch):
    """The crossed family's escaped-root law reads the Laguerre nodes once
    per leg with escaped roots (every state but the top one), not once per
    step; the trigonometric law needs none."""
    calls = []
    real = homotopy.laguerre_nodes

    def counted(n, alpha):
        calls.append(n)
        return real(n, alpha)

    monkeypatch.setattr(homotopy, "laguerre_nodes", counted)
    spec = spec_for(family, 6, np.random.default_rng(11))
    assert all(s.seed_source == "homotopy" for s in solve(spec, seed_mode="homotopy"))
    assert sorted(calls) == (list(range(1, spec.M + 1)) if family == "mp-crossed" else [])


# The source of 9cba8fb, which started each step from the last step's roots,
# spends this many residual evaluations on the draws below; printed from the
# repository root by
#   mkdir parent && git archive 9cba8fb src | tar -x -C parent
#   PYTHONPATH=parent/src python -c "import sys; sys.path.insert(0, 'tests'); \
#     import test_homotopy as t; print(t.continuation_residual_evaluations())"
UNPREDICTED_RESIDUAL_EVALUATIONS = 19167
# and the source of a4afbbc, which moved only the escaped roots, by their
# leading-order law, and corrected every step with chord Newton to 1e-10,
# this many (printed the same way, with a4afbbc in place of 9cba8fb)
LEADING_ORDER_RESIDUAL_EVALUATIONS = 14032
# and the source of 142bcb9, which held an inverse only along continuation
# legs, re-inverted each step's finite-difference Jacobian at the next step
# and corrected every leg's last step to 1e-11, this many
HELD_JACOBIAN_RESIDUAL_EVALUATIONS = 8710
# and the source of 94e04b0, which carried each step's inverse to the next
# unchanged and extrapolated the ratios to the law linearly, this many
# residual evaluations and finite-difference Jacobians (printed the same
# way, with 94e04b0 in place of 9cba8fb)
RAW_FRAME_RESIDUAL_EVALUATIONS = 7065
RAW_FRAME_FD_JACOBIANS = 229


def continuation_residual_evaluations() -> tuple[int, int]:
    """Residual evaluations and finite-difference Jacobians of every
    continuation step over the three M = 8 mp-crossed and trig-q draws of
    the coverage test."""
    count = fd_jacobians = 0
    real = homotopy.newton_solve

    def counted(f, x0, opts, inverse=None):
        nonlocal fd_jacobians

        def g(x):
            nonlocal count
            count += 1
            return f(x)

        report = real(g, x0, opts, inverse=inverse)
        fd_jacobians += report.fd_jacobians
        return report

    homotopy.newton_solve = counted
    try:
        for family in ("mp-crossed", "trig-q"):
            rng = np.random.default_rng(20240817)
            for _ in range(3):
                solve(spec_for(family, 8, rng), seed_mode="homotopy")
    finally:
        homotopy.newton_solve = real
    return count, fd_jacobians


def test_predictor_saves_residual_evaluations():
    count, _fd = continuation_residual_evaluations()
    assert count < LEADING_ORDER_RESIDUAL_EVALUATIONS < UNPREDICTED_RESIDUAL_EVALUATIONS


def test_carried_inverse_saves_residual_evaluations():
    count, _fd = continuation_residual_evaluations()
    assert count < HELD_JACOBIAN_RESIDUAL_EVALUATIONS


def test_law_frame_inverse_saves_finite_difference_jacobians():
    count, fd_jacobians = continuation_residual_evaluations()
    assert count <= 5300 < RAW_FRAME_RESIDUAL_EVALUATIONS
    assert fd_jacobians <= 150 < RAW_FRAME_FD_JACOBIANS
