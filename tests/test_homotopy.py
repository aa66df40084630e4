import math
from dataclasses import replace as dc_replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import spec_for
from qesbethe import bethe, homotopy
from qesbethe.bethe import POLISH_TARGET, residual_map, solve
from qesbethe.errors import NoConvergence, QesError
from qesbethe.hamiltonian import build_matrix
from qesbethe.homotopy import _continued, homotopy_root_sets, laguerre_nodes
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

    @pytest.mark.parametrize("params", [
        {"family": "mp-crossed", "a1": 0.5, "a2": 0.7, "beta": 0.3},
        {"family": "trig-q", "a": 0.3, "b": 0.2, "c": 0.1, "d": 0.1, "e": 0.2, "q": 0.5},
    ])
    def test_no_roots_to_continue_at_m_zero(self, params):
        spec = model_spec(M=0, **params)
        ((by_homotopy,), (by_oracle,)) = solve(spec, seed_mode="homotopy"), solve(spec)
        assert by_homotopy.seed_source == "homotopy"
        assert by_homotopy.E_formula == by_oracle.E_formula

    def test_unsupported_family_falls_back(self):
        spec = model_spec("sextic-i", M=4, sector="even", a=1.0, b=2.0, c=0.7)
        sols = solve(spec, seed_mode="homotopy")
        assert all(s.seed_source == "oracle" for s in sols)
        assert all(s.residual_max <= 1e-9 for s in sols)

    def test_failed_start_state_falls_back_alone(self, monkeypatch):
        real = homotopy.extract_roots

        def failing(pairs, *args, **kwargs):
            if any(pair.degree == 2 for pair in pairs):
                raise NoConvergence("forced for the degree-2 start state")
            return real(pairs, *args, **kwargs)

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
        reach its target.  Newton is stubbed out, so no root moves, every
        step is accepted and doubles the next one: the first step is 2/M
        of the leg, so 1/16, 1/8, 1/4, 1/2 and the remaining 1/16, five
        steps per leg."""
        calls = []

        def recorded(f, x0, opts, inverse=None):
            calls.append(len(x0))
            return NewtonReport(x0, None, 0, 0)

        monkeypatch.setattr(homotopy, "newton_solve", recorded)
        spec = spec_for("mp-crossed", 32, np.random.default_rng(7))
        eigenvalues = [p.eigenvalue for p in oracle_spectrum(build_matrix(spec))]
        homotopy_root_sets(spec, eigenvalues, set(range(len(eigenvalues))))
        assert len(calls) == (spec.M + 1) * 5
        assert set(calls) == {spec.M}


# Full-domain crossed draws near the parameter boundary, whose paths a fixed
# schedule does not resolve: twelve equal steps seeded 1 of the 5 states of
# the first and 4 of the 5 of the second
HARD_CROSSED = (
    dict(a1=2.0981360444341672 - 0.6427173570302189j,
         a2=0.07029410099054358 - 1.360705223580076j, beta=3.1160794005485437),
    dict(a1=0.09326660024625519 + 1.3564993934911267j,
         a2=1.4095835276654323 - 1.4911883357658784j, beta=1.501729211273422),
)


@pytest.mark.parametrize("params", HARD_CROSSED)
def test_step_length_control_resolves_hard_crossed_paths(params):
    """Every state of the hard crossed draws is continuation-seeded and
    meets criterion 1."""
    sols = solve(model_spec("mp-crossed", M=4, **params), seed_mode="homotopy")
    assert [s.seed_source for s in sols] == ["homotopy"] * 5
    for s in sols:
        assert s.residual_max <= 1e-9
        assert s.discrepancy <= 1e-8 * max(1.0, abs(s.E_oracle))


def _record_step_parameters(monkeypatch) -> list[float]:
    """The continuation parameter t of every corrector call, in order, via
    the residual map each step builds."""
    ts = []
    real = homotopy.residual_map

    def recorded(spec):
        ts.append(spec.real_param(spec.info.continuation))
        return real(spec)

    monkeypatch.setattr(homotopy, "residual_map", recorded)
    return ts


def test_rejected_step_is_retried_at_half_length(monkeypatch):
    """A corrector that fails once mid-leg rejects that step: t does not
    advance, the step is retried at half its length from the same point,
    and the leg still ends exactly on the target, corrected to the polish
    tolerance."""
    spec = model_spec("mp-crossed", M=4, a1=1.2, a2=0.8, beta=0.9)
    start = _continued(spec, 0.0)
    pair = next(p for p in oracle_spectrum(build_matrix(start)) if p.degree == 2)
    ts = _record_step_parameters(monkeypatch)
    tols = []
    real = homotopy.newton_solve

    def fails_once(f, x0, opts, inverse=None):
        tols.append(opts.tol)
        if len(tols) == 3:
            raise NoConvergence("forced for the third step")
        return real(f, x0, opts, inverse)

    monkeypatch.setattr(homotopy, "newton_solve", fails_once)
    x = homotopy._continuation_leg(spec, start, pair, 0.9)
    assert len(ts) > 4
    assert 0.0 < ts[1] < ts[3] < ts[2] < 0.9
    assert ts[3] - ts[1] == pytest.approx((ts[2] - ts[1]) / 2, rel=1e-12)
    assert ts[-1] == 0.9 and max(ts[:-1]) < 0.9
    assert tols[-1] == 0.1 * POLISH_TARGET
    assert set(tols[:-1]) == {homotopy.INTERMEDIATE_TOL}
    assert np.abs(residual_map(spec)(x)).max() <= 0.1 * POLISH_TARGET


def test_leg_whose_steps_all_fail_falls_back_alone(monkeypatch):
    """A leg whose corrector never converges halves its step from 1/8 of
    the leg down to 1/512, fails there with a QesError, and only its state
    is seeded from the oracle."""
    spec = model_spec("mp-crossed", M=4, a1=1.2, a2=0.8, beta=0.9)
    start = _continued(spec, 0.0)
    pairs = oracle_spectrum(build_matrix(start))
    ts = _record_step_parameters(monkeypatch)
    real = homotopy.newton_solve
    degrees = []

    def fails_on_degree_2(f, x0, opts, inverse=None):
        if degrees[-1] == 2:
            raise NoConvergence("forced for the degree-2 leg")
        return real(f, x0, opts, inverse)

    real_leg = homotopy._continuation_leg

    def leg(leg_spec, leg_start, pair, target):
        degrees.append(pair.degree)
        return real_leg(leg_spec, leg_start, pair, target)

    monkeypatch.setattr(homotopy, "newton_solve", fails_on_degree_2)
    monkeypatch.setattr(homotopy, "_continuation_leg", leg)
    with pytest.raises(QesError):
        leg(spec, start, next(p for p in pairs if p.degree == 2), 0.9)
    np.testing.assert_allclose(ts, [0.9 / 2**k for k in range(3, 10)], rtol=1e-15)
    sols = solve(spec, seed_mode="homotopy")
    assert [s.seed_source for s in sols].count("oracle") == 1
    for s in sols:
        assert s.residual_max <= 1e-9
        assert s.discrepancy <= 1e-8 * max(1.0, abs(s.E_oracle))


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
    legs, polishes = [], []  # each leg's corrector reports
    real = homotopy.newton_solve
    real_leg = homotopy._continuation_leg

    def leg(*args):
        legs.append([])
        return real_leg(*args)

    def recorded(*args, **kwargs):
        legs[-1].append(real(*args, **kwargs))
        return legs[-1][-1]

    def polish(*args, **kwargs):
        polishes.append(real(*args, **kwargs))
        return polishes[-1]

    monkeypatch.setattr(homotopy, "newton_solve", recorded)
    monkeypatch.setattr(homotopy, "_continuation_leg", leg)
    for _ in range(3 if M <= 8 else 1):
        spec = spec_for(family, M, rng)
        # oracle mode continues truncated trig-q states too: solve it first
        oracle = solve(spec)
        legs.clear()
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
        assert len(legs) == M + 1
        for steps in legs:
            assert len(steps) >= 4  # 1/8, 1/4, 1/2 and 1/8 of the leg at the least
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


def _record_leg(monkeypatch, spec, pair, drop_inverse_at=None) -> list[dict]:
    """Run the continuation leg of ``pair`` and record every step: its path
    variable t and continuation parameter a, the accepted t's it was
    predicted from, the roots and inverse it was started from, and the
    roots and inverse its corrector returned.  The report of step
    ``drop_inverse_at`` hands on no inverse.  Off the target, a = t + i
    detour |target| 4 s (1 - s), s = t / target; with no detour a is the
    real t itself."""
    steps = []
    real_newton, real_map = homotopy.newton_solve, homotopy.residual_map
    real_weights = homotopy._lagrange_weights

    def weights(ts, t):
        steps.append({"t": t, "nodes": list(ts)})
        return real_weights(ts, t)

    def newton(f, x0, opts, inverse=None):
        report = real_newton(f, x0, opts, inverse)
        if len(steps) - 1 == drop_inverse_at:
            report = dc_replace(report, inverse=None)
        steps[-1].update(
            x0=np.array(x0), x=report.x.copy(), inverse=report.inverse,
            supplied=None if inverse is None else inverse.copy(),
        )
        return report

    target = spec.real_param(spec.info.continuation)
    detour = spec.info.detour

    def mapped(step_spec):
        a, t = step_spec.param(step_spec.info.continuation), steps[-1]["t"]
        s = t / target
        assert a.real == t
        assert a.imag == pytest.approx(detour * abs(target) * 4 * s * (1 - s), rel=1e-15)
        assert isinstance(a, complex) == (bool(detour) and t != target)
        steps[-1]["a"] = a
        return real_map(step_spec)

    monkeypatch.setattr(homotopy, "_lagrange_weights", weights)
    monkeypatch.setattr(homotopy, "newton_solve", newton)
    monkeypatch.setattr(homotopy, "residual_map", mapped)
    homotopy._continuation_leg(spec, _continued(spec, 0.0), pair, target)
    assert steps[-1]["t"] == target
    return steps


def _accepted(steps: list[dict], k: int, t: float) -> dict:
    """The accepted step at ``t`` before step k: the latest one there, as
    every step after an accepted one lies beyond it."""
    return next(s for s in reversed(steps[:k]) if s["t"] == t)


def _leg_spec(case: str):
    """The model of a leg test: the first M = 6 rng-11 draw of the family
    ``case`` or, for "hard", the first hard crossed draw, whose legs reject
    steps at their start and mid-leg."""
    if case == "hard":
        return model_spec("mp-crossed", M=4, **HARD_CROSSED[0])
    return spec_for(case, 6, np.random.default_rng(11))


def _exact_lagrange_weights(nodes: list[float], t: float) -> list[float]:
    """The Lagrange weights of ``nodes`` at ``t``, each computed in exact
    rational arithmetic and rounded once."""
    t, exact = Fraction(t), [Fraction(n) for n in nodes]
    return [float(math.prod((t - tk) / (tj - tk) for tk in exact if tk != tj)) for tj in exact]


@pytest.mark.parametrize("case", ("mp-crossed", "trig-q", "hard"))
def test_escaped_roots_start_each_step_at_their_leading_order_position(case, monkeypatch):
    """Each root's leading-order law is a^p in the continuation parameter
    a = a(t) at path variable t: p = 0 for the m near roots and, for the
    M - m escaped ones, p = -1 for the crossed family (x ~ 1/beta, a = t)
    and p = 1 for the trigonometric one (z ~ a, a complex off the target).
    Until a step is accepted the near roots start at the start roots;
    every later step starts every root at the Lagrange extrapolation in the
    real t of its ratio to its law over the last three accepted steps
    (fewer at first)."""
    spec = _leg_spec(case)
    start = _continued(spec, 0.0)
    for pair in oracle_spectrum(build_matrix(start)):
        with monkeypatch.context() as patch:
            steps = _record_leg(patch, spec, pair)
        m = pair.degree
        power = np.zeros(spec.M)
        power[m:] = 1.0 if case == "trig-q" else -1.0
        (start_roots,) = homotopy.extract_roots([pair], start)
        assert len(start_roots) == m
        near = spec.chart.newton(start_roots)
        accepted = []
        for k, step in enumerate(steps):
            t, nodes = step["t"], step["nodes"]
            if k and nodes != accepted[-3:]:
                accepted.append(steps[k - 1]["t"])  # the step before was accepted
            assert nodes == accepted[-3:]
            if not nodes:
                np.testing.assert_array_equal(step["x0"][:m], near)
                continue
            terms = [
                weight * node["x"] * (step["a"] / node["a"]) ** power
                for weight, node in zip(
                    _exact_lagrange_weights(nodes, t), [_accepted(steps, k, tj) for tj in nodes]
                )
            ]
            # each root's sum rounds at eps times its largest term, not its result
            error = np.abs(step["x0"] - sum(terms)) / np.abs(terms).max(axis=0)
            assert error.max() <= 1e-14


@pytest.mark.parametrize("case", ("mp-crossed", "trig-q", "hard"))
def test_held_inverse_is_carried_in_the_law_frame(case, monkeypatch):
    """Each step starts from the inverse that the last accepted step
    returned, its rows multiplied by law(a) / law(a_accepted), a = a(t) the
    continuation parameter of each step's path variable t: each row
    maps residuals to one root's move, which scales like that root's
    leading-order law.  The near-root rows pass bit for bit, and an
    accepted step that returns no inverse (step ``dropped``) hands none
    on."""
    degree, dropped = (0, 3) if case == "hard" else (3, 2)
    spec = _leg_spec(case)
    pair = next(p for p in oracle_spectrum(build_matrix(_continued(spec, 0.0)))
                if p.degree == degree)
    law, _exact = homotopy._law(spec, degree)
    steps = _record_leg(monkeypatch, spec, pair, drop_inverse_at=dropped)
    carried = 0
    sources = []
    for k, step in enumerate(steps):
        if not step["nodes"]:
            assert step["supplied"] is None
            continue
        source = _accepted(steps, k, step["nodes"][-1])
        sources.append(source)
        if source["inverse"] is None:
            assert step["supplied"] is None
            continue
        carried += 1
        want = (law(step["a"]) / law(source["a"]))[:, None] * source["inverse"]
        np.testing.assert_array_equal(step["supplied"], want)
        np.testing.assert_array_equal(step["supplied"][:degree], source["inverse"][:degree])
    assert any(source is steps[dropped] for source in sources)
    assert carried >= len(sources) - 2


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
# and the source of 8f627f6, which took twelve equal steps per leg, this
# many residual evaluations
FIXED_SCHEDULE_RESIDUAL_EVALUATIONS = 4998


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


def test_step_length_control_saves_residual_evaluations():
    count, fd_jacobians = continuation_residual_evaluations()
    assert count <= 4300 < FIXED_SCHEDULE_RESIDUAL_EVALUATIONS
    assert fd_jacobians <= 150
