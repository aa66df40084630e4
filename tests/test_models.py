import cmath
import itertools
import json
import math

import mpmath
import numpy as np
import pytest

from qesbethe.bethe import solve
from qesbethe.errors import PoleOfPotential, SectorMismatch, SubspaceTooLarge, UnsupportedFamily
from qesbethe.models import (
    COS_CHART,
    X2_CHART,
    X2_ODD_CHART,
    X_CHART,
    ModelFamily,
    Sector,
    compensation_alpha,
    compensation_coefficient,
    drop_factors,
    eta,
    model_spec,
    mp_conjugate_pair,
    potential_v,
    potential_v_star,
    sector_dimension,
    shift_ratios,
    spec_from_json,
    spec_to_json_dict,
    step,
)

from qesbethe.numerics import MAX_EIG_DIM

from conftest import ALL_FAMILIES, draw_params, restricted_for, spec_for, specs_with_restricted
from reference_algebra import symmetric_coefficients


class TestValidation:
    def test_mp_requires_positive_real_parts(self):
        with pytest.raises(ValueError):
            model_spec("mp-crossed", M=1, a1=-0.5, a2=1.0, beta=0.0)

    def test_sextic_requires_positive(self):
        with pytest.raises(ValueError):
            model_spec("sextic-i", M=2, sector="even", a=1.0, b=-2.0, c=3.0)

    def test_centrifugal_rejects_half(self):
        with pytest.raises(ValueError):
            model_spec("centrifugal-i", M=1, b=0.5, c=1.0, d=1.0, e=1.0, f=1.0)
        with pytest.raises(ValueError):
            model_spec("centrifugal-i", M=1, b=0.5 + 5e-7, c=1.0, d=1.0, e=1.0, f=1.0)
        # validation bypass used by the formal-limit checks
        spec = model_spec(
            "centrifugal-ii", M=1, a=1, b=1, c=1, d=1, e=0.0, f=0.5, validate=False
        )
        assert spec.param("f") == 0.5

    def test_trig_ranges(self):
        with pytest.raises(ValueError):
            model_spec("trig-q", M=1, a=1.2, b=0, c=0, d=0, e=0, q=0.5)
        with pytest.raises(ValueError):
            model_spec("trig-q", M=1, a=0.2, b=0, c=0, d=0, e=0, q=1.5)

    def test_sector_rules(self):
        with pytest.raises(SectorMismatch):
            model_spec("sextic-i", M=5, sector="even", a=1, b=1, c=1)
        with pytest.raises(SectorMismatch):
            model_spec("sextic-i", M=4, sector="odd", a=1, b=1, c=1)
        with pytest.raises(SectorMismatch):
            model_spec("mp-crossed", M=2, sector="even", a1=1, a2=1, beta=0.0)
        # sector inferred from parity when omitted
        assert model_spec("sextic-i", M=4, a=1, b=1, c=1).sector is Sector.EVEN
        assert model_spec("sextic-i", M=5, a=1, b=1, c=1).sector is Sector.ODD

    def test_unknown_and_missing_params(self):
        with pytest.raises(ValueError):
            model_spec("sextic-i", M=2, sector="even", a=1, b=1, c=1, z=4)
        with pytest.raises(ValueError):
            model_spec("sextic-i", M=2, sector="even", a=1, b=1)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_non_finite_rejected(self, family, rng):
        params = draw_params(family, rng)
        for k, bad in enumerate((math.nan, math.inf, -math.inf, complex(1.0, math.nan))):
            name = list(params)[k % len(params)]
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                model_spec(family, M=2, **{**params, name: bad})

    @pytest.mark.parametrize(
        "family, params, largest, beyond",
        [
            ("mp-crossed", dict(a1=1, a2=1, beta=0.3), 255, 256),
            ("sextic-i", dict(a=1, b=1, c=1), 510, 512),
            ("sextic-i", dict(a=1, b=1, c=1), 511, 513),
        ],
    )
    def test_subspace_beyond_the_eigensolver_rejected(self, family, params, largest, beyond):
        assert sector_dimension(model_spec(family, M=largest, **params)) == MAX_EIG_DIM
        message = f"M = {beyond} gives a subspace of dimension 257, above the limit of 256"
        with pytest.raises(SubspaceTooLarge, match=message):
            model_spec(family, M=beyond, **params)

    def test_huge_subspace_rejected_before_any_work(self):
        with pytest.raises(SubspaceTooLarge, match="dimension 1000001"):
            model_spec("mp-crossed", M=10**6, a1=1, a2=1, beta=0.3)

    def test_conjugate_pair_constructor(self):
        spec = mp_conjugate_pair(1.5 + 0.5j, 0.3, 4)
        assert spec.param("a2") == (1.5 - 0.5j)


class TestEta:
    def test_square_for_sextic(self):
        spec = model_spec("sextic-i", M=2, sector="even", a=1, b=1, c=1)
        assert eta(spec, 2.0) == 4.0

    def test_identity_for_crossed(self):
        spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=0.0)
        assert eta(spec, 3 + 1j) == 3 + 1j

    def test_cosine_for_trig(self):
        spec = model_spec("trig-q", M=1, a=0, b=0, c=0, d=0, e=0, q=0.5)
        assert eta(spec, 0.0) == 1.0


class TestPotential:
    def test_crossed_at_zero(self):
        spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=0.0)
        np.testing.assert_allclose(potential_v(spec, 0.0), 1.0)

    def test_sextic_at_zero(self):
        spec = model_spec("sextic-i", M=2, sector="even", a=1, b=2, c=3)
        np.testing.assert_allclose(potential_v(spec, 0.0), 6.0)

    def test_trig_all_zero_params(self):
        spec = model_spec("trig-q", M=1, a=0, b=0, c=0, d=0, e=0, q=0.5)
        x = 1.1
        z = cmath.exp(1j * x)
        expected = 1.0 / ((1 - z * z) * (1 - 0.5 * z * z))
        np.testing.assert_allclose(potential_v(spec, x), expected, rtol=1e-13)

    def test_centrifugal_poles(self):
        spec = model_spec("centrifugal-i", M=1, b=1, c=1, d=1, e=1, f=1)
        with pytest.raises(PoleOfPotential):
            potential_v(spec, 0.0)
        with pytest.raises(PoleOfPotential):
            potential_v(spec, 0.5j)

    def test_analytic_conjugate_consistency(self, rng):
        # V*(x) = conj(V(conj(x))) for every family and restricted model
        for spec in specs_with_restricted(2, rng):
            for _ in range(10):
                x = complex(rng.uniform(0.3, 2), rng.uniform(-1, 1))
                lhs = potential_v_star(spec, x)
                rhs = potential_v(spec, x.conjugate()).conjugate()
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_reflection_parity(self, rng):
        # V(-x) = V*(x) for the parity-invariant families and restricted
        # models, and for trig-q, where V* is V at z = e^{-ix}
        parity_invariant = itertools.chain(
            (
                spec_for(family, 2, rng)
                for family in ("sextic-i", "sextic-ii", "centrifugal-i", "centrifugal-ii", "trig-q")
            ),
            (restricted_for(tag, 2, rng) for tag in ("wilson", "cdh", "aw", "q-universal")),
        )
        for spec in parity_invariant:
            for _ in range(10):
                x = complex(rng.uniform(0.3, 2), rng.uniform(-1, 1))
                lhs = potential_v(spec, -x)
                rhs = potential_v_star(spec, x)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


    def test_record_denominator_coefficients_match_its_evaluator(self, rng):
        # the matrix build reads D's coefficients, the pointwise V its evaluator
        for spec in specs_with_restricted(2, rng):
            v = spec.potential
            if v.denominator is None:
                continue
            t = rng.uniform(-2, 2, 8) + 1j * rng.uniform(-2, 2, 8)
            want = np.polynomial.polynomial.polyval(t, v.denominator)
            np.testing.assert_allclose(v.denominator_at(t), want, rtol=1e-13)


class TestStep:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_eta_at_the_step_is_the_matrix_build_shift(self, family, rng):
        # the matrix build shifts x -> x -+ i, or z -> qz, z/q for trig-q
        spec = spec_for(family, 2, rng)
        for x in (0.37 + 0.11j, -1.2 + 0.4j, 2.1 - 0.3j):
            got = eta(spec, np.array([x - step(spec), x + step(spec)]))
            if family == "trig-q":
                q, z = spec.real_param("q"), cmath.exp(1j * x)
                w = np.array([q * z, z / q])
                want = 0.5 * (w + 1.0 / w)
            else:
                want = eta(spec, np.array([x - 1j, x + 1j]))
            np.testing.assert_allclose(got, want, rtol=1e-14)


class TestShiftRatios:
    # one model per chart (family, M), and mpmath's eta of that chart
    CHARTS = {
        ("mp-crossed", 5): (X_CHART, lambda x: x),
        ("sextic-ii", 6): (X2_CHART, lambda x: x * x),
        ("sextic-i", 5): (X2_ODD_CHART, lambda x: x * x),
        ("trig-q", 5): (COS_CHART, mpmath.cos),
    }

    @staticmethod
    def exact(spec, x, roots_eta, eta_of):
        """The three values of shift_ratios as 40-digit products over the
        same doubles, a factor that vanishes at x taken apart."""
        with mpmath.workdps(40):
            s, x0 = mpmath.mpc(step(spec)), mpmath.mpc(x)
            factors = [lambda y, e=mpmath.mpc(e): eta_of(y) - e for e in roots_eta]
            if spec.chart.odd:
                factors.append(lambda y: y)
            at_x = 0 if any(f(x0) == 0 for f in factors) else 1
            out = []
            for y in (x0 - s, x0 + s):
                ratio = mpmath.mpf(1)
                for f in factors:
                    ratio *= f(y) / f(x0) if f(x0) != 0 else f(y)
                out.append(complex(ratio - at_x))
            return out + [at_x]

    @pytest.mark.parametrize("family, M", list(CHARTS))
    def test_matches_a_40_digit_product(self, family, M, rng):
        """At the perturbed roots of every solved state, and at the same roots
        moved out by 1e6, where the ratios are 1 + O(1e-6) as when roots
        recede (beta -> 0); on a real grid (x = 0 among its points, where Psi
        vanishes in the odd sector) and off it: 1e-12 relative."""
        chart, eta_of = self.CHARTS[family, M]
        spec = spec_for(family, M, rng)
        assert spec.chart is chart
        lo, hi = spec.info.grid_window
        xs = np.concatenate([np.linspace(lo, hi, 7), [0.37 + 0.11j, 1.3 - 0.6j]])
        for sol, scale in itertools.product(solve(spec), (1.0, 1e6)):
            etas = np.asarray(sol.roots.roots_eta)
            noise = rng.normal(size=etas.size) + 1j * rng.normal(size=etas.size)
            etas = scale * etas * (1.0 + 1e-3 * noise)
            minus, plus, at_x = shift_ratios(spec, xs, etas)
            for k, x in enumerate(xs):
                *want, want_at_x = self.exact(spec, x, etas, eta_of)
                assert at_x[k] == want_at_x
                for got, w in zip((minus[k], plus[k]), want):
                    assert abs(got - w) <= 1e-12 * abs(w), (family, x, got, w)


class TestCompensation:
    def test_crossed_linear_term(self):
        spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=math.pi / 2)
        x = 0.7 + 0.2j
        np.testing.assert_allclose(compensation_alpha(spec, x), -2.0 * x, rtol=1e-14)

    def test_vanishes_at_m_zero(self, rng):
        for family in ALL_FAMILIES:
            spec = model_spec(
                family,
                M=0,
                sector="even" if family.startswith("sextic") else "full",
                **draw_params(family, rng),
            )
            assert compensation_alpha(spec, 0.37) == 0

    def test_sextic_ii_arithmetic(self):
        spec = model_spec("sextic-ii", M=2, sector="even", a=1, b=1, c=1, d=1)
        np.testing.assert_allclose(compensation_alpha(spec, 1.0), 18.0)

    def test_trig_coefficient(self):
        spec = model_spec("trig-q", M=3, a=0.5, b=0.5, c=0.5, d=0.5, e=0.5, q=0.5)
        expected = -2.0 * 0.5**5 / 0.5 * (1 - 0.5**3)
        np.testing.assert_allclose(compensation_coefficient(spec), expected, rtol=1e-14)


class TestSectorDimension:
    def test_crossed(self):
        assert sector_dimension(model_spec("mp-crossed", M=4, a1=1, a2=1, beta=0.0)) == 5

    def test_sextic_even(self):
        assert sector_dimension(model_spec("sextic-i", M=6, sector="even", a=1, b=1, c=1)) == 4

    def test_sextic_odd(self):
        assert sector_dimension(model_spec("sextic-i", M=7, sector="odd", a=1, b=1, c=1)) == 4

    def test_even_odd_split_consistency(self):
        # even(M) + odd(M-1) together span a full degree-M polynomial space
        for M in range(2, 12, 2):
            even = sector_dimension(model_spec("sextic-i", M=M, sector="even", a=1, b=1, c=1))
            odd = sector_dimension(model_spec("sextic-i", M=M - 1, sector="odd", a=1, b=1, c=1))
            assert even + odd == M + 1


class TestSymmetricCoefficients:
    """The symmetric-coefficient expansion behind the paper's type-II
    eigenvalue formulas (``reference_algebra.paper_eigenvalue``)."""

    def test_unit_parameters(self):
        spec = model_spec("sextic-ii", M=2, sector="even", a=1, b=1, c=1, d=1)
        np.testing.assert_allclose(symmetric_coefficients(spec).deltas, [1, 4, 6, 4, 1])

    def test_one_two_three_four(self):
        spec = model_spec("sextic-ii", M=2, sector="even", a=1, b=2, c=3, d=4)
        deltas = symmetric_coefficients(spec).deltas
        np.testing.assert_allclose(deltas[3], 10.0)
        np.testing.assert_allclose(deltas[0], 24.0)
        np.testing.assert_allclose(deltas[4], 1.0)

    def test_all_zero_centrifugal(self):
        spec = model_spec(
            "centrifugal-ii", M=1, a=0, b=0, c=0, d=0, e=0, f=0, validate=False
        )
        np.testing.assert_allclose(symmetric_coefficients(spec).deltas, [0] * 6 + [1])

    def test_reexpansion_matches_numerator(self, rng):
        spec = model_spec("centrifugal-ii", M=2, **draw_params("centrifugal-ii", rng))
        deltas = symmetric_coefficients(spec).deltas
        for _ in range(20):
            x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            series = sum(d * (1j * x) ** j for j, d in enumerate(deltas))
            product = np.prod([spec.param(n) + 1j * x for n in "abcdef"])
            assert abs(series - product) <= 1e-12 * abs(product)

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamily):
            symmetric_coefficients(model_spec("sextic-i", M=2, sector="even", a=1, b=1, c=1))


class TestJson:
    def test_round_trip(self):
        doc = {
            "family": "mp-crossed",
            "params": {"a1": [1.0, 0.5], "a2": [1.0, -0.5], "beta": 0.3},
            "M": 4,
            "sector": "full",
        }
        spec = spec_from_json(json.dumps(doc))
        assert spec.family is ModelFamily.MP_CROSSED
        assert spec.param("a1") == 1.0 + 0.5j
        assert spec_to_json_dict(spec) == doc

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError):
            spec_from_json({"family": "trig-q", "params": {}, "M": 1, "bogus": 2})

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            spec_from_json(
                {"family": "sextic-i", "params": {"a": 1, "b": 1, "c": 1, "zz": 0}, "M": 2}
            )

    def test_non_finite_literals_rejected(self):
        for literal in ("NaN", "Infinity", "-Infinity", "[1.0, NaN]"):
            text = '{"family": "mp-crossed", "params": {"a1": %s, "a2": 1, "beta": 0.2}, "M": 2}'
            with pytest.raises(ValueError, match="a1 must be finite"):
                spec_from_json(text % literal)

    def test_integer_beyond_double_range_rejected(self):
        huge = 10**400
        for value in (huge, [1.0, -huge]):
            doc = {"family": "sextic-i", "params": {"a": value, "b": 1, "c": 1}, "M": 2}
            with pytest.raises(ValueError, match="parameter 'a' is beyond the double range"):
                spec_from_json(json.dumps(doc))

    def test_non_integer_m(self):
        with pytest.raises(ValueError):
            spec_from_json({"family": "sextic-i", "params": {"a": 1, "b": 1, "c": 1}, "M": 2.5})


class TestDropFactors:
    def test_drop_removes_factor_and_compensation(self):
        base = model_spec("centrifugal-i", M=3, b=0.8, c=1.3, d=2.0, e=0.6, f=1.0)
        restricted = drop_factors(base, ("f",))
        assert restricted.dropped == ("f",)
        assert not restricted.compensated
        assert compensation_coefficient(restricted) == 0
        x = 0.8
        ratio = potential_v(base, x) / potential_v(restricted, x)
        np.testing.assert_allclose(ratio, base.param("f") + 1j * x, rtol=1e-13)

    def test_cannot_drop_shape_parameters(self):
        base = model_spec("trig-q", M=1, a=0.1, b=0, c=0, d=0, e=0, q=0.5)
        with pytest.raises(ValueError):
            drop_factors(base, ("q",))
