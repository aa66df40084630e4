import math

import numpy as np
import pytest

from qesbethe import bethe
from qesbethe.bethe import bae_residual, solve
from qesbethe.errors import MissingLimitParameter, UnsupportedFamily
from qesbethe.hamiltonian import build_matrix
from qesbethe.limits import (
    LIMITS,
    LimitTag,
    closed_form_E,
    convergence_ratio,
    limit_case,
    reduced_bae_check,
    restricted_spec,
    verify_limit,
)
from qesbethe.models import model_spec
from qesbethe.spectral import extract_roots, oracle_spectrum


class TestClosedForms:
    def test_continuous_hahn_arithmetic(self):
        case = limit_case(LimitTag.CH_FROM_MP, 3, a1=1.0, a2=1.0)
        np.testing.assert_allclose(closed_form_E(case, 2), 10.0)

    def test_askey_wilson_value(self):
        case = limit_case(LimitTag.AW, 2, a=0.3, b=0.3, c=0.3, d=0.3, q=0.5)
        # (q^-1 - 1)(1 - abcd q^0) with abcd = 0.0081
        np.testing.assert_allclose(closed_form_E(case, 1), 0.9919, rtol=1e-12)

    def test_universal_q_value(self):
        case = limit_case(LimitTag.Q_UNIVERSAL, 3, q=0.5)
        np.testing.assert_allclose(closed_form_E(case, 3), 7.0)

    def test_meixner_pollaczek(self):
        case = limit_case(LimitTag.MP_FROM_MP, 2, a1=1.0, beta=0.3)
        np.testing.assert_allclose(closed_form_E(case, 2), 4 * math.cos(0.3))

    def test_degree_bound(self):
        case = limit_case(LimitTag.CDH, 2, b=1.0, c=1.0, d=1.0)
        with pytest.raises(ValueError):
            closed_form_E(case, 3)


class TestAskeyWilsonExponent:
    def test_second_factor_uses_q_to_m_minus_one(self):
        """The e = 0 spectrum pins the q-power in the Askey-Wilson
        eigenvalue's second factor.

        An m+1 exponent for that factor circulates in print; the computed
        spectrum (and the general eigenvalue-from-roots expression it must
        degenerate from) match the m-1 form to machine precision and miss
        the m+1 variant by O(abcd q (1 - q^2)), far outside tolerance.
        """
        q, a, b, c, d = 0.5, 0.3, 0.3, 0.3, 0.3
        spec = model_spec("trig-q", M=2, a=a, b=b, c=c, d=d, e=0.0, q=q)
        eigs = sorted(s.E_oracle.real for s in solve(spec))
        abcd = a * b * c * d
        for m, lam in enumerate(eigs):
            good = (q**-m - 1) * (1 - abcd * q ** (m - 1))
            printed_variant = (q**-m - 1) * (1 - abcd * q ** (m + 1))
            assert abs(lam - good) <= 1e-9 * max(1.0, abs(good))
            if m >= 1:
                assert abs(lam - printed_variant) > 1e-4


class TestVerifyLimit:
    def test_continuous_hahn_exact(self):
        case = limit_case(LimitTag.CH_FROM_MP, 3, a1=1.0, a2=1.0)
        report = verify_limit(case)
        assert report.passed and report.large is None
        np.testing.assert_allclose(
            [r["expected"].real for r in report.rows], [0, 4, 10, 18]
        )
        assert report.max_gap <= 1e-9

    def test_continuous_hahn_complex_pair(self):
        case = limit_case(LimitTag.CH_FROM_MP, 5, a1=1.2 + 0.7j, a2=0.9 - 0.4j)
        report = verify_limit(case)
        assert report.passed and report.max_gap <= 1e-9

    def test_askey_wilson_exact(self):
        case = limit_case(LimitTag.AW, 2, a=0.3, b=0.3, c=0.3, d=0.3, q=0.5)
        report = verify_limit(case)
        assert report.passed and report.max_gap <= 1e-9

    def test_q_restrictions_universal(self):
        for params in (
            dict(a=0.4, b=-0.3, c=0.2),
            dict(a=0.4, b=-0.3),
            dict(a=0.4),
            dict(),
        ):
            case = limit_case(LimitTag.Q_UNIVERSAL, 5, q=0.45, **params)
            report = verify_limit(case)
            assert report.passed and report.max_gap <= 1e-9

    def test_meixner_pollaczek_asymptotic(self):
        case = limit_case(LimitTag.MP_FROM_MP, 2, a1=1.0, beta=0.3)
        report = verify_limit(case, 1e6)
        assert report.passed
        assert report.max_gap <= 1e-4

    def test_asymptotic_first_order_ratio(self):
        case = limit_case(LimitTag.WILSON, 3, b=0.8, c=1.3, d=2.0, e=0.6)
        assert convergence_ratio(case) >= 8.0


class TestReducedBae:
    def test_meixner_pollaczek_zeros(self):
        case = limit_case(LimitTag.MP_FROM_MP, 3, a1=1.1, beta=0.4)
        report = reduced_bae_check(case)
        assert report["passed"] and report["residual_max"] <= 1e-9

    def test_wilson_zeros(self):
        case = limit_case(LimitTag.WILSON, 2, b=0.8, c=1.3, d=2.0, e=0.6)
        report = reduced_bae_check(case)
        assert report["passed"] and report["residual_max"] <= 1e-9

    def test_continuous_dual_hahn_zeros(self):
        case = limit_case(LimitTag.CDH, 3, b=0.8, c=1.3, d=2.0)
        report = reduced_bae_check(case)
        assert report["passed"] and report["residual_max"] <= 1e-9

    def test_askey_wilson_single_root_hand_value(self):
        # at M = 1 the reduced equation solves in closed form:
        # eta_1 = (e1 - e3) / (2 (1 - e4)) over the four parameters
        a, b, c, d, q = 0.3, 0.25, -0.4, 0.5, 0.6
        case = limit_case(LimitTag.AW, 1, a=a, b=b, c=c, d=d, q=q)
        report = reduced_bae_check(case)
        assert report["residual_max"] <= 1e-10
        spec = restricted_spec(case)
        pairs = oracle_spectrum(build_matrix(spec))
        top = pairs[-1]
        (roots,) = extract_roots([top], spec)
        assert len(roots) == 1
        e1 = a + b + c + d
        e3 = a * b * c + a * b * d + a * c * d + b * c * d
        e4 = a * b * c * d
        np.testing.assert_allclose(
            roots.roots_eta[0], (e1 - e3) / (2 * (1 - e4)), rtol=1e-10
        )

    def test_no_restriction_point_for_sextic_limits(self):
        case = limit_case(LimitTag.CH_FROM_SEXTIC, 2, b=1.0, c=1.0)
        with pytest.raises(UnsupportedFamily):
            reduced_bae_check(case)

    def test_discriminating_power(self):
        # moving the deformation parameter off its restriction point by
        # 1e-2 must push the reduced residual above 1e-4
        q = 0.6
        on_spec = model_spec("trig-q", M=3, a=0.3, b=0.25, c=-0.4, d=0.5, e=0.0, q=q)
        off_spec = model_spec("trig-q", M=3, a=0.3, b=0.25, c=-0.4, d=0.5, e=1e-2, q=q)
        for spec, bound, below in ((on_spec, 1e-9, True), (off_spec, 1e-4, False)):
            pairs = oracle_spectrum(build_matrix(spec))
            full = [p for p in pairs if p.degree == 3 and not p.truncated]
            (roots,) = extract_roots(full[-1:], spec)
            assert len(roots) == 3
            # evaluate the RESTRICTED (e = 0) equations on these roots
            res = max(bae_residual(on_spec, roots, allow_degenerate=True))
            if below:
                assert res <= bound
            else:
                assert res > bound


FULL_PARAMS = {
    LimitTag.CH_FROM_MP: dict(a1=1.0, a2=1.0),
    LimitTag.MP_FROM_MP: dict(a1=1.1, beta=0.3),
    LimitTag.CH_FROM_SEXTIC: dict(b=0.8, c=1.4),
    LimitTag.MP_FROM_SEXTIC: dict(c=1.2),
    LimitTag.WILSON: dict(b=0.8, c=1.3, d=2.0, e=0.6),
    LimitTag.CDH: dict(b=0.8, c=1.3, d=2.0),
    LimitTag.AW: dict(a=0.3, b=0.3, c=0.3, d=0.3, q=0.5),
    LimitTag.Q_UNIVERSAL: dict(q=0.45),
}


@pytest.mark.parametrize(
    "tag, name", [(tag, name) for tag in LimitTag for name in LIMITS[tag].required]
)
def test_missing_parameter_is_named(tag, name):
    params = dict(FULL_PARAMS[tag])
    del params[name]
    with pytest.raises(MissingLimitParameter, match=rf"{tag.value} requires parameters \['{name}'\]"):
        limit_case(tag, 2, **params)


@pytest.mark.parametrize("tag", list(LimitTag))
def test_required_parameters_suffice(tag):
    assert set(FULL_PARAMS[tag]) == set(LIMITS[tag].required)
    case = limit_case(tag, 2, **FULL_PARAMS[tag])
    assert verify_limit(case).passed
    if LIMITS[tag].restricted:
        assert reduced_bae_check(case)["passed"]


@pytest.mark.parametrize("tag", list(LimitTag))
def test_spectrum_check_solves_no_roots(tag, monkeypatch):
    # verify_limit compares eigenvalues only, so it must never polish roots
    def no_polish(*args, **kwargs):
        raise AssertionError("verify_limit polished Bethe roots")

    monkeypatch.setattr(bethe, "newton_polish", no_polish)
    assert verify_limit(limit_case(tag, 3, **FULL_PARAMS[tag])).passed
