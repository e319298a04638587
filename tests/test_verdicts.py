import dataclasses
import math
from collections import Counter

import pytest

from hurwitzlab import (
    SuiteConfig,
    TheoremId,
    classify_equality,
    expected_equality,
    functionals_spectral,
    is_constant_width,
    minkowski_sum,
    random_body,
    rigid_motion,
    run_suite,
    verify,
)
from hurwitzlab import verdicts
from hurwitzlab.errors import NotValidated
from hurwitzlab.verdicts import THEOREMS, Verdict
from hurwitzlab.visual_angle import KERNELS

PI = math.pi


class TestVerifyFixtures:
    def test_ast_hurwitz_equality(self, ast_body):
        # pi|Fe| = Delta = 0.24 pi^2 for the astroid parallel
        v = verify(ast_body, TheoremId.HURWITZ)
        assert v.lhs == pytest.approx(0.24 * PI**2, rel=1e-13)
        assert v.rhs == pytest.approx(0.24 * PI**2, rel=1e-13)
        assert v.equality and v.applicable

    def test_delt_cw_hurwitz_equality(self, delt_body):
        # (4/9) * 0.36 pi^2 = 0.16 pi^2 on both sides
        v = verify(delt_body, TheoremId.HURWITZ_CW)
        assert v.lhs == pytest.approx(0.16 * PI**2, rel=1e-13)
        assert v.rhs == pytest.approx(0.16 * PI**2, rel=1e-13)
        assert v.equality

    def test_mix_visual_bound_strict(self, mix_body):
        # lhs = (pi^2/2)(24*21*0.0004) = 0.1008 pi^2,
        # rhs = (5 pi^2/2)(24*0.0004) = 0.024 pi^2
        v = verify(mix_body, TheoremId.VISUAL)
        assert v.lhs == pytest.approx(0.1008 * PI**2, rel=1e-12)
        assert v.rhs == pytest.approx(0.024 * PI**2, rel=1e-12)
        assert not v.equality and v.residual > 0

    def test_cw35_visual_cw_equality(self, cw35_body):
        # only c3, c5 nonzero: both sides (2 pi^2/9)(384*0.0001)
        v = verify(cw35_body, TheoremId.VISUAL_CW)
        expected = (2 * PI**2 / 9) * 384 * 0.0001
        assert v.lhs == pytest.approx(expected, rel=1e-12)
        assert v.rhs == pytest.approx(expected, rel=1e-12)
        assert v.equality

    def test_cw35_wigner_iso_equality(self, cw35_body):
        v = verify(cw35_body, TheoremId.WIGNER_ISO)
        assert v.lhs == pytest.approx(0.0448 * PI**2, rel=1e-12)
        assert v.rhs == pytest.approx(0.0448 * PI**2, rel=1e-12)
        assert v.equality

    def test_delt_pedal_cw_equality(self, delt_body):
        # lhs = 0.2 pi^2, rhs = (40/9) pi (0.045 pi)
        v = verify(delt_body, TheoremId.PEDAL_CW)
        assert v.lhs == pytest.approx(0.2 * PI**2, rel=1e-13)
        assert v.rhs == pytest.approx(0.2 * PI**2, rel=1e-13)
        assert v.equality

    def test_delt_steiner_disk_cw_both_equalities(self, delt_body):
        # pi|Fe| - Delta = 20 pi d2^2 and |Fe| = 36 d2^2 = 0.36 pi
        v = verify(delt_body, TheoremId.STEINER_DISK_CW)
        assert v.equality
        assert "lhs=1.13097" in v.notes and "rhs=1.13097" in v.notes

    def test_delt_pedal_evolute_cw(self, delt_body):
        # |Fe|/8 = 0.045 pi = A - F
        v = verify(delt_body, TheoremId.PEDAL_EVOLUTE_CW)
        assert v.lhs == pytest.approx(0.045 * PI, rel=1e-13)
        assert v.rhs == pytest.approx(0.045 * PI, rel=1e-13)
        assert v.equality and "external" in v.notes

    def test_delt_pedal_deficit_cw(self, delt_body):
        # (32/9) pi (A - F) = 0.16 pi^2 = Delta at the Steiner parallel
        v = verify(delt_body, TheoremId.PEDAL_DEFICIT_CW)
        assert v.lhs == pytest.approx(0.16 * PI**2, rel=1e-13)
        assert v.rhs == pytest.approx(0.16 * PI**2, rel=1e-13)

    def test_cw_only_inapplicable_on_general_bodies(self, mix_body):
        for tid in (TheoremId.HURWITZ_CW, TheoremId.VISUAL_CW, TheoremId.PEDAL_CW,
                    TheoremId.STEINER_DISK_CW, TheoremId.PEDAL_EVOLUTE_CW,
                    TheoremId.PEDAL_DEFICIT_CW):
            v = verify(mix_body, tid)
            assert not v.applicable
            assert v.lhs != v.lhs  # NaN

    def test_wigner_pedal_discrepancy_note(self, delt_body):
        v = verify(delt_body, TheoremId.WIGNER_PEDAL)
        # residual (pi/2) * c3^2 = 0.005 pi stays positive at constant width
        assert v.residual == pytest.approx(0.005 * PI, rel=1e-12)
        assert not v.equality
        assert "discrepancy" in v.notes

    def test_requires_validation(self):
        from hurwitzlab import TrigSupport

        with pytest.raises(NotValidated):
            verify(TrigSupport(1.0), TheoremId.HURWITZ)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_tol_checked_like_suite_config(self, ast_body, tol):
        # the Hurwitz residual is exactly 0 here: a NaN tol read "strict", an
        # infinite one "equality" on every bound
        with pytest.raises(ValueError, match="tol"):
            verify(ast_body, TheoremId.HURWITZ, tol=tol)


class TestGeometricPath:
    def test_delt_visual_bound(self, delt_body):
        v = verify(delt_body, TheoremId.VISUAL, path="geometric")
        assert v.path == "geometric"
        assert v.lhs == pytest.approx(0.2 * PI**2, rel=1e-10)
        assert v.rhs == pytest.approx(0.2 * PI**2, rel=1e-5)
        assert v.equality  # within 3 error bars

    def test_cw35_visual_cw(self, cw35_body):
        v = verify(cw35_body, TheoremId.VISUAL_CW, path="geometric")
        expected = (2 * PI**2 / 9) * 384 * 0.0001
        assert v.rhs == pytest.approx(expected, rel=1e-4)
        assert v.equality

    def test_geometric_matches_spectral_residuals(self, mix_body):
        for tid in (TheoremId.HURWITZ, TheoremId.VISUAL, TheoremId.PEDAL,
                    TheoremId.STEINER_DISK, TheoremId.WIGNER_ISO):
            vs = verify(mix_body, tid)
            vg = verify(mix_body, tid, path="geometric")
            scale = max(abs(vs.lhs), abs(vs.rhs), 1.0)
            assert abs(vs.residual - vg.residual) <= 3 * vg.error_bar + 1e-9 * scale


class TestClassification:
    def test_fixture_classes(self, circle_body, ast_body, delt_body, cw35_body, mix_body):
        assert classify_equality(circle_body).kind == "disk"
        assert classify_equality(ast_body).kind == "astroid_parallel"
        assert classify_equality(delt_body).kind == "steiner_parallel"
        cw = classify_equality(cw35_body)
        assert cw.kind == "minkowski_sum"
        assert cw.components == ("steiner_parallel", "hypocycloid5_parallel")
        mixsum = classify_equality(minkowski_sum(ast_body, delt_body))
        assert mixsum.kind == "minkowski_sum"
        assert mixsum.components == ("astroid_parallel", "steiner_parallel")
        assert classify_equality(mix_body).kind == "none"
        assert classify_equality(mix_body).support == (2, 5)

    def test_hypocycloid5_alone(self):
        from hurwitzlab import hypocycloid_parallel

        body = hypocycloid_parallel(5, 1.0, 0.02)
        assert classify_equality(body).kind == "hypocycloid5_parallel"

    def test_translation_does_not_change_class(self, ast_body):
        moved = rigid_motion(ast_body, 0.0, (3.0, -1.0))
        assert classify_equality(moved).kind == "astroid_parallel"


class TestRunSuite:
    def test_circle_all_zero_residuals(self, circle_body):
        report = run_suite(circle_body)
        assert report.passed
        assert report.equality_class.kind == "disk"
        for v in report.verdicts:
            if v.applicable:
                assert abs(v.residual) < 1e-12
                assert v.equality

    def test_mix_all_strict(self, mix_body):
        report = run_suite(mix_body)
        assert report.passed
        assert report.equality_class.kind == "none"
        for v in report.verdicts:
            if v.applicable:
                assert v.residual > 0
                assert not v.equality

    def test_cw35_pattern(self, cw35_body):
        report = run_suite(cw35_body)
        assert report.passed
        by_id = {v.id: v for v in report.verdicts}
        assert not by_id[TheoremId.HURWITZ_CW].equality  # c5 != 0
        assert by_id[TheoremId.VISUAL_CW].equality
        assert report.equality_class.kind == "minkowski_sum"

    def test_equality_flags_match_class_prediction(self, sweep_bodies):
        for body in sweep_bodies[:40]:
            report = run_suite(body)
            cw, _ = is_constant_width(body)
            support = report.equality_class.support
            for v in report.verdicts:
                if not v.applicable or v.id == TheoremId.WIGNER_PEDAL:
                    continue
                assert v.equality == expected_equality(v.id, support, cw), (
                    v.id, support, cw, v.residual)

    def test_both_paths(self, delt_body):
        report = run_suite(delt_body, SuiteConfig(path="both"))
        paths = {(v.id, v.path) for v in report.verdicts}
        assert (TheoremId.HURWITZ, "spectral") in paths
        assert (TheoremId.HURWITZ, "geometric") in paths
        assert report.passed

    def test_report_serialization(self, cw35_body):
        d = run_suite(cw35_body).to_dict()
        assert d["pass"] is True
        assert d["equality_class"]["kind"] == "minkowski_sum"
        ids = [v["id"] for v in d["verdicts"]]
        assert ids == [t.value for t in TheoremId]
        hw = next(v for v in d["verdicts"] if v["id"] == "hurwitz")
        assert set(hw) == {"id", "applicable", "lhs", "rhs", "residual",
                           "equality", "path", "error_bar", "notes"}


class TestInvariants:
    def test_monotone_chain_termwise(self, sweep_bodies):
        # (n^2-1)(n^2-4) >= 5(n^2-1) >= 0 for n >= 3, with equality at n=3
        for body in sweep_bodies[:60]:
            fs = functionals_spectral(body)
            tail = sum(
                (n * n - 1) * v for n, v in fs.cn_sq if n >= 3
            )
            assert fs.hurwitz_deficit >= 2.5 * PI**2 * tail - 1e-12
            assert tail >= 0.0

    def test_hurwitz_residual_nonnegative(self, sweep_bodies):
        for body in sweep_bodies[:60]:
            v = verify(body, TheoremId.HURWITZ)
            assert v.residual >= -1e-12 * max(1.0, v.lhs)

    def test_cw_residuals(self, sweep_bodies):
        for body in sweep_bodies[:60]:
            if not is_constant_width(body)[0]:
                continue
            v = verify(body, TheoremId.HURWITZ_CW)
            h = verify(body, TheoremId.HURWITZ)
            assert v.residual >= -1e-12 * max(1.0, v.lhs)
            assert v.lhs <= h.lhs + 1e-12

    def test_rigid_motion_invariance(self, cw35_body, mix_body):
        for body in (cw35_body, mix_body):
            moved = rigid_motion(body, 0.83, (1.5, -2.2))
            for tid in TheoremId:
                v0 = verify(body, tid)
                v1 = verify(moved, tid)
                assert v0.applicable == v1.applicable
                if v0.applicable:
                    scale = max(abs(v0.lhs), abs(v0.rhs), 1e-6)
                    assert abs(v0.residual - v1.residual) <= 1e-10 * scale


class TestTheoremTable:
    def test_one_entry_per_theorem(self):
        assert list(THEOREMS) == list(TheoremId)

    def test_integrals_have_kernel(self):
        for tid, t in THEOREMS.items():
            assert t.integral is None or t.integral in KERNELS, tid
            assert (t.weight > 0.0) == (t.integral is not None), tid

    def test_weights_derived_from_rhs(self):
        # |d rhs / d integral|, bit for bit the slopes 5, (40/9)(8/9), 20(4/9), 64/9
        weights = {tid: t.weight for tid, t in THEOREMS.items() if t.integral is not None}
        assert weights == {
            TheoremId.VISUAL: 5.0,
            TheoremId.PEDAL: 3.950617283950617,
            TheoremId.STEINER_DISK: 8.88888888888889,
            TheoremId.VISUAL_CW: 7.111111111111111,
        }

    def test_suite_order_is_theorem_order(self, mix_body):
        spectral = run_suite(mix_body)
        assert [v.id for v in spectral.verdicts] == list(TheoremId)
        both = run_suite(mix_body, SuiteConfig(path="both"))
        assert [v.id for v in both.verdicts] == [tid for tid in TheoremId for _ in range(2)]


EVALUATOR_BODIES = ("circle", "ast", "delt", "cw35", "mix", "hd17", "cw_random")


@pytest.fixture(scope="module")
def cw_random_body():
    body = random_body(5, 9, constant_width=True, index=1)
    assert is_constant_width(body)[0]
    return body


class TestEvaluator:
    @pytest.mark.parametrize("name", EVALUATOR_BODIES)
    def test_verify_is_the_suite_verdict(self, request, name):
        # field for field and bit for bit; NaN equals NaN, -0.0 differs from 0.0
        body = request.getfixturevalue(f"{name}_body")
        suite = {(v.id, v.path): v for v in run_suite(body, SuiteConfig(path="both")).verdicts}
        assert len(suite) == 2 * len(TheoremId)
        for (tid, path), expected in suite.items():
            got = verify(body, tid, path)
            for f in dataclasses.fields(Verdict):
                a, b = getattr(got, f.name), getattr(expected, f.name)
                if isinstance(a, float):
                    assert a.hex() == b.hex(), (tid, path, f.name)
                else:
                    assert a == b, (tid, path, f.name)

    @pytest.mark.parametrize("name, kernels", [("mix", 2), ("cw35", 3)])
    def test_one_pass_per_path(self, request, monkeypatch, name, kernels):
        calls = Counter()

        def spy(fn):
            def wrapped(*args, **kwargs):
                calls[(fn.__name__, args[1].name) if fn.__name__.endswith("integral") else fn.__name__] += 1
                return fn(*args, **kwargs)

            return wrapped

        for fn in ("functionals_spectral", "functionals_quadrature", "exterior_integral", "spectral_integral"):
            monkeypatch.setattr(verdicts, fn, spy(getattr(verdicts, fn)))
        run_suite(request.getfixturevalue(f"{name}_body"), SuiteConfig(path="both"))
        assert calls["functionals_spectral"] == calls["functionals_quadrature"] == 1
        for fn in ("exterior_integral", "spectral_integral"):
            assert sorted(calls[fn, k] for k in KERNELS if (fn, k) in calls) == [1] * kernels, fn
