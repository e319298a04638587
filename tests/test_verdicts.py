import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzlab import (
    FunctionalSet,
    Harmonic,
    SuiteConfig,
    TheoremId,
    TrigSupport,
    body_to_dict,
    classify_equality,
    expected_equality,
    exterior_integral,
    functionals_quadrature,
    functionals_spectral,
    is_constant_width,
    minkowski_sum,
    random_body,
    rigid_motion,
    run_suite,
    spectral_integral,
    validate_convex,
    verify,
)
from hurwitzlab import verdicts, visual_angle
from hurwitzlab.bodies import _dense
from hurwitzlab.cli import main
from hurwitzlab.errors import NotValidated
from hurwitzlab.quadrature import rounded_sum
from hurwitzlab.verdicts import THEOREMS, Verdict, _spectral_sums, run_suites
from hurwitzlab.visual_angle import KERNELS, Kernel, moment_kernel

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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_rejects_a_tol_verify_rejects(self, tol):
        # a NaN or infinite threshold would drop every harmonic and name the body a disk
        body = random_body(3, 8, index=1)
        assert classify_equality(body).support == (2, 3, 4, 5, 6, 7, 8)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            classify_equality(body, tol)


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

    def test_verdict_dict_is_the_asdict_form(self, mix_body):
        # mix is not of constant width, so the both-path suite holds NaN rows
        verdicts = run_suite(mix_body, SuiteConfig(path="both")).verdicts
        assert any(not v.applicable and math.isnan(v.lhs) for v in verdicts)
        for v in verdicts:
            want = {**dataclasses.asdict(v), "id": v.id.value}
            got = v.to_dict()
            assert list(got) == list(want)
            assert repr(got) == repr(want)


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


def _verify_flags(body, tmp_path, name):
    """(exit code, [(id, path, applicable, equality)]) of `verify --path both`."""
    body_file, out = tmp_path / f"{name}.body.json", tmp_path / f"{name}.verify.json"
    body_file.write_text(json.dumps(body_to_dict(body)))
    code = main(["verify", "--path", "both", "--body", str(body_file), "--out", str(out)])
    rows = json.loads(out.read_text())["verdicts"]
    return code, [(v["id"], v["path"], v["applicable"], v["equality"]) for v in rows]


class TestTranslation:
    """The geometric path works in the Steiner frame: moving a body by v
    changes none of its numbers beyond round-off of the unmoved body, where
    sampling the moved support would lose u*|v|^2."""

    @pytest.mark.parametrize("v", [1e3, 1e4, 1e6])
    @pytest.mark.parametrize("name", ["circle", "ast", "delt", "cw35", "mix", "hd17"])
    def test_moved_body_keeps_its_numbers(self, request, tmp_path, name, v):
        body = request.getfixturevalue(f"{name}_body")
        moved = rigid_motion(body, 0.0, (0.6 * v, -0.8 * v))
        fs, fq = functionals_spectral(moved), functionals_quadrature(moved)
        scale = max(fs.L * fs.L, PI * abs(fs.Fe))
        for key in FunctionalSet.FIELD_NAMES:
            assert abs(getattr(fq, key) - getattr(fs, key)) <= 1e-14 * scale, key
        for kernel in KERNELS.values():
            tangent = exterior_integral(moved, kernel())
            assert abs(tangent.value - spectral_integral(moved, kernel()).value) <= tangent.error_bar
        assert _verify_flags(moved, tmp_path, "moved") == _verify_flags(body, tmp_path, "body")


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

    @pytest.mark.parametrize("theorem, fields", [(TheoremId.HURWITZ, 0), (TheoremId.VISUAL, 1)])
    def test_verify_builds_only_the_field_it_reads(self, mix_body, monkeypatch, theorem, fields):
        # verify's pass covers its one theorem: hurwitz names no exterior
        # integral and builds no tangent field, visual_angle_bound one, where a
        # pass over every theorem built the field and 2-3 integrals for each
        built, field = [], visual_angle._tangent_field
        monkeypatch.setattr(visual_angle, "_tangent_field", lambda body: built.append(body) or field.__wrapped__(body))
        verify(mix_body, theorem, path="geometric")
        assert len(built) == fields

    @pytest.mark.parametrize("name", ["mix", "cw35"])
    def test_suite_builds_no_kernel(self, request, monkeypatch, name):
        body = request.getfixturevalue(f"{name}_body")
        for make in KERNELS.values():
            make()  # the shared kernels exist before the spy is set
        built, init = [], Kernel.__post_init__
        monkeypatch.setattr(Kernel, "__post_init__", lambda self: built.append(self.name) or init(self))
        run_suite(body, SuiteConfig(path="both"))
        assert built == []
        Kernel("crofton", 1.0, ((1, -1.0),))  # the spy sees a construction
        assert built == ["crofton"]

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


ROW_FIELDS = ("lhs", "rhs", "residual", "error_bar", "equality", "applicable")


def assert_rows_are_suites(bodies, tol, geometric=()):
    """run_suites on the chunk gives, column for column and bit for bit, the
    verdicts and the pass of run_suite on each body alone."""
    rows = run_suites(bodies, tol, geometric)
    assert rows.lhs.shape == (len(TheoremId), len(bodies) + len(geometric))
    column = 0
    for j, body in enumerate(bodies):
        report = run_suite(body, SuiteConfig(path="both" if j in geometric else "spectral", tol=tol))
        for path in ("spectral", "geometric") if j in geometric else ("spectral",):
            for t, v in enumerate(v for v in report.verdicts if v.path == path):
                for name in ROW_FIELDS:
                    got, want = getattr(rows, name)[t, column].item(), getattr(v, name)
                    assert (got.hex() == want.hex()) if isinstance(want, float) else got is want, (j, path, v.id, name)
            column += 1
        assert rows.passed[j].item() is report.passed, j


class TestChunk:
    @given(
        draws=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 12), st.booleans()), max_size=10),
        order=st.randoms(use_true_random=False),
        tol=st.sampled_from([0.0, 1e-9, 1e-6]),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunk_rows_equal_run_suite(self, circle_body, ast_body, delt_body, cw35_body, mix_body, hd17_body,
                                        draws, order, tol):
        # mixed degree and constant width, and the six fixtures, whose equality
        # cases give zero residuals
        bodies = [random_body(seed, degree, cw, index=i) for i, (seed, degree, cw) in enumerate(draws)]
        bodies += [circle_body, ast_body, delt_body, cw35_body, mix_body, hd17_body]
        order.shuffle(bodies)
        assert_rows_are_suites(bodies, tol)

    @pytest.mark.parametrize("kind", ["general", "constant_width", "one"])
    def test_unmixed_chunks(self, sweep_bodies, kind):
        # a chunk without constant-width bodies skips their rows, one of only
        # such bodies masks none, and a chunk of one is run_suite's case
        bodies = {
            "general": sweep_bodies[0:20:2], "constant_width": sweep_bodies[1:20:2], "one": sweep_bodies[3:4],
        }[kind]
        assert_rows_are_suites(bodies, 1e-9)

    def test_geometric_columns_follow_their_body(self, mix_body, delt_body, cw_random_body, hd17_body):
        assert_rows_are_suites([mix_body, delt_body, cw_random_body, hd17_body], 1e-9, geometric=(0, 2, 3))

    def test_chunk_checks_tol_and_validation(self, mix_body):
        with pytest.raises(ValueError):
            run_suites([mix_body], -1.0)
        with pytest.raises(NotValidated):
            run_suites([mix_body, TrigSupport(1.0)])


def _edge_bodies():
    """Bodies whose top frequency is 2^k - 1, 2^k or 2^k + 1 (k = 2..11), and
    one- and two-harmonic bodies at low frequencies and at n >= 1023, past
    every kernel's largest sin frequency, where E(n) is clipped."""
    bodies = [random_body(11, (1 << k) + d, index=k) for k in range(2, 12) for d in (-1, 0, 1)]
    for n in (2, 3, 4, 5, 1023, 1024, 1025):
        c = 0.25 / (n * n)
        bodies.append(validate_convex(TrigSupport(1.0, [Harmonic(n, c, -0.5 * c)])))
        bodies.append(validate_convex(TrigSupport(1.0, [Harmonic(n - 1, 0.0, c), Harmonic(n, c, 0.0)])))
    return bodies


EDGE_BODIES = _edge_bodies()


@pytest.mark.parametrize("body", EDGE_BODIES, ids=lambda b: f"top{b.max_degree}n{b.n.size}")
def test_one_body_sums_equal_their_dense_row(body):
    # bit for bit, one body's functionals and closed-form integrals equal the
    # chunk's weight table on its dense c_n^2 row, and every kernel's dense
    # weights give its sparse sum, at every degree near a power of two
    a0, a, b = _dense([body])
    c_sq = a * a + b * b
    assert c_sq.shape[1] == body.max_degree + 1
    one, (rows, values) = functionals_spectral(body), _spectral_sums(a0, a, b)
    for name in FunctionalSet.FIELD_NAMES:
        assert getattr(one, name).hex() == getattr(rows, name)[0].item().hex(), name
    assert sorted(values) == sorted({t.integral for t in THEOREMS.values()} - {None})
    for name, value in values.items():
        assert spectral_integral(body, KERNELS[name]()).value.hex() == value[0].item().hex(), name
    n = np.arange(c_sq.shape[1])
    for kernel in [make() for make in KERNELS.values()] + [moment_kernel(m) for m in range(2, 11)]:
        w0, w = kernel.spectral_weights(n)
        dense = PI * PI * rounded_sum(np.concatenate(([w0 * a0[0] * a0[0]], w * c_sq[0])))
        assert spectral_integral(body, kernel).value.hex() == dense.hex(), kernel.name


def test_sweep_lists_the_bodies_a_patched_bound_fails(monkeypatch, capsys):
    # Hurwitz's bound raised by 2% fails the bodies whose n = 2 harmonic all
    # but sets Fe and Delta (pi |Fe| < 1.02 Delta), some in the second chunk
    hurwitz = THEOREMS[TheoremId.HURWITZ]
    monkeypatch.setitem(THEOREMS, TheoremId.HURWITZ, dataclasses.replace(hurwitz, rhs=lambda fs, _: 1.02 * fs.Delta))
    code = main(["sweep", "--count", "300", "--seed", "1"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 1 and summary["pass"] is False
    bodies = [random_body(1, 2 + i % 7, constant_width=i % 2 == 1, index=i) for i in range(300)]
    expected = [{"index": i, "body": body_to_dict(body)} for i, body in enumerate(bodies) if not run_suite(body).passed]
    assert summary["violations"] == expected
    assert [v["index"] for v in expected] == [
        0, 14, 16, 22, 28, 36, 42, 56, 70, 84, 98, 106, 112, 126, 140, 154, 162, 168, 182, 196, 210, 224, 238,
        252, 266, 280, 294,
    ]


def test_sweep_chunks_equal_run_suites_of_random_bodies(monkeypatch, capsys):
    # sweep evaluates each chunk's arrays without building its bodies; its rows
    # are run_suites(random_bodies(...)) bit for bit: a chunk of 256 and a
    # one-body tail (count 257), the --path both picks (every 32nd body, the
    # tail's among them), and draws the certificate leaves uncertified, whose
    # amplitudes are then halved (a stricter convexity test rejects them while
    # a coefficient exceeds 1e-3)
    from hurwitzlab import bodies, cli

    validate, stage_one, chunk_rows = bodies.validate_convex, bodies._stage_one, cli.chunk_rows
    halved, chunks = [], []

    def strict(body, *args, **kwargs):
        if np.any(np.maximum(np.abs(body.a), np.abs(body.b)) > 1e-3):
            halved.append(body)
            raise bodies.NotStrictlyConvex(0.0, 0.0)
        return validate(body, *args, **kwargs)

    def uncertified(a0, n, a, b):
        finite, slack, magnitude = stage_one(a0, n, a, b)
        forced = np.isin(np.arange(slack.size) % 64, (0, 5))
        return finite, np.where(forced, -math.inf, slack), magnitude

    def spy(a0, a, b, tol, geometric):
        chunks.append((sorted(geometric), chunk_rows(a0, a, b, tol, geometric)))
        return chunks[-1][1]

    monkeypatch.setattr(bodies, "validate_convex", strict)
    monkeypatch.setattr(bodies, "_stage_one", uncertified)
    monkeypatch.setattr(cli, "chunk_rows", spy)
    assert main(["sweep", "--count", "257", "--seed", "4", "--path", "both"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    draws = len(halved)
    assert draws >= 9 * 5  # each of the 9 uncertified draws, the tail's among them, halved at least 5 times
    assert [geometric for geometric, _ in chunks] == [list(range(0, 256, 32)), [0]]
    for start, (geometric, rows) in zip((0, 256), chunks, strict=True):
        index = range(start, min(start + 256, 257))
        chunk = bodies.random_bodies(4, index, [2 + i % 7 for i in index], [i % 2 == 1 for i in index])
        want = run_suites(chunk, 1e-9, geometric)
        for name in ROW_FIELDS + ("passed", "scale"):
            got, ref = getattr(rows, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes(), (start, name)
    assert len(halved) == 2 * draws  # random_bodies halved the same draws
