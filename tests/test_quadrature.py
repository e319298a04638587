import math
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzlab import bodies, functionals, grid_for_degree, periodic_integral, quadrature, random_body, visual_angle
from hurwitzlab.bodies import _grid_derivs, _stage_one, recenter_to_steiner
from hurwitzlab.errors import EmptyGrid
from hurwitzlab.quadrature import MAX_NODES, gauss_panels, rounded_sum

PI = math.pi
TWO_PI = 2.0 * math.pi


def test_cos_squared_exact():
    phis = np.linspace(0, TWO_PI, 8, endpoint=False)
    assert periodic_integral(np.cos(phis) ** 2) == pytest.approx(PI, rel=1e-15)


def test_constant():
    assert periodic_integral(np.ones(4)) == pytest.approx(TWO_PI, rel=1e-15)


def test_aliasing_at_degree_m():
    # cos(M phi_j) = 1 at every node: the rule sees the mean, not zero
    m = 16
    phis = np.linspace(0, TWO_PI, m, endpoint=False)
    assert periodic_integral(np.cos(m * phis)) == pytest.approx(TWO_PI, rel=1e-12)


def test_exact_below_degree_m():
    m = 32
    phis = np.linspace(0, TWO_PI, m, endpoint=False)
    for k in range(1, m):
        assert periodic_integral(np.cos(k * phis)) == pytest.approx(0.0, abs=1e-12)


def test_empty_grid():
    with pytest.raises(EmptyGrid):
        periodic_integral([])
    with pytest.raises(EmptyGrid):
        periodic_integral([1.0])


def test_grid_for_degree():
    # the smallest power of two >= max(256, 4N + 8), which is 4N + 8 itself at
    # N = 62, 126 and at the largest accepted degree (MAX_NODES - 8) / 4
    for degree, m in ((0, 256), (8, 256), (62, 256), (63, 512), (100, 512), (126, 512), (127, 1024)):
        phis = grid_for_degree(degree)
        assert phis.size == m
        assert np.array_equal(phis, np.linspace(0.0, TWO_PI, m, endpoint=False))
    assert grid_for_degree((MAX_NODES - 8) // 4).size == MAX_NODES


def test_gauss_panels_rows_match_one_row_calls():
    # a 2-D edges array is one rule per row, bit for bit the 1-D rule of that row
    edges = np.linspace(0.1, np.array([0.5, 1.0, 3.0]), 7, axis=1)
    nodes, weights = gauss_panels(edges, points=8)
    assert nodes.shape == weights.shape == (3, 48)
    for row, x, w in zip(edges, nodes, weights):
        x1, w1 = gauss_panels(row, points=8)
        assert np.array_equal(x, x1) and np.array_equal(w, w1)


def test_gauss_panels_polynomial():
    nodes, weights = gauss_panels([0.0, 0.4, 1.0], points=8)
    val = float(np.sum(weights * nodes**7))
    assert val == pytest.approx(1.0 / 8.0, rel=1e-14)


# ---------------------------------------------------------------------------
# rounded_sum: math.fsum's bits, compared as float.hex


def _fsum_rows(x):
    """math.fsum of each row, the first row's error (in row order) if one raises."""
    try:
        return [math.fsum(row).hex() for row in np.atleast_2d(x).tolist()]
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _rounded(x):
    try:
        return [v.hex() for v in np.atleast_1d(rounded_sum(x)).tolist()]
    except (OverflowError, ValueError) as exc:
        return type(exc)


@contextmanager
def _extracting(on):
    """With on, rounded_sum extracts from every array, however small."""
    rule = quadrature._EXTRACT_MIN
    quadrature._EXTRACT_MIN = -math.inf if on else rule
    try:
        yield
    finally:
        quadrature._EXTRACT_MIN = rule


_SPECIAL = [
    0.0, -0.0, 1.0, -1.0, 2.0**-53, 2.0**-106, -(2.0**-106), 5e-324, -5e-324, 2.2250738585072014e-308,
    1e300, -1e300, 1e-300, 1.5e308, -1.5e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
]
_ENTRY = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.floats(-4.0, 4.0), st.sampled_from(_SPECIAL)
)


@st.composite
def _row(draw, n):
    """n entries, some followed by a near negation x -> -x (1 + k 2^-52)
    (heavy cancellation)."""
    row = draw(st.lists(_ENTRY, min_size=n, max_size=n))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        row[i] = -row[i - 1] * (1.0 + draw(st.integers(-2, 2)) * 2.0**-52) if i else row[i]
    return row


_ROWS = st.integers(1, 40).flatmap(lambda n: st.lists(_row(n), min_size=1, max_size=4))


def _tie(rng, n):
    """a and a half-ulp of a, signed, among zeros: an exact tie but where a is a power of two."""
    row, a = np.zeros(n), rng.uniform(1.0, 2.0) * 2.0 ** int(rng.integers(-1000, 1000))
    at = rng.permutation(n)[:2]
    row[at[0]] = a
    if n > 1:
        row[at[1]] = rng.choice([-0.5, 0.5]) * math.ulp(a)
    return row


def _near_negation(rng, n):
    """Terms and their negations off by a few ulps: heavy cancellation."""
    half = rng.standard_normal((n + 1) // 2) * 2.0 ** rng.integers(-60, 60, (n + 1) // 2)
    return np.concatenate([half, -half * (1.0 + rng.integers(-2, 3, half.size) * 2.0**-52)])[rng.permutation(n)]


_COLUMN_KINDS = {
    "tie": _tie,
    "zeros": lambda rng, n: np.zeros(n),
    "negative_zeros": lambda rng, n: np.full(n, -0.0),
    "signed_zeros": lambda rng, n: rng.choice([0.0, -0.0], n),
    "subnormal": lambda rng, n: rng.integers(-(2**30), 2**30, n) * 5e-324,
    "near_overflow": lambda rng, n: rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.0, n) * 2.0 ** rng.integers(1015, 1024, n),
    "cancelling": _near_negation,
    "normal": lambda rng, n: rng.standard_normal(n) * 2.0 ** int(rng.integers(-30, 30)),
}


class TestRoundedSum:
    # small arrays forced onto the extraction path; below the rule it is math.fsum itself
    @settings(max_examples=60, deadline=None)
    @given(row=st.integers(1, 60).flatmap(_row))
    def test_one_row_is_fsum(self, row):
        with _extracting(True):
            assert _rounded(np.array(row)) == _fsum_rows(np.array(row))

    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS)
    def test_rows_are_fsum(self, rows):
        with _extracting(True):
            assert _rounded(np.array(rows)) == _fsum_rows(np.array(rows))

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 7, 16, 64]),
        kinds=st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=12),
        extra=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_column_rows_are_fsum(self, n, kinds, extra, seed):
        # more rows than terms: the column path, on rows of one kind each
        rng = np.random.default_rng(seed)
        x = np.array([_COLUMN_KINDS[kinds[i % len(kinds)]](rng, n) for i in range(n + extra)])
        with _extracting(True):
            assert _rounded(x) == _fsum_rows(x)

    @pytest.mark.parametrize(
        "row",
        [
            [1.5e308, 1.5e308, -1.5e308],  # intermediate overflow
            [1.5e308, -1.5e308, 1.5e308],  # the same terms, no overflow in this order
            [1e308, 1e308],
            [-1.7976931348623157e308, -1.7976931348623157e308, 1e308],
            [1.7976931348623157e308, 2.0**970],  # rounds past the largest float
        ],
    )
    def test_overflow_raises_where_fsum_does(self, row):
        x = np.array(row + [0.0] * 2045)
        for extract in (False, True):
            with _extracting(extract):
                assert _rounded(x) == _fsum_rows(x)
                assert _rounded(np.stack([x, np.ones(x.size)])) == _fsum_rows(np.stack([x, np.ones(x.size)]))

    _HALF = np.concatenate([[1.0, 2.0**-53], np.zeros(2046)])
    _SHIFTED = np.linspace(1.0, 2.0, 1024)

    @pytest.mark.parametrize(
        "x, levels, fallbacks",
        [
            (np.linspace(0.5, 1.5, 2048), 1, 0),  # certified at the first level
            (np.linspace(-1e-300, 1e300, 2048), 1, 0),
            (np.concatenate([_SHIFTED, -_SHIFTED * (1.0 + 2.0**-52)]), 2, 0),  # cancels: certified at the second
            (_HALF, 2, 0),  # an exact half-ulp tie: no r left at the second level, rounded to even
            (np.concatenate([[1.0, 2.0**-53, 2.0**-106], np.zeros(2045)]), 2, 1),  # a near-tie inside the bound
            # non-finite, or sigma past 2^1022: the first level runs on no row
            (np.concatenate([[math.inf], np.ones(2047)]), 1, 1),
            (np.concatenate([[math.nan], np.ones(2047)]), 1, 1),
            (np.concatenate([[1e308], np.ones(2047)]), 1, 1),
            (np.full(2048, -0.0), 2, 1),  # c = 0: math.fsum's sign of zero
            (np.concatenate([[1.0, -1.0], np.zeros(2046)]), 2, 1),
            (np.ones(16), 0, 1),  # below the small-array rule
            (np.ones((100, 23)), 1, 0),  # 2300 entries: above the rule, which counts entries only
            (np.ones((100, 24)), 1, 0),
            (np.stack([np.linspace(0.5, 1.5, 2048), _HALF]), 2, 0),  # the second level takes the tie row only
            (np.concatenate([np.zeros(2047), [-0.0]]), 2, 1),  # +0.0 and a -0.0: math.fsum's sign of zero
            (np.ones((2, 1023)), 0, 2),  # 2046 < 2048 entries: math.fsum costs less
            (np.ones((2, 1024)), 1, 0),
            (np.stack([np.linspace(0.5, 1.5, 2048), _HALF * 3.0, np.ones(2048)]).T, 2, 0),  # rows of 3, as columns
            (np.zeros(2048), 1, 0),  # +0.0 only: +0.0 at the first level
            (np.stack([np.zeros(2048), np.full(2048, -0.0), np.ones(2048)]), 2, 1),  # only the -0.0 row goes on
        ],
    )
    def test_branches(self, monkeypatch, x, levels, fallbacks):
        # each branch, counted: a level makes two TwoSum calls, a fallback one math.fsum call
        calls = {"two_sum": 0, "fsum": 0}
        two_sum = quadrature._two_sum

        def count(name, fn):
            def spy(*args):
                calls[name] += 1
                return fn(*args)
            return spy

        monkeypatch.setattr(quadrature, "_two_sum", count("two_sum", two_sum))
        monkeypatch.setattr(quadrature, "math", SimpleNamespace(fsum=count("fsum", math.fsum)))
        got = _rounded(x)
        monkeypatch.undo()
        assert got == _fsum_rows(x)
        assert (calls["two_sum"], calls["fsum"]) == (2 * levels, fallbacks)

    def test_shapes(self):
        assert isinstance(rounded_sum(np.ones(3000)), float)
        assert isinstance(rounded_sum([0.5, 0.25]), float)
        assert rounded_sum(np.ones((4, 3000))).shape == rounded_sum(np.ones((4, 3))).shape == (4,)
        assert rounded_sum(np.ones((0, 5))).shape == (0,)
        assert rounded_sum(np.empty(0)) == 0.0
        assert rounded_sum(np.empty((2, 0))).tolist() == [0.0, 0.0]


def _fsum_reference(x):
    """The math.fsum(x.tolist()) the call sites made before `rounded_sum`."""
    x = np.asarray(x, dtype=float)
    return math.fsum(x.tolist()) if x.ndim == 1 else np.array([math.fsum(row) for row in x.tolist()])


class TestRoundedSumSites:
    # every site where rounded_sum takes over from math.fsum gives the bits it
    # gave, at a size where the extraction runs

    def test_periodic_integral_on_the_largest_grid(self):
        phis = np.linspace(0.0, TWO_PI, MAX_NODES, endpoint=False)
        for samples in (np.sin(phis) * (1.0 + 0.3 * np.cos(5 * phis)), (2.0 + np.cos(3 * phis)) ** 2):
            assert periodic_integral(samples).hex() == (TWO_PI / MAX_NODES * math.fsum(samples.tolist())).hex()

    def test_gap_mass_block_at_high_degree(self, monkeypatch):
        body = recenter_to_steiner(random_body(3, 32768, index=1))
        gaps = np.array([1e-4, 1.0, 3.0])
        mass = visual_angle._gap_mass(body, gaps)
        monkeypatch.setattr(visual_angle, "rounded_sum", _fsum_reference)
        assert mass.tolist() == visual_angle._gap_mass(body, gaps).tolist()

    def test_functionals_spectral_at_high_degree(self, monkeypatch):
        body = random_body(3, 131072, index=1)
        fs = functionals.functionals_spectral(body)
        monkeypatch.setattr(functionals, "rounded_sum", _fsum_reference)
        ref = functionals.functionals_spectral(body)
        assert repr(fs) == repr(ref)  # a float's repr is its bits

    def test_polar_sums_at_96_directions(self, monkeypatch):
        body, cfg = random_body(3, 10, index=1), visual_angle.ExteriorConfig(nodes_phi=96)
        results = []
        for rounded in (rounded_sum, _fsum_reference):
            monkeypatch.setattr(visual_angle, "rounded_sum", rounded)
            visual_angle._polar_field.cache_clear()
            results.append([visual_angle.exterior_integral_grid(body, k(), cfg) for k in visual_angle.KERNELS.values()])
        visual_angle._polar_field.cache_clear()
        assert repr(results[0]) == repr(results[1])

    @pytest.mark.parametrize("long_row", [8, 4096])
    def test_stage_one_chunk_equals_rows_alone(self, long_row):
        # one call on a chunk's dense rows at n = 1..N gives each body's bits
        # of its own one-row call on its own frequencies: draws of degree 2-8,
        # constant width among them; an empty row; a row of n = 1 only; a row
        # of degree 8, or of degree 4096 among short ones, so that the chunk's
        # sum is extracted while each short row's alone is math.fsum's; a row
        # whose term overflows; rows holding inf and NaN
        draws = bodies.random_bodies(5, range(14), [2 + i % 7 for i in range(14)], [i % 2 == 1 for i in range(14)])
        rng = np.random.default_rng(long_row)
        n = np.arange(1, long_row + 1)
        raw = [
            (1.0, [], [], []),
            (2.5, [1], [0.3], [-0.2]),
            (1.0, n, *(rng.uniform(-1e-3, 1e-3, (2, n.size)) / n**2)),
            (1.0, [2, 7], [1e308, 1e-3], [0.0, 2e-4]),
            (1.0, [3], [np.inf], [0.1]),
            (1.0, [2, 5], [0.1, np.nan], [0.0, 0.01]),
        ]
        made = [bodies._body(a0, np.array(n, dtype=np.int64), np.array(a), np.array(b)) for a0, n, a, b in raw]
        chunk = [*draws[:4], *made[:2], *draws[4:9], made[2], *draws[9:], *made[3:]]
        a0, a, b = bodies._dense(chunk)
        assert (a[:, 1:].size >= quadrature._EXTRACT_MIN) == (long_row > 8)
        rows = _stage_rows(a0, np.arange(1, a.shape[1]), a[:, 1:], b[:, 1:])
        assert rows == [_stage_rows([body.a0], body.n, body.a[None], body.b[None])[0] for body in chunk]
        assert rows[4] == (True, (1.0).hex(), (1.0).hex())  # the empty row
        assert [row[:2] for row in rows[-3:]] == [(True, "-inf"), (False, "-inf"), (False, "-inf")]

    def test_stage_one_slack_is_minus_inf_past_the_float_range(self):
        # (2^2 - 1) * 1e308 overflows; 4e307 + 9e307 sums past 2^1023 with
        # finite terms; 3 * 0.1 stays a plain certificate
        a = np.array([[1e308, 0.0], [1e307, 1e307], [0.1, 0.0]])
        rows = _stage_rows([1.0, 1.0, 1.0], np.array([2, 3]), a, np.zeros_like(a))
        assert [slack for _, slack, _ in rows] == [(-math.inf).hex(), (-math.inf).hex(), (1.0 - 3 * 0.1).hex()]


def _stage_rows(*args):
    """`_stage_one` as one (finite, slack, magnitude) tuple per row, the floats by float.hex."""
    rows = zip(*(v.tolist() for v in _stage_one(*args)))
    return [(finite, slack.hex(), magnitude.hex()) for finite, slack, magnitude in rows]
