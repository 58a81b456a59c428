import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from selkam.torus import (PeriodicCubic, hausdorff, median, nearest, nearest_in_window,
                          phase_tiles, spacing, wrap)
from selkam.weakkam import _dedupe_points

_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True,
                    width=64)


@given(st.lists(_FLOATS, min_size=1, max_size=41))
def test_median_is_np_median_bit_for_bit(values):
    x = np.array(values)
    with np.errstate(all="ignore"):
        got, want = median(x), np.median(x)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert type(got) is type(want)


def test_median_odd_and_even_sizes():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4, 511, 512, 4096, 4097):
        x = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)
        assert np.asarray(median(x)).tobytes() == np.asarray(np.median(x)).tobytes()
        # 2-d input is flattened, as np.median does without an axis
        if n % 2 == 0:
            assert median(x.reshape(2, -1)) == np.median(x.reshape(2, -1))


# The neighbour search against cKDTree, kept here as the oracle.  Both sum the
# squared differences in column order, so dim-1 distances agree bit for bit;
# dim-2 distances may differ by rounding if the tree's build contracts sums.
# The search reads any number of columns, so the spacing check keeps dim 2.

def _phase_cloud(seed, dim, n, repeats):
    """n phase points on T^dim x R^dim, the first ``repeats`` copying the last."""
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(0.0, 1.0, (n, dim)),
                           rng.normal(scale=0.5, size=(n, dim))])
    if repeats:
        pts[:repeats] = pts[n - repeats:]
    return pts


def _assert_distances(got, want, dim):
    if dim == 1:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 150), repeats=st.integers(0, 60),
       dim=st.sampled_from([1, 2]))
def test_spacing_matches_kdtree(seed, n, repeats, dim):
    # cKDTree's k = 2 query from the points themselves: the nearest other point
    # (0 where a point is repeated)
    repeats = min(repeats, n // 2)
    pts = _phase_cloud(seed, dim, n, repeats)
    want, _ = cKDTree(pts).query(pts, k=2)
    got = spacing(pts)
    _assert_distances(got, want[:, 1], dim)
    assert np.all(got[:repeats] == 0.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 150), radius=st.floats(1e-4, 0.5))
def test_tube_and_nearest_match_kdtree(seed, n, radius):
    pts = _phase_cloud(seed, 1, n, 0)
    tiles = phase_tiles(pts)
    tree = cKDTree(tiles)
    rng = np.random.default_rng(seed + 1)
    x = np.column_stack([rng.uniform(0.0, 1.0, 64), rng.normal(size=64)])
    want, _ = tree.query(x)
    assert nearest(tiles, x).tobytes() == want.tobytes()
    # the tube predicate, also at radii that are query distances
    for r in (radius, float(np.median(want)), float(np.min(want))):
        got = nearest_in_window(tiles, x, r) <= r
        assert np.array_equal(got, want <= r)


def test_nearest_in_window_blocks_agree(monkeypatch):
    # splitting the candidate pairs into blocks does not change a distance
    pts = _phase_cloud(3, 1, 400, 0)
    tiles = phase_tiles(pts)
    x = _phase_cloud(4, 1, 50, 0)
    whole = nearest(tiles, x)
    kept = _dedupe_points(pts, 0.05)
    monkeypatch.setattr("selkam.torus.PAIR_BLOCK", 7)
    assert nearest(tiles, x).tobytes() == whole.tobytes()
    assert np.array_equal(_dedupe_points(pts, 0.05), kept)


def _dense_hausdorff(a, b):
    """The all-pairs formula, q distance min(|dq|, 1 - |dq|)."""
    def one_sided(x, y):
        dq = np.abs(x[:, None, 0] - y[None, :, 0])
        dq = np.minimum(dq, 1.0 - dq)
        dp = x[:, None, 1] - y[None, :, 1]
        return np.max(np.min(np.sqrt(dq * dq + dp * dp), axis=1))

    return max(one_sided(a, b), one_sided(b, a))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 80), m=st.integers(1, 80))
def test_hausdorff_is_the_dense_formula(seed, n, m):
    # the two differ only in how the seam distance is rounded
    a, b = _phase_cloud(seed, 1, n, 0), _phase_cloud(seed + 1, 1, m, 0)
    want = _dense_hausdorff(a, b)
    assert abs(hausdorff(a, b) - want) <= 1e-14 * want


def test_hausdorff_of_empty_sets():
    empty, one = np.empty((0, 2)), np.array([[0.5, 0.0]])
    assert hausdorff(empty, empty) == 0.0
    assert hausdorff(empty, one) == hausdorff(one, empty) == np.inf


def _dedupe_loop(pts, radius):
    """The greedy rule as a double loop: keep a point unless an earlier kept
    point lies within radius across the seam."""
    kept = []
    for x in pts:
        ok = True
        for y in kept:
            dq = min(abs(x[0] - y[0]), 1.0 - abs(x[0] - y[0]))
            if np.hypot(dq, x[1] - y[1]) <= radius:
                ok = False
                break
        if ok:
            kept.append(x)
    return np.asarray(kept).reshape(-1, 2)


def _dedupe_cloud(seed, n, radius):
    """n points on T*T^1: uniform, straddling the seam, or on the grid of
    multiples of the (dyadic) radius, where distances tie with it exactly;
    a quarter of the rows repeat others."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.0, 1.0, n)
    p = rng.normal(scale=2 * radius, size=n)
    kind = rng.integers(0, 3, n)
    seam = kind == 1
    q[seam] = wrap(rng.normal(scale=2 * radius, size=int(seam.sum())))
    grid = kind == 2
    q[grid] = wrap(rng.integers(-4, 5, int(grid.sum())) * radius)
    p[grid] = rng.integers(-2, 3, int(grid.sum())) * radius
    pts = np.column_stack([q, p])
    pts[rng.integers(0, n, n // 4)] = pts[rng.integers(0, n, n // 4)]
    return pts


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 120),
       radius=st.sampled_from([2.0 ** -11, 2.0 ** -9, 2.0 ** -5]))
def test_dedupe_is_the_greedy_double_loop(seed, n, radius):
    pts = _dedupe_cloud(seed, n, radius)
    assert np.array_equal(_dedupe_points(pts, radius), _dedupe_loop(pts, radius))


def test_periodic_cubic_reads_given_cells_only_where_s_lies_in_them():
    # a parameter handed another cell (a neighbour's, or one ending on its
    # node) is evaluated in its own: the floats of the lookup
    t = (np.arange(64) + 0.37) / 64
    fq = PeriodicCubic(t, -t + 0.1 * np.sin(4 * np.pi * t), jump=-1.0)
    rng = np.random.default_rng(3)
    s = np.concatenate([rng.uniform(-1.0, 2.0, 200), t, t + 1.0])
    for other in (np.roll(s, 1), s - 1e-12, s + 1e-12):
        cells = fq._lookup(fq._reduce(other))
        for f in (fq, fq.derivative):
            assert f(s, cells).tobytes() == f(s).tobytes()
