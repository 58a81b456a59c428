from dataclasses import replace

import numpy as np
import pytest

from selkam.front import caustics, dump_front, fiber_sweep
from selkam.lagrangian import from_graph, from_parametric
from selkam.torus import PeriodicCubic, wrap

GRID = np.arange(256) / 256


def dense_scan_spectrum(L, q, n=2 ** 16):
    """Independent oracle: arc-length-uniform scan, linear root refinement."""
    dq = np.diff(np.append(L.q, L.q[0] + L.winding))
    dp = np.diff(np.append(L.p, L.p[0]))
    s = np.concatenate([[0.0], np.cumsum(np.hypot(dq, dp))])
    s /= s[-1]
    ts = np.interp(np.arange(n + 1) / n, s, np.append(L.t, L.t[0] + 1.0))
    fq = L.interp_q
    Q = fq(ts)
    vals = []
    for k in range(int(np.floor(Q.min() - q)) - 1, int(np.ceil(Q.max() - q)) + 1):
        d = Q - (q + k)
        hits = np.nonzero(d[:-1] * d[1:] < 0)[0]
        for i in hits:
            lo, hi, flo = ts[i], ts[i + 1], d[i]
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                fm = fq(mid) - (q + k)
                if (fm < 0) == (flo < 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            vals.append(float(L.primitive_at(0.5 * (lo + hi))))
    return np.sort(vals)


def test_zero_section_fiber():
    fd = fiber_sweep(from_graph(np.zeros(128)), [0.37])[0]
    assert len(fd) == 1
    assert fd.p[0] == 0.0 and fd.h[0] == 0.0


def test_graph_fiber_value():
    L = from_graph(0.1 * np.sin(2 * np.pi * GRID))
    fd = fiber_sweep(L, [0.25])[0]
    assert len(fd) == 1
    assert fd.h[0] == pytest.approx(0.1, abs=1e-8)


def test_graph_has_no_caustics():
    assert len(caustics(from_graph(0.1 * np.sin(2 * np.pi * GRID)))) == 0
    t = np.arange(512) / 512
    assert len(caustics(from_parametric(t, t, np.sin(2 * np.pi * t)))) == 0


def test_whorl_fold_region_fiber(whorl):
    fd = fiber_sweep(whorl, [0.99])[0]
    assert len(fd) == 3
    assert np.all(np.diff(fd.h) > 0)
    oracle = dense_scan_spectrum(whorl, 0.99)
    assert oracle.size == 3
    assert np.max(np.abs(fd.h - oracle)) <= 1e-8


def test_whorl_spectrum_oracle_midband(whorl):
    vals = fiber_sweep(whorl, [0.42])[0].h
    oracle = dense_scan_spectrum(whorl, 0.42)
    assert vals.size == oracle.size
    assert np.max(np.abs(vals - oracle)) <= 1e-8


def test_whorl_caustics_structure(whorl):
    ca = caustics(whorl)
    assert len(ca) > 0 and len(ca) % 2 == 0
    # V is even around q = 0, so the caustic set is symmetric under q -> -q
    qs = np.sort(ca.q)
    mirrored = np.sort((1.0 - qs) % 1.0)
    assert np.max(np.minimum(np.abs(qs - mirrored),
                             1 - np.abs(qs - mirrored))) <= 1e-3
    # fiber multiplicity jumps by exactly 2 across each fold
    counts = [c for _, _, c in ca.intervals]
    jumps = np.abs(np.diff(counts + counts[:1]))
    assert np.all(jumps == 2)


def test_fiber_over_a_caustic_holds_the_fold_once(whorl):
    # a fold value is a tangential double root: the fiber there has one more
    # point than the side with fewer sheets, and the tangency is flagged
    ca = caustics(whorl)
    assert len(ca) == 12
    for qf in ca.q:
        below, at, above = fiber_sweep(whorl, [qf - 1e-6, qf, qf + 1e-6])
        assert abs(len(below) - len(above)) == 2, qf
        assert len(at) == min(len(below), len(above)) + 1, qf
        assert not at.transverse and not at.cerf_regular, qf


def test_cerf_regular_flags(whorl):
    # the cerf_flag column of front.txt: transverse, values separated by GAP_TOL
    def cerf(L, q):
        return fiber_sweep(L, [q])[0].cerf_regular

    # single sheet everywhere on a graph
    assert cerf(from_graph(0.1 * np.sin(2 * np.pi * GRID)), 0.3)
    # distinct values in the fold band
    assert cerf(whorl, 0.985)
    # the symmetric point carries coinciding pairs (Maxwell point)
    assert not cerf(whorl, 0.5)


def test_cerf_regular_set_is_open(whorl):
    # a Cerf-regular point with value gap g stays regular in a neighborhood
    fd = fiber_sweep(whorl, [0.985])[0]
    g = float(np.min(np.diff(fd.h)))
    assert fd.cerf_regular
    radius = g / (2.0 * whorl.pmax * 50.0)  # conservative slope bound
    fibers = fiber_sweep(whorl, 0.985 + np.array([-radius, radius / 2, radius]))
    assert all(f.cerf_regular for f in fibers)


def whorl_sheets(whorl):
    """The front over a caustic-free base interval without crossings, one row a sheet."""
    grid = np.linspace(0.9895, 0.9995, 129)
    fibers = fiber_sweep(whorl, grid)
    assert {len(f) for f in fibers} == {3}
    h = np.array([f.h for f in fibers]).T
    p = np.array([f.p for f in fibers]).T
    return grid[1] - grid[0], h, p


def test_sheet_tracks_are_continuous(whorl):
    # sheets are ordered by value; no value jump along a track beyond a
    # Lipschitz multiple of the step
    dq, h, _ = whorl_sheets(whorl)
    assert np.max(np.abs(np.diff(h, axis=1))) <= 3.0 * whorl.pmax * dq + 1e-9


def test_sheet_decomposition_whorl_three_sheets(whorl):
    # the front splits into three sheets, each satisfying dh = p dq
    dq, h, p = whorl_sheets(whorl)
    assert h.shape[0] == 3
    assert np.max(np.abs(np.gradient(h, dq, axis=1) - p)[:, 1:-1]) <= 1e-4


def test_degenerate_double_cover_rejected():
    # a curve winding twice is not embedded: every sheet is covered twice
    t = np.arange(2048) / 2048
    with pytest.raises(ValueError, match="winding 2"):
        from_parametric(t, np.mod(2 * t, 1.0), 0.05 * np.sin(4 * np.pi * t))


def _batch_case(name, request):
    """A curve and the queries to sweep it at, one batch per case."""
    if name == "whorl":
        return request.getfixturevalue("whorl"), np.append(np.arange(48) / 48, [0.985, 0.99])
    if name == "graph_nodes":
        # each query sits on a sample node, so its brackets only touch the level
        L = from_graph(0.1 * np.sin(2 * np.pi * GRID))
        return L, L.q[::4].copy()
    # dq/dt = -1 + 0.4 pi cos(4 pi t) changes sign: the curve folds, up to 3 sheets
    t = np.arange(1024) / 1024
    L = from_parametric(t, np.mod(-t + 0.1 * np.sin(4 * np.pi * t), 1.0),
                        0.2 * np.sin(2 * np.pi * t))
    assert L.winding == -1
    return L, np.arange(48) / 48


@pytest.mark.parametrize("case", ["whorl", "graph_nodes", "winding_minus_one"])
def test_fiber_does_not_depend_on_its_batchmates(case, request):
    L, qs = _batch_case(case, request)
    batch = fiber_sweep(L, qs)
    assert len(batch) == qs.size
    for q, fd in zip(qs, batch):
        alone = fiber_sweep(L, [q])[0]
        for name in ("q", "t", "p", "h", "transverse", "cerf_regular"):
            assert np.array_equal(getattr(fd, name), getattr(alone, name)), (q, name)


def loop_fiber(L, q):
    """Reference: one query, level by level; a root two touching brackets share counts once."""
    tc = np.append(L.t, L.t[0] + 1.0)
    Qc = np.append(L.q, L.q[0] + L.winding)
    roots = []
    for k in range(int(np.floor(Qc.min() - q)), int(np.ceil(Qc.max() - q)) + 1):
        d = Qc - (q + k)
        hits = np.nonzero((d[:-1] * d[1:] < 0) | (d[:-1] == 0) | (d[1:] == 0))[0]
        roots.extend(L.interp_q.bisect(tc[hits], tc[hits + 1], q + k))
    t = np.unique(wrap(np.array(roots)))
    h = np.atleast_1d(L.primitive_at(t))
    order = np.argsort(h, kind="stable")
    return t[order], L.interp_p(t)[order], h[order]


@pytest.mark.parametrize("case", ["whorl", "graph_nodes", "winding_minus_one"])
def test_fiber_sweep_equals_the_per_level_loop(case, request):
    L, qs = _batch_case(case, request)
    for q, fd in zip(qs, fiber_sweep(L, qs)):
        t, p, h = loop_fiber(L, q)
        assert np.array_equal(fd.t, t) and np.array_equal(fd.p, p) and np.array_equal(fd.h, h)


def test_fiber_sweep_of_no_queries_is_empty():
    assert fiber_sweep(from_graph(np.zeros(128)), []) == []


@pytest.mark.parametrize("query", [lambda L: fiber_sweep(L, [0.1]), caustics],
                         ids=["fiber_sweep", "caustics"])
def test_front_refuses_dim_2(query):
    # no front query reaches a graph over T^2: it is refused where it is built
    with pytest.raises(NotImplementedError, match="dim 2"):
        query(from_graph(np.zeros((64, 64))))


def test_dump_front_roundtrip(tmp_path, whorl):
    path = tmp_path / "front.txt"
    dump_front(whorl, np.linspace(0.05, 0.3, 16), path)
    data = np.loadtxt(path, ndmin=2)
    assert data.shape[1] == 5
    assert data.shape[0] >= 16


def lookup_bisect(f, lo, hi, targets):
    """Reference: all 70 iterations, each evaluation looking its cell up."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    lo0, hi0 = lo.copy(), hi.copy()
    flo = f(lo) - targets
    at_lo = flo == 0
    at_hi = (f(hi) - targets == 0) & ~at_lo
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        fm = f(mid) - targets
        left = (flo < 0) == (fm < 0)
        lo, flo, hi = np.where(left, mid, lo), np.where(left, fm, flo), np.where(left, hi, mid)
    out = 0.5 * (lo + hi)
    out[at_lo] = lo0[at_lo]
    out[at_hi] = hi0[at_hi]
    return out


@pytest.mark.parametrize("case", ["whorl", "graph_nodes", "winding_minus_one", "shifted"])
def test_fixed_cell_bisection_is_the_lookup_bisection(case, request, monkeypatch):
    # every bracket the sweep and the fold table bisect, caustic values and
    # queries on sample nodes included, gives the floats of a cell lookup per
    # evaluation and all 70 iterations
    if case == "shifted":
        # parameters off 0: reducing them rounds, near nodes into the next cell
        t = (np.arange(1024) + 0.37) / 1024
        L = from_parametric(t, np.mod(-t + 0.1 * np.sin(4 * np.pi * t), 1.0),
                            0.2 * np.sin(2 * np.pi * t))
        qs = np.arange(48) / 48
    else:
        L, qs = _batch_case(case, request)
    L = replace(L)              # a fresh fold table
    calls, bisect = [], PeriodicCubic.bisect

    def spy(fq, lo, hi, targets, derivative=False):
        calls.append((fq, lo, hi, np.broadcast_to(targets, np.shape(lo)), derivative))
        return bisect(fq, lo, hi, targets, derivative)

    monkeypatch.setattr(PeriodicCubic, "bisect", spy)
    fiber_sweep(L, np.append(qs, caustics(L).q))
    tc = np.append(L.t, L.t[0] + 1.0)
    ends = {"node": 0, "fold": 0, "closing": 0, "on target": 0}
    for fq, lo, hi, targets, derivative in calls:
        got = bisect(fq, lo, hi, targets, derivative)
        f = fq.derivative if derivative else fq
        assert got.tobytes() == lookup_bisect(f, lo, hi, targets).tobytes()
        ends["node"] += np.count_nonzero(np.isin(lo, tc) | np.isin(hi, tc))
        ends["fold"] += np.count_nonzero(np.isin(lo, L.folds) | np.isin(hi, L.folds))
        ends["closing"] += np.count_nonzero(hi == tc[-1])
        ends["on target"] += np.count_nonzero((f(lo) == targets) | (f(hi) == targets))
    assert ends["node"] and ends["on target"], ends
    assert case == "graph_nodes" or ends["fold"], ends
    assert case not in ("whorl", "shifted") or (ends["closing"] and L.winding != 0), ends
