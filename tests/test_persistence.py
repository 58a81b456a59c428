import numpy as np

from selkam.persistence import connectivity_oracle, sublevel_persistence


def test_single_minimum_quadratic():
    x = np.linspace(-1, 1, 65)
    G = x * x + 0.3
    diag = sublevel_persistence(G)
    assert diag.selected == G.min() == 0.3
    assert not diag.pairs


def test_double_well_circle_pairs():
    x = np.arange(64) / 64
    G = np.cos(4 * np.pi * x) + 0.3 * np.cos(2 * np.pi * x)
    diag = sublevel_persistence(G)
    assert diag.selected == G.min()
    assert len(diag.pairs) == 1
    birth, death = diag.pairs[0]
    # secondary well dies at the lower saddle
    assert birth < death


def test_union_find_matches_oracle_random():
    rng = np.random.default_rng(42)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        shape = tuple(int(rng.integers(3, [33, 13, 9][d - 1] + 1)) for _ in range(d))
        vals = rng.normal(size=shape)
        a = sublevel_persistence(vals)
        b = connectivity_oracle(vals)
        assert a.selected == b.selected
        assert a.pairs == b.pairs
        assert a.essential_births == b.essential_births

