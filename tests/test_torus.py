import numpy as np
from hypothesis import given, strategies as st

from selkam.torus import median

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
