import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgds.rng import stream_rng, stream_uniforms

M64 = (1 << 64) - 1
# n = 4 fills whole Philox blocks; 1, 3, 5 and 65 end in a truncated block
LENGTHS = (1, 3, 4, 5, 64, 65)
PART = st.one_of(st.sampled_from([0, 1, M64]), st.integers(0, M64))
KEYS = st.integers(1, 7).flatmap(
    lambda parts: st.lists(st.lists(PART, min_size=parts, max_size=parts),
                           min_size=1, max_size=6))


def _reference(keys, n):
    return np.stack([stream_rng(*k).random(n) for k in keys])


@settings(max_examples=150, deadline=None)
@given(KEYS, st.sampled_from(LENGTHS))
def test_stream_uniforms_match_stream_rng(keys, n):
    got = stream_uniforms(keys, n)
    assert got.shape == (len(keys), n)
    np.testing.assert_array_equal(got, _reference(keys, n))


@pytest.mark.parametrize("n", LENGTHS)
def test_stream_uniforms_boundary_keys(n):
    keys = [[0] * 7, [M64] * 7, [M64, 0, M64, 0, M64, 0, M64],
            [1993, 6, 9, 20, 4, 47, 3]]
    np.testing.assert_array_equal(stream_uniforms(keys, n), _reference(keys, n))


def test_stream_uniforms_seeded_bulk():
    rng = np.random.default_rng(2024)
    keys = rng.integers(0, M64, size=(300, 7), dtype=np.uint64, endpoint=True)
    keys[::7, 0] = 0
    keys[::11, 3] = M64
    for n in LENGTHS:
        np.testing.assert_array_equal(
            stream_uniforms(keys, n),
            _reference([[int(v) for v in k] for k in keys], n))
