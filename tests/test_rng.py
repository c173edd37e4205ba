"""splitmix64 stream: reference outputs and scalar/vector draw agreement."""

import numpy as np
import pytest

from rvredeem.rng import DetRng


def test_seed_zero_matches_published_splitmix64_outputs():
    rng = DetRng(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
@pytest.mark.parametrize("low, high", [(0.0, 1.0), (-3.5, 2.25), (0.9, 1.1)])
def test_uniforms_equal_scalar_draws_and_leave_the_same_state(n, low, high):
    scalar, vector = DetRng(12345), DetRng(12345)
    for rng in (scalar, vector):
        rng.next_u64()  # start mid-stream, not at the seed
    expected = np.array([scalar.uniform(low, high) for _ in range(n)])
    drawn = vector.uniforms(n, low, high)
    assert drawn.dtype == np.float64
    assert drawn.tobytes() == expected.tobytes()
    assert vector.next_u64() == scalar.next_u64()


def test_zero_uniforms_are_empty_and_draw_nothing():
    rng, untouched = DetRng(7), DetRng(7)
    assert rng.uniforms(0).shape == (0,)
    assert rng.next_u64() == untouched.next_u64()


def test_negative_count_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        DetRng(7).uniforms(-1)
