"""RandomSource: batched draws read the stream exactly as single draws."""
import pytest

from obfw.rng import RandomSource

MODULI = [2, 11, 257, 2 ** 31 - 1, 2 ** 61 - 1]


@pytest.mark.parametrize("n", MODULI)
@pytest.mark.parametrize("count", [0, 1, 2, 7, 40])
def test_randbelow_many_equals_single_draws(n, count):
    # 40 draws of up to 8 bytes each cross several 32-byte blocks; at
    # n = 11 and n = 257 about a third and half of the draws are rejected.
    one, many = RandomSource(b"draws" * 7), RandomSource(b"draws" * 7)
    assert many.randbelow_many(n, count) == [one.randbelow(n) for _ in range(count)]
    assert many.bytes(5) == one.bytes(5)      # both streams stop at one place


@pytest.mark.parametrize("n", MODULI)
@pytest.mark.parametrize("skip", [1, 3, 29, 31, 33])
def test_randbelow_many_after_odd_offset(n, skip):
    one, many = RandomSource(n), RandomSource(n)
    assert one.bytes(skip) == many.bytes(skip)
    assert many.randbelow_many(n, 9) == [one.randbelow(n) for _ in range(9)]
    assert many.randbits(13) == one.randbits(13)


def test_randbelow_many_rejects_empty_range():
    with pytest.raises(ValueError):
        RandomSource(0).randbelow_many(0, 3)


@pytest.mark.parametrize("k", [0, 1, 16, 31, 32, 33, 100])
def test_bytes_splits_like_one_read(k):
    # k bytes and then 200 - k give the same stream as one read of 200,
    # whether the first read ends inside a 32-byte block or on its edge.
    a, b = RandomSource("split"), RandomSource("split")
    assert a.bytes(k) + a.bytes(200 - k) == b.bytes(200)
