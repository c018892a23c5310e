"""RandomSource: batched draws read the stream exactly as single draws."""
import hashlib
import importlib

import pytest

from obfw import rng as rng_module
from obfw.rng import RandomSource

# One modulus per draw width: 1, 1, 2, 3 (100_003 has 17 bits), 4 and 8 bytes.
MODULI = [2, 11, 257, 100_003, 2 ** 31 - 1, 2 ** 61 - 1]


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


# Widths 1-4 bytes; at n = 257 and n = 65537 about half the draws are
# rejected and their rows redrawn from the child's own stream.
CHILD_MODULI = [2, 11, 257, 65537, 2 ** 31 - 1, 4294967291]


@pytest.mark.parametrize("n", CHILD_MODULI)
@pytest.mark.parametrize("count", [0, 1, 2, 8, 11])
@pytest.mark.parametrize("labels", [
    [f"pos/{i}" for i in range(30)] + [0, 1, 2 ** 40], []],
    ids=["str-and-int", "empty"])
def test_child_draws_equal_per_child_draws(n, count, labels):
    # 11 draws of 4 bytes need a second 32-byte counter block.
    rng = RandomSource(b"children")
    rows = [rng.child(label).randbelow_many(n, count) for label in labels]
    assert rng.child_draws(labels, n, count) == [
        [row[j] for row in rows] for j in range(count)]


def test_child_draws_rejects_empty_range():
    with pytest.raises(ValueError):
        RandomSource(0).child_draws(["a"], 0, 3)


def test_sha256_is_hashlibs():
    # The module may hash with CPython's builtin SHA-256; its digests must
    # be hashlib's, across the block boundaries of 55, 56 and 64 bytes.
    for n in range(150):
        data = bytes((7 * i + n) % 256 for i in range(n))
        assert rng_module._sha256(data).digest() == hashlib.sha256(data).digest()
    seed = RandomSource(b"parent").seed
    assert RandomSource(b"parent").child("pos/7").seed == hashlib.sha256(
        seed + b"/pos/7").digest()
    # The builtin is picked whenever its module imports: _sha2 from
    # CPython 3.12 on, _sha256 before.
    for name in ("_sha2", "_sha256"):
        try:
            builtin = importlib.import_module(name).sha256
        except ImportError:
            continue
        assert rng_module._sha256 is builtin
        break
    else:
        assert rng_module._sha256 is hashlib.sha256
