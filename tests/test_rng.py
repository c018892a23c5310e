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


def _stream(seed: bytes, n: int) -> bytes:
    """The first n bytes of a seed's stream, hashed one block at a time."""
    blocks = [hashlib.sha256(seed + c.to_bytes(8, "little")).digest()
              for c in range((n + 31) // 32)]
    return b"".join(blocks)[:n]


@pytest.mark.parametrize("skip", [0, 1, 31, 32, 33])
def test_bytes_equals_byte_at_a_time(skip):
    # Every read of 0..100 bytes, from every offset in a block, hashes the
    # blocks it crosses in one pass; it and the reads after it give the
    # stream, as a reader of one byte at a time sees it.
    seed = bytes(range(32))
    stream = _stream(seed, skip + 100 + 64)
    for k in range(101):
        rng, single = RandomSource(seed), RandomSource(seed)
        assert rng.bytes(skip) == stream[:skip]
        assert rng.bytes(k) == stream[skip:skip + k]
        assert rng.bytes(64) == stream[skip + k:skip + k + 64]
        assert b"".join(single.bytes(1) for _ in range(skip + k + 64)) \
            == stream[:skip + k + 64]
        assert rng.counter == single.counter
        assert rng.randbits(13) == single.randbits(13)


# Width-3 draws: 17 bits with about half of them rejected, 24 bits with
# few, and 100_003.
@pytest.mark.parametrize("n", [2 ** 16 + 1, 2 ** 24 - 3, 100_003])
@pytest.mark.parametrize("skip", [0, 2, 30])
def test_width3_randbelow_many_equals_randbelow(n, skip):
    one, many = RandomSource(b"w3" * 16), RandomSource(b"w3" * 16)
    assert one.bytes(skip) == many.bytes(skip)
    for count in (1, 10, 11, 500):
        assert many.randbelow_many(n, count) == [one.randbelow(n)
                                                 for _ in range(count)]
    assert many.bytes(7) == one.bytes(7)
