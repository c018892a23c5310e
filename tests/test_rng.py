"""RandomSource: batched draws read the stream exactly as single draws."""
import copy
import hashlib
import importlib

import pytest
from hypothesis import given, settings, strategies as st

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


class _ShortfallSource(RandomSource):
    """randbelow_many as a loop that reads only the shortfall on each pass:
    the oracle for the read-ahead form, which must give the same values and
    leave the stream at the same place."""
    __slots__ = ()

    def randbelow_many(self, n, count):
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        k = (n - 1).bit_length() or 1
        width = (k + 7) // 8
        shift = width * 8 - k
        bound = n << shift
        out = []
        while len(out) < count:
            draws = rng_module.unpack_uints(self.bytes((count - len(out)) * width), width)
            out += [v >> shift for v in draws if v < bound]
        return out


# Draw widths 1 to 8 bytes.  At 2^31 + 11 (32 bits, no spare high bits)
# about half the draws are rejected, as at 65537 and 257.
ORACLE_MODULI = [2, 3, 257, 65537, 100_003, 2 ** 31 - 1, 2 ** 31 + 11,
                 2 ** 61 - 1, 2 ** 32 + 15, 2 ** 40 + 1, 2 ** 48 + 21,
                 2 ** 56 - 5]
MODULUS = st.one_of(st.sampled_from(ORACLE_MODULI), st.integers(1, 2 ** 64))
LABEL = st.one_of(st.text(max_size=4), st.integers(0, 2 ** 64 - 1))
OPS = st.lists(st.one_of(
    st.tuples(st.just("bytes"), st.integers(0, 70)),
    st.tuples(st.just("randbits"), st.integers(1, 64)),
    st.tuples(st.just("randbelow"), MODULUS),
    st.tuples(st.just("randbelow_many"), MODULUS, st.integers(0, 64)),
    st.tuples(st.just("child"), LABEL),
    st.tuples(st.just("child_draws"), st.lists(LABEL, max_size=4), MODULUS,
              st.integers(0, 9)),
), max_size=12)


def _apply(src, op):
    name, *args = op
    if name == "child":
        return src.child(*args).seed
    if name == "child_draws":
        labels, n, count = args
        return src.child_draws(labels, n, count)
    return getattr(src, name)(*args)


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=32, max_size=32), OPS)
def test_randbelow_many_equals_shortfall_loop(seed, ops):
    fast, oracle = RandomSource(seed), _ShortfallSource(seed)
    for op in ops:
        assert _apply(fast, op) == _apply(oracle, op), op
        if op[0] == "child_draws":
            labels, n, count = op[1:]
            rows = [_ShortfallSource(oracle.child(label).seed).randbelow_many(
                n, count) for label in labels]
            assert _apply(fast, op) == [[row[j] for row in rows]
                                        for j in range(count)]
        assert fast.counter == oracle.counter
        # Peek at the next 64 bytes without moving either stream.
        assert copy.copy(fast).bytes(64) == copy.copy(oracle).bytes(64), op


@pytest.mark.parametrize("n", ORACLE_MODULI)
@pytest.mark.parametrize("skip", [0, 1, 17, 31, 32])
def test_randbelow_many_rewinds_across_blocks(n, skip):
    # Counts up to 300 draw past several blocks; every count leaves the
    # stream where the shortfall loop leaves it.
    fast, oracle = RandomSource(b"rewind"), _ShortfallSource(b"rewind")
    assert fast.bytes(skip) == oracle.bytes(skip)
    for count in (1, 2, 5, 31, 136, 300):
        assert fast.randbelow_many(n, count) == oracle.randbelow_many(n, count)
        assert fast.counter == oracle.counter
        assert copy.copy(fast).bytes(64) == copy.copy(oracle).bytes(64)
