"""Bloom filter, SipHash family, parameter derivation, file format."""
import math
import os
import subprocess
import sys

import pytest

import obfw
from obfw.bloom import (
    BATCH,
    BadParams,
    BloomFilter,
    BloomParams,
    FixedHashFamily,
    SipHashFamily,
    derive_params,
    siphash24,
)
from obfw.errors import IoError
from obfw.rng import RandomSource

# Reference vectors from the SipHash-2-4 specification: key 000102..0f,
# messages of increasing length 00, 0001, 000102, ...
SIPHASH_KEY = bytes(range(16))
SIPHASH_VECTORS = [
    0x726FDB47DD0E0E31, 0x74F839C593DC67FD, 0x0D6C8009D9A94F5A,
    0x85676696D7FB7E2D, 0xCF2794E0277187B7, 0x18765564CD99A68D,
    0xCBC9466E58FEE3CE, 0xAB0200F58B01D137, 0x93F5F5799A932462,
    0x9E0082DF0BA9E4B0, 0x7A5DBBC594DDB9F3, 0xF4B32F46226BADA7,
    0x751E8FBC860EE5FB, 0x14EA5627C0843D90, 0xF723CA908E7AF2EE,
    0xA129CA6149BE45E5,
]


class TestSipHash:
    def test_reference_vectors(self):
        for n, expected in enumerate(SIPHASH_VECTORS):
            assert siphash24(SIPHASH_KEY, bytes(range(n))) == expected

    def test_key_length_enforced(self):
        with pytest.raises(BadParams):
            siphash24(b"short", b"x")

    def test_deterministic_indices(self):
        fam = SipHashFamily(bytes(16), kappa=5)
        assert fam.indices(b"1.2.3.4", 997) == fam.indices(b"1.2.3.4", 997)

    def test_distinct_keys_spread_indices(self):
        # Chi-square uniformity of each instance over many items.
        from scipy.stats import chisquare
        fam = SipHashFamily(b"0123456789abcdef", kappa=4)
        beta = 64
        counts = [[0] * beta for _ in range(4)]
        for i in range(20000):
            idx = fam.indices(i.to_bytes(4, "little"), beta)
            for t, j in enumerate(idx):
                counts[t][j] += 1
        for t in range(4):
            _, p = chisquare(counts[t])
            assert p > 0.001

    def test_beta_one_all_zero(self):
        fam = SipHashFamily(bytes(16), kappa=3)
        assert fam.indices(b"anything", 1) == [0, 0, 0]


class TestSipHashLanes:
    """SipHashFamily hashes under all keys at once; siphash24 is the
    reference it must equal lane for lane."""

    @pytest.mark.parametrize("kappa", [1, 7, 64])
    def test_lanes_equal_scalar(self, kappa):
        # Lengths 0-40 cover every tail length and up to six blocks.
        fam = SipHashFamily(b"lane-test-master", kappa)
        assert len(fam.keys) == kappa
        for n in range(41):
            msg = bytes((7 * i + n) % 256 for i in range(n))
            assert fam.hashes(msg) == tuple(siphash24(k, msg) for k in fam.keys)

    def test_reference_vectors_in_every_lane(self):
        other = bytes(range(16, 32))
        for pos in range(3):
            keys = [other, other, other]
            keys[pos] = SIPHASH_KEY
            fam = SipHashFamily.from_keys(keys)
            for n, expected in enumerate(SIPHASH_VECTORS):
                assert fam.hashes(bytes(range(n)))[pos] == expected

    def test_from_keys_validates(self):
        with pytest.raises(BadParams):
            SipHashFamily.from_keys([])
        with pytest.raises(BadParams):
            SipHashFamily.from_keys([bytes(16), b"short"])
        with pytest.raises(BadParams):
            SipHashFamily.from_keys([bytes(16)] * 65)


class TestBatchedHashing:
    """hashes_many packs up to BATCH items under every key into one state;
    siphash24 is the reference it must equal lane for lane."""

    @staticmethod
    def reference(fam, items):
        return [tuple(siphash24(k, item) for k in fam.keys) for item in items]

    @pytest.mark.parametrize("kappa", [1, 7, 64])
    def test_every_length(self, kappa):
        fam = SipHashFamily(b"batch-test-mastr", kappa)
        for n in range(41):
            items = [bytes((7 * i + 3 * b + n) % 256 for i in range(n))
                     for b in range(5)]
            assert fam.hashes_many(items) == self.reference(fam, items)

    @pytest.mark.parametrize("kappa", [1, 7, 64])
    def test_mixed_lengths_in_one_call(self, kappa):
        fam = SipHashFamily(b"batch-test-mastr", kappa)
        items = [bytes(range(n)) for n in (4, 0, 17, 4, 8, 40, 9)]
        assert fam.hashes_many(items) == self.reference(fam, items)

    @pytest.mark.parametrize("kappa", [1, 7, 64])
    @pytest.mark.parametrize("count", [0, 1, BATCH - 1, BATCH, BATCH + 1,
                                       2 * BATCH + 1])
    def test_item_counts(self, kappa, count):
        fam = SipHashFamily(b"batch-test-mastr", kappa)
        items = [b.to_bytes(4, "big") for b in range(count)]
        assert fam.hashes_many(items) == self.reference(fam, items)
        assert fam.indices_many(items, 1000) == [
            i for item in items for i in fam.indices(item, 1000)]

    def test_batch_insert_sets_per_item_bits(self):
        p = derive_params(500, 0.01)
        items = [i.to_bytes(4, "big") for i in range(2 * BATCH + 3)]
        batched = BloomFilter(p, b"batch-insert-key")
        batched.insert_many(items)
        single = BloomFilter(p, b"batch-insert-key")
        for item in items:
            single.insert(item)
        expected = [0] * p.beta
        for item in items:
            for i in single.hash_indices(item):
                expected[i] = 1
        assert batched.bits == single.bits
        assert batched.bit_vector() == expected


class TestDeriveParams:
    def test_million_entry_example(self):
        p = derive_params(10 ** 6, 0.001)
        assert abs(p.beta - 14.5e6) / 14.5e6 < 0.01
        assert p.kappa == 10

    def test_degenerate_floor(self):
        p = derive_params(1, 0.5)
        assert p.kappa == 1 and p.beta >= 1

    def test_bad_inputs(self):
        with pytest.raises(BadParams):
            derive_params(0, 0.1)
        with pytest.raises(BadParams):
            derive_params(10, 1.5)

    def test_measured_fp_matches_estimate(self):
        p = derive_params(1000, 0.01)
        rng = RandomSource(b"fp" + bytes(30))
        flt = BloomFilter(p, rng.bytes(16))
        for i in range(1000):
            flt.insert(b"in" + i.to_bytes(4, "little"))
        hits = sum(flt.query(b"out" + i.to_bytes(4, "little"))
                   for i in range(20000))
        rate = hits / 20000
        assert p.target_fp / 3 <= rate <= 3 * p.target_fp


class TestFilterOps:
    def _toy(self):
        fam = FixedHashFamily({b"five": [2, 4, 5], b"two": [5, 0, 4]}, kappa=3)
        params = BloomParams(beta=8, kappa=3, eta=1, target_fp=0.5)
        return BloomFilter(params, bytes(16), family=fam)

    def test_insert_sets_indices(self):
        flt = self._toy()
        flt.insert(b"five")
        assert flt.bit_vector() == [0, 0, 1, 0, 1, 1, 0, 0]

    def test_insert_idempotent(self):
        flt = self._toy()
        flt.insert(b"five")
        once = flt.bit_vector()
        flt.insert(b"five")
        assert flt.bit_vector() == once

    def test_query_miss_on_unset_position(self):
        flt = self._toy()
        flt.insert(b"five")
        assert flt.query(b"five")
        assert not flt.query(b"two")  # location 0 holds a 0

    def test_empty_filter_rejects_everything(self):
        params = BloomParams(beta=128, kappa=4, eta=4, target_fp=0.1)
        flt = BloomFilter(params, bytes(16))
        assert not any(flt.query(i.to_bytes(4, "little")) for i in range(200))

    def test_no_false_negatives_randomized(self):
        rng = RandomSource(b"nofn" + bytes(28))
        params = derive_params(300, 0.02)
        flt = BloomFilter(params, rng.bytes(16))
        items = [rng.bytes(6) for _ in range(300)]
        for it in items:
            flt.insert(it)
        assert all(flt.query(it) for it in items)

    def test_set_fraction_tracks_estimate(self):
        # After eta inserts the set-bit fraction approximates
        # 1 - e^(-kappa*eta/beta) within 5 percent relative.
        rng = RandomSource(b"frac" + bytes(28))
        params = derive_params(2000, 0.01)
        assert params.beta >= 10 ** 4
        flt = BloomFilter(params, rng.bytes(16))
        for i in range(2000):
            flt.insert(i.to_bytes(4, "little"))
        expected = 1 - math.exp(-params.kappa * 2000 / params.beta)
        measured = flt.set_bit_count() / params.beta
        assert abs(measured - expected) / expected < 0.05
        # Near-optimal sizing targets half the bits set.
        assert 0.45 < measured < 0.55


# Writes the file argv[1] under an audit hook and prints, in order, each
# path opened and each rename, one event a line.
AUDITED_WRITE = """
import sys
from obfw.bloom import write_obfw_file
events = []
def hook(event, args):
    if event == "open":
        events.append(f"open {args[0]}")
    elif event == "os.rename":
        events.append(f"rename {args[0]} {args[1]}")
sys.addaudithook(hook)
write_obfw_file(sys.argv[1], 16, 2, bytes(18))
print("\\n".join(events))
"""


class TestFilterFile:
    def test_directory_synced_after_rename(self, tmp_path):
        # A rename is durable only once its directory is: the writer opens
        # the directory (to fsync it) after it opened and renamed the
        # temporary file.
        path = str(tmp_path / "a.filter")
        env = {**os.environ,
               "PYTHONPATH": os.path.dirname(os.path.dirname(obfw.__file__))}
        proc = subprocess.run([sys.executable, "-c", AUDITED_WRITE, path],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        events = proc.stdout.splitlines()
        tmp_open = events.index(f"open {path}.tmp")
        rename = events.index(f"rename {path}.tmp {path}")
        dir_open = events.index(f"open {tmp_path}")
        assert tmp_open < rename < dir_open

    def test_round_trip(self, tmp_path):
        rng = RandomSource(b"file" + bytes(28))
        params = derive_params(50, 0.05)
        flt = BloomFilter(params, rng.bytes(16))
        for i in range(50):
            flt.insert(i.to_bytes(4, "little"))
        path = str(tmp_path / "t.filter")
        flt.save(path)
        back = BloomFilter.load(path)
        assert back.bits == flt.bits
        assert back.params.beta == params.beta
        assert back.params.kappa == params.kappa
        assert back.master_key == flt.master_key
        assert all(back.query(i.to_bytes(4, "little")) for i in range(50))

    @pytest.mark.parametrize("offset,value", [(13, 0), (13, 65), (5, 0)],
                             ids=["kappa-zero", "kappa-above-64", "beta-zero"])
    def test_damaged_header_is_a_file_error(self, tmp_path, offset, value):
        params = BloomParams(beta=16, kappa=2, eta=1, target_fp=0.5)
        path = tmp_path / "d.filter"
        BloomFilter(params, bytes(range(16))).save(str(path))
        blob = bytearray(path.read_bytes())
        blob[offset] = value
        if offset == 5:                     # beta = 0 with no bit array
            blob = blob[:31]
        path.write_bytes(bytes(blob))
        with pytest.raises(IoError):
            BloomFilter.load(str(path))

    def test_magic_layout(self, tmp_path):
        params = BloomParams(beta=16, kappa=2, eta=1, target_fp=0.5)
        flt = BloomFilter(params, bytes(range(16)))
        path = tmp_path / "m.filter"
        flt.save(str(path))
        blob = path.read_bytes()
        assert blob[:5] == b"OBFW1"
        assert int.from_bytes(blob[5:13], "little") == 16
        assert int.from_bytes(blob[13:15], "little") == 2
        assert blob[15:31] == bytes(range(16))
        assert len(blob) == 31 + 2  # 16 bits packed into 2 bytes
