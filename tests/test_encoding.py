"""Vector records: the canonical encoding and its strict decoders."""

import numpy as np
import pytest

from biochain.encoding import decode_vector, decode_vectors, encode_vector


class TestDecodeVector:
    def test_round_trip(self):
        v = np.array([1.5, -0.0, 1e300, -7.25])
        out = decode_vector(encode_vector(v))
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert out.tobytes() == v.tobytes()

    @pytest.mark.parametrize("damage", ["trailing", "short", "header", "empty", "ragged"])
    def test_header_must_match_the_record_size(self, damage):
        record = encode_vector(np.arange(4.0))
        damaged = {
            "trailing": record + bytes(8),
            "short": record[:-8],
            "header": encode_vector(np.arange(3.0))[:4] + record[4:],
            "empty": b"",
            "ragged": record + b"\x00",
        }[damage]
        with pytest.raises(ValueError):
            decode_vector(damaged)


class TestDecodeVectors:
    def test_row_i_is_record_i(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(6, 5))
        out = decode_vectors([encode_vector(row) for row in matrix])
        assert out.tobytes() == matrix.tobytes()

    def test_one_bad_header_rejects_the_batch(self):
        records = [encode_vector(np.ones(4)) for _ in range(5)]
        records[3] = encode_vector(np.ones(3))[:4] + records[3][4:]
        with pytest.raises(ValueError):
            decode_vectors(records)

    def test_records_of_different_sizes_rejected(self):
        with pytest.raises(ValueError):
            decode_vectors([encode_vector(np.ones(4)), encode_vector(np.ones(5))])
        with pytest.raises(ValueError):
            decode_vectors([])
