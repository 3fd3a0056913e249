"""Tensor snapshot format and the checkpoint container."""

import struct

import numpy as np
import pytest

from vindet.serialize import (
    decode_tensor,
    encode_tensor,
    load_container,
    save_container,
)


class TestTensorFormat:
    def test_header_layout(self):
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        blob = encode_tensor(arr)
        assert blob[:4] == b"MPTN"
        dtype_code, rank = struct.unpack_from("<BB", blob, 4)
        assert dtype_code == 1 and rank == 2
        assert struct.unpack_from("<2I", blob, 6) == (2, 3)
        payload = np.frombuffer(blob[14:], dtype="<f8")
        np.testing.assert_array_equal(payload, np.arange(6.0))

    def test_f32_roundtrip(self):
        arr = np.random.default_rng(0).normal(size=(3, 4, 5)).astype(np.float32)
        out, used = decode_tensor(encode_tensor(arr))
        assert used == len(encode_tensor(arr))
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, arr)

    def test_scalar_rank_zero(self):
        arr = np.array(3.5)
        out, _ = decode_tensor(encode_tensor(arr))
        assert out.shape == ()
        assert out == 3.5

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_tensor(b"XXXX" + b"\x00" * 16)

    def test_unsupported_dtype(self):
        with pytest.raises(ValueError):
            encode_tensor(np.zeros(3, dtype=np.int32))


class TestContainer:
    def test_roundtrip_many(self, tmp_path):
        rng = np.random.default_rng(2)
        tensors = {f"layer{i}.w": rng.normal(size=(i + 1, 3)) for i in range(5)}
        tensors["meta/iter"] = np.array(12.0)
        path = tmp_path / "ck.mpci"
        save_container(path, tensors)
        out = load_container(path)
        assert set(out) == set(tensors)
        for k in tensors:
            np.testing.assert_array_equal(out[k], tensors[k])

    def test_bytes_deterministic_regardless_of_insert_order(self, tmp_path):
        a = {"b": np.ones(2), "a": np.zeros(3)}
        b = {"a": np.zeros(3), "b": np.ones(2)}
        save_container(tmp_path / "a.mpci", a)
        save_container(tmp_path / "b.mpci", b)
        assert (tmp_path / "a.mpci").read_bytes() == (tmp_path / "b.mpci").read_bytes()

    def test_non_container_rejected(self, tmp_path):
        (tmp_path / "junk").write_bytes(b"not a container")
        with pytest.raises(ValueError):
            load_container(tmp_path / "junk")

    def test_every_truncation_is_a_value_error_naming_the_file(self, tmp_path):
        path = tmp_path / "ck.mpci"
        save_container(path, {"a": np.arange(3.0), "bb": np.ones((2, 1), dtype=np.float32),
                              "s": np.array(1.5)})
        full = path.read_bytes()
        load_container(path)
        for cut in range(len(full)):
            path.write_bytes(full[:cut])
            with pytest.raises(ValueError, match="ck.mpci") as err:
                load_container(path)
            msg = str(err.value)
            assert ("truncated" if cut >= 4 else "not a checkpoint") in msg, (cut, msg)
            if cut >= 8:  # past the container header, the entry is named too
                assert "entry" in msg, (cut, msg)

    def test_blob_length_disagreeing_with_its_tensor_rejected(self, tmp_path):
        path = tmp_path / "ck.mpci"
        save_container(path, {"w": np.zeros(2)})
        buf = bytearray(path.read_bytes())
        buf[8 + 2 + 1] += 1  # blob length of entry "w"
        path.write_bytes(bytes(buf) + b"\x00")
        with pytest.raises(ValueError, match=r"entry 0 \(w\)"):
            load_container(path)
