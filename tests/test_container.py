"""Binary container formats: round trips and validation."""

import struct

import numpy as np
import pytest

from perigate import container
from perigate.errors import InputError


class TestTensorBlob:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_roundtrip_bitwise(self, tmp_path, dtype, rank):
        rng = np.random.default_rng(rank)
        shape = tuple(rng.integers(1, 5, size=rank))
        arr = rng.standard_normal(shape).astype(dtype)
        path = tmp_path / "t.pfgt"
        container.save_tensor(path, arr)
        back = container.load_tensor(path)
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert arr.tobytes() == back.tobytes()

    def test_header_layout(self, tmp_path):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / "t.pfgt"
        container.save_tensor(path, arr)
        raw = path.read_bytes()
        assert raw[:4] == b"PFGT"
        assert raw[4] == 1  # version
        assert raw[5] == 0  # float32 code
        assert raw[6:8] == b"\x00\x00"
        assert struct.unpack("<I", raw[8:12])[0] == 2
        assert struct.unpack("<2Q", raw[12:28]) == (2, 3)
        assert len(raw) == 28 + 6 * 4

    def test_double_write_identical_bytes(self, tmp_path):
        arr = np.random.default_rng(0).random((3, 4)).astype(np.float64)
        p1, p2 = tmp_path / "a.pfgt", tmp_path / "b.pfgt"
        container.save_tensor(p1, arr)
        container.save_tensor(p2, arr)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pfgt"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(InputError):
            container.load_tensor(path)

    def test_truncated(self, tmp_path):
        arr = np.ones((4, 4), dtype=np.float32)
        path = tmp_path / "t.pfgt"
        container.save_tensor(path, arr)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(InputError):
            container.load_tensor(path)

    def test_trailing_bytes(self, tmp_path):
        arr = np.ones(3, dtype=np.float32)
        path = tmp_path / "t.pfgt"
        container.save_tensor(path, arr)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(InputError):
            container.load_tensor(path)

    @pytest.mark.parametrize("dims", [(2**32, 2**32), (2**40,)])
    def test_crafted_dims_rejected(self, tmp_path, dims):
        # (2^32, 2^32) wraps a uint64 element count to 0; 2^40 float64s is 8 TiB
        path = tmp_path / "huge.pfgt"
        header = b"PFGT" + struct.pack("<BBHI", 1, 1, 0, len(dims))
        path.write_bytes(header + struct.pack(f"<{len(dims)}Q", *dims) + b"\x00" * 16)
        with pytest.raises(InputError, match="payload bytes"):
            container.load_tensor(path)

    def test_unsupported_dtype(self, tmp_path):
        with pytest.raises(InputError):
            container.save_tensor(tmp_path / "t.pfgt", np.ones(3, dtype=np.int32))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            container.load_tensor(tmp_path / "absent.pfgt")


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        tensors = {
            "enc/w": rng.standard_normal((2, 3)).astype(np.float32),
            "enc/b": rng.standard_normal(2).astype(np.float32),
            "beta": rng.standard_normal((4,)).astype(np.float64),
        }
        path = tmp_path / "m.pfgc"
        container.save_checkpoint(path, "t_in = 2\nseed = 0\n", tensors)
        text, back = container.load_checkpoint(path)
        assert text == "t_in = 2\nseed = 0\n"
        assert list(back) == list(tensors)  # order preserved
        for k in tensors:
            assert tensors[k].tobytes() == back[k].tobytes()
            assert tensors[k].dtype == back[k].dtype

    def test_magic_and_version_checked_first(self, tmp_path):
        path = tmp_path / "m.pfgc"
        path.write_bytes(b"PFGX" + bytes([1]) + struct.pack("<I", 0))
        with pytest.raises(InputError):
            container.load_checkpoint(path)

    def test_config_text_with_unicode(self, tmp_path):
        path = tmp_path / "m.pfgc"
        container.save_checkpoint(path, "seed = 1 # μ-run\n", {})
        text, _ = container.load_checkpoint(path)
        assert "μ-run" in text

    def test_deterministic_bytes(self, tmp_path):
        tensors = {"w": np.arange(4, dtype=np.float32)}
        p1, p2 = tmp_path / "a.pfgc", tmp_path / "b.pfgc"
        container.save_checkpoint(p1, "seed = 0\n", tensors)
        container.save_checkpoint(p2, "seed = 0\n", tensors)
        assert p1.read_bytes() == p2.read_bytes()


class TestAtomicWrites:
    """A write that fails part-way leaves the old target and no temporary file."""

    def _fails_midway(self, monkeypatch):
        real = container.write_tensor_blob
        calls = []

        def flaky(fh, arr):
            calls.append(1)
            if len(calls) == 2:  # the first blob is already written
                fh.write(b"partial")
                raise OSError("disk full")
            real(fh, arr)

        monkeypatch.setattr(container, "write_tensor_blob", flaky)

    def test_checkpoint_failure_keeps_target(self, tmp_path, monkeypatch):
        path = tmp_path / "m.pfgc"
        container.save_checkpoint(path, "seed = 0\n", {"w": np.arange(3.0)})
        before = path.read_bytes()
        self._fails_midway(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            container.save_checkpoint(path, "seed = 1\n", {"w": np.zeros(5)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.pfgc"]

    def test_tensor_failure_keeps_target(self, tmp_path, monkeypatch):
        path = tmp_path / "t.pfgt"
        container.save_tensor(path, np.arange(4.0))
        before = path.read_bytes()
        monkeypatch.setattr(container, "write_tensor_blob",
                            lambda fh, arr: (fh.write(b"PFGT"), 1 / 0))
        with pytest.raises(ZeroDivisionError):
            container.save_tensor(path, np.zeros(2))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.pfgt"]

    def test_success_replaces_target(self, tmp_path):
        path = tmp_path / "t.pfgt"
        container.save_tensor(path, np.arange(4.0))
        container.save_tensor(path, np.zeros(2))
        assert np.array_equal(container.load_tensor(path), np.zeros(2))
        assert [p.name for p in tmp_path.iterdir()] == ["t.pfgt"]
