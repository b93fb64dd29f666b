"""Bit-exact binary containers for tensors and checkpoints.

Tensor blob ("PFGT"):
    magic        4 bytes  b"PFGT"
    version      1 byte   = 1
    dtype code   1 byte   0 = float32, 1 = float64
    reserved     2 bytes  = 0
    ndim         uint32 LE
    dims         ndim x uint64 LE
    payload      row-major little-endian scalars

Checkpoint file ("PFGC"):
    magic        4 bytes  b"PFGC"
    version      1 byte   = 1
    entry count  uint32 LE
    entries      [name length uint16 LE, UTF-8 name, tensor blob]

The first checkpoint entry is named "config" and stores the serialized
config text as a float64 tensor of byte values (the format carries no
integer dtype; bytes are exactly representable).

Files are written atomically (see :func:`atomic_write`): a write that fails
part-way leaves an existing target as it was.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import InputError

TENSOR_MAGIC = b"PFGT"
CHECKPOINT_MAGIC = b"PFGC"
VERSION = 1
MAX_RANK = 5

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def write_tensor_blob(fh, arr: np.ndarray):
    arr = np.asarray(arr)
    if arr.dtype not in _DTYPE_CODES:
        raise InputError(f"unsupported dtype {arr.dtype}; use float32 or float64")
    if not 1 <= arr.ndim <= MAX_RANK:
        raise InputError(f"rank {arr.ndim} outside supported range 1..{MAX_RANK}")
    fh.write(TENSOR_MAGIC)
    fh.write(struct.pack("<BBH", VERSION, _DTYPE_CODES[arr.dtype], 0))
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    fh.write(np.ascontiguousarray(le).tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise InputError(f"truncated file while reading {what}")
    return data


def _bytes_left(fh) -> int:
    pos = fh.tell()
    end = fh.seek(0, os.SEEK_END)
    fh.seek(pos)
    return end - pos


def read_tensor_blob(fh) -> np.ndarray:
    magic = _read_exact(fh, 4, "magic")
    if magic != TENSOR_MAGIC:
        raise InputError(f"bad tensor magic {magic!r}")
    version, code, reserved = struct.unpack("<BBH", _read_exact(fh, 4, "header"))
    if version != VERSION:
        raise InputError(f"unsupported tensor version {version}")
    if code not in _CODE_DTYPES:
        raise InputError(f"unknown dtype code {code}")
    if reserved != 0:
        raise InputError(f"nonzero reserved field {reserved}")
    (ndim,) = struct.unpack("<I", _read_exact(fh, 4, "rank"))
    if not 1 <= ndim <= MAX_RANK:
        raise InputError(f"rank {ndim} outside supported range 1..{MAX_RANK}")
    dims = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, "dims"))
    if any(d < 1 for d in dims):
        raise InputError(f"invalid dims {dims}")
    dtype = _CODE_DTYPES[code]
    nbytes = dtype.itemsize * math.prod(dims)  # Python ints: cannot wrap
    left = _bytes_left(fh)
    if nbytes > left:
        raise InputError(f"dims {dims} need {nbytes} payload bytes, file has {left} left")
    payload = _read_exact(fh, nbytes, "payload")
    arr = np.frombuffer(payload, dtype=dtype).reshape(dims)
    return arr.astype(dtype.newbyteorder("="), copy=True)


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **kwargs):
    """Open a temporary file beside ``path``; move it onto ``path`` on success.

    ``os.replace`` swaps the complete file in at once, so the target holds
    either its old bytes or all the new ones; on failure the temporary file is
    removed and the target is untouched. There is no fsync: this guards
    against a write that fails part-way, not against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_tensor(path, arr: np.ndarray):
    with atomic_write(path) as fh:
        write_tensor_blob(fh, arr)


def load_tensor(path) -> np.ndarray:
    path = Path(path)
    if not path.is_file():
        raise InputError(f"no such file: {path}")
    with open(path, "rb") as fh:
        arr = read_tensor_blob(fh)
        if fh.read(1):
            raise InputError(f"trailing bytes after tensor payload in {path}")
    return arr


CONFIG_ENTRY = "config"


def save_checkpoint(path, config_text: str, tensors: dict[str, np.ndarray]):
    """Write config text plus named tensors; entry order is preserved."""
    names = [CONFIG_ENTRY, *tensors]
    if len(set(names)) != len(names):
        raise InputError("duplicate checkpoint entry names")
    config_arr = np.frombuffer(config_text.encode("utf-8"), dtype=np.uint8).astype(np.float64)
    if config_arr.size == 0:
        raise InputError("empty config text")
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", VERSION))
        fh.write(struct.pack("<I", len(names)))
        for name, arr in [(CONFIG_ENTRY, config_arr), *tensors.items()]:
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise InputError(f"entry name too long: {name[:32]}...")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            write_tensor_blob(fh, arr)


def load_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    """Read back (config text, ordered name -> tensor map)."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"no such file: {path}")
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise InputError(f"bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<B", _read_exact(fh, 1, "version"))
        if version != VERSION:
            raise InputError(f"unsupported checkpoint version {version}")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "entry count"))
        entries: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            name = _read_exact(fh, name_len, "name").decode("utf-8")
            if name in entries:
                raise InputError(f"duplicate checkpoint entry '{name}'")
            entries[name] = read_tensor_blob(fh)
        if fh.read(1):
            raise InputError(f"trailing bytes after last entry in {path}")
    if CONFIG_ENTRY not in entries:
        raise InputError("checkpoint is missing its config entry")
    config_arr = entries.pop(CONFIG_ENTRY)
    config_text = bytes(np.round(config_arr).astype(np.uint8)).decode("utf-8")
    return config_text, entries
