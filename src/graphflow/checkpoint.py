"""Binary checkpoint serialization.

Layout: magic b"AGFW", then little-endian u32 format version and entry
count, then per entry: u32 name length, UTF-8 name, u32 rank, u32
extents, and the values as row-major little-endian IEEE-754 float32.
Entry names are unique.
Writing the same entries twice produces identical bytes, so trained
results can be compared with a file hash. A finished sibling temp file
replaces the target, so an interrupted write leaves the old one intact.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError

MAGIC = b"AGFW"
VERSION = 1


def save_checkpoint(path: str | Path, entries: dict[str, np.ndarray]) -> None:
    """Serialize named arrays as float32, each written straight to the file."""
    if not entries:
        raise ContractError("refusing to write a checkpoint with no entries")
    tmp = Path(f"{path}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(MAGIC + struct.pack("<II", VERSION, len(entries)))
            for name, arr in entries.items():
                # note: ascontiguousarray would force rank-0 entries to rank 1
                arr = np.asarray(arr, dtype="<f4", order="C")
                encoded = name.encode("utf-8")
                fh.write(struct.pack(f"<I{len(encoded)}sI{arr.ndim}I", len(encoded),
                                     encoded, arr.ndim, *arr.shape))
                fh.write(arr.data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint back as name -> float32 array, insertion-ordered.

    Every value must be finite: an entry holding NaN or an infinity is a
    ``FormatError`` that names it, so no run starts from one.
    """
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"checkpoint not found: {path}")
    blob = p.read_bytes()
    if len(blob) < 12:
        raise FormatError(f"{path}: truncated header, {len(blob)} bytes")
    if blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r} at byte 0")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    pos = 12
    out: dict[str, np.ndarray] = {}
    for i in range(count):
        if pos + 4 > len(blob):
            raise FormatError(f"{path}: entry {i} header truncated at byte {pos}")
        (name_len,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if pos + name_len > len(blob):
            raise FormatError(f"{path}: entry {i} name truncated at byte {pos}")
        try:
            name = blob[pos:pos + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(
                f"{path}: entry {i} name is not UTF-8 at byte {pos}") from None
        if name in out:
            raise FormatError(
                f"{path}: entry {i} repeats the name {name!r} at byte {pos}")
        pos += name_len
        if pos + 4 > len(blob):
            raise FormatError(f"{path}: entry {name!r} rank truncated at byte {pos}")
        (rank,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if rank > 8:
            raise FormatError(f"{path}: entry {name!r} has absurd rank {rank}")
        if pos + 4 * rank > len(blob):
            raise FormatError(
                f"{path}: entry {name!r} extents truncated at byte {pos}")
        shape = struct.unpack_from(f"<{rank}I", blob, pos)
        pos += 4 * rank
        size = math.prod(shape)          # a Python int: no int64 wrap
        nbytes = 4 * size
        if pos + nbytes > len(blob):
            raise FormatError(
                f"{path}: entry {name!r} values truncated at byte {pos} "
                f"(need {nbytes} bytes)")
        arr = np.frombuffer(blob, dtype="<f4", count=size, offset=pos)
        if not np.isfinite(arr).all():
            raise FormatError(
                f"{path}: entry {name!r} holds NaN or infinite values")
        out[name] = arr.reshape(shape).copy()
        pos += nbytes
    if pos != len(blob):
        raise FormatError(
            f"{path}: {len(blob) - pos} trailing bytes after entry {count - 1}")
    return out
