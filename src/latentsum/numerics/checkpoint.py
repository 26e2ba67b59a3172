"""Self-describing checkpoint container.

A checkpoint file is one line of JSON, the header, then the body. The
header holds the format version, the model name, a config snapshot, the
vocabulary hash the model was trained against, one entry per parameter
(name, shape, little-endian dtype, byte count) and the sha256 of the
body. The body is each parameter's raw little-endian bytes in header
order. Round trips are bit-exact; loads refuse version, model or
vocabulary mismatches and corrupt, truncated or extended files. A save
writes the header and then each array in turn, and a load reads each
array straight into its ALIGN-aligned slot of one buffer and returns
read-only views of it, so neither holds a second copy of the parameters.

The atomic writer and the readers beside it do every stage's file I/O;
a reader raises its caller's error class.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from ..errors import CheckpointError

FORMAT_VERSION = 2

_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}
ALIGN = 64  # bytes: a loaded parameter starts at a multiple of it


def _little_endian_code(dtype: np.dtype) -> str:
    if dtype == np.float32:
        return "<f4"
    if dtype == np.float64:
        return "<f8"
    raise CheckpointError(f"unsupported parameter dtype {dtype}")


@dataclass
class CheckpointData:
    model: str
    config: dict
    vocab_hash: str
    arrays: dict[str, np.ndarray]  # read-only views of one aligned buffer

    def config_sizes(self, **dims) -> list[int]:
        """The config snapshot's sizes named by ``dims``, each mapped to the
        (array name, axis) whose length it must equal; a missing,
        non-integer, non-positive or mismatched size is a corrupt checkpoint."""
        sizes = []
        for key, (name, axis) in dims.items():
            try:
                size, stored = int(self.config[key]), self.arrays[name].shape[axis]
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                raise CheckpointError(f"corrupt checkpoint config: {exc!r}") from exc
            if size < 1 or size != stored:
                raise CheckpointError(f"corrupt checkpoint config: {key}={size}, but "
                                      f"{name} has shape {self.arrays[name].shape}")
            sizes.append(size)
        return sizes


def save_checkpoint(path, model: str, params, config: dict, vocab_hash: str):
    entries, chunks = [], []
    digest = hashlib.sha256()
    for p in sorted(params, key=lambda p: p.name):
        code = _little_endian_code(p.data.dtype)
        chunk = p.data.astype(_DTYPES[code], order="C", copy=False)
        digest.update(chunk)
        entries.append({"name": p.name, "shape": list(chunk.shape), "dtype": code,
                        "bytes": chunk.nbytes})
        chunks.append(chunk)
    header = {
        "format_version": FORMAT_VERSION,
        "model": model,
        "config": config,
        "vocab_hash": vocab_hash,
        "params": entries,
        "sha256": digest.hexdigest(),
    }
    # json.dumps escapes every newline, so the header is exactly one line
    line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    _atomic_write(path, [line, *chunks])


def _count(value) -> int:
    """A shape dimension or byte count from the header: a non-negative int."""
    if type(value) is not int or value < 0:
        raise CheckpointError(f"corrupt checkpoint: {value!r} is not a non-negative integer")
    return value


def load_checkpoint(path, expected_model: str, expected_vocab_hash: str) -> CheckpointData:
    with _opened(path, CheckpointError, "rb") as handle:
        model, config, vocab_hash, layout, sha256 = _header(
            handle.readline(), path, expected_model, expected_vocab_hash)
        arrays = _read_body(handle, path, layout, sha256)
    return CheckpointData(model=model, config=config, vocab_hash=vocab_hash, arrays=arrays)


def _header(line: bytes, path, expected_model: str, expected_vocab_hash: str):
    """The header line's model, config, vocabulary hash, body layout and
    sha256, after checking the format version, model and vocabulary."""
    # a version-1 file is one JSON document without a newline: all header
    try:
        header = json.loads(line.decode("utf-8"))
        version = header["format_version"]
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError, KeyError,
            TypeError) as exc:
        raise CheckpointError(f"corrupt or truncated checkpoint {path}: {exc}") from exc
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} != supported {FORMAT_VERSION}; "
            "re-run the stage that wrote it"
        )
    try:
        model, config, vocab_hash, entries, sha256 = (
            header[key] for key in ("model", "config", "vocab_hash", "params", "sha256"))
    except KeyError as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: missing {exc}") from exc
    if model != expected_model:
        raise CheckpointError(f"checkpoint holds model {model!r}, expected {expected_model!r}")
    if vocab_hash != expected_vocab_hash:
        raise CheckpointError(
            f"vocabulary hash mismatch: checkpoint {vocab_hash} vs current {expected_vocab_hash}"
        )
    layout = {}  # name -> (dtype, shape, byte count), in body order
    try:
        for entry in entries:
            name, dtype = entry["name"], _DTYPES[entry["dtype"]]
            if not isinstance(name, str) or name in layout:
                raise CheckpointError(f"corrupt checkpoint: bad or repeated name {name!r}")
            shape = tuple(_count(n) for n in entry["shape"])
            size, needed = _count(entry["bytes"]), math.prod(shape) * dtype.itemsize
            if size != needed:
                raise CheckpointError(f"parameter {name} holds {size} bytes, but shape "
                                      f"{shape} of {dtype.str} needs {needed}")
            layout[name] = (dtype, shape, size)
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc!r}") from exc
    return model, config, vocab_hash, layout, sha256


def _body_size_error(path, held: int, expected: int) -> CheckpointError:
    return CheckpointError(f"checkpoint body {path} holds {held} bytes, "
                           f"its header lists {expected}")


def _read_body(handle, path, layout: dict, sha256: str) -> dict[str, np.ndarray]:
    """The body read from ``handle``, each parameter's bytes straight into
    its ALIGN-aligned slot of one owned buffer and hashed as read, as
    read-only views of the slots. The body's size is checked before the
    buffer exists, and a short read, an extended file or a sha256 mismatch
    is refused."""
    start = handle.tell()
    expected = sum(size for *_, size in layout.values())
    held = os.fstat(handle.fileno()).st_size - start
    if held != expected:
        raise _body_size_error(path, held, expected)
    # each slot rounded up to a multiple of ALIGN; the last offset is the total
    offsets = list(accumulate((-(-size // ALIGN) * ALIGN for *_, size in layout.values()),
                              initial=0))
    buffer = np.empty(offsets[-1] + ALIGN, dtype=np.uint8)
    # numpy aligns an allocation less strictly: shift every slot alike
    shift = -buffer.ctypes.data % ALIGN
    offsets = [shift + offset for offset in offsets]
    slots = memoryview(buffer)
    digest = hashlib.sha256()
    held = 0
    for offset, (*_, size) in zip(offsets, layout.values()):
        slot = slots[offset:offset + size]
        got = handle.readinto(slot)  # all of the slot, unless the file ends
        held += got
        if got != size:
            raise _body_size_error(path, held, expected)
        digest.update(slot)
    if handle.read(1):
        raise _body_size_error(path, os.fstat(handle.fileno()).st_size - start, expected)
    if digest.hexdigest() != sha256:
        raise CheckpointError(f"checkpoint body {path} does not match its sha256")
    buffer.setflags(write=False)
    return {name: buffer[offset:offset + size].view(dtype).reshape(shape)
            for offset, (name, (dtype, shape, size)) in zip(offsets, layout.items())}


def apply_state(params, arrays: dict[str, np.ndarray]):
    """Bind checkpoint arrays to live Parameters by name. A loaded array is
    a read-only view of the load's buffer, which binding keeps without a
    copy; an array of another dtype than its Parameter's is refused."""
    by_name = {p.name: p for p in params}
    missing = sorted(set(by_name) - set(arrays))
    extra = sorted(set(arrays) - set(by_name))
    if missing or extra:
        raise CheckpointError(
            f"parameter name mismatch: missing {missing[:3]}, unexpected {extra[:3]}"
        )
    for name, p in by_name.items():
        arr = arrays[name]
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"parameter {name} shape {arr.shape} != model shape {p.data.shape}"
            )
        if arr.dtype != p.data.dtype:
            raise CheckpointError(
                f"parameter {name} dtype {arr.dtype} != model dtype {p.data.dtype}"
            )
        p.data = arr


def _atomic_write(path, chunks):
    """Write each of ``chunks`` (bytes-like) in turn to a temp file in the
    target directory, then rename it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    """Write ``text`` as UTF-8, atomically."""
    _atomic_write(path, [text.encode("utf-8")])


@contextmanager
def _opened(path, error, mode="r"):
    """``path`` open as UTF-8 text, or as bytes with mode "rb". A missing
    or unreadable file, a directory in its place and text that is not
    UTF-8 raise ``error``, the caller's error class."""
    path = Path(path)
    if not path.exists():
        raise error(f"file not found: {path}")
    try:
        with path.open(mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def read_text(path, error) -> str:
    """The whole of a UTF-8 text file; every read failure raises ``error``."""
    with _opened(path, error) as handle:
        return handle.read()


def read_json_lines(path, error):
    """(line number, JSON value) of each non-blank line of a JSON Lines
    file, read one line at a time; a read failure or a line that is not
    JSON raises ``error``."""
    with _opened(path, error) as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                detail = getattr(exc, "msg", exc)  # RecursionError: nested too deeply
                raise error(f"{path} line {line_no}: malformed JSON ({detail})") from exc
            yield line_no, value
