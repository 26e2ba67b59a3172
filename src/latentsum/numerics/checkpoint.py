"""Self-describing checkpoint container.

A checkpoint is one JSON file holding the format version, the model
name, a config snapshot, the vocabulary hash it was trained against, and
every parameter as (name, shape, dtype, base64 little-endian raw bytes).
Round trips are bit-exact; loads refuse version, model, or vocabulary
mismatches and corrupt files.

The atomic text writer and the UTF-8 text readers beside it do every
stage's file I/O; a reader raises its caller's error class.
"""

from __future__ import annotations

import base64
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import CheckpointError
from .tensor import Parameter

FORMAT_VERSION = 1

_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


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
    arrays: dict[str, np.ndarray]  # read-only views of the file's bytes

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
    entries = []
    for p in sorted(params, key=lambda p: p.name):
        code = _little_endian_code(p.data.dtype)
        raw = np.ascontiguousarray(p.data.astype(_DTYPES[code], copy=False)).tobytes()
        entries.append(
            {
                "name": p.name,
                "shape": list(p.data.shape),
                "dtype": code,
                "data": base64.b64encode(raw).decode("ascii"),
            }
        )
    payload = {
        "format_version": FORMAT_VERSION,
        "model": model,
        "config": config,
        "vocab_hash": vocab_hash,
        "params": entries,
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True))


def load_checkpoint(path, expected_model: str, expected_vocab_hash: str) -> CheckpointData:
    try:
        payload = json.loads(read_text(path, CheckpointError))
        version = payload["format_version"]
        model = payload["model"]
        config = payload["config"]
        vocab_hash = payload["vocab_hash"]
        entries = payload["params"]
    except (json.JSONDecodeError, RecursionError, KeyError, TypeError) as exc:
        raise CheckpointError(f"corrupt or truncated checkpoint {path}: {exc}") from exc
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} != supported {FORMAT_VERSION}"
        )
    if model != expected_model:
        raise CheckpointError(f"checkpoint holds model {model!r}, expected {expected_model!r}")
    if vocab_hash != expected_vocab_hash:
        raise CheckpointError(
            f"vocabulary hash mismatch: checkpoint {vocab_hash} vs current {expected_vocab_hash}"
        )
    arrays: dict[str, np.ndarray] = {}
    try:
        for entry in entries:
            dtype = _DTYPES[entry["dtype"]]
            raw = base64.b64decode(entry["data"], validate=True)
            shape = tuple(int(n) for n in entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            if len(raw) != count * dtype.itemsize:
                raise CheckpointError(
                    f"parameter {entry['name']} data length {len(raw)} != expected {count * dtype.itemsize}"
                )
            arrays[entry["name"]] = np.frombuffer(raw, dtype=dtype).reshape(shape)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    return CheckpointData(model=model, config=config, vocab_hash=vocab_hash, arrays=arrays)


def apply_state(params, arrays: dict[str, np.ndarray]):
    """Load checkpoint arrays into live Parameters by name, as writable
    copies in each Parameter's dtype."""
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
        p.data = arr.astype(p.data.dtype, copy=True)


def atomic_write_text(path, text: str):
    """Write via a temp file in the target directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def _opened(path, error):
    """``path`` open as UTF-8 text. A missing or unreadable file, a
    directory in its place and bytes that are not UTF-8 raise ``error``,
    the caller's error class."""
    path = Path(path)
    if not path.exists():
        raise error(f"file not found: {path}")
    try:
        with path.open(encoding="utf-8") as handle:
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
