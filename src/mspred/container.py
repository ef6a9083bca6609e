"""The one container layout behind datasets and checkpoints, and the one atomic write.

A container file is an 8-byte magic, the header length as a 4-byte
little-endian unsigned integer, the header as compact sorted-key UTF-8
JSON, and then float64 arrays, little-endian and C-ordered, back to back
with no padding. ``datagen`` (MSPDAT01 datasets) and ``training``
(MSPCKP01 checkpoints) own their magic and header schema; this module
owns the bytes.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import FormatError

_F8 = np.dtype("<f8")


def atomic_write(path, *chunks, digest=None) -> None:
    """Write the bytes-like ``chunks`` in order to a temporary file, then rename it to ``path``.

    ``digest``, a ``hashlib`` hash object, is updated with each chunk as it
    is written, so it ends as the hash of the file's bytes.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
            if digest is not None:
                digest.update(chunk)
    os.replace(tmp, path)


def write(path, magic: bytes, header: dict, arrays, digest=None) -> None:
    """Write ``header`` and then each array of ``arrays`` as float64;
    ``digest`` is passed to ``atomic_write``."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    atomic_write(path, magic, len(blob).to_bytes(4, "little"), blob,
                 *(np.ascontiguousarray(arr, dtype=_F8) for arr in arrays), digest=digest)


def _unique_keys(pairs: list) -> dict:
    # json.loads would keep only the last of two equal keys
    out = dict(pairs)
    if len(out) != len(pairs):
        raise ValueError(f"a key repeats among {[key for key, _ in pairs]}")
    return out


def read(path, magic: bytes, what: str, shapes_of) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container; return its header and its arrays by name.

    ``shapes_of(header)`` lists each array's ``(name, shape)`` in file
    order; a KeyError, IndexError, TypeError or ValueError it raises
    becomes a FormatError. So does a wrong magic, a header past the end
    of the file, not JSON or with a repeated key, a shape that is not a
    list of non-negative integers, a name listed twice, or a payload
    shorter or longer than the shapes add up to. ``what`` names the kind
    of file in the message.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        lead = fh.read(len(magic) + 4)
        if len(lead) < len(magic) + 4:
            raise FormatError(f"{what} truncated before header")
        if lead[: len(magic)] != magic:
            raise FormatError(f"bad {what} magic {lead[: len(magic)]!r}")
        end = len(lead) + int.from_bytes(lead[len(magic) :], "little")
        if end > size:
            raise FormatError(f"{what} header extends past end of file")
        raw = fh.read(end - len(lead))
        try:
            header = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
        except ValueError as exc:  # also UnicodeDecodeError and JSONDecodeError
            raise FormatError(f"{what} header is not valid JSON: {exc}") from exc
        try:
            layout = [(name, shape) for name, shape in shapes_of(header)]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise FormatError(f"{what} header does not list valid shapes: {exc!r}") from exc
        seen = set()
        for name, shape in layout:
            if not isinstance(name, str):
                raise FormatError(f"{what} array name {name!r} is not a string")
            if name in seen:
                raise FormatError(f"{what} header lists array {name!r} twice")
            seen.add(name)
            if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
                raise FormatError(f"shape {shape} of {what} array {name!r} is not "
                                  "a list of non-negative integers")
            # exact integers: a numpy product of [2**32, 2**32] wraps to 0
            end += math.prod(shape) * _F8.itemsize
            if end > size:
                raise FormatError(f"{what} payload for {name!r} truncated")
        if end != size:
            raise FormatError(f"trailing bytes after {what} payload")
        arrays = {}
        for name, shape in layout:
            arr = arrays[name] = np.empty(shape, dtype=_F8)
            if fh.readinto(arr) != arr.nbytes:
                raise FormatError(f"{what} payload for {name!r} truncated")
    return header, arrays
