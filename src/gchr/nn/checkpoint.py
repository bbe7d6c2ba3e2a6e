"""Parameter checkpoints: bit-exact save/load of named float64 arrays.

File layout:

    line 1:  magic b"GCHR-CKPT-1\\n"
    line 2:  one JSON object {"arrays": [{"name": ..., "shape": [...]}, ...]}
             followed by a newline
    body:    for each listed array, in order, its raw C-order
             little-endian float64 bytes

The JSON header fixes both ordering and shapes, so a round trip restores
every bit of every parameter. A save writes `<path>.tmp` and then renames it
over `path`, so a save that fails midway leaves the previous checkpoint
whole; the partial `<path>.tmp` is removed before the error propagates.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

MAGIC = b"GCHR-CKPT-1\n"


def save_params(path, params):
    arrays = [{"name": name, "shape": list(arr.shape)} for name, arr in params.items()]
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(json.dumps({"arrays": arrays}).encode("ascii") + b"\n")
            for arr in params.values():
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_params(path):
    """The named arrays of a checkpoint, in file order. The file is read
    once, into one writable buffer; each array is a view into it."""
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        fh.readinto(data)
    if not data.startswith(MAGIC):
        raise ValueError(f"{path}: not a parameter checkpoint (bad magic)")
    offset = data.find(b"\n", len(MAGIC)) + 1
    if not offset:
        raise ValueError(f"{path}: truncated checkpoint header")
    header = json.loads(data[len(MAGIC) : offset].decode("ascii"))
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), list):
        raise ValueError(f'{path}: checkpoint header is not an object with an "arrays" list')
    params = {}
    for i, entry in enumerate(header["arrays"]):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)):
            raise ValueError(f'{path}: header entry {i} needs a string "name" and a list "shape"')
        shape = tuple(entry["shape"])
        if any(type(dim) is not int or dim < 0 for dim in shape):
            raise ValueError(f"{path}: bad shape {list(shape)} for array {entry['name']!r}")
        count = math.prod(shape)
        if offset + count * 8 > len(data):
            raise ValueError(f"{path}: truncated checkpoint at array {entry['name']!r}")
        params[entry["name"]] = np.frombuffer(data, "<f8", count, offset).reshape(shape)
        offset += count * 8
    if offset != len(data):
        raise ValueError(f"{path}: trailing bytes after declared arrays")
    return params
