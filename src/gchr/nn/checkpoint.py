"""Parameter checkpoints: bit-exact save/load of named float64 arrays.

File layout:

    line 1:  magic b"GCHR-CKPT-1\\n"
    line 2:  one JSON object {"arrays": [{"name": ..., "shape": [...]}, ...]}
             followed by a newline
    body:    for each listed array, in order, its raw C-order
             little-endian float64 bytes

The JSON header fixes both ordering and shapes, so a round trip restores
every bit of every parameter.
"""

from __future__ import annotations

import json

import numpy as np

MAGIC = b"GCHR-CKPT-1\n"


def save_params(path, params):
    arrays = [{"name": name, "shape": list(arr.shape)} for name, arr in params.items()]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps({"arrays": arrays}).encode("ascii") + b"\n")
        for arr in params.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_params(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a parameter checkpoint (bad magic)")
        header = json.loads(fh.readline().decode("ascii"))
        params = {}
        for entry in header["arrays"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            data = fh.read(count * 8)
            if len(data) != count * 8:
                raise ValueError(f"{path}: truncated checkpoint at array {entry['name']!r}")
            params[entry["name"]] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after declared arrays")
    return params
