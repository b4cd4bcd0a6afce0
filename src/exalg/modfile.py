"""
The module interchange format: a JSON object with decimal-string degree
keys (JSON keys are strings, and negative degrees must survive the trip)
and flat row-major action matrices.  Serialization is canonical: UTF-8,
sorted keys, LF newline, so equal modules produce identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from . import gmod
from .gmod import GradedModule
from .linalg import check_prime

FORMAT_VERSION = "1"


class ModuleFileError(ValueError):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def to_dict(m: GradedModule) -> dict:
    dims = {str(d): int(c) for d, c in sorted(m.dims.items())}
    actions = []
    for i in range(m.n_plus_1):
        block = {}
        for d in sorted(m.actions[i]):
            block[str(d)] = [int(x) for x in m.actions[i][d].ravel()]
        actions.append(block)
    degrees = sorted(m.dims)
    return {
        "version": FORMAT_VERSION,
        "p": m.p,
        "n_plus_1": m.n_plus_1,
        "min_deg": degrees[0] if degrees else 0,
        "max_deg": degrees[-1] if degrees else -1,
        "dims": dims,
        "actions": actions,
    }


def serialize(m: GradedModule) -> str:
    return canonical_json(to_dict(m))


def parse_dict(data: dict) -> GradedModule:
    if not isinstance(data, dict):
        raise ModuleFileError("module file must be a JSON object")
    if data.get("version") != FORMAT_VERSION:
        raise ModuleFileError(f"unsupported format version {data.get('version')!r}")
    try:
        p = int(data["p"])
        n_plus_1 = int(data["n_plus_1"])
        dims_raw = data["dims"]
        actions_raw = data["actions"]
    except KeyError as missing:
        raise ModuleFileError(f"missing field {missing.args[0]!r}") from None
    try:
        check_prime(p)
    except ValueError as bad:
        raise ModuleFileError(str(bad)) from None
    if n_plus_1 < 1:
        raise ModuleFileError("n_plus_1 must be positive")
    try:
        dims = {int(k): int(v) for k, v in dims_raw.items()}
    except (TypeError, ValueError, AttributeError):
        raise ModuleFileError("dims must map decimal-string degrees to counts") from None
    for d, c in dims.items():
        if c < 0:
            raise ModuleFileError(f"negative dimension in degree {d}")
    if not isinstance(actions_raw, list) or len(actions_raw) != n_plus_1:
        raise ModuleFileError("actions must be an array with one object per variable")
    actions: list[dict[int, np.ndarray]] = []
    for i, block in enumerate(actions_raw):
        out: dict[int, np.ndarray] = {}
        for key, flat in block.items():
            d = int(key)
            rows = dims.get(d, 0)
            cols = dims.get(d + 1, 0)
            if len(flat) != rows * cols:
                raise ModuleFileError(
                    f"action x_{i} at degree {d}: expected {rows}x{cols} entries, got {len(flat)}"
                )
            mat = np.array([int(x) for x in flat], dtype=np.int64).reshape(rows, cols)
            if mat.size and (mat.min() < 0 or mat.max() >= p):
                raise ModuleFileError(f"action x_{i} at degree {d}: entries outside [0, p)")
            out[d] = mat
        actions.append(out)
    try:
        m = GradedModule(n_plus_1, p, dims, actions)
    except ValueError as bad:
        raise ModuleFileError(str(bad)) from None
    problems = gmod.validate(m)
    if problems:
        raise ModuleFileError(problems[0])
    return m


def parse(text: str) -> GradedModule:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as bad:
        raise ModuleFileError(f"not valid JSON: {bad}") from None
    return parse_dict(data)
