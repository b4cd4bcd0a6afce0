"""
The module interchange format: a JSON object with decimal-string degree
keys (JSON keys are strings, and negative degrees must survive the trip)
and flat row-major action matrices.  Serialization is canonical for the
blocks a module stores: UTF-8, sorted keys, LF newline.  A stored all-zero
action block and an absent one both mean zero and compare equal, but they
serialize differently ({"0":[0]} against {}).
"""

from __future__ import annotations

import json

import numpy as np

from . import gmod
from .gmod import GradedModule
from .linalg import check_prime

FORMAT_VERSION = "1"
# Cap on each degree's dimension.  It bounds the largest dense action block
# a file can ask for: 2^13 x 2^13 int64 entries, 512 MiB.
MAX_DEGREE_DIM = 1 << 13


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
        p = data["p"]
        n_plus_1 = data["n_plus_1"]
        dims_raw = data["dims"]
        actions_raw = data["actions"]
    except KeyError as missing:
        raise ModuleFileError(f"missing field {missing.args[0]!r}") from None
    # JSON integers only (`type(x) is int`): a float would be truncated, and
    # bool is an int subclass
    if type(p) is not int or type(n_plus_1) is not int:
        raise ModuleFileError("p and n_plus_1 must be integers")
    try:
        check_prime(p)
    except ValueError as bad:
        raise ModuleFileError(str(bad)) from None
    if n_plus_1 < 1:
        raise ModuleFileError("n_plus_1 must be positive")
    if not isinstance(dims_raw, dict):
        raise ModuleFileError("dims must map decimal-string degrees to counts")
    dims: dict[int, int] = {}
    for key, c in dims_raw.items():
        d = _degree(key)
        if type(c) is not int or not 0 <= c <= MAX_DEGREE_DIM:
            raise ModuleFileError(f"dimension in degree {d} must be an integer in [0, {MAX_DEGREE_DIM}]")
        dims[d] = c
    # optional, but they must agree with dims: to_dict writes 0 and -1 for the zero module
    degrees = sorted(d for d, c in dims.items() if c) or [0, -1]
    for key, want in (("min_deg", degrees[0]), ("max_deg", degrees[-1])):
        if key in data and (type(data[key]) is not int or data[key] != want):
            raise ModuleFileError(f"{key} must be the integer {want}, as dims give")
    if not isinstance(actions_raw, list) or len(actions_raw) != n_plus_1:
        raise ModuleFileError("actions must be an array with one object per variable")
    actions: list[dict[int, np.ndarray]] = []
    for i, block in enumerate(actions_raw):
        if not isinstance(block, dict):
            raise ModuleFileError(f"action x_{i} must be an object keyed by degree")
        out: dict[int, np.ndarray] = {}
        for key, flat in block.items():
            d = _degree(key)
            rows = dims.get(d, 0)
            cols = dims.get(d + 1, 0)
            if not isinstance(flat, list) or len(flat) != rows * cols:
                raise ModuleFileError(
                    f"action x_{i} at degree {d}: expected a list of {rows}x{cols} entries"
                )
            if not all(type(x) is int and 0 <= x < p for x in flat):
                raise ModuleFileError(f"action x_{i} at degree {d}: entries must be integers in [0, p)")
            out[d] = np.array(flat, dtype=np.int64).reshape(rows, cols)
        actions.append(out)
    try:
        m = GradedModule(n_plus_1, p, dims, actions)
    except ValueError as bad:
        raise ModuleFileError(str(bad)) from None
    problems = gmod.validate(m)
    if problems:
        raise ModuleFileError(problems[0])
    return m


def _degree(key: str) -> int:
    # canonical decimal only, so "01" and "1" cannot both name degree 1
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise ModuleFileError(f"degree key {key!r} is not a decimal integer")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads alone would keep the last of two equal keys without a word
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ModuleFileError(f"repeated key {key!r}")
        out[key] = value
    return out


def parse(text: str) -> GradedModule:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except ModuleFileError:
        raise
    except ValueError as bad:  # JSONDecodeError, or an integer too long to convert
        raise ModuleFileError(f"not valid JSON: {bad}") from None
    return parse_dict(data)
