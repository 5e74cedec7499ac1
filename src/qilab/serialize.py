"""JSON encodings for matrices and pure states.

Matrix: {"rows": R, "cols": C, "dims": [...], "re": [...], "im": [...]}
with entries flattened row-major.  Pure state: {"amps_re": [...],
"amps_im": [...], "dims": [...]}.
"""
from __future__ import annotations

import json
from typing import Any

import numpy as np

from .states import DensityMatrix, PureState
from .tensor import _strict_int


class FormatError(ValueError):
    """Malformed serialized object."""


def _finite(x: Any) -> np.ndarray:
    """A JSON number list as a float array; NaN and infinities are refused."""
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("entries must be finite numbers")
    return a


def matrix_to_json(m: np.ndarray, dims=None) -> dict[str, Any]:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise FormatError("matrix payload must be 2-dimensional")
    payload = {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": m.real.reshape(-1).tolist(),
        "im": m.imag.reshape(-1).tolist(),
    }
    if dims is not None:
        payload["dims"] = [int(d) for d in dims]
    return payload


def matrix_from_json(obj: dict[str, Any]) -> tuple[np.ndarray, tuple[int, ...] | None]:
    try:
        rows, cols = _strict_int(obj["rows"]), _strict_int(obj["cols"])
        re, im = _finite(obj["re"]), _finite(obj["im"])
        dims = tuple(_strict_int(d) for d in obj["dims"]) if "dims" in obj else None
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad matrix object: {exc}") from exc
    if re.size != rows * cols or im.size != rows * cols:
        raise FormatError("re/im length does not match rows*cols")
    # (re, im) pairs viewed as complex; re + 1j * im would turn a real part -0.0 into 0.0
    return np.stack([re, im], axis=-1).view(complex).reshape(rows, cols), dims


def state_to_json(psi: PureState) -> dict[str, Any]:
    return {
        "amps_re": psi.amps.real.tolist(),
        "amps_im": psi.amps.imag.tolist(),
        "dims": list(psi.dims),
    }


def state_from_json(obj: dict[str, Any]) -> PureState:
    try:
        re, im = _finite(obj["amps_re"]), _finite(obj["amps_im"])
        dims = tuple(_strict_int(d) for d in obj["dims"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad state object: {exc}") from exc
    if re.size != im.size:
        raise FormatError("amps_re/amps_im length mismatch")
    try:
        return PureState(np.stack([re, im], axis=-1).view(complex), dims)  # keeps signed zeros
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def load_state_or_density(path: str) -> PureState | DensityMatrix:
    """Read either encoding from a JSON file."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError("top-level JSON object expected")
    if "amps_re" in obj:
        return state_from_json(obj)
    m, dims = matrix_from_json(obj)
    try:
        return DensityMatrix(m, dims)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
