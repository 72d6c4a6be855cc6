"""Small shared numerics and I/O helpers."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


def smoothstep_c3(x):
    """C3 step profile: 0 for x<=0, 1 for x>=1, 35x^4-84x^5+70x^6-20x^7 between.

    First three derivatives vanish at both ends, so piecewise extensions by
    constants remain C3.
    """
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return ((35.0 + (-84.0 + (70.0 - 20.0 * x) * x) * x) * x ** 4)


def bump_c3(s):
    """C3 bump: 1 at s=0, 0 for |s|>=1, monotone in between."""
    return smoothstep_c3(1.0 - np.abs(s))


def _round_floats(obj, sig=12):
    if isinstance(obj, dict):
        return {k: _round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, sig) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if not math.isfinite(x):
            return repr(x)
        return float(f"{x:.{sig}g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist(), sig)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, floats at 12 significant digits."""
    return json.dumps(_round_floats(obj), sort_keys=True, indent=1)


def config_hash(pairs):
    """sha256 over canonical 'key=value' lines of a flat config mapping."""
    lines = sorted(f"{k}={v}" for k, v in pairs.items())
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def rng_for(seed):
    return np.random.default_rng(seed)


def complex_pack(P):
    """(B, 2n) real coordinates (x1,y1,x2,y2,...) -> (B, n) complex."""
    P = np.asarray(P, dtype=float)
    return P[..., 0::2] + 1j * P[..., 1::2]


def complex_unpack(Z):
    """(B, n) complex -> (B, 2n) real coordinates (x1,y1,...)."""
    Z = np.asarray(Z, dtype=complex)
    out = np.empty(Z.shape[:-1] + (2 * Z.shape[-1],), dtype=float)
    out[..., 0::2] = Z.real
    out[..., 1::2] = Z.imag
    return out
