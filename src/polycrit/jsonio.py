"""JSON schemas: polynomials as {"repr": "roots"|"coeffs", "data": [[re, im], ...]}.

Complex numbers are [re, im] pairs everywhere; writers emit both
representations so files stay diffable regardless of how they were built.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .poly import Polynomial


def pairs(values) -> list[list[float]]:
    return [[float(np.real(v)), float(np.imag(v))] for v in np.asarray(values, dtype=complex)]


def unpairs(data) -> list[complex]:
    return [complex(float(re), float(im)) for re, im in data]


def poly_to_obj(p: Polynomial, repr_kind: str = "coeffs") -> dict:
    if repr_kind not in ("roots", "coeffs"):
        raise ValueError("repr must be 'roots' or 'coeffs'")
    obj = {
        "repr": repr_kind,
        "coeffs": pairs(p.coeffs),
    }
    if p.degree >= 1:
        obj["roots"] = pairs(p.find_roots().points)
    else:
        obj["roots"] = []
    obj["data"] = obj[repr_kind]
    return obj


def poly_from_obj(obj: dict) -> Polynomial:
    kind = obj.get("repr")
    if kind == "roots":
        return Polynomial.from_roots(unpairs(obj["data"]))
    if kind == "coeffs":
        return Polynomial(tuple(unpairs(obj["data"])))
    raise ValueError("polynomial object needs repr 'roots' or 'coeffs'")


def write_poly(path, p: Polynomial, repr_kind: str = "coeffs") -> None:
    Path(path).write_text(json.dumps(poly_to_obj(p, repr_kind), indent=2) + "\n")


def read_poly(path) -> Polynomial:
    return poly_from_obj(json.loads(Path(path).read_text()))


def matrix_to_obj(M) -> dict:
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return {
        "shape": list(M.shape),
        "data": [pairs(row) for row in M],
    }
