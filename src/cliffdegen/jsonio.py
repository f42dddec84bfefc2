"""JSON (and TSV) value encodings for the CLI and file interfaces.

Conventions: rationals are strings "p/q" (or "n" when integral); polynomials
are arrays of rational strings by ascending degree; rational functions are
{"num": [...], "den": [...]}; a quadratic space is {"m": int, "Q": [[...]]};
a multivector maps compact blade-index keys like "[1,3]" to coefficients.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .clifford import Multivector, QuadraticSpace, indices_of, mask_of
from .degeneration import SpecializationWitness
from .liestructure import AlgebraTensor
from .localmodels import MatrixTuple, TraceFingerprint
from .rings import Poly, RatFun


class InputFormatError(ValueError):
    pass


def encode_rational(v: Fraction) -> str:
    v = Fraction(v)
    return str(v)


def encode_coeff(v):
    if isinstance(v, Poly):
        return [encode_rational(c) for c in v.coeffs]
    if isinstance(v, RatFun):
        return {
            "num": [encode_rational(c) for c in v.num.coeffs],
            "den": [encode_rational(c) for c in v.den.coeffs],
        }
    return encode_rational(v)


def decode_coeff(obj):
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"bad rational {obj!r}: {exc}") from exc
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, list):
        return Poly([decode_coeff(c) for c in obj])
    if isinstance(obj, dict) and set(obj) == {"num", "den"}:
        return RatFun(
            Poly([decode_coeff(c) for c in obj["num"]]),
            Poly([decode_coeff(c) for c in obj["den"]]),
        )
    raise InputFormatError(f"unrecognised coefficient encoding: {obj!r}")


def encode_space(V: QuadraticSpace) -> dict:
    return {"m": V.m, "Q": [[encode_coeff(v) for v in row] for row in V.gram]}


def decode_space(obj) -> QuadraticSpace:
    if not isinstance(obj, dict) or "Q" not in obj:
        raise InputFormatError('quadratic space must be {"m": int, "Q": [[...]]}')
    rows = [[decode_coeff(v) for v in row] for row in obj["Q"]]
    V = QuadraticSpace(rows)
    if "m" in obj and obj["m"] != V.m:
        raise InputFormatError(f'declared m={obj["m"]} but Q is {V.m}x{V.m}')
    return V


def encode_multivector(x: Multivector) -> dict:
    out = {}
    for mask in sorted(x.terms, key=lambda m: (m.bit_count(), indices_of(m))):
        key = "[" + ",".join(str(i) for i in indices_of(mask)) + "]"
        out[key] = encode_coeff(x.terms[mask])
    return out


def decode_multivector(obj) -> Multivector:
    if not isinstance(obj, dict):
        raise InputFormatError("multivector must be an object of blade -> coefficient")
    terms = {}
    for key, cval in obj.items():
        try:
            idx = json.loads(key)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"bad blade key {key!r}") from exc
        if not isinstance(idx, list) or not all(isinstance(i, int) for i in idx):
            raise InputFormatError(f"blade key must be a list of indices: {key!r}")
        terms[mask_of(idx)] = decode_coeff(cval)
    return Multivector(terms)


def encode_tensor(T: AlgebraTensor) -> dict:
    entries = []
    for (i, j) in sorted(T.c):
        for k in sorted(T.c[(i, j)]):
            entries.append([i, j, k, encode_coeff(T.c[(i, j)][k])])
    return {"dim": T.dim, "identity": T.identity, "c": entries}


def decode_tensor(obj) -> AlgebraTensor:
    try:
        c = {}
        for i, j, k, v in obj["c"]:
            c.setdefault((i, j), {})[k] = decode_coeff(v)
        return AlgebraTensor(dim=obj["dim"], identity=obj["identity"], c=c)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad tensor encoding: {exc}") from exc


def encode_tuple(T: MatrixTuple) -> dict:
    return {
        "g": T.g,
        "n": T.n,
        "X": [[[encode_rational(v) for v in row] for row in m] for m in T.X],
    }


def decode_tuple(obj) -> MatrixTuple:
    if not isinstance(obj, dict) or "X" not in obj:
        raise InputFormatError('matrix tuple must be {"g": int, "n": int, "X": [[[...]]]}')
    mats = [[[decode_coeff(v) for v in row] for row in m] for m in obj["X"]]
    T = MatrixTuple.of(mats)
    if "g" in obj and obj["g"] != T.g:
        raise InputFormatError("declared g disagrees with X")
    if "n" in obj and obj["n"] != T.n:
        raise InputFormatError("declared n disagrees with X")
    return T


def encode_fingerprint(F: TraceFingerprint) -> dict:
    words = sorted(F.traces, key=lambda w: (len(w), w))
    return {
        "g": F.g,
        "n": F.n,
        "L": F.length_bound,
        "traces": [[list(w), encode_rational(F.traces[w])] for w in words],
    }


def encode_weights(W: dict) -> list:
    out = []
    for wt in sorted(W):
        out.append({"weight": [encode_rational(x) for x in wt], "multiplicity": W[wt]})
    return out


def weights_tsv(W: dict) -> str:
    lines = []
    for wt in sorted(W):
        lines.append("\t".join(str(x) for x in wt) + "\t" + str(W[wt]))
    return "\n".join(lines) + "\n"


def encode_witness(w: SpecializationWitness) -> dict:
    return {
        "m": w.m,
        "det": encode_coeff(w.det_generic),
        "special_fiber": encode_tensor(w.special_fiber),
        "radical_dim": w.radical.dimension,
        "radical_basis": [[encode_rational(v) for v in vec] for vec in w.radical.basis],
        "radical_nilpotency_index": w.radical.nilpotency_index,
        "generic_check_point": encode_rational(w.generic_check_point),
        "generic_radical_dim": w.generic_radical_dim,
    }
