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


def decode_rational(obj) -> Fraction:
    """An exact rational from a string "p/q" (or a decimal) or a JSON
    integer.  Exponent notation is refused: "1e10000000" is twelve bytes
    that ``Fraction`` would expand into a ten-million-digit integer."""
    if isinstance(obj, str):
        if "e" in obj or "E" in obj:
            raise InputFormatError(f"bad rational {obj!r}: exponent notation is not accepted")
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"bad rational {obj!r}: {exc}") from exc
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    raise InputFormatError(f"expected a rational, got {obj!r}")


def _decode_poly(obj) -> Poly:
    if not isinstance(obj, list):
        raise InputFormatError(f"polynomial must be a list of rationals, got {obj!r}")
    return Poly([decode_rational(c) for c in obj])


def decode_coeff(obj):
    if isinstance(obj, list):
        return _decode_poly(obj)
    if isinstance(obj, dict) and set(obj) == {"num", "den"}:
        num, den = _decode_poly(obj["num"]), _decode_poly(obj["den"])
        if den.is_zero():
            raise InputFormatError(f"rational function with a zero denominator: {obj!r}")
        return RatFun(num, den)
    if isinstance(obj, (str, int)):
        return decode_rational(obj)
    raise InputFormatError(f"unrecognised coefficient encoding: {obj!r}")


def decode_rationals(obj, depth: int, what: str):
    """Exact rationals nested ``depth`` levels deep in lists."""
    if depth == 0:
        if isinstance(obj, (list, dict)):
            raise InputFormatError(f"{what}: expected a rational, got {obj!r}")
        return decode_rational(obj)
    if not isinstance(obj, list):
        raise InputFormatError(f"{what}: expected a list, got {obj!r}")
    return [decode_rationals(v, depth - 1, what) for v in obj]


def encode_space(V: QuadraticSpace) -> dict:
    return {"m": V.m, "Q": [[encode_coeff(v) for v in row] for row in V.gram]}


def decode_space(obj) -> QuadraticSpace:
    if not isinstance(obj, dict) or "Q" not in obj:
        raise InputFormatError('quadratic space must be {"m": int, "Q": [[...]]}')
    Q = obj["Q"]
    if not isinstance(Q, list) or not all(isinstance(row, list) for row in Q):
        raise InputFormatError(f"Q: expected a list of rows, got {Q!r}")
    rows = [[decode_coeff(v) for v in row] for row in Q]
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


def decode_multivector(obj, m: int) -> Multivector:
    """A multivector over generators 1..m.  Blade keys list strictly
    increasing indices, "[1,3]", and name each blade once: "[3,1]" (which
    is -e1 e3 over an orthogonal pair), an index outside 1..m and a second
    key for a blade ("[ 1]" beside "[1]") are refused."""
    if not isinstance(obj, dict):
        raise InputFormatError("multivector must be an object of blade -> coefficient")
    terms = {}
    for key, cval in obj.items():
        try:
            idx = json.loads(key)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputFormatError(f"bad blade key {key!r}") from exc
        if not isinstance(idx, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in idx
        ):
            raise InputFormatError(f"blade key must be a list of indices: {key!r}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise InputFormatError(f"blade key {key!r}: indices must strictly increase")
        if idx and not 1 <= idx[0] <= idx[-1] <= m:
            raise InputFormatError(f"blade key {key!r}: indices must lie in 1..{m}")
        mask = mask_of(idx)
        if mask in terms:
            raise InputFormatError(f"blade key {key!r} names a blade already given")
        terms[mask] = decode_coeff(cval)
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
    T = MatrixTuple.of(decode_rationals(obj["X"], 3, "X"))
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
