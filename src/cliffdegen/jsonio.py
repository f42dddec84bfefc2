"""JSON (and TSV) value encodings for the CLI and file interfaces.

Conventions: rationals are strings "p/q" (or "n" when integral); polynomials
are arrays of rational strings by ascending degree; rational functions are
{"num": [...], "den": [...]}; a quadratic space is {"m": int, "Q": [[...]]};
a multivector maps compact blade-index keys like "[1,3]" to coefficients.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from math import gcd

from .clifford import Multivector, QuadraticSpace, mask_of
from .degeneration import SpecializationWitness
from .liestructure import AlgebraTensor, packed_digits
from .localmodels import MatrixTuple, TraceFingerprint
from .rings import Poly, RatFun


class InputFormatError(ValueError):
    pass


# Python's default limit on the digits of an int <-> str conversion (4300).
# An input integer past it is refused here before it is converted;
# ``cli.main`` lifts the interpreter's limit while it runs, so that exact
# results past it can be printed.
MAX_DIGITS = sys.int_info.default_max_str_digits
_DIGIT_RUN = re.compile(r"\d+")
# a decimal with an exponent, as ``Fraction`` would read it: "1e5", "-1.5E+2"
_EXPONENT = re.compile(r"\s*[-+]?(\d[\d_]*(\.[\d_]*)?|\.\d[\d_]*)[eE][-+]?\d[\d_]*\s*")
SHORT_LIMIT = 80  # characters of a bad value echoed in an error message


def _short(obj) -> str:
    """repr(obj) for an error message, cut to ``SHORT_LIMIT`` characters
    with its full length appended: a huge bad value must not flood stderr."""
    text = repr(obj)
    if len(text) <= SHORT_LIMIT:
        return text
    return f"{text[:SHORT_LIMIT]}... ({len(text)} characters)"


def _check_declared(obj: dict, key: str, actual: int, shape: str):
    """A size the document declares beside its data is a JSON integer
    (not a boolean) equal to the size of the data."""
    if key not in obj:
        return
    v = obj[key]
    if type(v) is not int:
        raise InputFormatError(f"declared {key} must be an integer, got {type(v).__name__} {_short(v)}")
    if v != actual:
        raise InputFormatError(f"declared {key}={_short(v)} but {shape}")


def encode_rational(v) -> str:
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


def decode_rational(obj):
    """An exact rational from a string "p/q" (or a decimal) or a JSON
    integer: an ``int`` when it is integral ("3", "6/2" and 3 alike), else a
    ``Fraction``.  A string with an "e" is refused before ``Fraction`` reads
    it: "1e10000000" is twelve bytes that ``Fraction`` would expand into a
    ten-million-digit integer."""
    if isinstance(obj, str):
        if "e" in obj or "E" in obj:
            why = "exponent notation is not accepted" if _EXPONENT.fullmatch(obj) else "not p/q or a decimal"
            raise InputFormatError(f"bad rational {_short(obj)}: {why}")
        # Fraction reads "1_000" as one integer: count its digits together
        if any(len(run) > MAX_DIGITS for run in _DIGIT_RUN.findall(obj.replace("_", ""))):
            raise InputFormatError(f"bad rational {_short(obj)}: an integer of more than {MAX_DIGITS} digits")
        try:
            v = Fraction(obj)
        except ValueError as exc:
            raise InputFormatError(f"bad rational {_short(obj)}: not p/q or a decimal") from exc
        except ZeroDivisionError as exc:
            raise InputFormatError(f"bad rational {_short(obj)}: zero denominator") from exc
        return v.numerator if v.denominator == 1 else v
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    raise InputFormatError(f"expected a rational, got {_short(obj)}")


def parse_int(text: str) -> int:
    """``parse_int`` for ``json.loads``: a JSON integer of more than
    ``MAX_DIGITS`` digits is refused before it is converted."""
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise InputFormatError(f"integer {_short(text)}: more than {MAX_DIGITS} digits")
    return int(text)


def _decode_poly(obj) -> Poly:
    if not isinstance(obj, list):
        raise InputFormatError(f"polynomial must be a list of rationals, got {_short(obj)}")
    return Poly([decode_rational(c) for c in obj])


def decode_coeff(obj):
    if isinstance(obj, list):
        return _decode_poly(obj)
    if isinstance(obj, dict) and set(obj) == {"num", "den"}:
        num, den = _decode_poly(obj["num"]), _decode_poly(obj["den"])
        if not den:
            raise InputFormatError(f"rational function with a zero denominator: {_short(obj)}")
        return RatFun(num, den)
    if isinstance(obj, (str, int)):
        return decode_rational(obj)
    raise InputFormatError(f"unrecognised coefficient encoding: {_short(obj)}")


def decode_rationals(obj, depth: int, what: str):
    """Exact rationals nested ``depth`` levels deep in lists."""
    if depth == 0:
        if isinstance(obj, (list, dict)):
            raise InputFormatError(f"{what}: expected a rational, got {_short(obj)}")
        return decode_rational(obj)
    if not isinstance(obj, list):
        raise InputFormatError(f"{what}: expected a list, got {_short(obj)}")
    return [decode_rationals(v, depth - 1, what) for v in obj]


def encode_space(V: QuadraticSpace) -> dict:
    return {"m": V.m, "Q": [[encode_coeff(v) for v in row] for row in V.gram]}


def decode_space(obj) -> QuadraticSpace:
    if not isinstance(obj, dict) or "Q" not in obj:
        raise InputFormatError('quadratic space must be {"m": int, "Q": [[...]]}')
    Q = obj["Q"]
    if not isinstance(Q, list) or not all(isinstance(row, list) for row in Q):
        raise InputFormatError(f"Q: expected a list of rows, got {_short(Q)}")
    rows = [[decode_coeff(v) for v in row] for row in Q]
    V = QuadraticSpace(rows)
    _check_declared(obj, "m", V.m, f"Q is {V.m}x{V.m}")
    return V


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
            idx = json.loads(key, parse_int=parse_int)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputFormatError(f"bad blade key {_short(key)}") from exc
        if not isinstance(idx, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in idx
        ):
            raise InputFormatError(f"blade key must be a list of indices: {_short(key)}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise InputFormatError(f"blade key {_short(key)}: indices must strictly increase")
        if idx and not 1 <= idx[0] <= idx[-1] <= m:
            raise InputFormatError(f"blade key {_short(key)}: indices must lie in 1..{m}")
        mask = mask_of(idx)
        if mask in terms:
            raise InputFormatError(f"blade key {_short(key)} names a blade already given")
        terms[mask] = decode_coeff(cval)
    return Multivector(terms)


class _Quotients(dict):
    """p -> the text of p / q for a fixed q > 0, as ``str(Fraction(p, q))``
    prints it: one gcd, the sign on the numerator.  Each p is formatted
    once; a tensor repeats few distinct values."""

    def __init__(self, q: int):
        self.q = q

    def __missing__(self, p: int) -> str:
        q = self.q
        g = gcd(p, q)
        text = self[p] = str(p // g) if g == q else f"{p // g}/{q // g}"
        return text


def encode_tensor(T: AlgebraTensor) -> dict:
    """The entries over Q, ordered by (i, j) and then k.  On a tensor of
    ``scale`` D > 1 or ``width`` N > 0 entry k of f_i f_j is an ``int``
    that is D^(h_i + h_j - h_k) times the one over Q, with h = |mask|/2
    (lambda_i lambda_j / lambda_k, for the basis f_a = lambda_a e_a with
    lambda_a = D^(h_a)).  On a packed tensor (N > 0) the ``int`` holds a
    polynomial, read as its digits
    (:func:`~cliffdegen.liestructure.packed_digits`), and prints as the list
    of them; an entry with h_i + h_j = h_k is a wedge term, +-1, and prints
    as a scalar.  Each ``int`` or digit is divided by that power
    of D with one gcd, and no ``Fraction`` or ``Poly`` is built.  A tensor
    of scale 1 and width 0 prints its entries as they are."""
    c = T.c
    entries = []
    if T.scale == 1 and not T.width:
        for (i, j) in sorted(c):
            row = c[(i, j)]
            entries.extend([i, j, k, encode_coeff(row[k])] for k in sorted(row))
        return {"dim": T.dim, "identity": T.identity, "c": entries}
    N = T.width
    h = [mask.bit_count() >> 1 for mask in T.basis_masks]
    over = [_Quotients(T.scale**e) for e in range(2 * max(h) + 1)]
    for (i, j) in sorted(c):
        row = c[(i, j)]
        hij = h[i] + h[j]
        for k in sorted(row):
            v, texts = row[k], over[hij - h[k]]
            entries.append([i, j, k, [texts[d] for d in packed_digits(v, N)] if N and hij > h[k] else texts[v]])
    return {"dim": T.dim, "identity": T.identity, "c": entries}


def decode_tuple(obj) -> MatrixTuple:
    if not isinstance(obj, dict) or "X" not in obj:
        raise InputFormatError('matrix tuple must be {"g": int, "n": int, "X": [[[...]]]}')
    T = MatrixTuple.of(decode_rationals(obj["X"], 3, "X"))
    _check_declared(obj, "g", T.g, f"X holds {T.g} matrices")
    _check_declared(obj, "n", T.n, f"X holds {T.n}x{T.n} matrices")
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
    """A weight multiset keyed by doubled ``int`` weights, halved here: one
    ``Fraction`` per distinct coordinate value."""
    half = {x: encode_rational(Fraction(x, 2)) for x in {x for wt in W for x in wt}}
    return [{"weight": [half[x] for x in wt], "multiplicity": W[wt]} for wt in sorted(W)]


def weights_tsv(rows: list) -> str:
    """The rows of :func:`encode_weights` as tab-separated lines."""
    return "\n".join("\t".join(row["weight"]) + f"\t{row['multiplicity']}" for row in rows) + "\n"


def encode_witness(w: SpecializationWitness) -> dict:
    return {
        "m": w.m,
        "det": encode_coeff(w.det_generic),
        "special_fiber": encode_tensor(w.special_fiber),
        "radical_dim": len(w.radical_basis),
        "radical_basis": [[encode_rational(v) for v in vec] for vec in w.radical_basis],
        "radical_nilpotency_index": w.nilpotency_index,
        "generic_check_point": encode_rational(w.generic_check_point),
        # a witness certifies the generic fibre semisimple: det 2Q(t) != 0
        "generic_radical_dim": 0,
    }
