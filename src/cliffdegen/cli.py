"""Batch command-line front end: every verification as a subcommand with
JSON output on stdout and deterministic exit codes.

Exit codes: 0 = verification passed (or a classification was produced);
2 = the verification ran and failed, with a counterexample in the payload;
1 = usage or input errors.  stdout carries exactly one JSON document with
sorted keys (identical inputs and seed give byte-identical stdout); progress
and timing go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from math import comb

from . import acceptance, jsonio, localmodels
from .clifford import PoleError, specialize_space
from .degeneration import NoWitness, QuadraticFamily, certify_specialization
from .liestructure import (
    LieClosureError,
    ReconstructionError,
    build_even_lie,
    reconstruct_form,
    theta_tensor,
)
from .lipschitz import lipschitz_report
from .localmodels import (
    centralizer_dim,
    generates_full_algebra,
    is_cyclic_vector,
    s_equivalent,
    trace_fingerprint,
)
from .plethysm import NotACharacter, verify_plethysm
from .rings import CoefficientRingMismatch, InvariantViolation, RatFun
from .spinor import (
    WittDecomposition,
    even_algebra_isomorphism_check,
    halfspin_split,
    spin_weights,
)


# `localmodel sequiv --fingerprints` lists every word of length k <= L by its
# k letters beside its trace: the sum of (k + 1) g^k over k <= L entries per
# tuple.  Longer listings are refused before any work.  The cap admits
# L <= 15 at g = 2 and L <= 1446 at g = 1; at those bounds a pair of 1 x 1
# tuples [[1]] prints 6684899 bytes of stdout at g = 2 (3.4 s) and 6303371
# bytes at g = 1 (0.6 s) on a shared 2-core 2.0 GHz Xeon.
MAX_FINGERPRINT_ENTRIES = 1 << 20

# `form reconstruct` brackets every pair of the m(m-1)/2 bivectors, about
# m^4/8 brackets whose table it keeps.  Larger m is refused before any work
# (on a shared 2-core 2.0 GHz Xeon, one random dense form takes about
# 0.7-0.9 s at a peak RSS of 39 MB for m = 20, 1.0-1.5 s at 65 MB for m = 24
# and 3.1 s at 112 MB for m = 28, each in a fresh process).
MAX_RECONSTRUCT_M = 24

# `form tensor` and `degenerate analyze` build the even-algebra tensor: the
# 4^(m-1) products of pairs of the 2^(m-1) even blades.  Spaces of larger m
# are refused before any work (m = 8 is 16384 products: on a shared 2-core
# 2.0 GHz Xeon, in a fresh process, `form tensor` takes about 1.1-1.7 s and
# prints 8.4 MB of JSON at a peak RSS of 80 MB for a dense form with
# entries p/q, |p|, q < 100, 0.2 s and 0.3 MB at 24 MB for the unit form,
# and 2.1-2.9 s and 13.2 MB at 117 MB for a dense form whose entries are
# a + b t with a and b of the form p/q, |p| <= 4, q <= 3, drawn from
# random.Random(4)).  `degenerate analyze` takes odd m only, so
# m <= 7, and builds one tensor, the special fibre's: on Q0 + t I with a
# dense rational Q0 of corank 0, 4 and 7 at m = 7 it takes about 0.4, 0.45
# and 0.15 s at 27, 27 and 17 MB, in fresh processes on the same machine.
MAX_TENSOR_M = 8

# `spinor check` compares the even algebra, of dimension 2^(2l) (odd m) or
# 2^(2l-1), with the operators on the 2^l-dimensional spin module: the span
# of 2^(2l) sparse operators with 2^l entries each.  On a shared 2-core
# 2.0 GHz Xeon, l = 6 takes about 0.06-0.09 s (even) and 0.10-0.13 s (odd)
# in a fresh process at a peak RSS of about 20 and 24 MB, and each step of
# l multiplies the time by about 4 to 8 (l = 7 takes 0.4-0.5 s at 38 MB
# even and 0.8-1.0 s at 60 MB odd, in process), so larger l is refused.
MAX_SPINOR_CHECK_ELL = 6

# `spinor weights` lists the 2^l weights of the spin module; larger l is
# refused (in a fresh process on the same machine, l = 14 takes about
# 1.2-1.4 s at 53 MB and prints 2.3 MB, l = 16 5.7 s at 182 MB and prints
# 10 MB).
MAX_SPINOR_WEIGHTS_ELL = 16

# `lipschitz test` decides membership by the swap derivation on the 4^m
# monomials of the doubled exterior algebra (no product), and multiplies
# x tau(x) in Cl(q) for the norm.  Larger m is refused before any work (on a
# shared 2-core 2.0 GHz Xeon, the sum of all even blades takes about 0.17 s
# at a peak RSS of 17 MB at m = 6 in a fresh process, for a dense rational
# form and for the unit form alike; in process, 0.3 s at m = 7 and 1.3 s at
# m = 8 for the dense form, most of it in the norm's product).
MAX_LIPSCHITZ_M = 6

# `localmodel simple|sequiv|centralizer` close word spans of n x n matrices
# (sequiv of 2n x 2n block-diagonal ones) and eliminate over up to n^2
# coordinates.  Larger n is refused before any product.  At n = 8,
# `scripts/localmodel_caps.py` runs each subcommand on its slowest legal
# class, two matrices with entries in -9..9, in a fresh process (shared
# 2-core Xeon, Python 3.11, 17-18 MB peak RSS each): `sequiv` takes 2.7-3.2 s
# on a pair conjugate by a unimodular matrix and 0.2-0.3 s on an unrelated
# pair, `simple` 0.8-1.2 s on a conjugated upper-triangular tuple with a
# vector on its invariant line, and `centralizer` 0.2-0.3 s in gl_n.  The
# number of matrices g needs no cap: the work grows only as the input does.
MAX_LOCALMODEL_N = 8

# The caps above were measured over Q and Q[t].  When a value that a command
# multiplies is a `RatFun` (for `lipschitz test`, an entry of the form or a
# coefficient of x), m is held to a second cap: the largest m at which the
# worst input, every entry of degree 1 over degree 1 in t, stays within the
# figures quoted above.  In fresh processes on a shared 2-core 2.0 GHz Xeon:
# `form tensor` takes 1.5 s at 29 MB at m = 6 and 11.7 s at 123 MB at m = 7
# (`--at` multiplies rationals, and `degenerate analyze` only the special
# fibre's, so both keep MAX_TENSOR_M alone); `form reconstruct` 1.1-1.7 s
# at 24 MB at m = 12 and 1.4-2.4 s at m = 13; `lipschitz test` on the sum
# of all even blades 0.14-0.32 s at 17 MB at m = 4 and 0.3-1.9 s at m = 5.
MAX_RATFUN_TENSOR_M = 6
MAX_RATFUN_RECONSTRUCT_M = 12
MAX_RATFUN_LIPSCHITZ_M = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_input(path: str):
    if path is None:
        raise UsageError("this subcommand requires --input FILE|-")
    try:
        raw = sys.stdin.read() if path == "-" else open(path).read()
    except OSError as exc:
        raise UsageError(f"cannot read input: {exc}") from exc
    try:
        return json.loads(raw, parse_int=jsonio.parse_int)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise UsageError("input JSON is nested too deeply") from exc


def _check_reconstruct_m(m: int):
    if m > MAX_RECONSTRUCT_M:
        raise UsageError(
            f"m = {m} is above {MAX_RECONSTRUCT_M}: the even Lie algebra has "
            f"C(m(m-1)/2, 2) = {comb(comb(m, 2), 2)} brackets"
        )


def _check_ratfun_m(V, cap: int, ratfun_cap: int, more=()):
    """The second cap of a command that multiplies: m above ``ratfun_cap``
    is refused when an entry of V, or a value in ``more``, is a ``RatFun``."""
    if V.m > ratfun_cap and any(isinstance(v, RatFun) for row in (*V.gram, more) for v in row):
        raise UsageError(
            f"m = {V.m} is above {ratfun_cap}, the cap for an input over Q(t) "
            f"(over Q and Q[t] the cap is {cap})"
        )


def _cmd_form_reconstruct(args):
    if args.random and args.input is not None:
        raise UsageError("--random and --input exclude each other")
    if not args.random and (args.m, args.seed, args.trials) != (None, None, None):
        raise UsageError("--m, --seed and --trials require --random")
    if args.random:
        if args.m is None:
            raise UsageError("--random requires --m")
        _check_reconstruct_m(args.m)
        seed = args.seed if args.seed is not None else 0
        rng = random.Random(seed)
        trials = 1 if args.trials is None else args.trials
        if trials < 1:
            raise UsageError(f"--trials must be >= 1, got {trials}")
        payload = {"seed": seed, "trials": trials, "m": args.m, "results": []}
        ok = True
        for _ in range(trials):
            V = acceptance._random_symmetric(rng, args.m)
            R = reconstruct_form(build_even_lie(V))
            match = R.gram == V.gram
            ok = ok and match
            payload["results"].append(
                {"recovered_Q": jsonio.encode_space(R), "matches": match}
            )
        return ("pass" if ok else "fail"), payload
    V = jsonio.decode_space(_load_input(args.input))
    _check_reconstruct_m(V.m)
    _check_ratfun_m(V, MAX_RECONSTRUCT_M, MAX_RATFUN_RECONSTRUCT_M)
    R = reconstruct_form(build_even_lie(V))
    match = R.gram == V.gram
    return ("pass" if match else "fail"), {
        "recovered_Q": jsonio.encode_space(R),
        "matches": match,
    }


def _tensor_space(args):
    V = jsonio.decode_space(_load_input(args.input))
    if V.m > MAX_TENSOR_M:
        raise UsageError(
            f"m = {V.m} is above {MAX_TENSOR_M}: the even-algebra tensor has "
            f"4^(m-1) = {4 ** (V.m - 1)} entries"
        )
    return V


def _cmd_form_tensor(args):
    V = _tensor_space(args)
    at = None if args.at is None else jsonio.decode_coeff(args.at)
    if at is not None:
        V = specialize_space(V, at)
    _check_ratfun_m(V, MAX_TENSOR_M, MAX_RATFUN_TENSOR_M)
    T = theta_tensor(V)
    payload = {"tensor": jsonio.encode_tensor(T)}
    if at is not None:
        payload["specialized_at"] = str(at)
    return "pass", payload


def _check_ell(ell: int, cap: int):
    if not 0 <= ell <= cap:
        raise UsageError(f"--ell must be between 0 and {cap}, got {ell}")


def _cmd_spinor_check(args):
    _check_ell(args.ell, MAX_SPINOR_CHECK_ELL)
    W = WittDecomposition(args.ell, odd=not args.even)
    rep = even_algebra_isomorphism_check(W)
    payload = {
        "case": rep["case"],
        "ell": rep["ell"],
        "dim_even_algebra": rep["dim_even_algebra"],
        "operator_rank": rep.get("operator_rank"),
        "target_dim": rep.get("target_dim"),
        "relations_ok": rep["relations_ok"],
        "bijective": rep["bijective"],
    }
    if rep.get("first_failed_relation"):
        fail = rep["first_failed_relation"]
        payload["first_failed_relation"] = {
            "pair": list(fail["pair"]),
            "entry": list(fail["entry"]),
            "got": str(fail["got"]),
            "want": str(fail["want"]),
        }
    return ("pass" if rep["bijective"] else "fail"), payload


def _cmd_spinor_weights(args):
    _check_ell(args.ell, MAX_SPINOR_WEIGHTS_ELL)
    if args.halfspin and args.type == "B":
        raise UsageError("--halfspin is a D_l module: it excludes --type B")
    if args.halfspin:
        plus, minus = halfspin_split(args.ell)
        W = plus if args.halfspin == "+" else minus
        label = f"D{args.ell} half-spin {args.halfspin}"
    else:
        # the D_l spin module is the sum of its two halves: the same
        # multiset as the B_l spin module
        W = spin_weights(args.ell)
        label = f"D{args.ell} spin (both halves)" if args.type == "D" else f"B{args.ell} spin"
    if args.tsv:
        try:
            with open(args.tsv, "w") as fh:
                fh.write(jsonio.weights_tsv(W))
        except OSError as exc:
            raise UsageError(f"cannot write --tsv: {exc}") from exc
    return "pass", {
        "ell": args.ell,
        "module": label,
        "count": sum(W.values()),
        "weights": jsonio.encode_weights(W),
    }


def _cmd_lipschitz_test(args):
    obj = _load_input(args.input)
    if not isinstance(obj, dict) or "V" not in obj or "x" not in obj:
        raise UsageError('lipschitz test expects {"V": space, "x": multivector}')
    V = jsonio.decode_space(obj["V"])
    if V.m > MAX_LIPSCHITZ_M:
        raise UsageError(
            f"m = {V.m} is above {MAX_LIPSCHITZ_M}: the doubled algebra has "
            f"4^m = {4 ** V.m} blades"
        )
    x = jsonio.decode_multivector(obj["x"], V.m)
    _check_ratfun_m(V, MAX_LIPSCHITZ_M, MAX_RATFUN_LIPSCHITZ_M, x.terms.values())
    rep = lipschitz_report(x, V)
    z = rep["norm_scalar"]
    return "pass", {**rep, "norm_scalar": None if z is None else jsonio.encode_coeff(z)}


def _cmd_degenerate_analyze(args):
    V = _tensor_space(args)
    F = QuadraticFamily(V)
    w = certify_specialization(F)
    return "pass", jsonio.encode_witness(w)


def _cmd_plethysm_verify(args):
    rep = verify_plethysm(args.case)
    ok = rep["is_single_irreducible"] and (
        args.case != "g2" or rep["matches_rho_module"]
    )
    payload = {**rep, "constituents": rep["constituents"][args.halfspin or "+"]}
    if args.halfspin:
        payload["halfspin"] = args.halfspin
    return ("pass" if ok else "fail"), payload


def _decode_local_tuple(obj):
    T = jsonio.decode_tuple(obj)
    if T.n > MAX_LOCALMODEL_N:
        raise UsageError(
            f"n = {T.n} is above {MAX_LOCALMODEL_N}: the words in the tuple "
            f"span up to n^2 = {T.n * T.n} matrices"
        )
    return T


def _cmd_localmodel_simple(args):
    obj = _load_input(args.input)
    vector = None
    if isinstance(obj, dict) and "tuple" in obj:
        if obj.get("vector") is not None:
            vector = jsonio.decode_rationals(obj["vector"], 1, "vector")
        obj = obj["tuple"]
    elif isinstance(obj, dict) and "vector" in obj:
        raise jsonio.InputFormatError('a "vector" goes beside a "tuple": {"tuple": tuple, "vector": [...]}')
    T = _decode_local_tuple(obj)
    payload = {"generates_full_algebra": generates_full_algebra(T)}
    if vector is not None:
        payload["cyclic_vector"] = is_cyclic_vector(T, vector)
    return "pass", payload


def _cmd_localmodel_sequiv(args):
    obj = _load_input(args.input)
    if not isinstance(obj, dict) or "first" not in obj or "second" not in obj:
        raise UsageError('sequiv expects {"first": tuple, "second": tuple}')
    T1 = _decode_local_tuple(obj["first"])
    T2 = _decode_local_tuple(obj["second"])
    L = localmodels.word_length_bound(T1.n) if args.L is None else args.L
    if L < 0:
        raise UsageError(f"--L must be >= 0, got {L}")
    if args.fingerprints:
        entries = 0
        for k in range(L + 1):
            entries += (k + 1) * T1.g ** k
            if entries > MAX_FINGERPRINT_ENTRIES:
                raise UsageError(
                    f"--fingerprints at g = {T1.g}, L = {L} lists more than "
                    f"{MAX_FINGERPRINT_ENTRIES} letters and traces per tuple; lower --L"
                )
    payload = {"equivalent": s_equivalent(T1, T2, L), "length_bound": L}
    if args.fingerprints:
        payload["first_fingerprint"] = jsonio.encode_fingerprint(trace_fingerprint(T1, L))
        payload["second_fingerprint"] = jsonio.encode_fingerprint(trace_fingerprint(T2, L))
    return "pass", payload


def _cmd_localmodel_centralizer(args):
    obj = _load_input(args.input)
    if not isinstance(obj, dict) or "tuple" not in obj or "h" not in obj:
        raise UsageError('centralizer expects {"tuple": tuple, "h": [matrix, ...]}')
    T = _decode_local_tuple(obj["tuple"])
    h = jsonio.decode_rationals(obj["h"], 3, "h")
    return "pass", {"dimension": centralizer_dim(T, h)}


def _cmd_selftest(args):
    seed = args.seed if args.seed is not None else 7
    results = []
    ok = True
    for fn in acceptance.ALL_CRITERIA:
        t0 = time.time()
        r = acceptance.run_criterion(fn, seed)
        dt = time.time() - t0
        print(
            f"[selftest] {r['name']}: {'pass' if r['ok'] else 'FAIL'} ({dt:.1f}s)",
            file=sys.stderr,
        )
        ok = ok and r["ok"]
        results.append(r)
    return ("pass" if ok else "fail"), {"seed": seed, "criteria": results}


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process and shared, so callers
    must not change it; parsing keeps no state in it.  A caller that runs
    many commands in one process would otherwise rebuild the whole tree on
    every call: on a 2.0 GHz Xeon core about 2.3 ms, where a parse takes
    0.09 ms."""
    p = _Parser(prog="cliffdegen", description=__doc__)
    sub = p.add_subparsers(dest="group", required=True)

    form = sub.add_parser("form", help="even Lie structure and multiplication tensors")
    fsub = form.add_subparsers(dest="action", required=True)
    fr = fsub.add_parser("reconstruct", help="recover the form from structure constants")
    fr.add_argument("--input", help="quadratic space JSON file or -")
    fr.add_argument("--m", type=int)
    fr.add_argument("--random", action="store_true")
    fr.add_argument("--seed", type=int)
    fr.add_argument("--trials", type=int, help="number of random forms (>= 1, default 1)")
    fr.set_defaults(func=_cmd_form_reconstruct)
    ft = fsub.add_parser("tensor", help="emit the even-algebra multiplication tensor")
    ft.add_argument("--input", required=True)
    ft.add_argument("--at", help="specialisation point c (exact rational)")
    ft.set_defaults(func=_cmd_form_tensor)

    spin = sub.add_parser("spinor", help="spinor module checks and weights")
    ssub = spin.add_subparsers(dest="action", required=True)
    sc = ssub.add_parser("check", help="even algebra vs endomorphisms of the spin module")
    sc.add_argument("--ell", type=int, required=True)
    parity = sc.add_mutually_exclusive_group()
    parity.add_argument("--odd", action="store_true", help="so(2l+1), the default")
    parity.add_argument("--even", action="store_true", help="so(2l)")
    sc.set_defaults(func=_cmd_spinor_check)
    sw = ssub.add_parser("weights", help="spin / half-spin weight multisets")
    sw.add_argument("--ell", type=int, required=True)
    sw.add_argument("--type", choices=("B", "D"), help="default B, or D with --halfspin")
    sw.add_argument("--halfspin", choices=("+", "-"))
    sw.add_argument("--tsv", help="also write the multiset as TSV to this path")
    sw.set_defaults(func=_cmd_spinor_weights)

    lip = sub.add_parser("lipschitz", help="Clifford-Lipschitz membership")
    lsub = lip.add_subparsers(dest="action", required=True)
    lt = lsub.add_parser("test", help="classify an element (monoid/group/spin/none)")
    lt.add_argument("--input", required=True)
    lt.set_defaults(func=_cmd_lipschitz_test)

    deg = sub.add_parser("degenerate", help="flat degenerations of matrix algebras")
    dsub = deg.add_subparsers(dest="action", required=True)
    da = dsub.add_parser("analyze", help="certify a one-parameter family")
    da.add_argument("--input", required=True)
    da.set_defaults(func=_cmd_degenerate_analyze)

    ple = sub.add_parser("plethysm", help="half-spin branching identifications")
    psub = ple.add_subparsers(dest="action", required=True)
    pv = psub.add_parser("verify", help="verify a branching case")
    pv.add_argument("case", choices=("g2", "f4", "c3"))
    pv.add_argument("--halfspin", choices=("+", "-"))
    pv.set_defaults(func=_cmd_plethysm_verify)

    loc = sub.add_parser("localmodel", help="matrix-tuple local models")
    osub = loc.add_subparsers(dest="action", required=True)
    ls = osub.add_parser("simple", help="full-algebra generation (and cyclic vectors)")
    ls.add_argument("--input", required=True)
    ls.set_defaults(func=_cmd_localmodel_simple)
    le = osub.add_parser(
        "sequiv",
        help="S-equivalence: equal traces on a basis of the span of the words "
        "in the block-diagonal tuple",
    )
    le.add_argument("--input", required=True)
    le.add_argument("--L", type=int, help="word-length bound (default n^2, as s_equivalent takes it)")
    le.add_argument(
        "--fingerprints", action="store_true", help="also list the trace of every word"
    )
    le.set_defaults(func=_cmd_localmodel_sequiv)
    lc = osub.add_parser("centralizer", help="adjoint centralizer dimension")
    lc.add_argument("--input", required=True)
    lc.set_defaults(func=_cmd_localmodel_centralizer)

    st = sub.add_parser("selftest", help="run the full acceptance battery")
    st.add_argument("--seed", type=int)
    st.set_defaults(func=_cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    # exact results may pass Python's limit on int -> str digits; inputs are
    # held to it (jsonio.MAX_DIGITS) before they are converted
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(args) -> int:
    name = args.group + (f" {args.action}" if getattr(args, "action", None) else "")
    t0 = time.time()
    try:
        verdict, payload = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (
        jsonio.InputFormatError,
        PoleError,
        CoefficientRingMismatch,
        ValueError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (
        ReconstructionError,
        LieClosureError,
        NotACharacter,
        NoWitness,
        InvariantViolation,
    ) as exc:
        verdict, payload = "fail", {"counterexample": str(exc)}
    # payloads are JSON-native (jsonio encodes them): dumped as they are
    report = {"subcommand": name, "verdict": verdict, "payload": payload}
    print(json.dumps(report, sort_keys=True))
    print(f"[cliffdegen] {name}: {verdict} ({time.time() - t0:.2f}s)", file=sys.stderr)
    return 0 if verdict == "pass" else 2


if __name__ == "__main__":
    sys.exit(main())
