"""Command-line front end.

Every command resolves its parameters, runs one library operation, and
emits a canonical report: keys sorted, state values rendered as decimal
strings (they can exceed 64 bits in any JSON reader), small counts and
branch symbols as plain numbers, no timestamps or timing unless
explicitly requested.  Identical invocations therefore produce byte
identical files, which makes reports diffable artifacts.

Exit codes: 0 success, 1 a verification ran and failed, 2 usage or
input errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import re
import sys
import time
from fractions import Fraction

from . import __version__, battery, coding, morphisms, operators, orbits, systems, words
from .errors import BranchDynError, InvalidSpec, NotAffineFamily, OrbitConditionFailed

USAGE_ERROR = 2
CHECK_FAILED = 1


def _state(s):
    """States go to decimal strings; shift states to a {pre, per} pair."""
    if isinstance(s, systems.EventuallyPeriodic):
        return {"pre": [int(t) for t in s.pre], "per": [int(t) for t in s.per]}
    return str(s)


def _states(seq):
    return [_state(s) for s in seq]


def _jsonable(v):
    if isinstance(v, (bool, int)):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, str):
        return v
    if isinstance(v, systems.EventuallyPeriodic):
        return _state(v)
    if isinstance(v, dict):
        items = sorted(v.items(), key=lambda kv: repr(kv[0]))
        return {str(key): _jsonable(val) for key, val in items}
    if isinstance(v, (list, tuple, set, frozenset)):
        seq = sorted(v, key=repr) if isinstance(v, (set, frozenset)) else v
        return [_jsonable(x) for x in seq]
    if v is None:
        return None
    return str(v)


def _canonical(data: dict) -> str:
    # lattice_size = 2**dimension can have more digits than Python converts
    # by default (4300 since 3.10.7); that limit guards parsing untrusted
    # text, not writing computed results
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# options that shape how a report is written, not what it says, and the
# namespace entries that are not options at all
_UNHASHED = ("out", "with_timing", "format", "command", "what", "func", "_t0")
# options holding states, rendered as decimal strings like every state
_STATE_VALUED = ("x", "window", "target_window", "support", "set_file")


def _params(args) -> dict:
    """Every option of the invoked command, as it enters ``config_hash``."""
    params = {}
    for dest, v in vars(args).items():
        if dest in _UNHASHED:
            continue
        if isinstance(v, systems.DynamicalSystem):
            v = systems.spec_to_json(v.spec)
        elif dest == "phi":
            v = v if v.lstrip().startswith("{") else f"@{v}"
        elif dest in _STATE_VALUED and v is not None:
            v = str(v) if isinstance(v, int) else _states(v)
        params[dest] = v
    return params


def _config_hash(command: str, params: dict) -> str:
    blob = json.dumps(
        {"command": command, "params": _jsonable(params)}, sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _emit(args, body: dict) -> None:
    command = " ".join(filter(None, (args.command, getattr(args, "what", None))))
    report = {
        "tool": "branchdyn",
        "version": __version__,
        "command": command,
        "config_hash": _config_hash(command, _params(args)),
    }
    report.update(_jsonable(body))
    if args.with_timing:
        report["elapsed_seconds"] = f"{time.monotonic() - args._t0:.3f}"
    if getattr(args, "format", "json") == "csv":
        # the cycles table; cycle search runs on the integer families only
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["word", "cycle", "length"])
        for c in body["cycles"]:
            writer.writerow(
                [" ".join(map(str, c["word"])), " ".join(c["cycle"]), c["length"]]
            )
        text = buf.getvalue()
    else:
        text = _canonical(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_system(text: str):
    if text == "collatz":
        return systems.make_system(systems.collatz())
    m = re.fullmatch(r"qxd:(\d+),(\d+)", text)
    if m:
        return systems.make_system(systems.QxPlusD(int(m[1]), int(m[2])))
    m = re.fullmatch(r"mersenne:(\d+)", text)
    if m:
        return systems.make_system(systems.mersenne(int(m[1])))
    m = re.fullmatch(r"shift:(\d+)", text)
    if m:
        return systems.make_system(systems.SymbolicShift(int(m[1])))
    if text.lstrip().startswith("{"):
        return systems.make_system(systems.spec_from_json(json.loads(text)))
    with open(text) as fh:
        return systems.make_system(systems.spec_from_json(json.load(fh)))


def _parse_window(text: str):
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise ValueError(f"window must look like 1..100, got {text!r}")
    return (int(m[1]), int(m[2]))


def _parse_word(text: str):
    return tuple(int(t) for t in re.split(r"[,.\s]+", text.strip()) if t)


def _parse_support(text: str):
    return tuple(int(t) for t in text.split(","))


def _read_states(path: str):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise InvalidSpec(f"malformed set file: {path} does not hold a JSON list")
    return [systems.json_int(v) for v in data]


def _parse_morphism(text: str, source, target):
    if text.lstrip().startswith("{"):
        data = json.loads(text)
    else:
        with open(text) as fh:
            data = json.load(fh)
    try:
        kind = data.get("kind")
        if kind == "table":
            mapping = {
                systems.json_int(a): systems.json_int(b) for a, b in data["map"].items()
            }
            rule = morphisms.TableRule(mapping)
        elif kind == "affine":
            rule = morphisms.AffineRule(
                systems.json_int(data["u"]), systems.json_int(data["v"])
            )
        elif kind == "identity":
            rule = morphisms.IdentityRule()
        elif kind == "coding":
            rule = morphisms.CodingRule(systems.json_int(data.get("cap", 2**10)))
        else:
            raise ValueError(f"unknown morphism kind {kind!r}")
    except (AttributeError, KeyError, TypeError) as exc:
        raise InvalidSpec(f"malformed morphism description: {exc}") from exc
    return morphisms.Morphism(source=source, target=target, rule=rule)


# options read into values before the command runs, in this order
_RESOLVE = (
    ("system", _parse_system),
    ("source", _parse_system),
    ("target", _parse_system),
    ("set_file", _read_states),
    ("support", _parse_support),
)


# ---------------------------------------------------------------------------
# command handlers; each returns its report body, and a body holding
# "passed" sets the exit code


def cmd_orbit(args):
    rec = orbits.orbit_iterate(args.system, args.x, args.cap)
    return {
        "start": _state(rec.start),
        "trajectory": _states(rec.trajectory),
        "entered_cycle": rec.entered_cycle,
        "cycle": _states(rec.cycle),
        "entry_index": rec.entry_index,
    }


def cmd_total_orbit(args):
    approx = orbits.total_orbit(args.system, args.x, args.window, args.budget)
    return {
        "window": approx.window,
        "members": _states(sorted(approx.members)),
        "frontier": _states(sorted(approx.frontier)),
        "exhausted": approx.exhausted,
        "exact": approx.exact,
    }


def cmd_minimality(args):
    rep = orbits.minimality_probe(args.system, args.window, args.budget)
    return {
        "window": rep.window,
        "class_count": rep.class_count,
        "classes": [_states(c) for c in rep.classes],
        "unresolved": _states(rep.unresolved),
        "exhausted": rep.exhausted,
    }


def cmd_cycles(args):
    rep = words.enumerate_cycles(args.system, args.max_len)
    return {
        "words_tried": rep.words_tried,
        "pruned": rep.pruned,
        "cycle_count": len(rep.cycles),
        "cycles": [
            {"cycle": _states(r.cycle), "word": list(r.word), "length": r.length}
            for r in rep.cycles
        ],
    }


def cmd_check_uniqueness(args):
    rep = words.check_uniqueness(args.system, args.max_len, scan_bound=args.scan_bound)
    return {
        "passed": rep.passed,
        "words_checked": rep.words_checked,
        "violations": [
            {"word": list(w), "fixed_points": [str(p) for p in pts]}
            for w, pts in rep.violations
        ],
    }


def cmd_check_separating(args):
    rep = words.check_separating(args.system, args.x, args.cap)
    return {
        "passed": rep.passed,
        "periodic": rep.periodic,
        "period": rep.period,
        "word": list(rep.word),
        "aperiodic": rep.aperiodic,
    }


def cmd_check_bounded(args):
    rep = systems.verify_bounded_condition(args.system, args.window)
    return {
        "passed": rep.passed,
        "states_checked": rep.states_checked,
        "violations": [
            {"branch": b, "states": _states((x, y)), "image": _state(img)}
            for b, x, y, img in rep.violations
        ],
    }


def cmd_check_alphabeta(args):
    rep = coding.check_alphabeta_hypotheses(args.system, args.window, args.horizon)
    return {
        "passed": rep.passed,
        "gcd_passed": rep.gcd_passed,
        "gcd_failures": list(rep.gcd_failures),
        "multiple_passed": rep.multiple_passed,
        "multiple_failures": _states(rep.multiple_failures),
        "horizon": rep.horizon,
    }


def cmd_code(args):
    prefix = coding.coding_prefix(args.system, args.x, args.length)
    body = {"x": str(args.x), "symbols": list(prefix.symbols)}
    if args.exact_tail:
        seq = coding.exact_coding(args.system, args.x, args.cap)
        body["coding"] = _state(seq) if seq is not None else None
    return body


def cmd_tuc_scan(args):
    rep = coding.verify_tuc_window(args.system, args.window, args.cap)
    return {
        "passed": rep.passed,
        "states": rep.states,
        "pairs": rep.pairs,
        "max_prefix_length": rep.max_prefix_length,
        "undistinguished": [_states(g) for g in rep.undistinguished],
    }


def cmd_tower(args):
    sys_ = args.system
    if not sys_.is_affine:
        raise NotAffineFamily("towers live over the affine families")
    tower = coding.tower_from_state(args.x, sys_.k, args.depth)
    if args.steps < 0:
        raise InvalidSpec(f"need steps >= 0, got {args.steps}")
    steps = [tower]
    for _ in range(args.steps):
        steps.append(coding.tower_apply(sys_, steps[-1]))
    return {
        "towers": [
            {"depth": t.depth, "digits": [str(d) for d in t.digits]}
            for t in steps
        ]
    }


def cmd_operators_build(args):
    trunc = operators.build_truncation(args.system, args.window)
    return {
        "n": trunc.n,
        "k": trunc.k,
        "entries": [len(m) for m in trunc.maps],
        "escapes": [_states(sorted(e)) for e in trunc.escapes],
    }


def cmd_operators_reduce_check(args):
    trunc = operators.build_truncation(args.system, args.window)
    basis = operators.subspace_from_invariant_set(trunc, args.set_file)
    rep = operators.is_reducing(trunc, basis, interior_only=args.interior_only)
    return {
        "passed": rep.passed,
        "dimension": basis.dimension,
        "interior_only": rep.interior_only,
        "witness": _jsonable(rep.witness),
    }


def cmd_operators_commutant(args):
    rep = operators.commutant_projections(
        operators.build_truncation(args.system, args.window)
    )
    return {
        "dimension": rep.dimension,
        "abelian": rep.abelian,
        "block_count": len(rep.blocks),
        "block_dimensions": [b.dimension for b in rep.blocks],
        "block_field": list(rep.block_field),
        "lattice_size": rep.lattice_size,
        "nonabelian_witness": _states(rep.nonabelian_witness) if rep.nonabelian_witness else None,
    }


def cmd_operators_fixed_vectors(args):
    trunc = operators.build_truncation(args.system, args.window)
    rep = operators.fixed_vectors_of_word(trunc, args.word)
    return {
        "word": list(rep.word),
        "dimension": rep.dimension,
        "vectors": [
            {str(trunc.states[c]): str(v) for c, v in vec.items()}
            for vec in rep.basis.vectors
        ],
    }


def cmd_operators_pm_limit(args):
    trunc = operators.build_truncation(args.system, args.window)
    a = {}
    for s in args.support:
        if s not in trunc.index:
            raise BranchDynError(f"support state {s} outside the window")
        a[trunc.index[s]] = Fraction(1)
    rep = operators.verify_pm_limit(trunc, a, args.x, cap=args.cap)
    return {
        "passed": rep.passed,
        "stabilization_index": rep.stabilization_index,
        "eliminated": [
            {"state": _state(s), "step": m, "cause": c}
            for s, m, c in rep.eliminated
        ],
        "never_eliminated": _states(rep.never),
        "window_horizon": rep.window_horizon,
    }


def _morphism(args):
    return _parse_morphism(args.phi, args.source, args.target)


def cmd_morphism_check(args):
    rep = morphisms.check_homomorphism(_morphism(args), args.window)
    return {
        "passed": rep.passed,
        "checked": rep.checked,
        "violations": [[_state(x), why] for x, why in rep.violations],
    }


def cmd_morphism_iso(args):
    rep = morphisms.is_isomorphism(_morphism(args), args.window)
    return {
        "passed": rep.passed,
        "exact": rep.exact,
        "homomorphism": rep.homomorphism,
        "injective": rep.injective,
        "surjective": rep.surjective,
        "witness": _jsonable(rep.witness),
    }


def _phi_and_truncations(args):
    phi = _morphism(args)
    ta = operators.build_truncation(args.source, args.window)
    tb = operators.build_truncation(args.target, args.target_window)
    return phi, ta, tb


def cmd_morphism_conjugate(args):
    rep = morphisms.conjugate_unitary(*_phi_and_truncations(args))
    return {
        "passed": rep.passed,
        "per_branch": list(rep.per_branch),
        "interior_passed": rep.interior_passed,
        "witness": _jsonable(rep.witness),
    }


def cmd_morphism_isometry(args):
    rep = morphisms.induced_isometry(*_phi_and_truncations(args))
    return {
        "passed": rep.passed,
        "isometry_identity": rep.isometry_identity,
        "per_branch_interior": list(rep.per_branch_interior),
        "orbit_condition": rep.orbit_condition,
        "witness": _jsonable(rep.witness),
    }


def cmd_verify_all(args):
    results = battery.run_all()
    anomalies = [r.name for r in results if not r.passed]
    return {
        "preset": args.preset,
        "checks": [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "detail": r.detail}
            for r in results
        ],
        "anomalies": anomalies,
        "passed": not anomalies,
    }


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """One leaf per command, holding only the options its handler reads."""
    p = argparse.ArgumentParser(
        prog="branchdyn",
        description="cycles, codings, and truncated operator algebras of "
        "branch-partitioned dynamical systems",
    )
    p.add_argument("--version", action="version", version=f"branchdyn {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="what", required=True)

    def leaf(parent, name, func, help=None, system=True, window=False):
        sp = parent.add_parser(name, help=help)
        if system:
            sp.add_argument("--system", required=True, help="collatz, qxd:Q,D, mersenne:M, shift:K, inline JSON, or a JSON file path")
        if window:
            sp.add_argument("--window", type=_parse_window, default=None, help="A..B")
        sp.add_argument("--out", default=None, help="write the report to a file")
        sp.add_argument("--with-timing", action="store_true",
                        help="include elapsed time (breaks byte-for-byte determinism)")
        sp.set_defaults(func=func)
        return sp

    sp = leaf(sub, "orbit", cmd_orbit, "iterate one state to its cycle")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--cap", type=int, default=10**4)

    sp = leaf(sub, "total-orbit", cmd_total_orbit,
              "closure under f and preimages in a window", window=True)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--budget", type=int, default=10**6)

    sp = leaf(sub, "minimality", cmd_minimality,
              "orbit-equivalence classes of a window", window=True)
    sp.add_argument("--budget", type=int, default=10**4)

    sp = leaf(sub, "cycles", cmd_cycles, "all cycles with period up to --max-len")
    sp.add_argument("--max-len", type=int, default=24)
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    check = group("check", "uniqueness / separating / bounded / alphabeta")
    sp = leaf(check, "uniqueness", cmd_check_uniqueness)
    sp.add_argument("--max-len", type=int, default=12)
    sp.add_argument("--scan-bound", type=int, default=None)
    sp = leaf(check, "separating", cmd_check_separating)
    sp.add_argument("--x", type=int, default=1)
    sp.add_argument("--cap", type=int, default=2**10)
    leaf(check, "bounded", cmd_check_bounded, window=True)
    sp = leaf(check, "alphabeta", cmd_check_alphabeta, window=True)
    sp.add_argument("--horizon", type=int, default=None)

    sp = leaf(sub, "code", cmd_code, "coding prefix of a state")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--length", type=int, default=16)
    sp.add_argument("--cap", type=int, default=2**10)
    sp.add_argument("--exact-tail", action="store_true",
                    help="also report the full eventually periodic coding")

    sp = leaf(sub, "tuc-scan", cmd_tuc_scan, "coding injectivity over a window",
              window=True)
    sp.add_argument("--cap", type=int, default=2**10)

    sp = leaf(sub, "tower", cmd_tower, "k-adic digit towers along the orbit")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--depth", type=int, default=4)
    sp.add_argument("--steps", type=int, default=1)

    ops = group("operators", "truncated operator computations")
    leaf(ops, "build", cmd_operators_build, window=True)
    sp = leaf(ops, "reduce-check", cmd_operators_reduce_check, window=True)
    sp.add_argument("--set-file", required=True, help="JSON list of states")
    sp.add_argument("--interior-only", action="store_true")
    leaf(ops, "commutant", cmd_operators_commutant, window=True)
    sp = leaf(ops, "fixed-vectors", cmd_operators_fixed_vectors, window=True)
    sp.add_argument("--word", type=_parse_word, default=(1,))
    sp = leaf(ops, "pm-limit", cmd_operators_pm_limit, window=True)
    sp.add_argument("--x", type=int, default=1)
    sp.add_argument("--support", default="1", help="comma separated states")
    sp.add_argument("--cap", type=int, default=64)

    morph = group("morphism", "morphism verification and transport")
    for name, func in (("check", cmd_morphism_check), ("iso", cmd_morphism_iso),
                       ("conjugate", cmd_morphism_conjugate),
                       ("isometry", cmd_morphism_isometry)):
        sp = leaf(morph, name, func, system=False, window=True)
        sp.add_argument("--source", required=True)
        sp.add_argument("--target", required=True)
        sp.add_argument("--phi", required=True, help="inline JSON or a JSON file path")
        if name in ("conjugate", "isometry"):
            sp.add_argument("--target-window", type=_parse_window, default=None)

    sp = leaf(sub, "verify-all", cmd_verify_all, "run the curated verification battery",
              system=False)
    sp.add_argument("--preset", choices=("paper",), default="paper")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.monotonic()
    try:
        for dest, read in _RESOLVE:
            if dest in vars(args):
                setattr(args, dest, read(getattr(args, dest)))
        body = args.func(args)
        _emit(args, body)
        return 0 if body.get("passed", True) else CHECK_FAILED
    except OrbitConditionFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except BranchDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
