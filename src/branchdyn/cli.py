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
from .errors import BranchDynError, InvalidSpec, OrbitConditionFailed

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
        return {str(key): _jsonable(val) for key, val in sorted(v.items(), key=repr)}
    if isinstance(v, (list, tuple, set, frozenset)):
        seq = sorted(v, key=repr) if isinstance(v, (set, frozenset)) else v
        return [_jsonable(x) for x in seq]
    if v is None:
        return None
    return str(v)


def _canonical(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _config_hash(command: str, params: dict) -> str:
    blob = json.dumps(
        {"command": command, "params": _jsonable(params)}, sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _emit(args, command: str, params: dict, body: dict, rows=None) -> None:
    report = {
        "tool": "branchdyn",
        "version": __version__,
        "command": command,
        "config_hash": _config_hash(command, params),
    }
    report.update(_jsonable(body))
    if getattr(args, "with_timing", False):
        report["elapsed_seconds"] = f"{time.monotonic() - args._t0:.3f}"
    if rows is not None and args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = _canonical(report)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
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


def _parse_morphism(text: str, source, target):
    if text.lstrip().startswith("{"):
        data = json.loads(text)
    else:
        with open(text) as fh:
            data = json.load(fh)
    try:
        kind = data.get("kind")
        if kind == "table":
            mapping = {int(a): int(b) for a, b in data["map"].items()}
            rule = morphisms.TableRule(mapping)
        elif kind == "affine":
            rule = morphisms.AffineRule(int(data["u"]), int(data["v"]))
        elif kind == "identity":
            rule = morphisms.IdentityRule()
        elif kind == "coding":
            rule = morphisms.CodingRule(int(data.get("cap", 2**10)))
        else:
            raise ValueError(f"unknown morphism kind {kind!r}")
    except (AttributeError, KeyError, TypeError) as exc:
        raise InvalidSpec(f"malformed morphism description: {exc}") from exc
    return morphisms.Morphism(source=source, target=target, rule=rule)


# ---------------------------------------------------------------------------
# command handlers; each returns the exit code


def cmd_orbit(args):
    sys_ = _parse_system(args.system)
    rec = orbits.orbit_iterate(sys_, args.x, args.cap)
    _emit(
        args,
        "orbit",
        {"system": systems.spec_to_json(sys_.spec), "x": str(args.x), "cap": args.cap},
        {
            "start": _state(rec.start),
            "trajectory": _states(rec.trajectory),
            "entered_cycle": rec.entered_cycle,
            "cycle": _states(rec.cycle),
            "entry_index": rec.entry_index,
        },
    )
    return 0


def cmd_total_orbit(args):
    sys_ = _parse_system(args.system)
    approx = orbits.total_orbit(sys_, args.x, args.window, args.budget)
    _emit(
        args,
        "total-orbit",
        {
            "system": systems.spec_to_json(sys_.spec),
            "x": str(args.x),
            "window": [str(b) for b in args.window],
            "budget": args.budget,
        },
        {
            "window": approx.window,
            "members": _states(sorted(approx.members)),
            "frontier": _states(sorted(approx.frontier)),
            "exhausted": approx.exhausted,
            "exact": approx.exact,
        },
    )
    return 0


def cmd_minimality(args):
    sys_ = _parse_system(args.system)
    rep = orbits.minimality_probe(sys_, args.window, args.budget)
    _emit(
        args,
        "minimality",
        {
            "system": systems.spec_to_json(sys_.spec),
            "window": [str(b) for b in args.window],
            "budget": args.budget,
        },
        {
            "window": rep.window,
            "class_count": rep.class_count,
            "classes": [_states(c) for c in rep.classes],
            "unresolved": _states(rep.unresolved),
            "exhausted": rep.exhausted,
        },
    )
    return 0


def cmd_cycles(args):
    sys_ = _parse_system(args.system)
    rep = words.enumerate_cycles(sys_, args.max_len)
    rows = [["word", "cycle", "length"]]
    for rec in rep.cycles:
        rows.append(
            [
                " ".join(map(str, rec.word)),
                " ".join(map(str, rec.cycle)),
                rec.length,
            ]
        )
    _emit(
        args,
        "cycles",
        {
            "system": systems.spec_to_json(sys_.spec),
            "max_len": args.max_len,
        },
        {
            "words_tried": rep.words_tried,
            "pruned": rep.pruned,
            "cycle_count": len(rep.cycles),
            "cycles": [
                {"cycle": _states(r.cycle), "word": list(r.word), "length": r.length}
                for r in rep.cycles
            ],
        },
        rows=rows,
    )
    return 0


def cmd_check(args):
    sys_ = _parse_system(args.system)
    if args.what == "uniqueness":
        rep = words.check_uniqueness(sys_, args.max_len, scan_bound=args.scan_bound)
        body = {
            "passed": rep.passed,
            "words_checked": rep.words_checked,
            "violations": [
                {"word": list(w), "fixed_points": [str(p) for p in pts]}
                for w, pts in rep.violations
            ],
        }
        params = {
            "system": systems.spec_to_json(sys_.spec),
            "max_len": args.max_len,
            "scan_bound": args.scan_bound,
        }
    elif args.what == "separating":
        rep = words.check_separating(sys_, args.x, args.cap)
        body = {
            "passed": rep.passed,
            "periodic": rep.periodic,
            "period": rep.period,
            "word": list(rep.word),
            "aperiodic": rep.aperiodic,
        }
        params = {
            "system": systems.spec_to_json(sys_.spec),
            "x": str(args.x),
            "cap": args.cap,
        }
    elif args.what == "bounded":
        rep = systems.verify_bounded_condition(sys_, args.window)
        body = {
            "passed": rep.passed,
            "states_checked": rep.states_checked,
            "violations": [
                {"branch": b, "states": _states((x, y)), "image": _state(img)}
                for b, x, y, img in rep.violations
            ],
        }
        params = {
            "system": systems.spec_to_json(sys_.spec),
            "window": [str(b) for b in args.window] if args.window else None,
        }
    else:  # alphabeta hypotheses
        rep = coding.check_alphabeta_hypotheses(sys_, args.window, args.horizon)
        body = {
            "passed": rep.passed,
            "gcd_passed": rep.gcd_passed,
            "gcd_failures": list(rep.gcd_failures),
            "multiple_passed": rep.multiple_passed,
            "multiple_failures": _states(rep.multiple_failures),
            "horizon": rep.horizon,
        }
        params = {
            "system": systems.spec_to_json(sys_.spec),
            "window": [str(b) for b in args.window] if args.window else None,
            "horizon": args.horizon,
        }
    _emit(args, f"check {args.what}", params, body)
    return 0 if body["passed"] else CHECK_FAILED


def cmd_code(args):
    sys_ = _parse_system(args.system)
    prefix = coding.coding_prefix(sys_, args.x, args.length)
    body = {"x": str(args.x), "symbols": list(prefix.symbols)}
    if args.exact_tail:
        seq = coding.exact_coding(sys_, args.x, args.cap)
        body["coding"] = _state(seq) if seq is not None else None
    _emit(
        args,
        "code",
        {
            "system": systems.spec_to_json(sys_.spec),
            "x": str(args.x),
            "length": args.length,
        },
        body,
    )
    return 0


def cmd_tuc_scan(args):
    sys_ = _parse_system(args.system)
    rep = coding.verify_tuc_window(sys_, args.window, args.cap)
    _emit(
        args,
        "tuc-scan",
        {
            "system": systems.spec_to_json(sys_.spec),
            "window": [str(b) for b in args.window] if args.window else None,
            "cap": args.cap,
        },
        {
            "passed": rep.passed,
            "states": rep.states,
            "pairs": rep.pairs,
            "max_prefix_length": rep.max_prefix_length,
            "undistinguished": [_states(g) for g in rep.undistinguished],
        },
    )
    return 0 if rep.passed else CHECK_FAILED


def cmd_tower(args):
    sys_ = _parse_system(args.system)
    tower = coding.tower_from_state(args.x, sys_.k, args.depth)
    if args.steps < 0:
        raise InvalidSpec(f"need steps >= 0, got {args.steps}")
    steps = [tower]
    for _ in range(args.steps):
        steps.append(coding.tower_apply(sys_, steps[-1]))
    _emit(
        args,
        "tower",
        {
            "system": systems.spec_to_json(sys_.spec),
            "x": str(args.x),
            "depth": args.depth,
            "steps": args.steps,
        },
        {
            "towers": [
                {"depth": t.depth, "digits": [str(d) for d in t.digits]}
                for t in steps
            ]
        },
    )
    return 0


def cmd_operators(args):
    sys_ = _parse_system(args.system)
    trunc = operators.build_truncation(sys_, args.window)
    params = {
        "system": systems.spec_to_json(sys_.spec),
        "window": [str(b) for b in args.window] if args.window else None,
    }
    if args.what == "build":
        body = {
            "n": trunc.n,
            "k": trunc.k,
            "entries": [len(m) for m in trunc.maps],
            "escapes": [_states(sorted(e)) for e in trunc.escapes],
        }
        _emit(args, "operators build", params, body)
        return 0
    if args.what == "reduce-check":
        if args.set_file is None:
            raise InvalidSpec("reduce-check needs --set-file")
        with open(args.set_file) as fh:
            k_states = [int(v) for v in json.load(fh)]
        basis = operators.subspace_from_invariant_set(trunc, k_states)
        rep = operators.is_reducing(trunc, basis, interior_only=args.interior_only)
        params["set"] = _states(k_states)
        body = {
            "passed": rep.passed,
            "dimension": basis.dimension,
            "interior_only": rep.interior_only,
            "witness": _jsonable(rep.witness),
        }
        _emit(args, "operators reduce-check", params, body)
        return 0 if rep.passed else CHECK_FAILED
    if args.what == "commutant":
        rep = operators.commutant_projections(trunc)
        body = {
            "dimension": rep.dimension,
            "abelian": rep.abelian,
            "block_count": len(rep.blocks),
            "block_dimensions": [b.dimension for b in rep.blocks],
            "block_scalar": list(rep.block_scalar),
            "lattice_size": rep.lattice_size,
            "lattice_reason": rep.lattice_reason,
            "nonabelian_witness": _jsonable(rep.nonabelian_witness),
        }
        _emit(args, "operators commutant", params, body)
        return 0
    if args.what == "fixed-vectors":
        rep = operators.fixed_vectors_of_word(trunc, args.word)
        body = {
            "word": list(rep.word),
            "dimension": rep.dimension,
            "vectors": [
                {str(trunc.states[c]): str(v) for c, v in enumerate(vec) if v}
                for vec in rep.basis.vectors
            ],
        }
        params["word"] = list(args.word)
        _emit(args, "operators fixed-vectors", params, body)
        return 0
    # pm-limit
    support = [int(t) for t in args.support.split(",")]
    a = {}
    for s in support:
        if s not in trunc.index:
            raise BranchDynError(f"support state {s} outside the window")
        a[trunc.index[s]] = Fraction(1)
    rep = operators.verify_pm_limit(trunc, a, args.x, cap=args.cap)
    params.update({"support": _states(support), "x": str(args.x), "cap": args.cap})
    body = {
        "passed": rep.passed,
        "stabilization_index": rep.stabilization_index,
        "eliminated": [
            {"state": _state(s), "step": m, "cause": c} for s, m, c in rep.eliminated
        ],
        "never_eliminated": _states(rep.never),
        "window_horizon": rep.window_horizon,
    }
    _emit(args, "operators pm-limit", params, body)
    return 0 if rep.passed else CHECK_FAILED


def cmd_morphism(args):
    source = _parse_system(args.source)
    target = _parse_system(args.target)
    phi = _parse_morphism(args.phi, source, target)
    params = {
        "source": systems.spec_to_json(source.spec),
        "target": systems.spec_to_json(target.spec),
        "phi": args.phi if args.phi.lstrip().startswith("{") else f"@{args.phi}",
    }
    if args.window:
        params["window"] = [str(b) for b in args.window]
    if args.what == "check":
        win = args.window if args.window else None
        rep = morphisms.check_homomorphism(phi, win)
        body = {
            "passed": rep.passed,
            "checked": rep.checked,
            "violations": [[_state(x), why] for x, why in rep.violations],
        }
        _emit(args, "morphism check", params, body)
        return 0 if rep.passed else CHECK_FAILED
    if args.what == "iso":
        win = args.window if args.window else None
        rep = morphisms.is_isomorphism(phi, win)
        body = {
            "passed": rep.passed,
            "exact": rep.exact,
            "homomorphism": rep.homomorphism,
            "injective": rep.injective,
            "surjective": rep.surjective,
            "witness": _jsonable(rep.witness),
        }
        _emit(args, "morphism iso", params, body)
        return 0 if rep.passed else CHECK_FAILED
    ta = operators.build_truncation(source, args.window if args.window else None)
    tb = operators.build_truncation(
        target, args.target_window if args.target_window else None
    )
    if args.target_window:
        params["target_window"] = [str(b) for b in args.target_window]
    if args.what == "conjugate":
        rep = morphisms.conjugate_unitary(phi, ta, tb)
        body = {
            "passed": rep.passed,
            "per_branch": list(rep.per_branch),
            "interior_passed": rep.interior_passed,
            "witness": _jsonable(rep.witness),
        }
        _emit(args, "morphism conjugate", params, body)
        return 0 if rep.passed else CHECK_FAILED
    rep = morphisms.induced_isometry(phi, ta, tb)
    body = {
        "passed": rep.passed,
        "isometry_identity": rep.isometry_identity,
        "per_branch_interior": list(rep.per_branch_interior),
        "orbit_condition": rep.orbit_condition,
        "witness": _jsonable(rep.witness),
    }
    _emit(args, "morphism isometry", params, body)
    return 0 if rep.passed else CHECK_FAILED


def cmd_verify_all(args):
    results = battery.run_all()
    checks = [
        {"number": r.number, "name": r.name, "passed": r.passed, "detail": r.detail}
        for r in results
    ]
    anomalies = [r.name for r in results if not r.passed]
    body = {
        "preset": args.preset,
        "checks": checks,
        "anomalies": anomalies,
        "passed": not anomalies,
    }
    _emit(args, "verify-all", {"preset": args.preset}, body)
    return 0 if not anomalies else CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="branchdyn",
        description="cycles, codings, and truncated operator algebras of "
        "branch-partitioned dynamical systems",
    )
    p.add_argument("--version", action="version", version=f"branchdyn {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, window=False, system=True):
        if system:
            sp.add_argument("--system", required=True, help="collatz, qxd:Q,D, mersenne:M, shift:K, inline JSON, or a JSON file path")
        if window:
            sp.add_argument("--window", type=_parse_window, default=None, help="A..B")
        sp.add_argument("--out", default=None, help="write the report to a file")
        sp.add_argument("--with-timing", action="store_true",
                        help="include elapsed time (breaks byte-for-byte determinism)")

    sp = sub.add_parser("orbit", help="iterate one state to its cycle")
    common(sp)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--cap", type=int, default=10**4)
    sp.set_defaults(func=cmd_orbit)

    sp = sub.add_parser("total-orbit", help="closure under f and preimages in a window")
    common(sp, window=True)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--budget", type=int, default=10**6)
    sp.set_defaults(func=cmd_total_orbit)

    sp = sub.add_parser("minimality", help="orbit-equivalence classes of a window")
    common(sp, window=True)
    sp.add_argument("--budget", type=int, default=10**4)
    sp.set_defaults(func=cmd_minimality)

    sp = sub.add_parser("cycles", help="all cycles with period up to --max-len")
    common(sp)
    sp.add_argument("--max-len", type=int, default=24)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_cycles)

    sp = sub.add_parser("check", help="uniqueness / separating / bounded / alphabeta")
    sp.add_argument("what", choices=("uniqueness", "separating", "bounded", "alphabeta"))
    common(sp, window=True)
    sp.add_argument("--x", type=int, default=1)
    sp.add_argument("--cap", type=int, default=2**10)
    sp.add_argument("--max-len", type=int, default=12)
    sp.add_argument("--scan-bound", type=int, default=None)
    sp.add_argument("--horizon", type=int, default=None)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("code", help="coding prefix of a state")
    common(sp)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--length", type=int, default=16)
    sp.add_argument("--cap", type=int, default=2**10)
    sp.add_argument("--exact-tail", action="store_true",
                    help="also report the full eventually periodic coding")
    sp.set_defaults(func=cmd_code)

    sp = sub.add_parser("tuc-scan", help="coding injectivity over a window")
    common(sp, window=True)
    sp.add_argument("--cap", type=int, default=2**10)
    sp.set_defaults(func=cmd_tuc_scan)

    sp = sub.add_parser("tower", help="k-adic digit towers along the orbit")
    common(sp)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--depth", type=int, default=4)
    sp.add_argument("--steps", type=int, default=1)
    sp.set_defaults(func=cmd_tower)

    sp = sub.add_parser("operators", help="truncated operator computations")
    sp.add_argument("what", choices=("build", "reduce-check", "commutant",
                                     "fixed-vectors", "pm-limit"))
    common(sp, window=True)
    sp.add_argument("--set-file", default=None, help="JSON list of states (reduce-check)")
    sp.add_argument("--interior-only", action="store_true")
    sp.add_argument("--word", type=_parse_word, default=(1,))
    sp.add_argument("--x", type=int, default=1)
    sp.add_argument("--support", default="1", help="comma separated states (pm-limit)")
    sp.add_argument("--cap", type=int, default=64)
    sp.set_defaults(func=cmd_operators)

    sp = sub.add_parser("morphism", help="morphism verification and transport")
    sp.add_argument("what", choices=("check", "iso", "conjugate", "isometry"))
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--phi", required=True, help="inline JSON or a JSON file path")
    common(sp, window=True, system=False)
    sp.add_argument("--target-window", type=_parse_window, default=None)
    sp.set_defaults(func=cmd_morphism)

    sp = sub.add_parser("verify-all", help="run the curated verification battery")
    sp.add_argument("--preset", choices=("paper",), default="paper")
    common(sp, system=False)
    sp.set_defaults(func=cmd_verify_all)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.monotonic()
    try:
        return args.func(args)
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
