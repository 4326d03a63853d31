"""Command-line front end.

Every command resolves its parameters, runs one library operation, and
emits a canonical report: keys sorted, state values rendered as decimal
strings (they can exceed 64 bits in any JSON reader), small counts and
branch symbols as plain numbers, no timestamps or timing unless
explicitly requested.  Identical invocations therefore produce byte
identical files, which makes reports diffable artifacts.

Reports are written by ``_canonical``, a small recursive writer whose
output equals ``json.dumps(report, sort_keys=True, indent=2)`` byte for
byte on str-keyed JSON values.  The indenting ``json.dumps`` runs the
pure-Python encoder one element at a time; the writer instead joins a
list of strings in one call over the C function
``json.encoder.encode_basestring_ascii``, and an all-int list of states
is rendered by ``map(str, ...)``.  Python's limit on int-to-string
digits (4300 by default) guards parsing untrusted text: it still holds
while options and input files are read, and is lifted only while states
are rendered and the report is written.  ``main`` builds its parser
once per process, on its first call.

Exit codes: 0 success, 1 only for a report whose "passed" is false, 2
for usage or input errors (every raised error).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__, battery, coding, morphisms, operators, orbits, systems, words
from .errors import BranchDynError, InvalidSpec, NotAffineFamily

USAGE_ERROR = 2
CHECK_FAILED = 1


@contextlib.contextmanager
def _digits_unlimited():
    """Lift Python's int-to-string digit limit (4300 since 3.10.7) for
    the block: it guards parsing untrusted text, not writing computed
    results, and a state or lattice_size can exceed it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _state(s):
    """A state as a decimal string; a shift state as a {pre, per} pair."""
    return _states((s,))[0]


def _states(seq):
    """States as ``_state`` renders them; exact ints (no bools) in one pass."""
    seq = tuple(seq)
    with _digits_unlimited():
        if set(map(type, seq)) <= {int}:
            return list(map(str, seq))
        return [
            {"pre": [int(t) for t in s.pre], "per": [int(t) for t in s.per]}
            if isinstance(s, systems.EventuallyPeriodic) else str(s)
            for s in seq
        ]


def _tagged(pairs):
    """(state, tag) pairs as [state, tag] lists."""
    return [[x, tag] for x, (_, tag) in zip(_states(x for x, _ in pairs), pairs)]


def _write(v, indent: str) -> str:
    """``v`` as ``json.dumps(v, sort_keys=True, indent=2)`` writes it at
    ``indent``; dict keys must be str."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = indent + "  "
        if set(map(type, v)) == {str}:
            items = map(encode_basestring_ascii, v)
        else:
            items = [_write(x, inner) for x in v]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = indent + "  "
        items = [encode_basestring_ascii(key) + ": " + _write(v[key], inner) for key in sorted(v)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    return json.dumps(v)


def _canonical(data: dict) -> str:
    with _digits_unlimited():
        return _write(data, "") + "\n"


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
        {"command": command, "params": params}, sort_keys=True
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
    report.update(body)
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


# the named families: name -> (the form the name takes, the spec built from its integers)
_NAMED_SYSTEMS = {
    "qxd": ("qxd:Q,D", systems.QxPlusD),
    "mersenne": ("mersenne:M", systems.mersenne),
    "shift": ("shift:K", systems.SymbolicShift),
}


def _parse_system(text: str):
    """A system named as the ``--system`` help lists it.  The integers of
    a named family are read as every integer of a JSON input is
    (``systems.json_int``), so ``qxd:5,1`` written in Arabic-Indic digits
    is refused, not read as 5x+1."""
    if text == "collatz":
        return systems.make_system(systems.collatz())
    name, colon, numbers = text.partition(":")
    if colon and name in _NAMED_SYSTEMS:
        form, spec = _NAMED_SYSTEMS[name]
        items = numbers.split(",")
        if len(items) != form.count(",") + 1:
            raise InvalidSpec(f"system {text!r} must look like {form}")
        return systems.make_system(spec(*map(systems.json_int, items)))
    if text.lstrip().startswith("{"):
        return systems.make_system(systems.spec_from_json(json.loads(text)))
    with open(text) as fh:
        return systems.make_system(systems.spec_from_json(json.load(fh)))


def _parse_int(text: str) -> int:
    """An integer option, read as every integer of a JSON input is
    (``systems.json_int``): ASCII digits with an optional sign, so an
    underscore or a non-ASCII digit is refused where ``int()`` read it.
    A count's least is the library's ``_need_int`` bound.  A numeral past
    Python's int-to-string digit limit keeps argparse's own text."""
    try:
        return systems.json_int(text)
    except InvalidSpec as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_window(text: str):
    # ASCII digits, as systems.json_int reads them: \d matches any Unicode digit
    m = re.fullmatch(r"([0-9]+)\.\.([0-9]+)", text)
    if not m:
        # argparse prints an ArgumentTypeError's message, not a ValueError's
        raise argparse.ArgumentTypeError(f"window must look like 1..100, got {text!r}")
    return (int(m[1]), int(m[2]))


def _parse_word(text: str):
    """Symbols split at commas, dots or spaces, each read by ``systems.json_int``."""
    try:
        return tuple(systems.json_int(t) for t in re.split(r"[,.\s]+", text.strip()) if t)
    except InvalidSpec as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_support(text: str):
    return tuple(map(systems.json_int, text.split(",")))


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
        "trajectory": _states(rec.replay()),
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
    args.scan_bound = rep.scan_bound  # config_hash: a table's bound is null, as reported
    return {
        "passed": rep.passed,
        "fixed_words": rep.fixed_words,
        "scan_bound": rep.scan_bound,
        "violations": [
            {"word": list(w), "fixed_points": _states(pts)}
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
    symbols = coding.coding_prefix(args.system, args.x, args.length)
    # the cap is refused with or without --exact-tail, after the length
    systems._need_int("cap", args.cap, 0)
    body = {"x": str(args.x), "symbols": list(symbols)}
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
    systems._need_int("steps", args.steps, 0)
    steps = [tower]
    for _ in range(args.steps):
        steps.append(coding.tower_apply(sys_, steps[-1]))
    return {
        "towers": [
            {"depth": t.depth, "digits": _states(t.digits)}
            for t in steps
        ]
    }


def cmd_operators_build(args):
    trunc = operators.build_truncation(args.system, args.window)
    return {
        "n": trunc.n,
        "k": trunc.k,
        "entries": trunc._entries(),
        "escapes": [_states(e) for e in trunc.escapes],
    }


def cmd_operators_reduce_check(args):
    trunc = operators.build_truncation(args.system, args.window)
    basis = operators.coordinate_subspace(trunc, args.set_file)
    rep = operators.is_reducing(trunc, basis, interior_only=args.interior_only)
    return {
        "passed": rep.passed,
        "dimension": basis.dimension,
        "interior_only": rep.interior_only,
        "witness": [*rep.witness[:3], _state(rep.witness[3])] if rep.witness else None,
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
            {"state": x, "step": m, "cause": c}
            for x, (_, m, c) in zip(_states(e[0] for e in rep.eliminated), rep.eliminated)
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
        "violations": _tagged(rep.violations),
    }


def cmd_morphism_iso(args):
    rep = morphisms.is_isomorphism(_morphism(args), args.window)
    witness = rep.witness
    if witness and isinstance(witness[0], tuple):  # the first (state, reason) violation
        witness = _tagged(witness)
    elif witness:  # a collision (x, x', phi(x)) or up to three missed states
        witness = _states(witness)
    return {
        "passed": rep.passed,
        "exact": rep.exact,
        "homomorphism": rep.homomorphism,
        "injective": rep.injective,
        "surjective": rep.surjective,
        "witness": witness,
    }


def _phi_and_truncations(args):
    phi = _morphism(args)
    ta = operators.build_truncation(args.source, args.window)
    tb = operators.build_truncation(args.target, args.target_window)
    return phi, ta, tb


def _branch_witness(witness):
    """A transport witness (branch, state), or None."""
    return [witness[0], _state(witness[1])] if witness else None


def cmd_morphism_conjugate(args):
    rep = morphisms.conjugate_unitary(*_phi_and_truncations(args))
    return {
        "passed": rep.passed,
        "per_branch": list(rep.per_branch),
        "interior_passed": rep.interior_passed,
        "witness": _branch_witness(rep.witness),
    }


def cmd_morphism_isometry(args):
    rep = morphisms.induced_isometry(*_phi_and_truncations(args))
    witness = rep.witness
    if isinstance(witness, dict):  # the orbit condition failed at x
        witness = {key: _state(v) if key == "x" else _states(v) for key, v in witness.items()}
    else:
        witness = _branch_witness(witness)
    return {
        "passed": rep.passed,
        "per_branch_interior": list(rep.per_branch_interior),
        "orbit_condition": rep.orbit_condition,
        "witness": witness,
    }


def cmd_verify_all(args):
    results = battery.run_all()
    anomalies = [r.name for r in results if not r.passed]
    return {
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
    sp.add_argument("--x", type=_parse_int, required=True)
    sp.add_argument("--cap", type=_parse_int, default=10**4)

    sp = leaf(sub, "total-orbit", cmd_total_orbit,
              "closure under f and preimages in a window", window=True)
    sp.add_argument("--x", type=_parse_int, required=True)
    sp.add_argument("--budget", type=_parse_int, default=10**6)

    sp = leaf(sub, "minimality", cmd_minimality,
              "orbit-equivalence classes of a window", window=True)
    sp.add_argument("--budget", type=_parse_int, default=10**4)

    sp = leaf(sub, "cycles", cmd_cycles, "all cycles with period up to --max-len")
    sp.add_argument("--max-len", type=_parse_int, default=24)
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    check = group("check", "uniqueness / separating / alphabeta")
    sp = leaf(check, "uniqueness", cmd_check_uniqueness)
    sp.add_argument("--max-len", type=_parse_int, default=12)
    sp.add_argument("--scan-bound", type=_parse_int, default=words.UNIQUENESS_SCAN_BOUND)
    sp = leaf(check, "separating", cmd_check_separating)
    sp.add_argument("--x", type=_parse_int, default=1)
    sp.add_argument("--cap", type=_parse_int, default=2**10)
    sp = leaf(check, "alphabeta", cmd_check_alphabeta, window=True)
    sp.add_argument("--horizon", type=_parse_int, default=None)

    sp = leaf(sub, "code", cmd_code, "coding prefix of a state")
    sp.add_argument("--x", type=_parse_int, required=True)
    sp.add_argument("--length", type=_parse_int, default=16)
    sp.add_argument("--cap", type=_parse_int, default=2**10)
    sp.add_argument("--exact-tail", action="store_true",
                    help="also report the full eventually periodic coding")

    sp = leaf(sub, "tuc-scan", cmd_tuc_scan, "coding injectivity over a window",
              window=True)
    sp.add_argument("--cap", type=_parse_int, default=2**10)

    sp = leaf(sub, "tower", cmd_tower, "k-adic digit towers along the orbit")
    sp.add_argument("--x", type=_parse_int, required=True)
    sp.add_argument("--depth", type=_parse_int, default=4)
    sp.add_argument("--steps", type=_parse_int, default=1)

    ops = group("operators", "truncated operator computations")
    leaf(ops, "build", cmd_operators_build, window=True)
    sp = leaf(ops, "reduce-check", cmd_operators_reduce_check, window=True)
    sp.add_argument("--set-file", required=True, help="JSON list of states")
    sp.add_argument("--interior-only", action="store_true")
    leaf(ops, "commutant", cmd_operators_commutant, window=True)
    sp = leaf(ops, "fixed-vectors", cmd_operators_fixed_vectors, window=True)
    sp.add_argument("--word", type=_parse_word, default=(1,))
    sp = leaf(ops, "pm-limit", cmd_operators_pm_limit, window=True)
    sp.add_argument("--x", type=_parse_int, default=1)
    sp.add_argument("--support", default="1", help="comma separated states")
    sp.add_argument("--cap", type=_parse_int, default=64)

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

    leaf(sub, "verify-all", cmd_verify_all, "run the curated verification battery",
         system=False)

    return p


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built on the first call, not at import
        _parser = build_parser()
    args = _parser.parse_args(argv)
    args._t0 = time.monotonic()
    try:
        for dest, read in _RESOLVE:
            if dest in vars(args):
                setattr(args, dest, read(getattr(args, dest)))
        body = args.func(args)
        _emit(args, body)
        return 0 if body.get("passed", True) else CHECK_FAILED
    except (BranchDynError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
