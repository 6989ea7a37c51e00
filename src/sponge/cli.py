"""Command-line surface: reproducible reports over IFS files.

Exit codes: 0 success, 1 usage or parse error, 2 validation rejection,
3 resource-cap abort (an exact value too long to print included), 4
internal error.  Diagnostics go to stderr, one line; report output is the
only thing written to stdout.  JSON reports use sorted keys and carry a
digest over everything except the timing field, so identical inputs and
configuration yield identical digests across runs.
"""

import argparse
import functools
import hashlib
import json
import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__
from .classify import EXACTLY_ONE, Analysis, classify
from .components import (SimpleIFSFamily, approx_square,
                         component_diameter_profile, pre_moran_intervals,
                         product_decompositions)
# validate_lg runs inside the labeled tree's LG gate, not here; the name
# stays bound because bench/test_bench.py checks that the benchmark's
# tracer rebinds it in every module that imports it
from .ifs import ParseError, parse_ifs, validate_lg  # noqa: F401
from .tree import last_coordinate_fibers
from .util import (DEFAULT_CAP, DomainError, ResourceCapError, decimal_str,
                   frac_str, parse_fraction, sqrt_bracket, sqrt_decimal_str)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


class Rejection(Exception):
    """Missing or malformed option for the subcommand; exit code 1."""


def _vertex_dict(vertex):
    """A vertex as written in a report; a report builds it once
    (functools.cache over one run), so no caller may change it."""
    return {
        "rank": vertex.rank,
        "coords": [[frac_str(c.ratio), frac_str(c.offset)]
                   for c in vertex.projected_map],
    }


def _parse_delta(text):
    try:
        return parse_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise Rejection("bad delta %r" % text)


def _parse_word(text):
    toks = text.replace(",", " ").split()
    try:
        return tuple(int(t) for t in toks)
    except ValueError:
        raise Rejection("bad word %r" % text)


def _payload_validate(a, args):
    report = a.validation
    payload = {
        # always true (ratios outside (0,1) fail to parse); kept for the digest
        "contraction_ok": True,
        "unit_cube_ok": report.unit_cube_ok,
        "coordinate_ordering_ok": report.coordinate_ordering_ok,
        "neat_projection_ok": report.neat_projection_ok,
        "lg_type": report.lg_type,
        "violations": [[tag, list(detail)] for tag, detail in report.violations],
    }
    if not report.lg_type:
        return payload, EXIT_REJECTED
    return payload, EXIT_OK


def _payload_classify(a, args, vertex_dict=None):
    vertex_dict = vertex_dict or functools.cache(_vertex_dict)
    result = classify(a)
    payload = {
        "uniformly_disconnected": result.uniformly_disconnected,
        "conformal_dim_class": result.conformal_dim_class,
        "witness": (vertex_dict(result.witness)
                    if result.witness is not None else None),
        "fiber_report": [
            {
                "owner": vertex_dict(v.owner),
                "ratio_sum": v.ratio_sum,
                "tiles_unit_interval": v.tiles,
            }
            for v in result.fiber_report
        ],
    }
    return payload, EXIT_OK


def _payload_tree(a, args, vertex_dict=None):
    vertex_dict = vertex_dict or functools.cache(_vertex_dict)
    tree = a.tree
    vertices = []
    for level in tree.levels:
        for vertex in level:
            vertices.append(dict(vertex_dict(vertex), offspring=[
                {"label": [frac_str(label.ratio), frac_str(label.offset)],
                 "child": vertex_dict(child)}
                for label, child in tree.children(vertex)
            ]))
    return {"dim": tree.dim, "vertices": vertices}, EXIT_OK


def _payload_components(a, args):
    deltas = [_parse_delta(d) for d in args.delta or []]
    if not deltas:
        raise Rejection("components requires at least one --delta")
    rows = component_diameter_profile(a.ifs, args.depth, deltas, cap=args.cap)
    out = []
    for row in rows:
        ratio_sq = row["ratio_sq"]
        out.append({
            "delta": row["delta"],
            "num_components": row["num_components"],
            "max_diam_sq": row["max_diam_sq"],
            "max_diam_decimal": sqrt_decimal_str(row["max_diam_sq"],
                                                 args.precision),
            "ratio_decimal": sqrt_decimal_str(ratio_sq, args.precision),
        })
    return {"depth": args.depth, "rows": out}, EXIT_OK


def _payload_premoran(a, args):
    if args.word is None:
        raise Rejection("premoran requires --word")
    family = SimpleIFSFamily(last_coordinate_fibers(a.tree))
    pm = pre_moran_intervals(family, _parse_word(args.word), cap=args.cap)
    return {
        "word": list(pm.word),
        "g_star": family.g_star,
        "alpha_star": family.alpha_star,
        "beta_star": family.beta_star,
        "intervals": [[iv.lo, iv.hi] for iv in pm.intervals],
    }, EXIT_OK


def _payload_square(a, args):
    if args.word is None or not args.delta:
        raise Rejection("square requires --word and --delta")
    if len(args.delta) > 1:
        raise Rejection("square takes one --delta, got %d" % len(args.delta))
    delta = _parse_delta(args.delta[0])
    sq = approx_square(a.ifs, _parse_word(args.word), delta)
    return {
        "delta": delta,
        "depths": list(sq.depths),
        "box": [[s.lo, s.hi] for s in sq.box.sides],
    }, EXIT_OK


def _payload_cantor(a, args):
    from .cantor import (bilipschitz_check, build_cantor_tree,
                         lipschitz_constants, to_binary_tree)
    sys_, consts = a.special
    lip = lipschitz_constants(sys_, consts)
    check = args.check or "all"
    c0_lo, c0_hi = sqrt_bracket(lip.radicand, args.precision)
    payload = {
        "m": sys_.m,
        "L": consts.L,
        "r_star": sys_.r_star,
        "taus": list(sys_.taus),
        "c0": lip.c0,
        "c1_sq": lip.c1_sq,
        "Cprime": lip.Cprime,
        "C0_bracket": [decimal_str(lip.C0_p + lip.C0_q * c0_lo, args.precision),
                       decimal_str(lip.C0_p + lip.C0_q * c0_hi, args.precision)],
    }
    # one tree for every check; laid out eagerly only when it is checked
    tree_depth = min(args.depth, 5) if check in ("tree", "all") else 0
    tree = build_cantor_tree(sys_, consts, tree_depth, cap=args.cap)
    if check in ("tree", "all"):
        payload["tree_additivity_ok"] = True
        payload["tree_depth_checked"] = tree_depth
    if check in ("lipschitz", "all"):
        rep = bilipschitz_check(sys_, consts, min(args.depth, 4),
                                cap=args.cap, tree=tree, lip=lip)
        payload["lipschitz"] = {
            "pairs": rep.pairs,
            "skipped": rep.skipped,
            "min_ratio_sq": rep.min_ratio_sq,
            "max_ratio_sq": rep.max_ratio_sq,
            "min_ratio_decimal": sqrt_decimal_str(rep.min_ratio_sq,
                                                  args.precision),
            "max_ratio_decimal": sqrt_decimal_str(rep.max_ratio_sq,
                                                  args.precision),
            "pass": rep.passed,
        }
    if check in ("binary", "all"):
        bt = to_binary_tree(sys_, consts, args.depth, tree=tree, cap=args.cap)
        payload["binary"] = {
            "T": bt.T,
            "balance_ok": bt.balance_ok,
            "gap_ratio_table": {str(k): v
                                for k, v in sorted(bt.gap_ratio_table.items())},
        }
    return payload, EXIT_OK


def _payload_all(a, args):
    payload = {}
    val, code = _payload_validate(a, args)
    payload["validate"] = val
    if code != EXIT_OK:
        return payload, code
    vertex_dict = functools.cache(_vertex_dict)
    payload["classify"], _ = _payload_classify(a, args, vertex_dict)
    payload["tree"], _ = _payload_tree(a, args, vertex_dict)
    if a.ifs.dim >= 2:
        payload["product_decomposition"] = {
            str(k): ok for k, ok in
            product_decompositions(a, (1, 2), cap=args.cap).items()
        }
    if a.classification.conformal_dim_class == EXACTLY_ONE:
        # when every gap vanishes the attractor is a segment: no Cantor model
        if any(a.special[0].taus):
            payload["cantor"], _ = _payload_cantor(a, args)
    return payload, EXIT_OK


_HANDLERS = {
    "validate": _payload_validate,
    "classify": _payload_classify,
    "tree": _payload_tree,
    "components": _payload_components,
    "premoran": _payload_premoran,
    "square": _payload_square,
    "cantor": _payload_cantor,
    "all": _payload_all,
}

_CSV_COLUMNS = {
    "components": ["delta", "num_components", "max_diam_sq",
                   "max_diam_decimal", "ratio_decimal"],
    "premoran": ["lo", "hi"],
}


_JSON_SCALARS = {
    str: encode_basestring_ascii, int: int.__repr__, float: json.dumps,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
    Fraction: lambda value: encode_basestring_ascii(frac_str(value)),
}


def _indented_json(value, pad="\n"):
    """`value`, its dict keys all str, as json.dumps(value, sort_keys=True,
    indent=2, default=frac_str) writes it: the containers are laid out
    here and every scalar is written by a C encoder or frac_str, not by
    the pure-Python encoder that indent selects.  A scalar's writer is
    looked up by its exact type; any other scalar is written as frac_str's
    string, as json.dumps writes a Fraction subclass.  An int subclass,
    which json.dumps writes as a number, would come out as a string; no
    report holds one."""
    write = _JSON_SCALARS.get(type(value))
    if write is not None:
        return write(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        return "{%s%s%s}" % (inner, ("," + inner).join(
            "%s: %s" % (encode_basestring_ascii(k),
                        _indented_json(value[k], inner))
            for k in sorted(value)), pad)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        return "[%s%s%s]" % (inner, ("," + inner).join(
            _indented_json(v, inner) for v in value), pad)
    return _JSON_SCALARS[Fraction](value)


def emit(report, fmt, subcommand):
    """Render a report; JSON is canonical (sorted keys, p/q rationals)."""
    if fmt == "json":
        return _indented_json(report) + "\n"
    if fmt == "csv":
        cols = _CSV_COLUMNS[subcommand]  # _check_options made sure of it
        lines = [",".join(cols)]
        payload = report["payload"]
        if subcommand == "components":
            for row in payload["rows"]:
                lines.append(",".join(str(row[c]) for c in cols))
        else:
            for lo, hi in payload["intervals"]:
                lines.append("%s,%s" % (lo, hi))
        return "\n".join(lines) + "\n"
    # text
    lines = ["%s %s (tool %s)" % (subcommand, report["input_digest"][:12],
                                  report["tool_version"])]

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk("%s.%s" % (prefix, k) if prefix else k, value[k])
        elif isinstance(value, list):
            lines.append("%s = %s" % (prefix,
                                      json.dumps(value, default=frac_str)))
        else:
            lines.append("%s = %s" % (prefix, value))

    walk("", report["payload"])
    return "\n".join(lines) + "\n"


def run(args):
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print("sponge: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    started = time.monotonic()
    analysis = Analysis(parse_ifs(text))
    payload, code = _HANDLERS[args.subcommand](analysis, args)
    elapsed = time.monotonic() - started
    report = {
        "tool_version": __version__,
        "input_digest": hashlib.sha256(text.encode()).hexdigest(),
        "subcommand": args.subcommand,
        "payload": payload,
    }
    # frac_str writes every Fraction here, before emit, so a value too
    # long to print is a DigitLimitError before any output
    report["digest"] = hashlib.sha256(json.dumps(
        report, sort_keys=True, default=frac_str).encode()).hexdigest()
    report["timing"] = round(elapsed, 6)
    sys.stdout.write(emit(report, args.format, args.subcommand))
    return code


@functools.cache
def build_parser():
    """The one parser of the process: parse_args does not change it, and
    the --delta list it appends to is a fresh one per call."""
    parser = argparse.ArgumentParser(
        prog="sponge",
        description="Exact uniform-disconnectedness reports for diagonal "
                    "self-affine sponges.")
    parser.add_argument("subcommand", choices=sorted(_HANDLERS))
    parser.add_argument("input", help="IFS file")
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--delta", action="append",
                        help="rational p/q, repeatable")
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP)
    parser.add_argument("--format", choices=["json", "csv", "text"],
                        default="json")
    parser.add_argument("--precision", type=int, default=12)
    parser.add_argument("--word", help="comma- or space-separated indices")
    parser.add_argument("--check", choices=["tree", "lipschitz", "binary",
                                            "all"])
    return parser


def _check_options(args):
    if args.precision < 1:
        raise Rejection("--precision must be >= 1, got %d" % args.precision)
    if args.depth < 0:
        raise Rejection("--depth must be >= 0, got %d" % args.depth)
    if args.cap < 1:
        raise Rejection("--cap must be >= 1, got %d" % args.cap)
    # every output digit costs work, so the precision counts against the cap
    if args.precision > args.cap:
        raise ResourceCapError("cli", args.precision, args.cap)
    if args.format == "csv" and args.subcommand not in _CSV_COLUMNS:
        raise Rejection("no CSV schema for subcommand %r" % args.subcommand)


def _attach_negative_values(argv):
    """Join '--opt -1/8' into '--opt=-1/8': argparse takes a value such as
    -1/8 or -1,2 for an option, not a negative number."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (re.match(r"-\d", tok) and prev.startswith("--") and "=" not in prev
                and not "--help".startswith(prev)):
            out[-1] = prev + "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        _check_options(args)
        return run(args)
    # ParseError before DomainError: it is a subclass
    except (ParseError, Rejection) as exc:
        print("sponge: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print("sponge: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except DomainError as exc:
        print("sponge: %s" % exc, file=sys.stderr)
        return EXIT_REJECTED
    except Exception as exc:
        # last resort: a fault of the program still ends in one line
        text = str(exc).splitlines()
        print("sponge: internal error: %s%s" % (
            type(exc).__name__, ": " + text[0] if text else ""),
            file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
