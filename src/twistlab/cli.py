"""Command-line front end.

Subcommands: validate, pair, corollary, scan, foxcheck.  Every command
is deterministic given its flags (scans additionally require a seed)
and emits JSON (schema 1) or CSV; outputs embed the full configuration
so a report is reproducible from its own header.  Exit codes: 0 on
success, 1 when a property violation is found, 2 on usage, parse or
budget errors.

The argument parser is built once per process (build_parser), on the
first call of main: a one-shot `twistlab ...` process builds it once as
before, and a caller that runs several commands in one process, such as
the test suite or a benchmark, builds it once for all of them.  Each
call reads the subcommand's handler, cmd_<command>, by name when it runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import random
import sys

from . import __version__
from .curve import CurveSpec, parse_curve_spec
from .errors import (
    ConsistencyViolation,
    PreconditionError,
    SeriesTermLimit,
    SpecParseError,
    UnknownTwistName,
    UnsupportedGenus,
    WordLengthLimit,
)
from .foxrep import (
    LaurentPoly,
    fox_jacobian,
    magnus_rep,
    rep_as_json,
    rep_identity,
    rep_mul,
    suzuki_scan,
)
from .jfilt import (
    check_consistency,
    classify_pair,
    nested_leading_terms,
)
from .mcg import builtin_table, evaluate, inverse_mcw, validate_relations
from .word import Word, abelianized

SCHEMA = 1
# the corollary's two separating curves: t_a = Sep1 and t_b, its image
# under the connector twist C3
COROLLARY_CURVES = {"a": "Sep1", "b": "Sep1 @ [C3]"}


def _report(args, results, csv_rows, summary=None):
    """Write the report in args.format to args.output, or to stdout.

    The JSON document's config is every parsed option but the command
    and where and how the report is written; CSV writes csv_rows alone.
    """
    if args.format == "json":
        config = {
            k: v
            for k, v in vars(args).items()
            if k not in ("command", "format", "output")
        }
        doc = {
            "schema": SCHEMA,
            "tool": "twistlab",
            "version": __version__,
            "command": args.command,
            "config": config,
            "results": results,
        }
        if summary is not None:
            doc["summary"] = summary
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        if csv_rows:
            fields = sorted(set().union(*csv_rows))
            writer = csv.DictWriter(buf, fieldnames=fields)
            writer.writeheader()
            for row in csv_rows:
                writer.writerow(row)
        text = buf.getvalue()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionError(f"cannot write --output: {exc}") from exc
    else:
        sys.stdout.write(text)


def _flatten(d, prefix=""):
    flat = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            flat.update(_flatten(v, key + "."))
        elif isinstance(v, (list, tuple)):
            flat[key] = json.dumps(v, sort_keys=True)
        else:
            flat[key] = v
    return flat


# -- subcommands --------------------------------------------------------


def cmd_validate(args):
    report = validate_relations(args.genus)
    rows = [
        {"kind": c.kind, "relation": c.description, "passed": c.passed}
        for c in report.checks
    ]
    _report(
        args,
        rows,
        [_flatten(r) for r in rows],
        summary={
            "checks": len(rows),
            "failures": len(report.failures()),
            "all_passed": report.all_passed,
        },
    )
    return 0 if report.all_passed else 1


def cmd_pair(args):
    c1 = parse_curve_spec(args.genus, args.c1)
    c2 = parse_curve_spec(args.genus, args.c2)
    report = classify_pair(c1, c2, args.cap)
    row = report.as_dict()
    _report(args, row, [_flatten(row)])
    return 0


def _corollary_rows(genus, cap):
    """Nested commutators of two crossing separating twists.

    w_1 = [t_a, t_b], w_{m+1} = [t_a, w_m] with t_a the twist around
    the first handle and t_b its image under the connector twist.  The
    two twists sit in M(2) and generate a free group of rank two, so
    w_m is never the identity while the bracket calculus pushes it into
    M(2m+2); each row records the certified level at the working cap.

    Each w_m is carried as its leading term only
    (jfilt.nested_leading_terms): the bracket chain D_{w_m} =
    [D_a, D_{w_{m-1}}], whose degree is w_m's level, started from the
    terms of the two curves of COROLLARY_CURVES, each a closed form in
    the homology matrix of its curve's word, so no twist is evaluated
    and nothing is expanded.  A nonzero bracket proves
    w_m != 1 at that exact level, reported clipped at the cap as a depth
    read at the cap would be: exact below it, at least the cap from it
    on.  A zero bracket proves only the level above; that row,
    or one whose bracket passes the term cap, keeps every column, adds a
    note, and ends the rows.
    """
    a, b = (parse_curve_spec(genus, COROLLARY_CURVES[k]) for k in "ab")
    leads = nested_leading_terms(a, b)
    rows = []
    for m in range(1, cap // 2 + 1):
        expected = 2 * m + 2
        level = min(expected, cap)
        row = {
            "m": m,
            "element": "[t_a, t_b]" if m == 1 else f"[t_a, w_{m-1}]",
            "expected_min_level": expected,
            "tested_level": level,
        }
        try:
            lead = next(leads)
        except SeriesTermLimit as exc:
            row.update(
                in_tested_level=False,
                certified_level=None,
                exact_depth=None,
                is_identity=None,
                acts_trivially_up_to_cap=False,
                note=f"level not tested: {exc}",
            )
            rows.append(row)
            break
        proved = bool(lead)
        certified = min(lead.degree if proved else lead.degree + 1, cap)
        row.update(
            in_tested_level=certified >= level,
            certified_level=certified,
            exact_depth=lead.degree if proved and lead.degree < cap else None,
            is_identity=False if proved else None,
            acts_trivially_up_to_cap=certified >= cap,
        )
        rows.append(row)
        if not proved:
            row["note"] = (
                "identity not decided: the leading term of w_m is zero, "
                "which proves only the level above"
            )
            break
    return rows


def cmd_corollary(args):
    if args.genus < 2:
        raise UnsupportedGenus("the construction needs a separating curve: genus >= 2")
    if args.cap < 4:
        _report(
            args,
            [],
            [],
            summary={
                "note": "cap too small: certifying the base commutator "
                "needs level 4",
            },
        )
        return 0
    rows = _corollary_rows(args.genus, args.cap)
    stopped = "note" in rows[-1]
    tested = rows[:-1] if stopped else rows
    ok = all(r["in_tested_level"] and not r["is_identity"] for r in tested)
    summary = {
        "all_rows_certified": ok and not stopped,
        "curves": COROLLARY_CURVES,
        # finite-level blindness: the depth-cap action misses a
        # nontrivial class, so no level below the cap separates it
        # from the identity.
        "finite_level_nondetection": {
            "level": min(4, args.cap),
            "commutator_in_level_kernel": rows[0]["in_tested_level"],
            "commutator_is_identity": rows[0]["is_identity"],
        },
    }
    _report(args, rows, [_flatten(r) for r in rows], summary=summary)
    if not ok:
        return 1
    if stopped:
        print(f"error: corollary row m={rows[-1]['m']}: {rows[-1]['note']}",
              file=sys.stderr)
        return 2
    return 0


def _random_spec(rng, genus, table, max_len):
    names = table.chain_names + table.sep_names
    base = rng.choice(table.essential_base_names())
    conj = tuple(
        (rng.choice(names), rng.choice((-2, -1, 1, 2)))
        for _ in range(rng.randrange(max_len + 1))
    )
    return CurveSpec(genus, base, conj)


def cmd_scan(args):
    table = builtin_table(args.genus)
    rng = random.Random(args.seed)
    pairs = [
        (
            _random_spec(rng, args.genus, table, args.max_conjugator_len),
            _random_spec(rng, args.genus, table, args.max_conjugator_len),
        )
        for _ in range(args.samples)
    ]

    rows, violations, histogram = [], [], {}
    for idx, (c1, c2) in enumerate(pairs):
        report = classify_pair(c1, c2, args.cap, check=False)
        try:
            check_consistency(report)
        except ConsistencyViolation as exc:
            violations.append({"index": idx, "error": str(exc)})
        rows.append({"index": idx, **report.as_dict()})
        label = rows[-1]["ijf_label"]
        histogram[label] = histogram.get(label, 0) + 1

    summary = {
        "violations": len(violations),
        "violation_details": violations,
        "ijf_histogram": dict(sorted(histogram.items())),
    }
    _report(args, rows, [_flatten(r) for r in rows], summary=summary)
    return 1 if violations else 0


def cmd_foxcheck(args):
    genus = args.genus
    table = builtin_table(genus)  # unsupported genera exit 2 before sampling
    rng = random.Random(args.seed)
    n = 2 * genus

    def random_word():
        k = rng.randrange(1, 11)
        letters = [rng.choice([1, -1]) * rng.randrange(1, n + 1) for _ in range(k)]
        return Word(genus, tuple(letters))

    checks = {}

    ok = True
    for _ in range(args.samples):
        u, v = random_word(), random_word()
        (du, _), (dv, _), (duv, _) = map(fox_jacobian, (u, v, u * v))
        shift = LaurentPoly.monomial(genus, abelianized(u))
        ok = ok and all(duv[i] == du[i] + shift * dv[i] for i in range(n))
    checks["product_rule"] = ok

    one = LaurentPoly.one(genus)
    factors = [
        LaurentPoly.monomial(genus, [int(i == j) for j in range(n)]) - one
        for i in range(n)
    ]
    ok = True
    for _ in range(args.samples):
        w = random_word()
        dw, _ = fox_jacobian(w)
        acc = LaurentPoly(genus)
        for d, factor in zip(dw, factors):
            acc = acc + d * factor
        ok = ok and acc == LaurentPoly.monomial(genus, abelianized(w)) - one
    checks["fundamental_identity"] = ok

    results = {}
    if genus >= 2:
        sep_matrix = magnus_rep(table.entry("Sep1").twist)
        results["sep_twist_matrix"] = rep_as_json(sep_matrix)
        checks["sep_twist_matrix_nontrivial"] = sep_matrix != rep_identity(genus)
        # homologically trivial sample pool, kept as mapping class words:
        # conjugated separating twists h Sep1 h^-1 and short products of
        # them, all Torelli by construction; magnus_rep rejects any class
        # that is not.  A word is inverted by inverse_mcw, multiplied by
        # concatenation and read through evaluate
        names = table.chain_names + table.sep_names
        sep = (("Sep1", 1),)
        torelli = [sep, inverse_mcw(sep)]
        while len(torelli) < 8:
            conj = tuple(
                (rng.choice(names), rng.choice((-1, 1)))
                for _ in range(rng.randrange(3))
            )
            f = conj + sep + inverse_mcw(conj)
            if rng.choice((-1, 1)) < 0:
                f = inverse_mcw(f)
            if rng.random() < 0.5:
                f += rng.choice(torelli)
            if not evaluate(f, genus).is_identity():
                torelli.append(f)
        # each pool element's matrix once; the product is the thing the
        # check tests, so it is evaluated for every drawn pair
        pool = [(f, magnus_rep(evaluate(f, genus))) for f in torelli]
        ok = True
        for _ in range(args.torelli_pairs):
            f, rf = rng.choice(pool)
            g, rg = rng.choice(pool)
            ok = ok and magnus_rep(evaluate(f + g, genus)) == rep_mul(rf, rg)
        checks["multiplicativity"] = ok

    results.update(checks)
    if args.suzuki_budget > 0:
        results["suzuki_hits"] = [
            {"c1": c1, "c2": c2}
            for c1, c2 in suzuki_scan(genus, args.suzuki_budget)
        ]
    else:
        results["suzuki_hits"] = "skipped"

    passed = all(checks.values())
    _report(args, results, [_flatten(dict(checks))], summary={"all_passed": passed})
    return 0 if passed else 1


# -- parser --------------------------------------------------------------


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later one: parse_args keeps no state in it between calls."""
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Exact intersection detectors for curves on a "
        "one-boundary surface.",
    )
    parser.add_argument(
        "--version", action="version", version=f"twistlab {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, genus_default=None):
        if genus_default is None:
            p.add_argument("--genus", type=int, required=True)
        else:
            p.add_argument("--genus", type=int, default=genus_default)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="file path (default stdout)")

    p = sub.add_parser("validate", help="run the generator-table relation suite")
    common(p)

    p = sub.add_parser("pair", help="classify a pair of curve specs")
    common(p)
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", required=True)
    p.add_argument("--cap", type=_positive_int, default=3)

    p = sub.add_parser(
        "corollary",
        help="nested separating-twist commutators deep in the filtration",
    )
    common(p, genus_default=2)
    p.add_argument("--cap", type=_positive_int, default=4)

    p = sub.add_parser("scan", help="randomized pair scan with law checking")
    common(p)
    p.add_argument("--cap", type=_positive_int, default=3)
    p.add_argument("--samples", type=_nonnegative_int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-conjugator-len", type=_nonnegative_int, default=4)

    p = sub.add_parser("foxcheck", help="free-derivative identity checks")
    common(p)
    p.add_argument("--samples", type=_nonnegative_int, default=100)
    p.add_argument("--torelli-pairs", type=_nonnegative_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suzuki-budget", type=_nonnegative_int, default=0)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # looked up by name on each call, so the parser holds no handler
        return globals()[f"cmd_{args.command}"](args)
    except ConsistencyViolation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (
        UnsupportedGenus,
        UnknownTwistName,
        PreconditionError,
        WordLengthLimit,
        SeriesTermLimit,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
