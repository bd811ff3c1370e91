"""Command-line surface.

    homalg verify FILE [--identity NAME]... [--expr EQUATION]
                       [--strategy generic|basis] [--json]
    homalg twist FILE --map NAME -o OUT [--force]
    homalg untwist FILE -o OUT
    homalg polarize FILE -o OUT
    homalg opposite FILE -o OUT
    homalg check-endo FILE --map NAME [--json]
    homalg check-morphism FILE_A FILE_B --map NAME [--json]
    homalg check-unit FILE --element LABEL [--json]
    homalg catalog list
    homalg catalog show KEY [--emit] [-o OUT]

Exit status: 0 when every check holds (under assumptions included), 1 when
some check fails, 2 on input or usage errors.

Files without a twist designation are treated as ordinary algebras: the
identity map stands in for the twisting map wherever an identity needs one
(this is the classical, untwisted reading of every builtin identity).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import catalog as _catalog
from .algebra import (
    check_unit,
    is_endomorphism,
    is_morphism,
    opposite,
    polarize,
    untwist,
    yau_twist,
)
from .errors import HomAlgebraError, NotEndomorphism
from .fileio import CheckRecord, Report, load, save, saves
from .identities import (
    BuiltinIdentity,
    builtin,
    check_builtin,
    is_multilinear,
)
from .parser import parse_identity

# default verify suite: the multilinear identities first (reported with a
# basis-tuple witness), then the nonlinear ones (a generic residual);
# commutative leads, as its verdict decides whether the Jordan-type
# identities run
_DEFAULT_SUITE = (
    "commutative",
    "hom_associative",
    "left_hom_alternative_linearized",
    "right_hom_alternative_linearized",
    "associator_alternating_12",
    "associator_alternating_23",
    "associator_alternating_13",
    "left_hom_alternative",
    "right_hom_alternative",
    "hom_flexible",
    "hom_jordan",
    "hom_jordan_variant_a",
    "hom_jordan_variant_b",
)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except HomAlgebraError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the computation ran out of memory", file=sys.stderr)
        return 2


# built on the first main() call and reused by every later one in the
# process: argparse looks up the output streams and the terminal width when
# it prints, not when it builds, and parse_args leaves the tree unchanged
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="homalg",
        description="Exact verification and construction of twisted "
                    "(Hom-) algebra structures given by structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run identity checks against a file")
    p.add_argument("file")
    p.add_argument("--identity", action="append", default=[],
                   help="builtin identity name (repeatable)")
    p.add_argument("--expr", action="append", default=[],
                   help="identity equation in the surface syntax (repeatable)")
    p.add_argument("--strategy", choices=("generic", "basis"),
                   help="witness form for a failing check: a basis tuple "
                        "(multilinear identities only) or a generic "
                        "residual with a counterexample; default picks "
                        "basis for multilinear identities and generic "
                        "otherwise. Both evaluate once on generic elements")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    for name, op in (("twist", None), ("untwist", untwist),
                     ("polarize", polarize), ("opposite", opposite)):
        p = sub.add_parser(name, help="write the %s of the algebra" % name)
        p.add_argument("file")
        p.add_argument("-o", "--output", required=True)
        if name == "twist":
            p.add_argument("--map", required=True)
            p.add_argument("--force", action="store_true",
                           help="twist even by a non-endomorphism; the "
                                "skipped certificate is recorded")
            p.set_defaults(handler=_cmd_twist)
        else:
            p.set_defaults(handler=_make_transform(op))

    p = sub.add_parser("check-endo", help="endomorphism certificate for a map")
    p.add_argument("file")
    p.add_argument("--map", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_check_endo)

    p = sub.add_parser("check-morphism",
                       help="morphism certificate between two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--map", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_check_morphism)

    p = sub.add_parser("check-unit", help="two-sided unit check for an element")
    p.add_argument("file")
    p.add_argument("--element", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_check_unit)

    p = sub.add_parser("catalog", help="browse the built-in algebra catalog")
    csub = p.add_subparsers(dest="catalog_command", required=True)
    pl = csub.add_parser("list")
    pl.set_defaults(handler=_cmd_catalog_list)
    ps = csub.add_parser("show")
    ps.add_argument("key")
    ps.add_argument("--emit", action="store_true",
                    help="write the entry in the algebra file format")
    ps.add_argument("-o", "--output")
    ps.set_defaults(handler=_cmd_catalog_show)

    return parser


def _load_for_checks(path):
    """Load a file; substitute the identity map when no twist is declared."""
    loaded = load(path)
    algebra = loaded.algebra
    implicit = algebra.alpha is None
    if implicit:
        algebra = algebra.with_identity_alpha()
    return loaded, algebra, implicit


def _cmd_verify(args):
    loaded, algebra, implicit = _load_for_checks(args.file)
    report = Report("verify", args.file)
    if implicit:
        report.notes.append("no twist map declared; identities use the "
                            "identity map")

    explicit = bool(args.identity or args.expr)
    if explicit:
        targets = [builtin(name) for name in args.identity]
        targets += [BuiltinIdentity(text, (parse_identity(text),), (text,))
                    for text in args.expr]
    else:
        targets = [builtin(name) for name in _DEFAULT_SUITE]

    commutative = None
    results = {}   # (asts, strategy) -> report: targets sharing them run once
    for target in targets:
        # the default suite runs the Jordan-type identities only on a
        # commutative product; an identity asked for by name always runs
        if (not explicit and target.requires_commutative
                and not commutative.holds):
            continue
        strategy = args.strategy or (
            "basis" if all(is_multilinear(a) for a in target.asts)
            else "generic")
        started = time.perf_counter()
        key = (target.asts, strategy)
        if key not in results:
            results[key] = check_builtin(algebra, target, strategy)
        result = results[key]
        elapsed = time.perf_counter() - started
        if target.name == "commutative":
            commutative = result
        report.add(CheckRecord(target.name, strategy, result.verdict,
                               result.witness, result.assumptions, elapsed))

    return _emit_report(report, args)


def _cmd_twist(args):
    loaded, f = _load_map(args.file, args.map)
    certificate = is_endomorphism(loaded.algebra, f)
    if not certificate.holds and not args.force:
        raise NotEndomorphism(
            "map %r is not an endomorphism (defect at %s); use --force to "
            "twist anyway" % (args.map, certificate.witness.at), certificate)
    note = ("" if certificate.holds
            else "endomorphism precondition overridden by --force")
    report = Report("twist", args.file)
    report.add(CheckRecord("endomorphism:%s" % args.map, "basis-pairs",
                           certificate.verdict, certificate.witness,
                           certificate.assumptions, note=note))
    twisted = yau_twist(loaded.algebra, f, force=True)
    save(twisted, args.output, maps={args.map: f}, twist=args.map)
    print(report.render_text(), end="")
    print("wrote %s" % args.output)
    return 0


def _make_transform(op):
    def handler(args):
        loaded = load(args.file)
        # saves names the result's twist map after the file's equal map
        save(op(loaded.algebra), args.output, maps=loaded.maps)
        print("wrote %s" % args.output)
        return 0
    return handler


def _load_map(path, name):
    """The loaded file and its map called name."""
    loaded = load(path)
    if name not in loaded.maps:
        raise HomAlgebraError("file %s declares no map %r" % (path, name))
    return loaded, loaded.maps[name]


def _cmd_check_endo(args):
    loaded, f = _load_map(args.file, args.map)
    return _certificate(args, "check-endo", args.file,
                        "endomorphism:%s" % args.map,
                        is_endomorphism(loaded.algebra, f))


def _cmd_check_morphism(args):
    loaded_a = load(args.file_a)
    loaded_b = load(args.file_b)
    f = loaded_a.maps.get(args.map) or loaded_b.maps.get(args.map)
    if f is None:
        raise HomAlgebraError("neither file declares a map %r" % args.map)
    return _certificate(args, "check-morphism",
                        "%s -> %s" % (args.file_a, args.file_b),
                        "morphism:%s" % args.map,
                        is_morphism(loaded_a.algebra, loaded_b.algebra, f))


def _cmd_check_unit(args):
    algebra = load(args.file).algebra
    if args.element not in algebra.basis:
        raise HomAlgebraError("file %s has no basis label %r"
                              % (args.file, args.element))
    return _certificate(args, "check-unit", args.file,
                        "unit:%s" % args.element,
                        check_unit(algebra, algebra.basis_vector(args.element)))


def _certificate(args, command, subject, name, result):
    """Report one basis-level certificate and exit 0 if it holds, else 1."""
    report = Report(command, subject)
    report.add(CheckRecord(name, "basis-pairs", result.verdict,
                           result.witness, result.assumptions))
    return _emit_report(report, args)


def _cmd_catalog_list(args):
    for key in _catalog.list_keys():
        print(key)
    return 0


def _cmd_catalog_show(args):
    entry = _catalog.get(args.key)
    if args.emit:
        text = saves(entry.algebra, maps=entry.maps)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            print("wrote %s" % args.output)
        else:
            print(text, end="")
        return 0
    algebra = entry.algebra
    print("key:        %s" % entry.key)
    print("dim:        %d" % algebra.dim)
    print("basis:      %s" % ", ".join(algebra.basis))
    if algebra.params:
        print("params:     %s" % ", ".join(
            p.name + (" (nonzero)" if p.nonzero else "") for p in algebra.params))
    if algebra.unit is not None:
        print("unit:       %s" % algebra.basis[algebra.unit])
    print("twist map:  %s" % ("declared" if algebra.alpha is not None else "none"))
    if entry.maps:
        print("maps:       %s" % ", ".join(sorted(entry.maps)))
    print("products:")
    for i, j, k, c in algebra.mu:
        lhs = "%s*%s" % (algebra.basis[i], algebra.basis[j])
        print("  %-8s += (%s) %s" % (lhs, c, algebra.basis[k]))
    print("provenance: %s" % entry.provenance)
    if entry.expected:
        print("expected:   %s" % ", ".join(
            "%s=%s" % pair for pair in entry.expected))
    return 0


def _emit_report(report, args):
    """Write the report as --json asks; the exit status: 0 if every check
    holds, 1 if some check fails."""
    sys.stdout.write(report.render_json() if args.json
                     else report.render_text())
    return 0 if report.all_hold else 1


if __name__ == "__main__":
    sys.exit(main())
