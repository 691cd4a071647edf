"""Command-line front end.

Subcommands: link, quiver, mutate, classify, seeds, aug, theta, check.
All outputs are deterministic byte-for-byte for fixed inputs and flags.
Exit codes: 0 success, 1 check failure, 2 usage error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

# Each handler imports the layers it calls, so that start-up (importing
# this module and building its parser) loads no other singlink module.


PIPELINE_ENUMERATE_CAP = 2000  # seeds the pipeline counts at most


class UsageError(ValueError):
    pass


@contextlib.contextmanager
def _big_int_text():
    """Lift CPython's limit on the digits of an int written as text, which
    3.10.7 and later set, while output is formatted; input keeps it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _emit(payload) -> None:
    with _big_int_text():
        text = json.dumps(payload, sort_keys=True, indent=2)
    print(text)


def _braid_from_args(args) -> tuple[str, links.BraidWord | None, dict]:
    """Resolve the single braid input form; returns (descriptor, braid, extras).

    Iterated cables beyond a single torus pair have no catalog braid, so
    the braid slot is None and the extras carry the cable data.
    """
    from . import links

    chosen = [
        name
        for name in ("ade", "torus", "puiseux", "braid")
        if getattr(args, name, None) is not None
    ]
    if len(chosen) != 1:
        raise UsageError("choose exactly one of --ade / --torus / --puiseux / --braid")
    kind = chosen[0]
    if kind == "ade":
        label = links.parse_ade_label(args.ade)
        return f"ade:{label}", links.ade_braid(label), {}
    if kind == "torus":
        a, b = args.torus
        return f"torus:{a},{b}", links.torus_braid(a, b), {}
    if kind == "braid":
        braid = links.braid_from_text(args.braid, args.strands)
        return f"braid:{braid.to_text() or '(empty)'}", braid, {}
    pairs = []
    for token in args.puiseux.replace(";", " ").split():
        try:
            n_text, m_text = token.split(",")
            pairs.append((int(n_text), int(m_text)))
        except ValueError:
            raise UsageError(
                f"bad Puiseux pair {token!r}: expected N,M with integers N and M"
            ) from None
    puiseux = links.PuiseuxPairs(tuple(pairs))
    cables = links.cable_pairs_from_puiseux(puiseux)
    extras = {
        "puiseux_pairs": [list(p) for p in puiseux.pairs],
        "cable_pairs": [list(p) for p in cables.pairs],
        "algebraic": links.is_algebraic(cables),
    }
    if not extras["algebraic"]:
        extras["warning"] = "cable pairs fail the algebraicity inequality"
    if len(cables.pairs) == 1:
        l, m = cables.pairs[0]
        if l >= 2 and m >= 2:
            return f"puiseux:{args.puiseux}", links.torus_braid(l, m), extras
    extras["braid"] = None
    return f"puiseux:{args.puiseux}", None, extras


def _link_payload(descriptor: str, braid: links.BraidWord) -> dict:
    """Input descriptor, braid word and link invariants."""
    from . import links

    inv = links.braid_invariants(braid)
    return {
        "input": descriptor,
        "braid": {"strands": braid.strands, "letters": list(braid.letters)},
        "invariants": {
            "components": inv.components,
            "euler_characteristic": inv.euler_characteristic,
            "first_betti": inv.first_betti,
            "tb": inv.tb,
            "milnor_number": inv.milnor_number,
        },
    }


def build_pipeline_report(
    descriptor: str,
    braid: links.BraidWord,
    ade_label: links.DynkinType | None = None,
    equations_dir: str | None = None,
) -> dict:
    """Full report for one link input: braid data through seed counts.

    A braid with no letters, or whose brick quiver has no vertices, has
    no exchange matrix, so its report stops before the classification.
    """
    from . import bricks, quivers

    # One brick per repeat of a letter: the quiver's rank, checked before it is built.
    quivers.check_rank(len(braid.letters) - len(set(braid.letters)))
    report = _link_payload(descriptor, braid)
    if not braid.letters:
        return report
    quiver = bricks.brick_quiver(braid)
    report["brick_quiver"] = quiver.to_json_dict()
    if not quiver.rank:
        return report
    if ade_label is not None:
        from . import dividecatalog, divides

        if f"{ade_label}" in dividecatalog.CATALOG_LABELS:
            divide = dividecatalog.divide_catalog(ade_label)
            regions = len(divides.trace_faces(divide).bounded_faces)
            report["divide"] = {
                "crossings": divide.crossings,
                "bounded_regions": regions,
                "milnor_number": divide.crossings + regions,  # as divides.milnor_number
            }
    matrix = bricks.to_exchange_matrix(quiver)
    try:
        dynkin = quivers.is_finite_type(matrix)
    except quivers.ClusterError as exc:
        report["classification"] = {"type": None, "note": str(exc)}
        return report
    if dynkin is None:
        report["classification"] = {"type": None, "finite": False}
        return report
    expected = quivers.expected_seed_count(dynkin)
    report["classification"] = {"type": str(dynkin), "finite": True, "seeds": expected}
    if expected <= PIPELINE_ENUMERATE_CAP:
        enumerated = quivers.count_seeds(matrix, cap=PIPELINE_ENUMERATE_CAP)
        report["seed_count"] = {"enumerated": enumerated, "expected": expected}
        if enumerated != expected:
            raise quivers.ClusterError(
                f"enumerated seed count {enumerated} != expected {expected}"
            )
    if equations_dir is not None:
        report["equation_files"] = _write_equation_files(
            equations_dir, descriptor, braid, ade_label
        )
    return report


def _write_equation_files(
    directory: str,
    descriptor: str,
    braid: links.BraidWord,
    ade_label: links.DynkinType | None,
) -> list:
    """Dump the augmentation system (and the chain system for A_n inputs)."""
    from . import augment, links, sheafmoduli

    os.makedirs(directory, exist_ok=True)
    stem = descriptor.replace(":", "_").replace(",", "-").replace(" ", "_")
    paths = []
    word = links.append_full_twist(braid)
    system = augment.augmentation_equations(word)
    aug_path = os.path.join(directory, f"{stem}.aug.json")
    with open(aug_path, "w") as handle:
        json.dump(augment.system_to_json_dict(system), handle, sort_keys=True, indent=2)
        handle.write("\n")
    paths.append(aug_path)
    if ade_label is not None and ade_label.family == "A" and ade_label.rank >= 2:
        theta = sheafmoduli.theta_system(ade_label.rank)
        theta_path = os.path.join(directory, f"{stem}.theta.json")
        with open(theta_path, "w") as handle:
            json.dump(
                sheafmoduli.system_to_json_dict(theta), handle, sort_keys=True, indent=2
            )
            handle.write("\n")
        paths.append(theta_path)
    return paths


# -- subcommand handlers --------------------------------------------------------


def cmd_link(args) -> int:
    if args.equations_dir is not None and not args.pipeline:
        raise UsageError("--equations-dir dumps the pipeline's equations: it needs --pipeline")
    descriptor, braid, extras = _braid_from_args(args)
    if braid is None:
        payload = {"input": descriptor, **extras}
        payload["note"] = "iterated cables beyond one pair need an explicit braid word"
        _emit(payload)
        return 0
    if args.pipeline:
        from .links import parse_ade_label

        label = parse_ade_label(args.ade) if args.ade else None
        payload = build_pipeline_report(
            descriptor, braid, ade_label=label, equations_dir=args.equations_dir
        )
    else:
        payload = _link_payload(descriptor, braid)
    payload.update(extras)
    _emit(payload)
    return 0


def cmd_quiver(args) -> int:
    sources = ("ade", "torus", "puiseux", "braid", "divide", "divide_label")
    if sum(getattr(args, name) is not None for name in sources) != 1:
        raise UsageError(
            "choose exactly one of --ade / --torus / --puiseux / --braid"
            " / --divide / --divide-label"
        )
    if args.divide is None and args.divide_label is None:
        _, braid, _ = _braid_from_args(args)
        if braid is None:
            raise UsageError("this input has no catalog braid; supply --braid")
        from .bricks import brick_quiver

        quiver = brick_quiver(braid)
        title = f"brick quiver: {quiver.rank} bricks"
    else:
        from . import dividecatalog, divides

        if args.divide_label is not None:
            divide = dividecatalog.divide_catalog(args.divide_label)
        else:
            with open(args.divide) as handle:
                divide = divides.divide_from_json(handle.read())
        quiver = divides.acampo_quiver(divide)
        title = f"acampo quiver: {quiver.crossings} crossings, {quiver.regions} regions"
    if args.format == "dot":
        print(quiver.to_dot())
    elif args.format == "text":
        print(title)
        for s, t in quiver.arrows:
            print(f"  {quiver.vertex_label(s)} -> {quiver.vertex_label(t)}")
    else:
        _emit(quiver.to_json_dict())
    return 0


def _matrix_from_args(args) -> quivers.ExchangeMatrix:
    sources = [bool(args.matrix), bool(getattr(args, "type", None)), bool(getattr(args, "ade", None))]
    if sum(sources) != 1:
        raise UsageError("choose exactly one matrix source (--matrix / --type / --ade)")
    from . import bricks, links, quivers

    if args.matrix:
        if args.matrix == "-":
            text = sys.stdin.read()
        else:
            with open(args.matrix) as handle:
                text = handle.read()
        return quivers.exchange_matrix_from_json(json.loads(text))
    if getattr(args, "type", None):
        return quivers.initial_matrix(links.parse_dynkin_type(args.type))
    label = links.parse_ade_label(args.ade)
    braid = links.ade_braid(label)
    quivers.check_rank(len(braid.letters) - len(set(braid.letters)))  # as build_pipeline_report
    return bricks.to_exchange_matrix(bricks.brick_quiver(braid))


def cmd_mutate(args) -> int:
    from . import quivers

    matrix = _matrix_from_args(args)
    for k in args.at:
        matrix = quivers.mutate(matrix, k)
    _emit(matrix.to_json_dict())
    return 0


def cmd_classify(args) -> int:
    from . import quivers

    matrix = _matrix_from_args(args)
    dynkin = quivers.is_finite_type(matrix)
    if dynkin is None:
        _emit({"type": None, "seeds": None})
    else:
        _emit({"type": str(dynkin), "seeds": quivers.expected_seed_count(dynkin)})
    return 0


def cmd_seeds(args) -> int:
    from . import cluster

    matrix = _matrix_from_args(args)
    seeds = cluster.enumerate_seeds(matrix, cap=args.cap)
    payload = {
        "count": len(seeds),
        "initial_matrix": matrix.to_json_dict(),
    }
    if not args.summary:
        # The search pools equal cluster variables into one object, so each
        # distinct variable is rendered once.
        variables = {id(var): var for seed in seeds for var in seed.cluster}
        texts = {key: var.to_text() for key, var in variables.items()}
        payload["seeds"] = [
            {
                "matrix": seed.matrix.to_json_dict(),
                "cluster": [texts[id(var)] for var in seed.cluster],
            }
            for seed in seeds
        ]
    _emit(payload)
    return 0


def cmd_aug(args) -> int:
    if args.budget is not None and (args.count_fq is None or args.method != "brute"):
        raise UsageError(
            "--budget bounds the brute-force count: it needs --count-fq Q and --method brute"
        )
    if args.budget is not None and args.budget < 1:
        raise UsageError("budget must be at least 1")
    from . import augment, links

    _, braid, _ = _braid_from_args(args)
    word = links.append_full_twist(braid) if args.full_twist else braid
    system = augment.augmentation_equations(word, t_convention=args.t_convention)
    payload = augment.system_to_json_dict(system)
    if args.count_fq is not None:
        q = args.count_fq
        if args.method == "dp":
            count = augment.count_solutions_dp(word, q)
        else:
            budget = augment.BRUTE_FORCE_BUDGET if args.budget is None else args.budget
            count = augment.count_solutions_bruteforce(system, q, budget=budget)
        payload["count"] = {"q": q, "method": args.method, "solutions": count}
    _emit(payload)
    return 0


def cmd_theta(args) -> int:
    from . import sheafmoduli

    if args.positroid and args.count_fq is None:
        raise UsageError("--positroid counts points: it needs --count-fq Q")
    system = sheafmoduli.theta_system(args.n, args.method)
    payload = sheafmoduli.system_to_json_dict(system)
    payload["method"] = args.method
    if args.count_fq is not None:
        q = args.count_fq
        payload["count"] = {
            "q": q,
            "solutions": sheafmoduli.count_theta_points_chain(args.n, q),
        }
        if args.positroid:
            stratum = sheafmoduli.count_positroid_points(args.n, q)
            payload["count"]["positroid"] = stratum
            with _big_int_text():
                payload["count"]["positroid_ratio"] = (
                    f"{stratum}/{payload['count']['solutions']}"
                )
    _emit(payload)
    return 0


def run_all_checks(deep: bool = False, fast: bool = False) -> list:
    """:func:`singlink.checks.run_all_checks`, imported on first use."""
    from .checks import run_all_checks

    return run_all_checks(deep=deep, fast=fast)


def cmd_check(args) -> int:
    results = run_all_checks(deep=args.deep, fast=args.fast)
    payload = {
        "passed": all(r.passed for r in results),
        "checks": [r.to_json_dict() for r in results],
    }
    _emit(payload)
    return 0 if payload["passed"] else 1


# -- argument parsing -----------------------------------------------------------


def _add_braid_inputs(parser: argparse.ArgumentParser, with_puiseux: bool = True) -> None:
    parser.add_argument("--ade", help="ADE label, e.g. A3, D5, E8")
    parser.add_argument("--torus", nargs=2, type=int, metavar=("A", "B"),
                        help="(a,b)-torus link braid")
    parser.add_argument("--braid", help="whitespace-separated generator indices")
    parser.add_argument("--strands", type=int, help="strand count for --braid")
    if with_puiseux:
        parser.add_argument(
            "--puiseux", help='Puiseux pairs "n1,m1 n2,m2 ..." (innermost first)'
        )
    else:
        parser.set_defaults(puiseux=None)


def _add_link_arguments(parser: argparse.ArgumentParser) -> None:
    _add_braid_inputs(parser)
    parser.add_argument("--pipeline", action="store_true",
                        help="full report: quiver, classification, seed counts")
    parser.add_argument("--equations-dir", metavar="DIR",
                        help="with --pipeline: dump equation systems here")


def _add_quiver_arguments(parser: argparse.ArgumentParser) -> None:
    _add_braid_inputs(parser)
    parser.add_argument("--divide", help="divide JSON file")
    parser.add_argument("--divide-label", help="catalog divide label, e.g. E7")
    parser.add_argument("--format", choices=("json", "dot", "text"), default="json")


def _add_mutate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--matrix", help="matrix JSON file, or - for stdin")
    parser.add_argument("--type", help="start from a Dynkin initial matrix")
    parser.add_argument("--ade", help="start from an ADE brick quiver matrix")
    parser.add_argument("--at", type=int, nargs="+", required=True,
                        metavar="K", help="1-based mutation directions, applied in order")


def _add_classify_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--matrix", help="matrix JSON file, or - for stdin")
    parser.add_argument("--type", help="Dynkin type, e.g. E6")
    parser.add_argument("--ade", help="ADE label; classifies its brick quiver")


def _add_seeds_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--matrix", help="matrix JSON file, or - for stdin")
    parser.add_argument("--type", help="Dynkin type, e.g. D4")
    parser.add_argument("--ade", help="ADE label; enumerates its brick quiver")
    parser.add_argument("--cap", type=int, default=2000)
    parser.add_argument("--summary", action="store_true", help="emit the count only")


def _add_aug_arguments(parser: argparse.ArgumentParser) -> None:
    _add_braid_inputs(parser, with_puiseux=False)
    parser.add_argument("--full-twist", dest="full_twist", action="store_true", default=True,
                        help="append Delta^2 to the input word (default)")
    parser.add_argument("--no-full-twist", dest="full_twist", action="store_false")
    # The library checks --t-convention, theta's --method and the --budget
    # default, so that building the parser imports no layer.
    parser.add_argument("--t-convention", default="t")
    parser.add_argument("--count-fq", type=int, metavar="Q")
    parser.add_argument("--method", choices=("brute", "dp"), default="brute")
    parser.add_argument("--budget", type=int,
                        help="brute-force work budget (default augment.BRUTE_FORCE_BUDGET)")


def _add_theta_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--method", default="recursion")
    parser.add_argument("--count-fq", type=int, metavar="Q")
    parser.add_argument("--positroid", action="store_true",
                        help="with --count-fq, also count the cyclic positroid stratum")


def _add_check_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--deep", action="store_true", help="include E7/E8 enumerations")
    parser.add_argument("--fast", action="store_true", help="shrink randomized instance counts")


# (name, help, argument adder, handler) per subcommand, in usage order.
COMMANDS = (
    ("link", "braid presentation and invariants", _add_link_arguments, cmd_link),
    ("quiver", "brick quiver of a braid or quiver of a divide", _add_quiver_arguments,
     cmd_quiver),
    ("mutate", "mutate an exchange matrix", _add_mutate_arguments, cmd_mutate),
    ("classify", "finite-type detection", _add_classify_arguments, cmd_classify),
    ("seeds", "enumerate cluster seeds", _add_seeds_arguments, cmd_seeds),
    ("aug", "augmentation equation system", _add_aug_arguments, cmd_aug),
    ("theta", "sheaf-moduli chain system", _add_theta_arguments, cmd_theta),
    ("check", "run the cross-validation suite", _add_check_arguments, cmd_check),
)
COMMAND_NAMES = tuple(name for name, _, _, _ in COMMANDS)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of every subcommand when
    ``command`` names none.

    A one-command parser is the full parser's subparser for that command,
    built on its own, with the same ``prog`` ("singlink <command>"),
    arguments and messages.
    """
    for name, _, add_arguments, handler in COMMANDS:
        if name == command:
            parser = argparse.ArgumentParser(prog=f"singlink {name}")
            add_arguments(parser)
            parser.set_defaults(func=handler)
            return parser
    parser = argparse.ArgumentParser(
        prog="singlink",
        description="Exact toolkit for plane-curve singularity links: braids, "
        "divides, quivers, cluster seeds, and moduli equation systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments, handler in COMMANDS:
        subparser = sub.add_parser(name, help=help_text)
        add_arguments(subparser)
        subparser.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only the parser of the subcommand that runs is built.  Help, no
    # command, an unknown one or stray arguments take the full parser,
    # which prints the full parser's messages.
    args = stray = None
    if argv and argv[0] in COMMAND_NAMES:
        args, stray = build_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or stray:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every singlink error is a ValueError
        from .fqmath import BudgetExceededError

        if isinstance(exc, BudgetExceededError):
            print(f"budget exceeded: {exc}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
