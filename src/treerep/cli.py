"""Command-line front end tying the analysis modules together.

Subcommands
-----------
``analyze``
    Exact representability verdict at one parameter point (JSON).
``scan``
    Verdicts over a rational (r, p) grid (CSV).
``thresholds``
    Branching-number threshold table (CSV).
``deriv-check``
    Exact derivative, from 0/1 cube evaluations, against its closed
    form at a distinguished base point (JSON).
``verify``
    Sampler cross-checks and Poisson-field closure (JSON).
``scaling-check``
    Edge-subdivision consistency of the measure (JSON).

Every rational on the command line is parsed exactly: ``2/5``, ``0.45``
and ``1`` all become Fractions, never floats.  Grids are either comma
lists or ``start:stop:step`` with exact rational stepping, inclusive of
the stop value when the stepping lands on it.  Artifacts embed the
package version and a digest of the generating configuration (output
path excluded), so identical configurations and seeds produce
byte-identical files.

Exit status: 0 on success, 1 when an asserted outcome does not hold
(``--expect`` mismatch, or a failed ``verify``/``scaling-check``/
``deriv-check`` comparison), 2 on usage or input errors.  Every refusal
is a :class:`~treerep.tree_core.DomainError`: this module raises it for
command-line text it cannot parse, the library for every other bad
input.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .chain_model import (
    as_fraction,
    make_params,
    params_from_json,
    sample_percolation_many,
    sample_recursive_many,
)
from .mc_verify import (
    _check_alpha,
    _check_tolerance,
    _pattern_histogram,
    compare_laws,
    field_from_chain,
    poisson_closure_report,
    sample_poisson_field_many,
)
from .param_calculus import EdgeMultiset, closed_form, d_nu_dp, d_nu_dr
from .representability import is_representable, phase_scan, scaling_check
from .thresholds import threshold_table
from .tree_core import DomainError, VertexSet, octopus, path, spider, star, tree_from_json


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """One fully-parsed invocation.

    String fields keep the exact command-line spelling; they are parsed
    into Fractions/trees only when the command runs, so the config is
    cheap to hash and echo.  ``out`` never influences artifact bytes
    and is excluded from the digest.
    """

    command: str
    tree: Optional[str] = None
    r: Optional[str] = None
    p: Optional[str] = None
    params: Optional[str] = None
    r_grid: Optional[str] = None
    p_grid: Optional[str] = None
    ns: Optional[str] = None
    subset: Optional[str] = None
    at: Optional[str] = None
    multiset: Optional[str] = None
    k: Optional[int] = None
    draws: int = 100_000
    alpha: str = "1/100"
    tolerance: str = "4"
    seed: int = 0
    expect: Optional[str] = None
    out: Optional[str] = None


_DIGEST_EXCLUDES = ("out",)


def config_digest(config: RunConfig) -> str:
    """Short stable digest of everything that shapes the artifact.

    Every field is a str, an int or None, so the fields are read as they
    are, with no deep copy.
    """
    payload = {
        key: value
        for key, value in vars(config).items()
        if key not in _DIGEST_EXCLUDES and value is not None
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# exact parsing helpers


def parse_grid(text):
    """Comma list, or ``start:stop:step`` stepped exactly.

    The stop value is included precisely when some ``start + i*step``
    hits it; there is no float fuzz to absorb a near miss.  The text is
    checked at once, but a stepped grid's values are yielded lazily, so
    :func:`~treerep.representability.phase_scan` can refuse a bad value
    before the rest of the grid exists.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError("grid syntax is start:stop:step, got %r" % text)
        start, stop, step = (as_fraction(part) for part in parts)
        if step <= 0:
            raise DomainError("grid step must be positive")
        if stop < start:
            raise DomainError("grid stop lies before start")
        return itertools.takewhile(lambda value: value <= stop, itertools.count(start, step))
    return [as_fraction(part) for part in text.split(",")]


def parse_index_range(text):
    """``3..8`` (inclusive) as a ``range``, or a comma list of integers as a list.

    The range is not expanded, so ``3..10**15`` reaches the index refusal
    of :func:`~treerep.thresholds.threshold_table` instead of allocating.
    """
    try:
        if ".." not in text:
            return [int(part) for part in text.split(",")]
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise DomainError("not an integer range: %r" % text) from None
    if hi < lo:
        raise DomainError("empty range %r" % text)
    return range(lo, hi + 1)


# builder, sizes it takes, and an example spec for the refusal message
_GENERATORS = {
    "path": (path, 1, "path:5"),
    "star": (star, 1, "star:4"),
    "spider": (spider, 2, "spider:3x2"),
    "octopus": (octopus, 2, "octopus:3x2"),
}


def parse_tree(spec):
    """``path:5``, ``star:4``, ``spider:3x2``, ``octopus:3x2``, or a JSON file."""
    kind, sep, rest = spec.partition(":")
    if sep and kind in _GENERATORS:
        builder, arity, example = _GENERATORS[kind]
        try:
            args = tuple(int(part) for part in rest.split("x"))
        except ValueError:
            args = ()
        if len(args) != arity:
            raise DomainError("tree %r needs %d integer size(s), e.g. %s" % (spec, arity, example))
        return builder(*args)
    return tree_from_json(_read(spec, "tree"))


def _read(path, what):
    """The text of a UTF-8 file, or a DomainError that names it as the ``what`` file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError("cannot read %s file %r: %s" % (what, path, exc)) from None


def _param_spec(text, keys, flag):
    """A scalar rational, or one per key as a ``{key: value}`` map."""
    parts = [part.strip() for part in text.split(",")]
    if len(parts) == 1:
        return as_fraction(parts[0])
    if len(parts) != len(keys):
        raise DomainError(
            "%s takes one value or %d comma-separated values, got %d"
            % (flag, len(keys), len(parts))
        )
    return {key: as_fraction(part) for key, part in zip(keys, parts)}


def resolve_params(tree, config):
    """ChainParams from ``--params FILE`` or from ``--r`` and ``--p``, never both."""
    if config.params is not None:
        if config.r is not None or config.p is not None:
            raise DomainError("give --params FILE, or --r and --p, not both")
        return params_from_json(tree, _read(config.params, "params"))
    if config.r is None or config.p is None:
        raise DomainError("give --params FILE, or both --r and --p")
    r_spec = _param_spec(config.r, range(tree.n), "--r")
    return make_params(tree, r_spec, _param_spec(config.p, tree.edges, "--p"))


def parse_vertices(text) -> list:
    """Comma-separated vertex ids, repeats kept: ``0,0,3``."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise DomainError("not a vertex list: %r" % text) from None


# ---------------------------------------------------------------------------
# artifact rendering


def _fractions(values):
    return [str(value) for value in values]


def _json_artifact(payload, config):
    payload["version"] = __version__
    payload["config"] = config_digest(config)
    return json.dumps(payload, indent=2) + "\n"


def _csv_artifact(header, rows, config, notes=()):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    lines.extend("# %s" % note for note in notes)
    lines.append("# treerep %s config %s" % (__version__, config_digest(config)))
    return "\n".join(lines) + "\n"


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(config):
    tree = parse_tree(config.tree)
    params = resolve_params(tree, config)
    verdict = is_representable(tree, params)
    payload = {
        "command": "analyze",
        "tree": config.tree,
        "vertices": tree.n,
        "r": _fractions(params.r),
        "p": _fractions(params.p),
        "representable": verdict.representable,
        "witness": None if verdict.witness is None else list(verdict.witness),
        "checked_sets": verdict.checked_sets,
    }
    _emit(_json_artifact(payload, config), config.out)
    if config.expect is not None:
        expected = config.expect == "representable"
        if verdict.representable != expected:
            return 1
    return 0


def _cmd_scan(config):
    tree = parse_tree(config.tree)
    points = phase_scan(tree, parse_grid(config.r_grid), parse_grid(config.p_grid))
    rows = []
    for point in points:
        witness = point.verdict.witness
        rows.append(
            (
                str(point.r),
                str(point.p),
                "true" if point.verdict.representable else "false",
                "" if witness is None else ";".join(str(v) for v in witness),
            )
        )
    _emit(_csv_artifact(("r", "p", "representable", "witness"), rows, config), config.out)
    return 0


_R0_NOTE = (
    "r0 undefined at n=%d: no index j <= n has positive signed "
    "complementary Bell number, so the companion level does not exist; "
    "published tables print an anomalous value at this entry"
)


def _cmd_thresholds(config):
    rows = threshold_table(parse_index_range(config.ns))
    table = []
    notes = []
    for row in rows:
        if row.r0 is None:
            r0_text = "undefined"
            notes.append(_R0_NOTE % row.n)
        else:
            r0_text = "%.6f" % row.r0
        table.append(
            (str(row.n), str(row.bell_c), "%.6f" % row.r_star, r0_text, "%.6f" % row.r1)
        )
    _emit(
        _csv_artifact(("n", "bell_c", "r_star", "r0", "r1"), table, config, notes=notes),
        config.out,
    )
    return 0


def _cmd_deriv_check(config):
    tree = parse_tree(config.tree)
    ids = parse_vertices(config.subset)
    if max(ids) >= tree.n:  # before VertexSet shifts 1 by each id
        raise DomainError("subset contains ids outside the tree")
    subset = VertexSet.of(*ids)
    # the base point fixes the law that a flag leaves out; --params gives both
    laws = config
    if config.at in ("p0", "p1"):
        if config.r is None and config.params is None:
            raise DomainError("--at %s needs --r (vertex laws)" % config.at)
        if config.params is None and config.p is None:
            laws = dataclasses.replace(config, p="0" if config.at == "p0" else "1")
        params = resolve_params(tree, laws)
        multiset = EdgeMultiset.from_string(config.multiset)
        value = d_nu_dp(tree, params, subset, multiset, at=config.at)
        multiset_text = str(multiset)
    else:
        if config.p is None and config.params is None:
            raise DomainError("--at r1 needs --p (edge parameters)")
        if config.params is None and config.r is None:
            laws = dataclasses.replace(config, r="1")
        params = resolve_params(tree, laws)
        multiset = parse_vertices(config.multiset)
        value = d_nu_dr(tree, params, subset, multiset, at=config.at)
        multiset_text = ",".join(str(v) for v in sorted(multiset))
    closed = closed_form(tree, params, subset, config.at, multiset)
    payload = {
        "command": "deriv-check",
        "tree": config.tree,
        "set": list(subset),
        "at": config.at,
        "multiset": multiset_text,
        "derivative": str(value),
        "closed_form": None if closed is None else str(closed),
        "matches": None if closed is None else value == closed,
    }
    _emit(_json_artifact(payload, config), config.out)
    return 1 if payload["matches"] is False else 0


def _comparison_payload(report):
    return {
        "statistic": report.statistic,
        "dof": report.dof,
        "p_value": report.p_value,
        "cells": report.cells,
        "passed": report.passed,
    }


# Percolation, the recursive sampler and the field draw at seeds seed,
# seed + 1 and seed + 2, and a stream's seed is below 2^64.
_MAX_VERIFY_SEED = (1 << 64) - 3


def _cmd_verify(config):
    tree = parse_tree(config.tree)
    params = resolve_params(tree, config)
    if config.draws < 1:
        raise DomainError("--draws must be positive")
    if not 0 <= config.seed <= _MAX_VERIFY_SEED:
        raise DomainError(
            "--seed must lie in [0, 2^64 - 3]: the samplers use seeds seed to seed + 2"
        )
    alpha = as_fraction(config.alpha)
    tolerance = as_fraction(config.tolerance)
    _check_alpha(alpha)
    level = float(alpha)  # 1e-400 and 1 - 1e-20 round to 0.0 and 1.0
    _check_alpha(level)
    if abs(tolerance) > sys.float_info.max:
        raise DomainError("tolerance must be >= 0 and fit in a float, got %s" % config.tolerance)
    tolerance = float(tolerance)
    _check_tolerance(tolerance)
    field = field_from_chain(tree, params)
    # Each sampler runs once and its words become pattern counts at once;
    # both chi-squares read the one recursive sample, and the closure
    # reads the field sample that its chi-square reads.
    draws, seed = config.draws, config.seed
    percolation = _pattern_histogram(sample_percolation_many(tree, params, draws, seed), tree.n)
    recursive = _pattern_histogram(sample_recursive_many(tree, params, draws, seed + 1), tree.n)
    poisson = _pattern_histogram(sample_poisson_field_many(field, draws, seed + 2), tree.n)
    perc_vs_rec = compare_laws(percolation, recursive, tree.n, alpha=level)
    pois_vs_rec = compare_laws(poisson, recursive, tree.n, alpha=level)
    closure = poisson_closure_report(tree, params, poisson, tolerance=tolerance)
    passed = perc_vs_rec.passed and pois_vs_rec.passed and closure.passed
    payload = {
        "command": "verify",
        "tree": config.tree,
        "r": _fractions(params.r),
        "p": _fractions(params.p),
        "draws": config.draws,
        "seed": config.seed,
        "alpha": str(alpha),
        "percolation_vs_recursive": _comparison_payload(perc_vs_rec),
        "poisson_vs_recursive": _comparison_payload(pois_vs_rec),
        "poisson_closure": {
            "checked": closure.checked,
            "max_sigmas": closure.max_sigmas,
            "worst_set": None if closure.worst_set is None else list(closure.worst_set),
            "tolerance": closure.tolerance,
            "passed": closure.passed,
        },
        "passed": passed,
    }
    _emit(_json_artifact(payload, config), config.out)
    return 0 if passed else 1


def _cmd_scaling_check(config):
    tree = parse_tree(config.tree)
    r = as_fraction(config.r)
    p = as_fraction(config.p)
    passed = scaling_check(tree, r, p, config.k)
    payload = {
        "command": "scaling-check",
        "tree": config.tree,
        "r": str(r),
        "p": str(p),
        "k": config.k,
        "aggregated_p": str(1 - (1 - p) ** config.k),
        "passed": passed,
    }
    _emit(_json_artifact(payload, config), config.out)
    return 0 if passed else 1


_DISPATCH = {
    "analyze": _cmd_analyze,
    "scan": _cmd_scan,
    "thresholds": _cmd_thresholds,
    "deriv-check": _cmd_deriv_check,
    "verify": _cmd_verify,
    "scaling-check": _cmd_scaling_check,
}


def run(config: RunConfig) -> int:
    """Execute one configured command; returns the exit status.

    0: success (and any asserted outcome holds); 1: the artifact was
    written but an asserted outcome failed (``--expect`` mismatch, a
    rejected sampler comparison, a failed closure or scaling identity,
    or a closed-form mismatch); 2: a
    :class:`~treerep.tree_core.DomainError`, raised here for text that
    cannot be parsed and by the library for every other bad input, such
    as malformed files, out-of-range parameters and exceeded size caps.
    Anything else is a bug and propagates.
    """
    handler = _DISPATCH.get(config.command)
    if handler is None:
        print("treerep: unknown command %r" % config.command, file=sys.stderr)
        return 2
    try:
        return handler(config)
    except DomainError as exc:
        print("treerep: %s" % exc, file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser, tree=True, params=False):
    if tree:
        parser.add_argument(
            "--tree",
            required=True,
            metavar="SPEC",
            help="path:N, star:K, spider:KxL, octopus:MxD, or a tree JSON file",
        )
    if params:
        parser.add_argument(
            "--r", metavar="RAT[,RAT...]", help="vertex law(s), exact rationals"
        )
        parser.add_argument(
            "--p", metavar="RAT[,RAT...]", help="edge parameter(s), exact rationals"
        )
        parser.add_argument(
            "--params", metavar="FILE", help='JSON file {"r": ..., "p": ...}'
        )
    parser.add_argument("--out", metavar="FILE", help="write the artifact here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treerep",
        description="Exact Poisson-representability analysis of tree-indexed Markov chains.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    analyze = commands.add_parser(
        "analyze", help="exact verdict at one parameter point (JSON)"
    )
    _add_common(analyze, params=True)
    analyze.add_argument(
        "--expect",
        choices=("representable", "not-representable"),
        help="exit 1 unless the verdict matches",
    )

    scan = commands.add_parser("scan", help="verdicts over a rational (r, p) grid (CSV)")
    _add_common(scan)
    scan.add_argument("--r-grid", required=True, metavar="GRID", help="a:b:step or comma list")
    scan.add_argument("--p-grid", required=True, metavar="GRID", help="a:b:step or comma list")
    scan.add_argument(
        "--threads", type=int, help="accepted and ignored; grid points run serially"
    )

    thresholds = commands.add_parser(
        "thresholds", help="branching-number threshold table (CSV)"
    )
    thresholds.add_argument(
        "--n", dest="ns", required=True, metavar="RANGE", help="3..8 or comma list"
    )
    _add_common(thresholds, tree=False)

    deriv = commands.add_parser(
        "deriv-check", help="exact derivative vs closed form at a base point (JSON)"
    )
    _add_common(deriv, params=True)
    deriv.add_argument("--set", dest="subset", required=True, metavar="V,V,...", help="vertex set")
    deriv.add_argument(
        "--at", required=True, choices=("p0", "p1", "r1"), help="expansion base point"
    )
    deriv.add_argument(
        "--multiset",
        required=True,
        metavar="SPEC",
        help='edges "0-1,0-1,1-2" at p0/p1; vertices "0,0,3" at r1',
    )

    verify = commands.add_parser(
        "verify", help="sampler cross-checks and Poisson-field closure (JSON)"
    )
    _add_common(verify, params=True)
    # defaults live in RunConfig; an absent flag parses to None and is dropped
    verify.add_argument("--draws", type=int, help="draws per sampler")
    verify.add_argument(
        "--seed", type=int,
        help="0 to 2^64 - 3; percolation draws at seed, recursion at seed + 1, field at seed + 2",
    )
    verify.add_argument("--alpha", metavar="RAT", help="chi-square level")
    verify.add_argument("--tolerance", metavar="RAT", help="closure tolerance in sigma units")

    scaling = commands.add_parser(
        "scaling-check", help="edge-subdivision consistency of the measure (JSON)"
    )
    _add_common(scaling)
    scaling.add_argument("--r", required=True, metavar="RAT", help="uniform vertex law")
    scaling.add_argument("--p", required=True, metavar="RAT", help="uniform edge parameter")
    scaling.add_argument("--k", type=int, required=True, help="segments per original edge")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    names = {field.name for field in dataclasses.fields(RunConfig)}
    data = {key: value for key, value in vars(args).items() if key in names and value is not None}
    return RunConfig(**data)


_PARSER = None


def main(argv=None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``) and run it; returns the exit status.

    One parser serves every call in a process: the first call builds it
    and later calls reuse it, since building costs far more than
    parsing.  Parsing keeps no state between calls; each call gets a
    fresh namespace, and a usage error still raises ``SystemExit(2)``.
    :func:`build_parser` returns a fresh parser on every call.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    return run(_config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
