"""Command-line interface: simulate benchmark scenarios, estimate from CSV
site files, and pretty-print metrics tables.

Exit codes: 0 success, 2 bad arguments or scenario, 3 estimation or
simulation failure, 4 invalid input data.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .errors import FedcausalError, ScenarioError
from .federation import ALPHA, LAMBDA_GRID
from .fedruntime import (METHODS, ProtocolConfig, audit_ledger, dump_ledger, is_count,
                         is_method_list, run_round)
from .nuisance import FeatureMap
from .simbench import load_scenario, replication_reports, run_scenario
from .site_estimator import SiteFrame

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_DATA = 4


def _checked(convert, ok, rule: str):
    """An argparse ``type=``: convert the text, then require ``ok`` of the value."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad value {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(rule)
        return value

    return parse


_parse_seed = _checked(int, is_count, "seed must be in [0, 2**53)")
_parse_reps = _checked(int, lambda v: v >= 1, "reps must be >= 1")
_parse_methods = _checked(
    lambda text: tuple(m.strip() for m in text.split(",") if m.strip()),
    is_method_list,
    "methods must be a non-empty list of distinct names from: " + ",".join(METHODS),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcausal",
        description="Federated estimation of target-population treatment effects.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo benchmark scenario")
    sim.add_argument("--scenario", required=True, help="preset name or scenario JSON path")
    sim.add_argument(
        "--methods", type=_parse_methods, default=METHODS,
        help="comma-separated subset of: " + ",".join(METHODS),
    )
    sim.add_argument("--reps", type=_parse_reps, default=500)
    sim.add_argument("--seed", type=_parse_seed, default=0)
    sim.add_argument("--out", required=True, help="output directory")

    est = sub.add_parser("estimate", help="estimate from per-site CSV files")
    est.add_argument("--target", required=True, help="target site CSV (y,a,x1..xp)")
    est.add_argument("--source", action="append", default=[],
                     help="source site CSV; repeatable")
    est.add_argument("--method", default="mr_l1", choices=METHODS)
    est.add_argument("--seed", type=_parse_seed, default=0)
    est.add_argument("--out", default=None,
                     help="directory for report.json, ledger.jsonl and audit.json")

    rep = sub.add_parser("report", help="print a metrics.csv as an aligned table")
    rep.add_argument("--metrics", required=True, help="metrics.csv from a simulate run")
    return parser


def _fail(message: object, code: int) -> int:
    """Print ``error: <message>`` to stderr and return the exit ``code``."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_simulate(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        return _fail(exc, EXIT_USAGE)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        return _fail(exc, EXIT_USAGE)

    try:
        result = run_scenario(scenario, methods=args.methods, reps=args.reps, seed=args.seed)
    except FedcausalError as exc:
        return _fail(exc, EXIT_RUNTIME)

    result.write_metrics_csv(os.path.join(args.out, "metrics.csv"))
    result.write_replications_csv(os.path.join(args.out, "replications.csv"))

    # Protocol transcript: the first method's round of replication 0, run by
    # the study's own code as silently as the study, which tolerates a few
    # failed replications, so this round may have failed.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports, failed = replication_reports(scenario, args.methods, args.seed, 0)
    try:
        if args.methods[0] in failed:
            raise failed[args.methods[0]]
        report = reports[args.methods[0]]
        dump_ledger(report.privacy_ledger, os.path.join(args.out, "ledger.jsonl"))
        ledger_audit = audit_ledger(report)
    except FedcausalError as exc:
        return _fail(exc, EXIT_RUNTIME)

    manifest = {
        "scenario": scenario.name,
        "methods": list(args.methods),
        "reps": args.reps,
        "seed": args.seed,
        "alpha": ALPHA,
        "lambda_grid": list(LAMBDA_GRID),
        "failures": result.failures,
        "version": __version__,
        "ledger_audit": ledger_audit,
    }
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote metrics for {len(args.methods)} methods x {args.reps} reps to {args.out}")
    return EXIT_OK


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """The header and body rows of the CSV at ``path``, read as spreadsheet
    programs write it: a UTF-8 byte-order mark and blank lines at the end are
    dropped. A file that is not UTF-8 and every row without the header's cell
    count fail with an error that names the file; a row is counted from the
    header as row 1."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        raise ValueError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    for row_no, r in enumerate(body, 2):
        if len(r) != len(header):
            raise ValueError(f"{path}: row {row_no} has {len(r)} cells, expected {len(header)}")
    return header, body


def _read_site_csv(path: str) -> tuple[np.ndarray, list[str]]:
    """Read a site CSV with header y,a,x1..xp; returns (rows, x names). The
    frame built from the rows checks their values (:func:`_site_frame`)."""
    header, rows = _read_csv(path)
    if len(header) < 3 or header[0] != "y" or header[1] != "a":
        raise ValueError(f"{path}: header must start with y,a followed by covariates")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise ValueError(f"{path}: repeated column names {repeated}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    try:
        return np.array(rows, dtype=float), header[2:]
    except ValueError:
        raise ValueError(f"{path}: non-numeric cell")


def _site_frame(path: str, role: str, data: np.ndarray, shared: tuple) -> SiteFrame:
    """The frame of the site CSV at ``path``, named by its file; a
    :class:`SiteFrame` check that fails names the file too."""
    try:
        return SiteFrame(site_id=os.path.splitext(os.path.basename(path))[0], role=role,
                         y=data[:, 0], a=data[:, 1], X=data[:, 2:], shared_cols=shared)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_estimate(args) -> int:
    try:
        data, tgt_names = _read_site_csv(args.target)
        frames = [_site_frame(args.target, "target", data, tuple(range(len(tgt_names))))]
        for path in args.source:
            data, names = _read_site_csv(path)
            missing = [c for c in tgt_names if c not in names]
            if missing:
                raise ValueError(f"{path}: missing shared covariates {missing}")
            frames.append(_site_frame(path, "source", data,
                                      tuple(names.index(c) for c in tgt_names)))
    except (OSError, ValueError) as exc:
        return _fail(exc, EXIT_DATA)

    raw = {"treatment": [FeatureMap("raw")], "outcome": [FeatureMap("raw")]}
    config = ProtocolConfig(candidates={"target": raw, "source": raw}, method=args.method,
                            seed=args.seed)
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            return _fail(exc, EXIT_USAGE)
    try:
        report = run_round(frames, config)
        ledger_audit = audit_ledger(report)
    except ValueError as exc:  # invalid frames, such as repeated site ids
        return _fail(exc, EXIT_DATA)
    except FedcausalError as exc:
        return _fail(exc, EXIT_RUNTIME)

    print(report.to_json())
    if args.out:
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        dump_ledger(report.privacy_ledger, os.path.join(args.out, "ledger.jsonl"))
        with open(os.path.join(args.out, "audit.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(ledger_audit, indent=2) + "\n")
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        header, body = _read_csv(args.metrics)
    except (OSError, ValueError) as exc:
        return _fail(exc, EXIT_DATA)
    if header[:2] != ["method", "reps"]:
        return _fail(f"{args.metrics} is not a metrics table", EXIT_DATA)

    def fmt(cell: str) -> str:
        try:
            v = float(cell)
        except ValueError:
            return cell
        keep = not np.isfinite(v) or (v.is_integer() and "." not in cell)
        return cell if keep else f"{v:.3f}"

    table = [header] + [[fmt(c) for c in r] for r in body]
    widths = [max(len(r[j]) for r in table) for j in range(len(header))]
    for r in table:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "estimate":
        return _cmd_estimate(args)
    return _cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
