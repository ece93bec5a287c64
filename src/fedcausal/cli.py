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
from .fedruntime import METHODS, ProtocolConfig, _is_count, audit_ledger, dump_ledger, run_round
from .nuisance import FeatureMap
from .simbench import (
    load_scenario,
    method_config,
    rep_config_seed,
    replication_frames,
    run_scenario,
)
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


_parse_seed = _checked(int, _is_count, "seed must be in [0, 2**53)")
_parse_reps = _checked(int, lambda v: v >= 1, "reps must be >= 1")
_parse_methods = _checked(
    lambda text: tuple(m.strip() for m in text.split(",") if m.strip()),
    lambda methods: 0 < len(methods) == len(set(methods)) and set(methods) <= set(METHODS),
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
    est.add_argument("--out", default=None, help="directory for report.json and ledger.jsonl")

    rep = sub.add_parser("report", help="print a metrics.csv as an aligned table")
    rep.add_argument("--metrics", required=True, help="metrics.csv from a simulate run")
    return parser


def _make_out_dir(path: str) -> bool:
    """Create the directory ``path``, or print why it cannot be made."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_simulate(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not _make_out_dir(args.out):
        return EXIT_USAGE

    try:
        result = run_scenario(scenario, methods=args.methods, reps=args.reps, seed=args.seed)
    except (ScenarioError, FedcausalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    result.write_metrics_csv(os.path.join(args.out, "metrics.csv"))
    result.write_replications_csv(os.path.join(args.out, "replications.csv"))

    # Protocol transcript of replication 0, replayed as silently as the study,
    # which tolerates a few failed replications, so this round may fail too.
    config = method_config(args.methods[0], scenario, seed=rep_config_seed(args.seed, 0))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_round(replication_frames(scenario, args.seed, 0), config)
        dump_ledger(report.privacy_ledger, os.path.join(args.out, "ledger.jsonl"))
        ledger_audit = audit_ledger(report)
    except FedcausalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

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


def _read_site_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Read a site CSV with header y,a,x1..xp; returns (y, a, X, x names)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file")
        rows = list(reader)
    if len(header) < 3 or header[0] != "y" or header[1] != "a":
        raise ValueError(f"{path}: header must start with y,a followed by covariates")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise ValueError(f"{path}: repeated column names {repeated}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    for row_no, r in enumerate(rows, 2):
        if len(r) != len(header):
            raise ValueError(f"{path}: row {row_no} has {len(r)} cells, expected {len(header)}")
    try:
        data = np.array(rows, dtype=float)
    except ValueError:
        raise ValueError(f"{path}: non-numeric cell")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite values")
    y, a, X = data[:, 0], data[:, 1], data[:, 2:]
    if not np.all(np.isin(a, (0.0, 1.0))):
        raise ValueError(f"{path}: treatment column must be binary 0/1")
    return y, a.astype(int), X, header[2:]


def _cmd_estimate(args) -> int:
    try:
        y, a, X, tgt_names = _read_site_csv(args.target)
        frames = [SiteFrame(
            site_id=os.path.splitext(os.path.basename(args.target))[0],
            role="target", y=y, a=a, X=X,
            shared_cols=tuple(range(X.shape[1])),
        )]
        for path in args.source:
            ys, as_, Xs, names = _read_site_csv(path)
            missing = [c for c in tgt_names if c not in names]
            if missing:
                raise ValueError(f"{path}: missing shared covariates {missing}")
            shared = tuple(names.index(c) for c in tgt_names)
            frames.append(SiteFrame(
                site_id=os.path.splitext(os.path.basename(path))[0],
                role="source", y=ys, a=as_, X=Xs, shared_cols=shared,
            ))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    raw = {"treatment": [FeatureMap("raw")], "outcome": [FeatureMap("raw")]}
    config = ProtocolConfig(candidates={"target": raw, "source": raw}, method=args.method,
                            seed=args.seed)
    if args.out and not _make_out_dir(args.out):
        return EXIT_USAGE
    try:
        report = run_round(frames, config)
    except ValueError as exc:  # invalid frames, such as repeated site ids
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FedcausalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(report.to_json())
    if args.out:
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        dump_ledger(report.privacy_ledger, os.path.join(args.out, "ledger.jsonl"))
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        with open(args.metrics, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if not rows or rows[0][:2] != ["method", "reps"]:
        print(f"error: {args.metrics} is not a metrics table", file=sys.stderr)
        return EXIT_DATA
    header, body = rows[0], rows[1:]
    for row_no, r in enumerate(body, 2):
        if len(r) != len(header):
            print(f"error: {args.metrics}: row {row_no} has {len(r)} cells, "
                  f"expected {len(header)}", file=sys.stderr)
            return EXIT_DATA

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
