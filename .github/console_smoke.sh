#!/usr/bin/env bash
# Console smoke run through the installed `fedcausal` entry point, which no
# test calls: a small study of a fixed scheme and an adaptive method (its
# manifest audits the ledger of the first method's round in replication 0,
# which declares the CV folds the study drew; its census is checked: one
# config broadcast, and a moment summary to and an upload from each of c1's
# 4 sources; so is the transcript it writes: those messages in that order,
# each within the audit's size bound for its kind, and bytes per kind that
# sum to the census) and its metrics table, a study of a scenario file, and
# the usage error of that file with a misspelled key, then estimates from a
# target and a source CSV written from preset c1's replication 0: an adaptive
# round, which cross-validates, and an ivw round, which draws no CV folds,
# whose written report and ledger are checked: one source used, and one
# message of each kind, each within the audit's size bound for its kind.
# Usage: console_smoke.sh OUT_DIR
set -euo pipefail
out="$1"
fedcausal simulate --scenario c1 --methods ivw,aipw_l1 --reps 3 --seed 0 --out "$out/sim"
python3 -c '
import json, pathlib, sys
from fedcausal.wire import TEXT_BOUNDS
sim = pathlib.Path(sys.argv[1])
audit = json.loads((sim / "manifest.json").read_text())["ledger_audit"]
counts = {kind: entry["count"] for kind, entry in audit["by_kind"].items()}
assert audit["n_messages"] == 9, audit
assert counts == {"config": 1, "moment_summary": 4, "site_estimate": 4}, counts
records = [json.loads(line) for line in (sim / "ledger.jsonl").read_text().splitlines()]
kinds = [rec["kind"] for rec in records]
assert kinds == ["config"] + ["moment_summary", "site_estimate"] * 4, kinds
assert all(rec["bytes"] <= TEXT_BOUNDS[rec["kind"]] for rec in records), records
sums = {kind: sum(rec["bytes"] for rec in records if rec["kind"] == kind) for kind in counts}
assert sums == {kind: entry["bytes"] for kind, entry in audit["by_kind"].items()}, sums
' "$out/sim"
fedcausal report --metrics "$out/sim/metrics.csv"
# A scenario file, not a preset: c1 renamed with a nonzero true effect runs,
# and the same file with that key misspelled fails as a usage error naming it.
python3 -c '
import json, sys
from importlib import resources
obj = json.loads(resources.files("fedcausal").joinpath("presets", "c1.json").read_text())
obj.update(name="c1_file", true_delta=1.0)
with open(sys.argv[1] + "/c1_file.json", "w") as fh:
    json.dump(obj, fh)
obj["true_detla"] = obj.pop("true_delta")
with open(sys.argv[1] + "/c1_typo.json", "w") as fh:
    json.dump(obj, fh)
' "$out"
fedcausal simulate --scenario "$out/c1_file.json" --methods ivw --reps 2 --out "$out/file"
python3 -c '
import json, sys
assert json.load(open(sys.argv[1] + "/manifest.json"))["scenario"] == "c1_file"
' "$out/file"
code=0
fedcausal simulate --scenario "$out/c1_typo.json" --methods ivw --reps 2 --out "$out/typo" \
    2> "$out/typo.err" || code=$?
test "$code" -eq 2
grep -q "true_detla" "$out/typo.err"
test ! -e "$out/typo/metrics.csv"
OUT="$out" python3 -c '
import os, numpy as np
from fedcausal.simbench import load_scenario, replication_frames
frames = replication_frames(load_scenario("c1"), 0, 0)
for name, f in (("target", frames[0]), ("source", frames[1])):
    np.savetxt(os.path.join(os.environ["OUT"], f"{name}.csv"),
               np.column_stack((f.y, f.a, f.X)), fmt="%.17g", delimiter=",",
               header="y,a,x1,x2,x3,x4", comments="")
'
fedcausal estimate --target "$out/target.csv" --source "$out/source.csv" --method aipw_l1
fedcausal estimate --target "$out/target.csv" --source "$out/source.csv" --method ivw --out "$out/est"
python3 -c '
import json, pathlib, sys
from fedcausal.wire import TEXT_BOUNDS
est = pathlib.Path(sys.argv[1])
diagnostics = json.loads((est / "report.json").read_text())["diagnostics"]
assert diagnostics["effective_method"] == "ivw", diagnostics
assert diagnostics["n_sources_used"] == 1, diagnostics
records = [json.loads(line) for line in (est / "ledger.jsonl").read_text().splitlines()]
kinds = [rec["kind"] for rec in records]
assert kinds == ["config", "moment_summary", "site_estimate"], kinds
assert all(rec["bytes"] <= TEXT_BOUNDS[rec["kind"]] for rec in records), records
' "$out/est"
