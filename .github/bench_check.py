"""Check a benchmark smoke run: read the last line that perfbench/run.py
prints (its JSON results) from stdin, and fail unless every workload is
correct with no failed operation. With --traced, also fail if any per-layer
metric was not measured.

Usage: python3 perfbench/run.py ... | tail -n 1 | python3 .github/bench_check.py [--traced]
"""

import json
import sys

traced = sys.argv[1:] == ["--traced"]
if sys.argv[1:] not in ([], ["--traced"]):
    sys.exit(__doc__)
results = json.load(sys.stdin)
bad = {w: (r["correct"], r["failed"]) for w, r in results.items()
       if not (r["correct"] is True and r["failed"] == 0)}
assert results and not bad, f"workloads incorrect or failing: {bad}"
if traced:
    null = {w: sorted(k for k, m in r["metrics"].items() if m["value"] is None)
            for w, r in results.items()}
    null = {w: names for w, names in null.items() if names}
    assert not null, f"per-layer metrics not measured: {null}"
    print("benchmark traced smoke run: every workload correct, every metric measured")
else:
    print("benchmark smoke run: every workload correct with no failures")
