"""Compare two benchmark result files, per workload and metric.

    python3 perfbench/compare.py OLD.json NEW.json

Result files are the ones run.py writes to perfbench/out/results/.  Every
metric present in both files is listed with its relative change.  An
end-to-end metric that got worse by more than its bound in BENCHMARK.json is
flagged REGRESSION; one that got better by more than its bound is flagged
improved.  A work count that changed is flagged WORK: the two runs did
different work, so a time difference is not "the same work, faster".  The
number of reports whose sha256 changed is shown too; with the same seed on
both sides a nonzero count means the output changed.  One run
per side is a single sample; make a claim only from repeated runs.  Exits 1
when anything is flagged REGRESSION, else 0.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def rules() -> dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def flag(name: str, group: str, old: float, new: float, rule: dict | None) -> str:
    if group == "work":
        return "WORK" if old != new else ""
    if rule is None or "bound" not in rule or old == 0:
        return ""
    worse = (new - old) / old
    if rule["better"] == "higher":
        worse = -worse
    if worse > rule["bound"]:
        return "REGRESSION"
    if worse < -rule["bound"]:
        return "improved"
    return ""


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    by_name = rules()
    for side, rec in (("old", old), ("new", new)):
        print(f"{side}: {json.dumps(rec['environment'], sort_keys=True)}")
    regressions = 0
    for workload, a in old["workloads"].items():
        b = new["workloads"].get(workload)
        if b is None:
            print(f"== {workload}: only in {argv[0]}")
            continue
        print(f"== {workload}  failed {a['failed']}/{a['attempted']} -> "
              f"{b['failed']}/{b['attempted']}")
        shared = set(a["report_sha256"]) & set(b["report_sha256"])
        changed = sum(a["report_sha256"][k] != b["report_sha256"][k] for k in shared)
        print(f"   report digests changed: {changed} of {len(shared)}")
        for group in ("end_to_end", "commands", "work", "layers"):
            for name, ma in a.get(group, {}).items():
                mb = b.get(group, {}).get(name)
                if mb is None:
                    continue
                va, vb = ma["value"], mb["value"]
                change = f"{(vb - va) / va:+8.1%}" if va else "        "
                mark = flag(name, group, va, vb, by_name.get(name))
                regressions += mark == "REGRESSION"
                print(f"   {name:34s} {va:>12.6g} -> {vb:<12.6g} {ma['unit']:6s}"
                      f" {change} {mark}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
