"""Write a ``BENCH_<n>.json`` record from paired perfbench runs.

Usage, from the root of a checkout::

    python3 tools/bench_record.py --parent PARENT/perfbench/out \\
        --change perfbench/out --out BENCH_<n>.json \\
        [--wall NAME PARENT_S CHANGE_S ...]

``--parent`` and ``--change`` are the ``perfbench/out/`` directories of the
two checkouts, each holding the ``<workload>-seed<n>-trace<t>.json`` reports
that ``perfbench/run.py`` wrote. Reports are paired by file name, so both
sides must have run the same workloads and seeds. For each workload and
figure the record holds the median and quartiles of each side, the number
of pairs and, where ``BENCHMARK.json`` says which way is better, the number
of pairs the change won (ties count for neither). Traced reports
(``trace1``) go under ``per_layer``, the others under ``end_to_end``.
``--wall`` adds one alternating pair of wall times measured outside
perfbench, such as tier-1 or ``enumerate-check --n-max 4 --vocab-size 2``;
repeat it with the same ``NAME`` for each further pair. ``wall_s[NAME]``
holds the pair count, the median and quartiles of each side and the pairs
the change won (lower is better).
The record also holds the ``src/`` line count, the Python version and the
CPU count, read from the reports. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_reports(directory: Path) -> dict:
    """Reports in ``directory`` keyed by file name."""
    return {p.name: json.loads(p.read_text()) for p in sorted(directory.glob("*-trace[01].json"))}


def summary(values: list) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(pairs: list, better=None) -> dict:
    """The pair count and each side's summary of ``(parent, change)``
    pairs and, where ``better`` says which way is better, the number of
    pairs the change won (ties count for neither)."""
    row = {"pairs": len(pairs), "parent": summary([p for p, _ in pairs]),
           "change": summary([c for _, c in pairs])}
    if better is not None:
        sign = 1 if better == "higher" else -1
        row["change_wins"] = sum(1 for p, c in pairs if sign * (c - p) > 0)
    return row


def directions(benchmark: Path) -> dict:
    """``better`` ('lower' or 'higher') for each metric BENCHMARK.json names."""
    spec = json.loads(benchmark.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def only(values: set, what: str):
    if len(values) != 1:
        raise SystemExit(f"bench_record: reports disagree on {what}: {sorted(map(str, values))}")
    return values.pop()


def record(parent: dict, change: dict, better: dict, walls: list) -> dict:
    if not parent or sorted(parent) != sorted(change):
        raise SystemExit(
            "bench_record: the two directories must hold the same, non-empty set of reports; "
            f"parent only: {sorted(set(parent) - set(change))}, "
            f"change only: {sorted(set(change) - set(parent))}"
        )
    sides = {"parent": parent, "change": change}
    out = {
        "python": only({r["environment"]["python"] for s in sides.values() for r in s.values()},
                       "the Python version"),
        "cpus": only({r["environment"]["nproc"] for s in sides.values() for r in s.values()},
                     "the CPU count"),
        "src_lines": {side: only({r["environment"]["src_lines"] for r in reports.values()},
                                 f"the {side} src_lines")
                      for side, reports in sides.items()},
        "end_to_end": {},
        "per_layer": {},
    }
    groups = {}
    for name in sorted(parent):
        report = parent[name]
        section = "per_layer" if report["trace"] else "end_to_end"
        groups.setdefault((section, report["workload"]), []).append(name)
    for (section, workload), names in groups.items():
        entry = out[section][workload] = {"seeds": [parent[n]["seed"] for n in names],
                                          "metrics": {}}
        for metric, (_, unit) in parent[names[0]]["figures"].items():
            pairs = [(parent[n]["figures"][metric][0], change[n]["figures"][metric][0])
                     for n in names]
            entry["metrics"][metric] = {"unit": unit, **compare(pairs, better.get(metric))}
    if walls:
        grouped = {}
        for name, p, c in walls:
            grouped.setdefault(name, []).append((p, c))
        out["wall_s"] = {name: compare(pairs, "lower") for name, pairs in grouped.items()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--wall", nargs=3, action="append", default=[],
                        metavar=("NAME", "PARENT_S", "CHANGE_S"))
    args = parser.parse_args(argv)
    try:
        walls = [(name, float(p), float(c)) for name, p, c in args.wall]
    except ValueError as err:
        parser.error(f"--wall takes a name and two numbers of seconds: {err}")
    result = record(load_reports(args.parent), load_reports(args.change),
                    directions(ROOT / "BENCHMARK.json"), walls)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
