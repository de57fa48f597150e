"""Median and quartiles of repeated benchmark runs.

    python3 benchmark/summarize.py BENCHMARK.json repeat-<workload>-trace0.jsonl ...

Each input file holds one JSON result line per run (run.sh --repeat writes
them). For every workload and metric this prints the median, the first and
third quartiles as statistics.quantiles(values, n=4) gives them, and the
spread (third minus first quartile, over the median). End-to-end metrics
also show their bound from BENCHMARK.json and flag a spread above a third
of it.
"""

import json
import os
import statistics
import sys


def main(argv):
    with open(argv[1]) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    print(f"{'workload':18} {'metric':38} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for path in argv[2:]:
        workload = os.path.basename(path).split("-")[1]
        with open(path) as f:
            runs = [json.loads(line) for line in f if line.strip()]
        if not runs:
            continue
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
                else (values[0], None, values[0])
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  above bound/3"
            print(f"{workload:18} {name:38} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        print(f"{workload:18} {'runs':38} {len(runs):12d}")


if __name__ == "__main__":
    main(sys.argv)
