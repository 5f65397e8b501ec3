#!/usr/bin/env python3
"""Run every check over the shipped corpus and print a one-line summary each.

Each corpus graph goes through the checks of ``qpolykit check-graph``, and
the distance scheme of each distance-regular one through the checks of
``qpolykit check-scheme``.  Exits 2 when any report has an alarm; a reader
that closes stdout early stops the run, after the graphs checked so far.

Usage: python scripts/verify_corpus.py [--json]

With --json every line is a JSON object, the last one the summary
{"graphs_with_alarms": N}.
"""

import argparse
import os
import sys
import time

from qpolykit import checks, families, schemes
from qpolykit.serialize import dump_json


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    alarmed = 0
    try:
        for name, g in sorted(families.corpus_graphs().items()):
            t0 = time.monotonic()
            report, _, alarms = checks.check_graph(g)
            classification = report["classification"]
            row = {
                "name": name,
                "n": g.n,
                "distance_regular": classification["distance_regular"],
                "strongly_regular": classification["strongly_regular"],
            }
            if classification["distance_regular"]:
                scheme_report, _, scheme_alarms = checks.check_scheme(schemes.scheme_from_graph(g))
                orderings = scheme_report.get("orderings", [])
                row["q_orderings"] = len(orderings)
                row["dual_tight"] = any(o["dual_fundamental_bound"]["dual_tight"] for o in orderings)
                alarms = alarms + scheme_alarms
            row["alarms"] = alarms
            row["seconds"] = round(time.monotonic() - t0, 3)
            alarmed += bool(alarms)
            if args.json:
                print(dump_json(row), flush=True)
            else:
                print(", ".join(f"{k}={v}" for k, v in row.items()), flush=True)
        if args.json:
            print(dump_json({"graphs_with_alarms": alarmed}), flush=True)
        else:
            print(f"done, {alarmed} graphs with alarms", flush=True)
    except BrokenPipeError:
        # the reader has stopped: check no further graph, and leave the
        # interpreter's last flush no closed pipe to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return checks.EXIT_ALARM if alarmed else checks.EXIT_OK

if __name__ == "__main__":
    sys.exit(main())
