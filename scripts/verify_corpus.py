#!/usr/bin/env python3
"""Run every check over the shipped corpus and print a one-line summary each.

Each corpus graph goes through the checks of ``qpolykit check-graph``, and
the distance scheme of each distance-regular one through the checks of
``qpolykit check-scheme``.  Exits 2 when any report has an alarm.

Usage: python scripts/verify_corpus.py [--json]
"""

import argparse
import sys
import time

from qpolykit import checks, families, schemes
from qpolykit.serialize import dump_json


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    alarmed = 0
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
            print(dump_json(row))
        else:
            print(", ".join(f"{k}={v}" for k, v in row.items()))
    print(f"done, {alarmed} graphs with alarms")
    return checks.EXIT_ALARM if alarmed else checks.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
