"""Experiment runner CLI.

Usage::

    python -m repro.experiments.runner --all --scale bench
    python -m repro.experiments.runner --exp fig10 fig11 --scale paper
    python -m repro.experiments.runner --list

Reports are printed to stdout.  ``--out results.md`` also appends each
one to a markdown file: a ``## <id>: <title>`` heading followed by the
report text in a fenced code block.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (
    fig02_motivation,
    fig04_05_prediction,
    fig06_rules,
    fig07_sequence,
    fig08_transfer,
    fig09_theta,
    fig10_deadline,
    fig11_memory,
    fig12_transfer_deadline,
    headline,
    table01_models,
    table03_overhead,
)
from repro.experiments.common import ExperimentContext

#: Experiment id -> module with a ``run(ctx)`` entry point.
EXPERIMENTS = {
    "table01": table01_models,
    "fig02": fig02_motivation,
    "fig04_05": fig04_05_prediction,
    "fig06": fig06_rules,
    "fig07": fig07_sequence,
    "fig08": fig08_transfer,
    "fig09": fig09_theta,
    "fig10": fig10_deadline,
    "fig11": fig11_memory,
    "fig12": fig12_transfer_deadline,
    "table03": table03_overhead,
    "headline": headline,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--exp", nargs="+", choices=sorted(EXPERIMENTS), help="experiments to run"
    )
    parser.add_argument(
        "--scale",
        default="bench",
        choices=("smoke", "bench", "paper"),
        help="experiment scale preset",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--out", default=None, help="append reports to this file")
    args = parser.parse_args(argv)

    if args.list:
        for exp_id in EXPERIMENTS:
            print(exp_id)
        return 0

    selected = list(EXPERIMENTS) if args.all or not args.exp else args.exp
    ctx = ExperimentContext(args.scale)
    reports = []
    for exp_id in selected:
        start = time.perf_counter()
        report = EXPERIMENTS[exp_id].run(ctx)
        elapsed = time.perf_counter() - start
        print(f"\n{report}\n[{exp_id} took {elapsed:.1f}s]")
        reports.append(report)

    if args.out:
        with open(args.out, "a") as fh:
            for report in reports:
                fh.write(f"\n## {report.experiment}: {report.title}\n\n")
                fh.write("```\n" + report.text + "\n```\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
