#!/usr/bin/env python3
"""Regenerate the paper's evaluation in one go: ``python -m repro figures``.

Every registered experiment (Figures 2, 10-15, the skew sweep, the
ablations and the extension studies) at the config its committed table
under ``benchmarks/results/`` was produced with, each table followed by its
checked shape claims (``--check``).  Arguments are the ``figures``
subcommand's own:

Run:  python examples/reproduce_paper.py [names] [--scale S --seeds N]
      python examples/reproduce_paper.py 2 12 --scale 0.002 --seeds 1

Expect 7-10 minutes for the full set at the registry configs.
"""

import sys

from repro.__main__ import main

if __name__ == "__main__":
    sys.exit(main(["figures", "--check", *sys.argv[1:]]))
