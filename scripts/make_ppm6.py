#!/usr/bin/env python3
"""Materialize the frozen ppm6 reference dataset under data/ppm6.

The dataset is fully determined by the generator parameters and seed in
betagraph.graphs.PPM6_PARAMS, so committing the bytes is unnecessary;
this script exists for inspecting the files or feeding the CLI.

Usage: python scripts/make_ppm6.py [out_dir]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from betagraph import graphs  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", default=os.path.join(
        os.path.dirname(__file__), "..", "data", "ppm6"),
        help="dataset directory to write (default: data/ppm6)")
    out = parser.parse_args(argv).out
    g = graphs.gen_ppm6()
    graphs.save_dataset(g, out)
    print(f"ppm6: n={g.n} edges={g.edge_count} classes={g.class_count}")
    print(f"OOD classes for the reference protocol: {graphs.PPM6_OOD_CLASSES}")
    print(f"wrote {os.path.abspath(out)}")


if __name__ == "__main__":
    main()
