#!/usr/bin/env python3
"""Reference experiment: 5-seed protocol on ppm6 plus post-hoc baselines.

Trains the full model once per seed (fresh split per seed), aggregates
the three-task metrics, and prints a comparison row for the MaxLogit and
Energy scores of a plain cross-entropy classifier trained on the same
splits.  Writes ppm6_results.csv next to the chosen output directory.

Usage: python scripts/run_ppm6_experiment.py [out_dir] [--quick]
"""

import argparse
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from betagraph import graphs  # noqa: E402
from betagraph.evaluation import baseline_report, run_protocol  # noqa: E402
from betagraph.ioutil import write_csv  # noqa: E402
from betagraph.training import (TrainConfig, build_context,  # noqa: E402
                                prepare_graph)

SEEDS = (0, 1, 2, 3, 4)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", default=".",
                        help="directory for ppm6_results.csv (default: .)")
    parser.add_argument("--quick", action="store_true",
                        help="2 rounds of 60+60 epochs per seed")
    args = parser.parse_args(argv)
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)

    graph = graphs.zscore_features(graphs.gen_ppm6())
    overrides = dict(epochs_p1=60, epochs_p2=60, rounds=2) \
        if args.quick else {}
    config = TrainConfig(seed=0, ood_classes=graphs.PPM6_OOD_CLASSES,
                         **overrides)

    print(f"ppm6: {graph.n} nodes, {graph.edge_count} edges, "
          f"OOD classes {graphs.PPM6_OOD_CLASSES}")
    reports, agg = run_protocol(
        graph, graphs.PPM6_OOD_CLASSES, config, seeds=SEEDS,
        progress=lambda r: print(
            f"  seed {r.seed}: acc={r.acc:.4f} aurc={r.aurc_x1000:.2f} "
            f"fpr95={r.fpr95:.4f} auroc={r.auroc:.4f} "
            f"({r.wall_clock:.0f}s)"))

    def ms(name):
        return f"{agg[name + '_mean']:.4f} +/- {agg[name + '_std']:.4f}"

    print("\naggregate over 5 runs:")
    print(f"  IDC  acc          {ms('acc')}")
    print(f"  MD   aurc (x1000) {ms('aurc_x1000')}")
    print(f"  OODD fpr95        {ms('fpr95')}")
    print(f"  OODD auroc        {ms('auroc')}")
    print(f"  OODD aupr         {ms('aupr')}")

    print("\npost-hoc baselines (plain classifier, split of seed 0):")
    cfg = replace(config, seed=SEEDS[0])
    ctx = build_context(prepare_graph(graph, cfg.np_dtype), cfg.split(graph),
                        cfg)
    base = baseline_report(ctx, seed=SEEDS[0])
    for name in ("maxlogit", "energy"):
        print(f"  {name:9s} fpr95={base[name + '_fpr95']:.4f} "
              f"auroc={base[name + '_auroc']:.4f} "
              f"aupr={base[name + '_aupr']:.4f}")

    out_csv = os.path.join(out_dir, "ppm6_results.csv")
    cols = ("acc", "aurc_x1000", "fpr95", "auroc", "aupr")
    header = ["method"] + [f"{c}_{s}" for c in cols for s in ("mean", "std")]
    rows = [["full_model"] + [agg[f"{c}_{s}"] for c in cols
                              for s in ("mean", "std")]]
    for name in ("maxlogit", "energy"):
        rows.append([name, base["acc"], None, None, None,
                     base[f"{name}_fpr95"], None, base[f"{name}_auroc"],
                     None, base[f"{name}_aupr"], None])
    write_csv(out_csv, header, zip(*rows))
    print(f"\nwrote {out_csv}")


if __name__ == "__main__":
    main()
