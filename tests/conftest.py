import os

import pytest
from hypothesis import settings

from betagraph import cli, graphs
from betagraph.training import TrainConfig, build_context, prepare_graph

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOY3_DIR = os.path.join(REPO_ROOT, "data", "toy3")

# Hypothesis profiles.  tier1, the default, draws the same examples on
# every run (derandomize: a seed from each test's own hash), so the
# suite's verdict depends on the code alone.  explore draws fresh random
# examples with the same counts and deadlines; run it with
# `pytest --hypothesis-profile=explore`, which loads it after this file.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


def pytest_configure(config):
    # the tests train in this process, as the betagraph command does
    cli.tune_allocator()


@pytest.fixture(scope="session")
def toy3_dir():
    return TOY3_DIR


@pytest.fixture(scope="session")
def small_ppm():
    """4 blocks x 40 nodes, one block held out; quick to train on."""
    g = graphs.gen_planted_partition(4, 40, 0.15, 0.01, 8, 3.0, seed=11)
    return graphs.zscore_features(g)


@pytest.fixture(scope="session")
def small_split(small_ppm):
    return graphs.make_split(small_ppm, ood_classes=(3,), seed=2)


def save_dataset_as(graph, directory, fmt):
    """save_dataset, with the features written as features.csv (one repr
    per value) in place of features.bin when fmt is "csv"."""
    graphs.save_dataset(graph, directory)
    if fmt == "csv":
        os.remove(os.path.join(directory, "features.bin"))
        with open(os.path.join(directory, "features.csv"), "w") as fh:
            fh.writelines(",".join(map(repr, row)) + "\n"
                          for row in graph.features.tolist())


def context_of(graph, split, config):
    """build_context of split on graph, prepared in config's dtype."""
    return build_context(prepare_graph(graph, config.np_dtype), split,
                         config)


def quick_config(**overrides):
    base = dict(seed=0, ood_classes=(3,), epochs_p1=25, epochs_p2=25,
                rounds=2, gamma=15.0, hidden_dim=16, embed_dim=8,
                reasoning_dim=16)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture
def tiny_graph():
    """30-node random graph for gradient checks."""
    return graphs.gen_planted_partition(3, 10, 0.3, 0.05, 4, 2.0, seed=7)
