"""Acceptance gate: every release-blocking criterion, one test each.

Each test prints a single PASS line on success (visible with -s or -rP);
failures carry the measured values.  Thresholds for the end-to-end run
were calibrated once on the frozen ppm6 reference dataset and now guard
regressions.
"""

import json
import math
import os
import resource
import subprocess
import sys
import time
import types

import mpmath as mp
import numpy as np
import pytest

import betagraph
from betagraph import autodiff as ad
from betagraph import evidence as ev
from betagraph import graphs
from betagraph import metrics as mt
from betagraph import reasoning as rs
from betagraph import special
from betagraph import subjective as sl
from betagraph.evaluation import run_protocol
from betagraph.rng import rng
from betagraph.training import (TrainConfig, init_model,
                                frozen_reasoning, phase2_forward,
                                variant_config)
from conftest import context_of
from oracles import (MultinomialOpinion, dissonance, grad_check, log_beta,
                     negation, vacuity)

SEEDS = (0, 1, 2, 3, 4)


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}{('  ' + detail) if detail else ''}")
    assert ok, f"{name}: {detail}"


# -- 1. subjective-logic identity suite ----------------------------------

def test_criterion_1_subjective_identities():
    t0 = time.perf_counter()
    gen = rng(101)
    n = 10_000
    k = 5
    e = gen.uniform(0, 20, (n, k))
    e[gen.random((n, k)) < 0.25] = 0.0
    w = gen.uniform(0.05, 10, n)
    a = np.full(k, 1.0 / k)

    b, u = sl.belief_batch(e, w)
    worst_sum = np.abs(b.sum(axis=1) + u - 1.0).max()

    p = sl.projected_batch(e, w, a)
    xi = e + a[None, :] * w[:, None]
    expected = xi / xi.sum(axis=1, keepdims=True)
    worst_eq = np.abs(p - expected).max()

    vac_zero = vacuity(MultinomialOpinion(np.zeros(k), 3.3))
    one_hot = np.zeros(k)
    one_hot[2] = 9.0
    diss_onehot = dissonance(MultinomialOpinion(one_hot, 1.0))

    c = 3.7
    b2, u2 = sl.belief_batch(c * e, c * w)
    p2 = sl.projected_batch(c * e, c * w, a)
    d1 = sl.dissonance_batch(b)
    d2 = sl.dissonance_batch(b2)
    worst_scale = max(np.abs(b2 - b).max(), np.abs(u2 - u).max(),
                      np.abs(p2 - p).max(), np.abs(d2 - d1).max())

    elapsed = time.perf_counter() - t0
    ok = (worst_sum < 1e-12 and worst_eq < 1e-12 and vac_zero == 1.0
          and diss_onehot == 0.0 and worst_scale < 1e-12 and elapsed < 5.0)
    report("criterion 1 (subjective-logic identities)", ok,
           f"sum={worst_sum:.2e} eq={worst_eq:.2e} scale={worst_scale:.2e} "
           f"t={elapsed:.2f}s")


# -- 2. special-function accuracy ------------------------------------------

def beta_kl_quadrature(a1, b1, a2, b2):
    """KL between Beta densities by tanh-sinh quadrature under the logit
    substitution x = sigmoid(t) (absorbs the endpoint singularities)."""
    a1, b1, a2, b2 = (mp.mpf(repr(float(v))) for v in (a1, b1, a2, b2))
    ln_b1 = mp.log(mp.beta(a1, b1))
    ln_b2 = mp.log(mp.beta(a2, b2))

    def f(t):
        lx = -mp.log(1 + mp.e ** (-t))
        l1mx = -mp.log(1 + mp.e ** t)
        lp = (a1 - 1) * lx + (b1 - 1) * l1mx - ln_b1
        lq = (a2 - 1) * lx + (b2 - 1) * l1mx - ln_b2
        return mp.e ** (lp + lx + l1mx) * (lp - lq)

    return float(mp.quad(f, [-mp.inf, 0, mp.inf]))


def test_criterion_2_special_functions():
    # the time bound covers the code under test, not the mpmath oracle
    t0 = time.perf_counter()
    worst_rec = 0.0
    for x in (0.5, 1.0, 3.7, 100.0):
        worst_rec = max(worst_rec, abs(
            special.digamma(x + 1) - special.digamma(x) - 1.0 / x))

    lb_err = max(
        abs(log_beta(1.0, 1.0) - 0.0),
        abs(log_beta(2.0, 2.0) - math.log(1 / 6)),
        abs(log_beta(0.5, 0.5) - math.log(math.pi)),
    )
    elapsed = time.perf_counter() - t0

    # 15 digits keeps the oracle ~8 orders below the 1e-6 budget and the
    # tanh-sinh rule cheap
    old_dps = mp.mp.dps
    mp.mp.dps = 15
    try:
        gen = rng(202)
        worst_kl = 0.0
        for _ in range(100):
            a1, b1, a2, b2 = gen.uniform(0.2, 20.0, 4).round(6)
            t0 = time.perf_counter()
            mine = rs.beta_kl(ad.Tensor(np.array([[a1, b1]])),
                              ad.Tensor(np.array([[a2, b2]]))).data[0]
            elapsed += time.perf_counter() - t0
            worst_kl = max(worst_kl,
                           abs(mine - beta_kl_quadrature(a1, b1, a2, b2)))
    finally:
        mp.mp.dps = old_dps

    ok = worst_rec < 1e-10 and lb_err < 1e-10 and worst_kl < 1e-6 \
        and elapsed < 10.0
    report("criterion 2 (special functions vs quadrature)", ok,
           f"recurrence={worst_rec:.2e} log_beta={lb_err:.2e} "
           f"kl={worst_kl:.2e} t={elapsed:.2f}s")


# -- 3. gradient suite --------------------------------------------------------

def test_criterion_3_gradient_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in SEEDS:
        g = graphs.gen_planted_partition(3, 10, 0.3, 0.05, 4, 2.0,
                                         seed=100 + seed)
        split = graphs.make_split(g, (2,), seed=seed)
        cfg = TrainConfig(seed=seed, dtype="float64", hidden_dim=5,
                          embed_dim=3, reasoning_dim=5, gamma=15.0,
                          ood_classes=(2,))
        ctx = context_of(g, split, cfg)
        state = init_model(g.feature_dim, ctx.class_count, cfg)

        def bl():
            emb = rs.encode(ctx.adj, ctx.propagated_x, state.encoder,
                            training=True, dropout_rate=0.0)
            te = ad.take_rows(emb, ctx.split.train)
            ce = rs.build_class_embeddings(te, ctx.class_rows,
                                           state.disjunction)
            return rs.beta_loss(te, ctx.labels[ctx.split.train], ce,
                                cfg.gamma)

        for r in grad_check(bl, state.phase1_tensors(), epsilon=1e-6):
            worst = max(worst, r.max_rel_err)

        ce, prop = frozen_reasoning(state, ctx)

        def dl():
            batch = ev.evidence_forward(
                ctx.adj, prop, ctx.adj.row_sums().reshape(-1, 1), ce,
                state.heads, dropout_rate=0.0, generator=None,
                learned_prior=True)
            return ev.dirichlet_loss(ev.NodeOpinionBatch(ad.take_rows(
                batch.opinions, ctx.split.train)), ctx.labels[ctx.split.train])

        for r in grad_check(dl, state.phase2_tensors(), epsilon=1e-6):
            worst = max(worst, r.max_rel_err)

        def dl_as_trained():
            # the loss as train_phase2 builds it, on the receptive rows and
            # with the config's dropout; a fresh stream per probe draws
            # every probe the same mask
            state.rng_p2 = rng(seed)
            forward = phase2_forward(state, ctx)
            return ev.dirichlet_loss(forward(True),
                                     ctx.labels[ctx.split.train])

        for r in grad_check(dl_as_trained, state.phase2_tensors(),
                            epsilon=1e-6):
            worst = max(worst, r.max_rel_err)

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    report("criterion 3 (gradients vs finite differences)", ok,
           f"max_rel_err={worst:.2e} t={elapsed:.1f}s")


# -- 4. operator algebra --------------------------------------------------------

def disjunction(x, params):
    """The library's disjunction of the rows of x: the region of a single
    class that holds them all."""
    regions = rs.build_class_embeddings(x, [np.arange(x.data.shape[0])],
                                        params)
    return ad.Tensor(regions.data[:1])


def test_criterion_4_operator_algebra():
    gen = rng(404)
    params = rs.init_disjunction(gen, 4, 8, np.float64)

    recip = ad.Tensor(gen.uniform(0.05, 50.0, (500, 8)))
    back = negation(negation(recip))
    inv_err = np.abs(back.data - recip.data).max()

    x = ad.Tensor(gen.uniform(0.2, 6.0, (17, 8)))
    base = disjunction(x, params)
    perm_exact = dup_exact = True
    for s in range(10):
        perm = rng(s).permutation(17)
        out = disjunction(ad.Tensor(x.data[perm]), params)
        perm_exact &= np.array_equal(out.data, base.data)
    doubled = disjunction(ad.Tensor(np.repeat(x.data, 2, axis=0)), params)
    dup_exact &= np.array_equal(doubled.data, base.data)

    positive = True
    for trial in range(1000):
        rows = ad.Tensor(gen.uniform(0.01, 20.0, (gen.integers(1, 9), 8)))
        out = disjunction(rows, params)
        positive &= bool((out.data > 0).all())
        positive &= bool((negation(out).data > 0).all())

    ok = inv_err < 1e-12 and perm_exact and dup_exact and positive
    report("criterion 4 (operator algebra)", ok,
           f"involution={inv_err:.2e} perm={perm_exact} dup={dup_exact} "
           f"positive={positive}")


# -- 5. metric oracles -----------------------------------------------------------

def test_criterion_5_metric_oracles():
    from test_metrics import (aupr_oracle, aurc_oracle, auroc_oracle,
                              fpr_oracle, random_instance)
    t0 = time.perf_counter()
    gen = np.random.default_rng(505)
    auroc_exact = True
    worst = 0.0
    for _ in range(200):
        pos, neg = random_instance(gen)
        auroc_exact &= mt.auroc(pos, neg) == auroc_oracle(pos, neg)
        worst = max(worst, abs(mt.fpr_at_tpr(pos, neg) - fpr_oracle(pos, neg)))
        worst = max(worst, abs(mt.aupr(pos, neg) - aupr_oracle(pos, neg)))
        n = int(gen.integers(1, 65))
        conf = gen.standard_normal(n)
        if gen.random() < 0.5:
            conf = gen.integers(0, 6, n).astype(float)
        correct = gen.random(n) < 0.7
        worst = max(worst, abs(mt.aurc(conf, correct)
                               - aurc_oracle(conf, correct)))
    elapsed = time.perf_counter() - t0
    ok = auroc_exact and worst < 1e-12 and elapsed < 10.0
    report("criterion 5 (metric oracles)", ok,
           f"auroc_exact={auroc_exact} worst={worst:.2e} t={elapsed:.1f}s")


# -- 6 & 7. end-to-end on the frozen reference dataset ---------------------------

@pytest.fixture(scope="module")
def ppm6():
    return graphs.zscore_features(graphs.gen_ppm6())


# criterion 6's protocol, run in a child process that prints its result
PROTOCOL_CHILD = f"""
import json
from betagraph import graphs
from betagraph.evaluation import run_protocol
from betagraph.training import TrainConfig
config = TrainConfig(seed=0, ood_classes=graphs.PPM6_OOD_CLASSES)
reports, agg = run_protocol(graphs.zscore_features(graphs.gen_ppm6()),
                            graphs.PPM6_OOD_CLASSES, config, seeds={SEEDS!r})
print(json.dumps({{"reports": [r.to_dict() for r in reports], "agg": agg}}))
"""
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROTOCOL_CPU_BOUND = 600.0


def run_child(script, cpu_bound):
    """Run script in a child process with BLAS on one thread; returns the
    JSON of its last output line and its CPU seconds, user plus system.
    Idle OpenBLAS workers spin, so with more threads the CPU time of a
    process grows with the host's load; one thread times the code alone.
    The child cannot run past cpu_bound (RLIMIT_CPU)."""
    root = os.path.dirname(os.path.dirname(betagraph.__file__))
    env = dict(os.environ, PYTHONPATH=root, **{v: "1" for v in ONE_THREAD})
    limit = int(cpu_bound) + 1

    def bound_cpu():
        resource.setrlimit(resource.RLIMIT_CPU, (limit, limit))

    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    child = subprocess.run([sys.executable, "-c", script], env=env,
                           stdout=subprocess.PIPE, text=True,
                           preexec_fn=bound_cpu)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime
                                                - before.ru_stime)
    assert child.returncode == 0, \
        f"child exited {child.returncode} after {cpu:.0f} CPU s"
    return json.loads(child.stdout.splitlines()[-1]), cpu


@pytest.fixture(scope="module")
def ppm6_timed_protocol():
    """run_protocol over SEEDS, and the CPU seconds of the child that ran
    it (run_child)."""
    out, cpu = run_child(PROTOCOL_CHILD, PROTOCOL_CPU_BOUND)
    reports = [types.SimpleNamespace(**r) for r in out["reports"]]
    return (reports, out["agg"]), cpu


@pytest.fixture(scope="module")
def ppm6_full_protocol(ppm6_timed_protocol):
    return ppm6_timed_protocol[0]


@pytest.mark.slow
def test_criterion_6_end_to_end_thresholds(ppm6_timed_protocol):
    (reports, agg), cpu = ppm6_timed_protocol
    acc = agg["acc_mean"]
    auroc = agg["auroc_mean"]
    fpr95 = agg["fpr95_mean"]
    aurc = agg["aurc_mean"]
    wall = sum(r.wall_clock for r in reports)
    ok = (acc >= 0.90 and auroc >= 0.90 and fpr95 <= 0.30 and aurc <= 0.05
          and cpu < PROTOCOL_CPU_BOUND)
    report("criterion 6 (ppm6 end-to-end, mean of 5 seeds)", ok,
           f"acc={acc:.4f} auroc={auroc:.4f} fpr95={fpr95:.4f} "
           f"aurc={aurc:.4f} cpu={cpu:.0f}s wall={wall:.0f}s")


@pytest.mark.slow
def test_criterion_7_ablation_direction(ppm6, ppm6_full_protocol):
    _, full_agg = ppm6_full_protocol
    base = TrainConfig(seed=0, ood_classes=graphs.PPM6_OOD_CLASSES)
    fixed_cfg = variant_config(base, "d")
    _, fixed_agg = run_protocol(ppm6, graphs.PPM6_OOD_CLASSES, fixed_cfg,
                                seeds=SEEDS)
    full, fixed = full_agg["auroc_mean"], fixed_agg["auroc_mean"]
    ok = full >= fixed - 0.01
    report("criterion 7 (full vs fixed-prior OOD AUROC)", ok,
           f"full={full:.4f} fixed_prior={fixed:.4f}")


# -- 8. scalability shape ------------------------------------------------------------

# criterion 8's rounds, run in a child process pinned to one CPU, three
# times each, interleaved; it prints each round's least CPU seconds
DENSITY_CHILD = """
import json, os, time
from betagraph import cli, graphs
from betagraph.training import (TrainConfig, build_context, prepare_graph,
                                train_alternating)
if hasattr(os, "sched_setaffinity"):     # sparse.workers() is then 1
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
cli.tune_allocator()
cfg = TrainConfig(seed=0, ood_classes=(), epochs_p1=5, epochs_p2=5, rounds=1)

def graph(n, density):
    g = graphs.gen_erdos_renyi(n, density, 16, seed=1, class_count=4)
    return g, graphs.make_split(g, (), seed=0)

def round_cpu(g, split):
    t0 = time.process_time()
    train_alternating(build_context(prepare_graph(g, cfg.np_dtype), split,
                                    cfg), cfg)
    return time.process_time() - t0

round_cpu(*graph(3000, 0.01))            # warm caches and allocators
rounds = [graph(5000, 0.005), graph(10_000, 0.005), graph(10_000, 0.05)]
cpu = [[round_cpu(*r) for r in rounds] for _ in range(3)]
print(json.dumps([min(t) for t in zip(*cpu)]))
"""


@pytest.mark.slow
def test_criterion_8_density_scaling():
    """Each round's least CPU seconds of three in a child with BLAS on
    one thread (run_child), pinned to one CPU so that the products run
    serially: a wall-clock ratio, or the CPU time of two row bands on
    vCPUs that share a core, moved with the host's load."""
    (t_half, t_sparse, t_dense), elapsed = run_child(DENSITY_CHILD, 900.0)
    ratio = t_dense / t_sparse
    ok = ratio < 4.0 and t_sparse >= 0.8 * t_half and elapsed < 900.0
    report("criterion 8 (density scaling at n=10^4)", ok,
           f"t(0.005)={t_sparse:.2f}s t(0.05)={t_dense:.2f}s ratio={ratio:.2f} "
           f"node-sweep {t_half:.2f}->{t_sparse:.2f}s (CPU; child "
           f"{elapsed:.0f}s)")


# -- 9. byte-for-byte reproducibility ---------------------------------------------------

def test_criterion_9_reproducible_cli_history(tmp_path):
    from betagraph.cli import main
    ds = tmp_path / "ds"
    assert main(["synth", "ppm", "--blocks", "4", "--nodes-per-block", "40",
                 "--p-in", "0.15", "--p-out", "0.01", "--feature-dim", "8",
                 "--separation", "3.0", "--seed", "5", "--out", str(ds)]) == 0
    flags = ["--epochs-p1", "12", "--epochs-p2", "12", "--rounds", "2",
             "--gamma", "15", "--hidden-dim", "16", "--embed-dim", "8",
             "--reasoning-dim", "16", "--seed", "7", "--ood-classes", "3"]
    assert main(["train", str(ds), "--out", str(tmp_path / "a")] + flags) == 0
    assert main(["train", str(ds), "--out", str(tmp_path / "b")] + flags) == 0
    a = (tmp_path / "a" / "history.csv").read_bytes()
    b = (tmp_path / "b" / "history.csv").read_bytes()
    ok = a == b
    report("criterion 9 (byte-identical history.csv)", ok,
           f"{len(a)} bytes compared")
