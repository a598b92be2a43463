"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Criteria 5 and 6 train on separate benchmarks, each from its own fixture:

- criterion 5 (transfer benefit) trains the full arm and the alpha=0/no-pseudo
  baseline on the harder blob shift (rotation 50, translation (2,-1),
  sigma 0.9) over seeds 0-9: 20 runs;
- criterion 6 (high-confidence precision) trains the full arm on the default
  shift (rotation 35, translation (1,0), sigma 0.6) over seeds 0-4: 5 runs.

Both fixtures get their runs from ``run_arm`` in
``scripts/run_transfer_benchmark.py``. Those 25 runs of 1500 iterations
take 74-94 s on a 2-vCPU Intel Xeon: the whole suite's wall time in
``test_wall.acceptance`` of ``BENCH_pr8.json`` to ``BENCH_pr10.json``.
Every other criterion takes seconds.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dcp import cli
from dcp.centroids import (
    centroid_centroid_matrix,
    centroid_sample_matrix,
    compute_centroids,
    distance_values,
    loss_cc,
    loss_cs,
)
from dcp.datasets import ShiftSpec
from dcp.pseudo_label import (
    kmeans_assign,
    per_class_quota,
    select_high_confidence,
    tau_adv,
    tau_clu,
)
from dcp.tensor import Tensor, linear_values
from dcp.verify import run_gradcheck

# both arms of criteria 5 and 6 run through the transfer script's runner
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))
try:
    from run_transfer_benchmark import run_arm
finally:
    sys.path.remove(str(SCRIPTS))

# Criterion 5's shift. On the default shift below, the baseline already
# reaches 1.000 target accuracy, which leaves no room for a 10-point gap.
TRANSFER_BENCHMARK = dict(
    k=3, d=2, n_per_class=200, rotation=50.0, translation=(2.0, -1.0), noise_sigma=0.9
)
TRANSFER_SEEDS = range(10)
MIN_GAP = 0.10
# the highest baseline mean at which a gap of MIN_GAP can still be reached
MAX_BASELINE = 1.0 - MIN_GAP
# Criterion 6's shift: the default blob benchmark.
PRECISION_BENCHMARK = dict(
    k=3, d=2, n_per_class=200, rotation=35.0, translation=(1.0, 0.0), noise_sigma=0.6
)
PRECISION_SEEDS = range(5)
T_MAX = 1500
PRECISION_PROBE_T = 200


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="module")
def transfer_runs():
    return {
        arm: [
            run_arm(ShiftSpec(seed=seed, **TRANSFER_BENCHMARK), full, T_MAX, PRECISION_PROBE_T)
            for seed in TRANSFER_SEEDS
        ]
        for arm, full in (("full", True), ("baseline", False))
    }


@pytest.fixture(scope="module")
def precision_runs():
    return [
        run_arm(ShiftSpec(seed=seed, **PRECISION_BENCHMARK), True, T_MAX, PRECISION_PROBE_T)
        for seed in PRECISION_SEEDS
    ]


def test_criterion_1_gradient_correctness():
    started = time.time()
    rows = run_gradcheck(n_seeds=20, threshold=1e-4, d_f=4, k=3, n_b=8)
    elapsed = time.time() - started
    worst = max(r.max_rel_error for r in rows)
    passed = all(r.passed for r in rows) and elapsed < 60.0
    report(
        "1 gradient correctness",
        passed,
        f"worst rel. error {worst:.2e} over {len(rows)} losses x 20 seeds in {elapsed:.1f}s",
    )
    assert all(r.passed for r in rows)
    assert elapsed < 60.0


def test_criterion_2_schedule_exactness():
    # Frozen from a 50-digit evaluation of the closed forms.
    checks = [
        (tau_adv(0), 0.4),
        (tau_adv(100), 0.63105857863000488),
        (tau_clu(0), 0.5),
        (tau_clu(100), 0.73105857863000488),
    ]
    exact = all(abs(got - want) < 1e-9 for got, want in checks)
    grid = range(0, 10_001, 10)
    adv = [tau_adv(t) for t in grid]
    clu = [tau_clu(t) for t in grid]
    monotone = all(b >= a for a, b in zip(adv, adv[1:])) and all(
        b >= a for a, b in zip(clu, clu[1:])
    )
    report(
        "2 schedule exactness",
        exact and monotone,
        f"four closed-form values within 1e-9, monotone over T in [0, 1e4]",
    )
    assert exact and monotone


def test_criterion_3_oracle_equivalence():
    worst_centroid = worst_matmul = worst_pairwise = 0.0
    kmeans_ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)

        features = rng.normal(size=(40, 3))
        labels = rng.integers(0, 3, size=40)
        # the clustering branch's features: the same rows, columns reversed
        other = features[:, ::-1].copy()
        bank = compute_centroids(
            (Tensor(features[:25]), Tensor(features[25:])),
            (Tensor(other[:25]), Tensor(other[25:])),
            labels,
            k=3,
        )
        for half, branch in enumerate((features, other)):
            for cls in range(3):
                members = branch[labels == cls]
                mean = sum(members[i] for i in range(len(members))) / len(members)
                row = bank.values[3 * half + cls]
                worst_centroid = max(worst_centroid, np.abs(row - mean).max())

        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        loops = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                loops[i, j] = sum(a[i, t] * b[t, j] for t in range(5))
        # the layer kernel's product, with a zero bias and no relu
        product = linear_values(a, b, np.zeros((3, 1)), relu=False)
        worst_matmul = max(worst_matmul, np.abs(product - loops).max())

        p = rng.normal(size=(4, 3))
        q = rng.normal(size=(5, 3))
        dists = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                dists[i, j] = np.sqrt(sum((p[i, t] - q[j, t]) ** 2 for t in range(3)))
        # the distance kernel of both centroid matrices, on one branch
        kernel = distance_values(p[None], q[None])[0][0]
        worst_pairwise = max(worst_pairwise, np.abs(kernel - dists).max())

        blobs = np.vstack([rng.normal(size=(15, 2)) + 4.0, rng.normal(size=(15, 2)) - 4.0])
        assign, final = kmeans_assign(blobs, np.array([[4.0, 4.0], [-4.0, -4.0]]), max_iters=50)
        nearest = ((blobs[:, None, :] - final[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        kmeans_ok = kmeans_ok and np.array_equal(assign, nearest)

    passed = (
        worst_centroid <= 1e-12 and worst_matmul <= 1e-12 and worst_pairwise <= 1e-12 and kmeans_ok
    )
    report(
        "3 oracle equivalence",
        passed,
        f"centroids {worst_centroid:.1e}, matmul {worst_matmul:.1e}, "
        f"pairwise {worst_pairwise:.1e}, kmeans nearest-centroid exact",
    )
    assert passed


def test_criterion_4_loss_identities():
    rng = np.random.default_rng(0)
    m = Tensor(rng.normal(size=(3, 3)))
    w = Tensor(rng.normal(size=(2, 5)))
    # each alignment loss compares the adversarial half of one matrix with
    # its clustering half
    self_cc = loss_cc(Tensor(np.vstack([m.values, m.values]))).item()
    self_cs = loss_cs(Tensor(np.vstack([w.values, w.values]))).item()
    cc_hand = loss_cc(Tensor([[0.0, 1.0], [1.0, 0.0], [0.0, 3.0], [3.0, 0.0]])).item()
    cs_hand = loss_cs(Tensor([[0.0, 0.0], [2.0, 2.0]])).item()

    # both branches' banks of 2 centroids each
    pts = rng.normal(size=(4, 3))
    samples = rng.normal(size=(6, 3))
    bank1 = Tensor(pts)
    bank10 = Tensor(pts * 10.0)
    cc_gap = np.abs(
        centroid_centroid_matrix(bank1).values - centroid_centroid_matrix(bank10).values
    ).max()
    cs_gap = np.abs(
        centroid_sample_matrix(bank1, Tensor(samples), Tensor(samples)).values
        - centroid_sample_matrix(bank10, Tensor(samples * 10.0), Tensor(samples * 10.0)).values
    ).max()

    passed = (
        self_cc <= 1e-5
        and self_cs <= 1e-5
        and abs(cc_hand - 0.70710678118654752) < 1e-6
        and abs(cs_hand - 1.414213562373095) < 1e-6
        and cc_gap <= 1e-10
        and cs_gap <= 1e-10
    )
    report(
        "4 loss identities",
        passed,
        f"self-losses {max(self_cc, self_cs):.1e}, hand values {cc_hand:.6f}/{cs_hand:.6f}, "
        f"scale-invariance gap {max(cc_gap, cs_gap):.1e}",
    )
    assert passed


def test_criterion_5_transfer_benefit(transfer_runs):
    full = [r["target_acc"] for r in transfer_runs["full"]]
    base = [r["target_acc"] for r in transfer_runs["baseline"]]
    runtimes = [r["runtime"] for r in transfer_runs["full"] + transfer_runs["baseline"]]
    base_mean = float(np.mean(base))
    gap = float(np.mean(full)) - base_mean
    passed = base_mean <= MAX_BASELINE and gap >= MIN_GAP and max(runtimes) < 120.0
    report(
        "5 transfer benefit",
        passed,
        f"full {np.mean(full):.4f} vs baseline {base_mean:.4f} "
        f"(gap {100 * gap:+.1f} points, need >= {100 * MIN_GAP:+.1f}); per-seed gaps "
        + " ".join(f"{100 * (f - b):+.1f}" for f, b in zip(full, base))
        + f"; slowest run {max(runtimes):.0f}s",
    )
    assert max(runtimes) < 120.0
    assert base_mean <= MAX_BASELINE, (
        f"the alpha=0/no-pseudo baseline is saturated at {base_mean:.4f} target accuracy: "
        f"above {MAX_BASELINE:.2f}, no method can beat it by {100 * MIN_GAP:.0f} points"
    )
    assert gap >= MIN_GAP, (
        "the full method does not beat the alpha=0/no-pseudo baseline by "
        f"{100 * MIN_GAP:.0f} points; see the per-seed gaps above"
    )


def test_criterion_6_high_confidence_precision(precision_runs):
    runs = precision_runs
    assert all("pseudo_precision" in r for r in runs), "probe step missing"
    selected = [r["pseudo_precision"] for r in runs]
    assert all(p is not None for p in selected), "empty selection at the probe step"
    sel_mean = float(np.mean(selected))
    adv_mean = float(np.mean([r["adv_precision"] for r in runs]))
    clu_mean = float(np.mean([r["clu_precision"] for r in runs]))
    passed = sel_mean >= adv_mean and sel_mean >= clu_mean
    report(
        "6 high-confidence precision",
        passed,
        f"selected {sel_mean:.4f} vs adv argmax {adv_mean:.4f}, "
        f"clu assignment {clu_mean:.4f} at T={PRECISION_PROBE_T}",
    )
    assert passed


def test_criterion_7_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli.main(
        ["gen-data", "--k", "3", "--n-per-class", "60", "--rotation", "35",
         "--seed", "0", "--out-dir", str(data)]
    ) == 0
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(
            ["train", "--source", str(data / "source.csv"), "--target", str(data / "target.csv"),
             "--out-dir", str(out), "--iters", "150", "--seed", "0"]
        ) == 0
        outs.append((out / "metrics.csv").read_bytes())
    passed = outs[0] == outs[1]
    report("7 determinism", passed, f"two runs, {len(outs[0])} metric bytes, byte-identical")
    assert passed


def test_criterion_8_selection_contract():
    violations = 0
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        n_b = int(rng.integers(1, 48))
        k = int(rng.integers(2, 6))
        t = int(rng.integers(0, 5000))
        d_f = 3
        y_adv = rng.integers(0, k, size=n_b)
        y_clu = rng.integers(0, k, size=n_b)
        # each bank is followed by an unused draw, kept so that every trial
        # fuzzes a fixed set of inputs
        bank_adv = rng.normal(size=(k, d_f))
        rng.integers(0, 3, size=k)
        bank_clu = rng.normal(size=(k, d_f))
        rng.integers(0, 3, size=k)
        f_adv = rng.normal(size=(n_b, d_f))
        f_clu = rng.normal(size=(n_b, d_f))
        pseudo = select_high_confidence(
            np.stack([f_adv, f_clu]), np.stack([y_adv, y_clu]),
            np.vstack([bank_adv, bank_clu]), t,
        )
        indices = np.flatnonzero(pseudo >= 0)
        labels = pseudo[indices]
        agreement = y_adv == y_clu
        if len(indices) and not agreement[indices].all():
            violations += 1
            continue
        if len(indices) and not np.array_equal(labels, y_adv[indices]):
            violations += 1
            continue
        quota = min(per_class_quota(tau_adv(t), n_b, k), per_class_quota(tau_clu(t), n_b, k))
        counts = np.bincount(labels, minlength=k) if len(indices) else np.zeros(k, dtype=int)
        if (counts > quota).any():
            violations += 1
    passed = violations == 0
    report("8 selection contract", passed, f"{violations} violations in 1000 fuzzed batches")
    assert passed
