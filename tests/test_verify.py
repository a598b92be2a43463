import numpy as np

from dcp import verify
from dcp.tensor import Tensor


def sign_flip(x: Tensor) -> Tensor:
    """Forward identity whose backward negates the gradient (test sabotage)."""
    def bw(g):
        x._accumulate(-g)

    return Tensor._node(x.values.copy(), (x,), bw)


def test_all_default_losses_pass():
    rows = verify.run_gradcheck(n_seeds=3)
    assert [r.loss for r in rows] == ["l_d", "l_g", "l_c1", "l_cc", "l_cs"]
    assert all(r.passed for r in rows)
    assert all(r.max_rel_error < r.threshold for r in rows)


def test_sign_flip_injection_fails_l_cc():
    def sabotaged(rng, d_f, k, n_b):
        return [
            (lambda t, f=f: f(sign_flip(t)), x)
            for f, x in verify._build_l_cc(rng, d_f, k, n_b)
        ]

    builders = dict(verify.LOSS_BUILDERS)
    builders["l_cc"] = sabotaged
    rows = {r.loss: r for r in verify.run_gradcheck(n_seeds=2, builders=builders)}
    assert not rows["l_cc"].passed
    assert rows["l_cc"].max_rel_error > 0.5
    assert rows["l_d"].passed


def test_csv_output_is_parseable():
    rows = verify.run_gradcheck(n_seeds=1)
    text = verify.rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "loss,max_rel_error,threshold,status"
    for line in lines[1:]:
        loss, err, threshold, status = line.split(",")
        float(err)
        float(threshold)
        assert status in ("PASS", "FAIL")


def test_instances_use_requested_shapes():
    rng = np.random.default_rng(0)
    # the stacked bank of both branches' centroids, or one branch's samples
    for f, x in verify.LOSS_BUILDERS["l_cs"](rng, d_f=5, k=4, n_b=7):
        assert x.shape in ((8, 5), (7, 5))
        assert f(x).shape == (1, 1)


def test_l_c1_checks_rows_labeled_minus_one():
    # the first instance is fully labeled; the others are L_PL's form, some
    # rows unlabeled, with zero gradient: one block, then each of two blocks
    # of one node on the same labels
    for seed in range(5):
        instances = verify.LOSS_BUILDERS["l_c1"](np.random.default_rng(seed), d_f=4, k=3, n_b=8)
        assert len(instances) == 4
        grads = []
        for f, x in instances:
            probe = Tensor(x.values, requires_grad=True)
            f(probe).backward()
            grads.append(probe.grad)
        full, *masked = (np.abs(g).sum(axis=1) > 0 for g in grads)
        assert full.all()
        assert masked[0][0] and not masked[0].all()
        assert all(np.array_equal(m, masked[0]) for m in masked[1:])
