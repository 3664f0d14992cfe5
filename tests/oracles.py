"""Independent oracles shared by the test suite.

These deliberately avoid the library's own computation paths: gradients
come from central finite differences, nearest neighbours from a full
sort, ridge weights from raw normal equations, and tree splits from
exhaustive threshold enumeration.
"""

import numpy as np

FD_STEP = 1e-5


def numeric_grad(f, arr, step=FD_STEP):
    """Central finite differences of scalar f() w.r.t. arr (mutated in place)."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        saved = arr[i]
        arr[i] = saved + step
        up = f()
        arr[i] = saved - step
        down = f()
        arr[i] = saved
        grad[i] = (up - down) / (2.0 * step)
    return grad


def max_rel_err(analytic, numeric, floor=1e-6):
    """Worst-case elementwise relative error with an absolute floor."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


def rel_norm_err(actual, expected):
    """Normwise relative error ||actual - expected|| / ||expected|| (0 when both vanish)."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    scale = np.linalg.norm(expected)
    diff = np.linalg.norm(actual - expected)
    return float(diff / scale) if scale > 0 else float(diff)


def check_gradients(forward_fn, backward_fn, arrays, seed=0, tol=1e-4):
    """Compare analytic and finite-difference gradients of a scalar readout.

    ``forward_fn()`` re-runs the forward pass from the live contents of
    ``arrays`` (a dict name -> ndarray, mutated in place during FD) and
    returns the output tensor. ``backward_fn(upstream)`` must run after
    one forward and return a dict name -> analytic gradient covering the
    same keys. The scalar readout is sum(output * R) for a fixed random
    R, so the upstream gradient is exactly R.
    """
    out = forward_fn()
    probe = np.random.default_rng(seed).standard_normal(out.shape)
    analytic = backward_fn(probe)

    def scalar():
        return float((forward_fn() * probe).sum())

    worst = {}
    for name, arr in arrays.items():
        numeric = numeric_grad(scalar, arr)
        worst[name] = max_rel_err(analytic[name], numeric)
    bad = {k: v for k, v in worst.items() if v >= tol}
    assert not bad, f"gradient mismatch: {bad}"
    return worst


def brute_force_knn(train_x, train_y, query, k, classify=False):
    """KNN by an explicit (distance, index) sort."""
    dists = [(float(((row - query) ** 2).sum()), i) for i, row in enumerate(train_x)]
    dists.sort()
    picked = [train_y[i] for _, i in dists[:k]]
    if classify:
        ones = sum(1 for v in picked if v == 1.0)
        return 1.0 if ones > k / 2.0 else 0.0
    return sum(picked) / k


def normal_equations_ridge(x, y, alpha, lam):
    """Posterior mean via numpy.linalg.lstsq-free direct inversion."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x_mean = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - x_mean
    yc = y - y_mean
    a = lam * xc.T @ xc + alpha * np.eye(x.shape[1])
    w = np.linalg.inv(a) @ (lam * xc.T @ yc)
    return w, y_mean, x_mean


def exhaustive_best_split(x_col, y, min_leaf):
    """Scan every midpoint threshold; best sum-of-squares reduction wins."""
    xs = np.sort(np.unique(x_col))
    total = float(((y - y.mean()) ** 2).sum())
    best = None
    for lo, hi in zip(xs, xs[1:]):
        thr = (lo + hi) / 2.0
        left = y[x_col <= thr]
        right = y[x_col > thr]
        if len(left) < min_leaf or len(right) < min_leaf:
            continue
        sse = float(((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum())
        gain = total - sse
        if best is None or gain > best[0]:
            best = (gain, thr)
    return best


def enumerate_shapley(model, x, background, d):
    """Shapley values by direct subset enumeration, no memo sharing."""
    import itertools
    import math

    x = np.asarray(x, dtype=np.float64)
    bg = np.broadcast_to(np.asarray(background, dtype=np.float64), x.shape)

    def v(subset):
        mixed = bg.copy()
        for j in subset:
            mixed[:, j] = x[:, j]
        return float(model(mixed))

    phi = np.zeros(d)
    for i in range(d):
        rest = [j for j in range(d) if j != i]
        for size in range(d):
            for combo in itertools.combinations(rest, size):
                weight = math.factorial(size) * math.factorial(d - size - 1) / math.factorial(d)
                phi[i] += weight * (v(combo + (i,)) - v(combo))
    return phi


def trapezoid_auc(points):
    """AUC from (fpr, tpr) pairs by explicit trapezoid enumeration."""
    area = 0.0
    for (f0, t0), (f1, t1) in zip(points, points[1:]):
        area += (f1 - f0) * (t0 + t1) / 2.0
    return area
