"""Independent oracles shared by the test suite.

These deliberately avoid the library's own computation paths: gradients
come from central finite differences, nearest neighbours from a full
sort, ridge weights from raw normal equations, tree splits from
exhaustive threshold enumeration, trees from a node-by-node grower
with a first-in first-out queue, permutations from an
element-by-element Fisher-Yates loop, bit-exact KNN from a per-query
full scan, Adam from a loop over
per-parameter arrays, the GRU from one matrix per gate, the other
layers' arithmetic from whole-array expressions that allocate every
result, the network
with every block (the top one too) over all time steps, and Shapley
values from subset enumeration or a
permutation loop that scores one coalition per model call.
"""

import collections

import numpy as np

from gridcast.layers import LAYERNORM_EPSILON

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


def brute_force_knn(train_x, train_y, query, k):
    """KNN by an explicit (distance, index) sort."""
    dists = [(float(((row - query) ** 2).sum()), i) for i, row in enumerate(train_x)]
    dists.sort()
    return sum(train_y[i] for _, i in dists[:k]) / k


def knn_reference(train_x, train_y, queries, k):
    """KNN as one full distance scan and stable argsort per query.

    The same arithmetic as the prefiltered search's exact stage, so the
    two must agree bit for bit.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64).reshape(-1, train_x.shape[1])
    out = np.empty(queries.shape[0])
    for i, query in enumerate(queries):
        diff = train_x - query
        dists = (diff * diff).sum(axis=1)
        out[i] = train_y[np.argsort(dists, kind="stable")[:k]].mean()
    return out


def normal_equations_ridge(x, y, alpha):
    """Posterior mean via numpy.linalg.lstsq-free direct inversion."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x_mean = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - x_mean
    yc = y - y_mean
    a = xc.T @ xc + alpha * np.eye(x.shape[1])
    w = np.linalg.inv(a) @ (xc.T @ yc)
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


def reference_best_split(x, y, min_leaf):
    """One node's best split, searched alone: (gain, column, threshold) or None.

    ``x`` holds the candidate columns as (m, k); a 1-D column is k=1.
    Ties go to the smallest left count, then to the lowest column.
    """
    cols = x.reshape(x.shape[0], -1).T
    m = cols.shape[1]
    if m < 2 * min_leaf:
        return None
    order = np.argsort(cols, axis=1, kind="stable")
    xs = np.take_along_axis(cols, order, axis=1)
    ys = y[order]
    left = slice(min_leaf - 1, m - min_leaf)
    right = slice(min_leaf, m - min_leaf + 1)
    distinct = xs[:, left] != xs[:, right]
    if not distinct.any():
        return None
    csum = np.cumsum(ys, axis=1)
    csq = np.cumsum(ys * ys, axis=1)
    total_sq = np.array([total ** 2 for total in csum[:, -1]])   # scalar pow, as the library
    total_sse = csq[:, -1] - total_sq / m
    p = np.arange(min_leaf, m - min_leaf + 1)
    left_sse = csq[:, left] - csum[:, left] ** 2 / p
    right_sum = csum[:, -1:] - csum[:, left]
    right_sse = (csq[:, -1:] - csq[:, left]) - right_sum ** 2 / (m - p)
    gain = np.where(distinct, total_sse[:, None] - left_sse - right_sse, -np.inf)
    at = gain.argmax(axis=1)
    best = gain[np.arange(gain.shape[0]), at]
    column = int(best.argmax())
    split = p[at[column]]
    lo, hi = xs[column, split - 1], xs[column, split]
    threshold = lo / 2.0 + hi / 2.0
    return float(best[column]), column, float(threshold if threshold < hi else lo)


def reference_tree(x, y, rng, max_depth, min_leaf):
    """A CART tree grown alone, breadth first on row copies, as nested tuples.

    A leaf is ``(value,)``, a split ``(value, feature, threshold, left,
    right)``. Nodes leave a first-in first-out queue, so they are visited
    in level order, each level left to right. Each node that reaches a
    split search takes the first round(sqrt(d)) entries of
    ``rng.permutation(d)`` as its candidates, in that order.
    """
    d = x.shape[1]
    k = min(max(1, round(np.sqrt(d))), d)
    root = {}
    queue = collections.deque([(x, y, 0, root)])
    while queue:
        x_node, y_node, depth, node = queue.popleft()
        node["value"] = float(y_node.mean())
        if depth >= max_depth or y_node.size < 2 * min_leaf or np.all(y_node == y_node[0]):
            continue
        feats = rng.permutation(d)[:k] if k < d else np.arange(d)
        found = reference_best_split(x_node[:, feats], y_node, min_leaf)
        if found is None or found[0] <= 0.0:
            continue
        _, column, threshold = found
        node["feature"], node["threshold"] = int(feats[column]), threshold
        node["left"], node["right"] = {}, {}
        mask = x_node[:, node["feature"]] <= threshold
        queue.append((x_node[mask], y_node[mask], depth + 1, node["left"]))
        queue.append((x_node[~mask], y_node[~mask], depth + 1, node["right"]))

    def as_tuples(node):
        if "left" not in node:
            return (node["value"],)
        return (node["value"], node["feature"], node["threshold"], as_tuples(node["left"]),
                as_tuples(node["right"]))

    return as_tuples(root)


def fisher_yates_reference(draws):
    """Permutation of range(len(draws) + 1), swapping numpy elements one at a time.

    Draw t picks the partner of position n-1-t from [0, n-1-t] by
    modulo, as ``RngState.permutation(n)`` does with ``raw(n - 1)``.
    """
    n = len(draws) + 1
    perm = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = int(draws[n - 1 - i] % np.uint64(i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def adam_reference(params, grads, m, v, lr, t, beta1=0.9, beta2=0.999, epsilon=1e-8):
    """One in-place Adam step applied key by key to dicts of arrays.

    ``m`` and ``v`` are dicts of moment arrays keyed like ``params``.
    """
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for key, p in params.items():
        g = grads[key]
        m[key] *= beta1
        m[key] += (1.0 - beta1) * g
        v[key] *= beta2
        v[key] += (1.0 - beta2) * g * g
        p -= lr * (m[key] / bc1) / (np.sqrt(v[key] / bc2) + epsilon)


def gru_reference(W, U_rz, U, b, x, h0, upstream):
    """GRU forward and backward with a separate matrix and product per gate.

    Takes ``Gru``'s stacked parameters, a (B, T, in) batch, a (B, hidden)
    ``h0`` and a (B, T, hidden) upstream gradient, and returns (output,
    input gradient, h0 gradient, {key: gradient stacked like ``Gru``}).
    """
    (W_r, W_z, W_c), (U_r, U_z), (b_r, b_z, b_c) = W, U_rz, b
    batch, t_len, _ = x.shape
    hidden = U.shape[0]
    x = np.ascontiguousarray(x.transpose(1, 0, 2))
    xr, xz, xh = x @ W_r + b_r, x @ W_z + b_z, x @ W_c + b_c
    hs = np.empty((t_len + 1, batch, hidden))
    hs[0] = h0
    rs, zs, cs = (np.empty((t_len, batch, hidden)) for _ in range(3))
    for t in range(t_len):
        h_prev = hs[t]
        rs[t] = 1.0 / (1.0 + np.exp(-(xr[t] + h_prev @ U_r)))
        zs[t] = 1.0 / (1.0 + np.exp(-(xz[t] + h_prev @ U_z)))
        cs[t] = np.tanh(xh[t] + (rs[t] * h_prev) @ U)
        hs[t + 1] = (1.0 - zs[t]) * h_prev + zs[t] * cs[t]
    upstream = upstream.transpose(1, 0, 2)
    dar_seq, daz_seq, dah_seq = (np.empty((t_len, batch, hidden)) for _ in range(3))
    carry = np.zeros((batch, hidden))
    for t in range(t_len - 1, -1, -1):
        delta = upstream[t] + carry
        h_prev, r, z, c = hs[t], rs[t], zs[t], cs[t]
        daz = delta * (c - h_prev) * z * (1.0 - z)
        dah = delta * z * (1.0 - c * c)
        drh = dah @ U.T
        dar = drh * h_prev * r * (1.0 - r)
        dar_seq[t], daz_seq[t], dah_seq[t] = dar, daz, dah
        carry = delta * (1.0 - z) + dar @ U_r.T + daz @ U_z.T + drh * r
    rows = t_len * batch
    x_rows = x.reshape(rows, -1)
    h_rows = hs[:-1].reshape(rows, hidden)
    rh_rows = (rs * hs[:-1]).reshape(rows, hidden)
    dar_rows, daz_rows, dah_rows = (a.reshape(rows, hidden) for a in (dar_seq, daz_seq, dah_seq))
    grads = {
        "W": np.stack([x_rows.T @ dar_rows, x_rows.T @ daz_rows, x_rows.T @ dah_rows]),
        "U_rz": np.stack([h_rows.T @ dar_rows, h_rows.T @ daz_rows]),
        "U": rh_rows.T @ dah_rows,
        "b": np.stack([dar_rows.sum(axis=0), daz_rows.sum(axis=0), dah_rows.sum(axis=0)]),
    }
    dx = dar_seq @ W_r.T + daz_seq @ W_z.T + dah_seq @ W_c.T
    return hs[1:].transpose(1, 0, 2), dx.transpose(1, 0, 2), carry, grads


def conv1d_reference(kernels, bias, x, steps, upstream):
    """``Conv1d``'s last ``steps`` output steps, input gradient and {key: gradient}."""
    out_ch, in_ch, k = kernels.shape
    batch, t_len, _ = x.shape
    first, pad = t_len - steps, k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    cols = np.stack([xp[:, first + j:first + j + steps] for j in range(k)], axis=-1)
    cols = cols.reshape(batch * steps, in_ch * k)
    w_mat = kernels.reshape(out_ch, in_ch * k)
    out = (cols @ w_mat.T + bias).reshape(batch, steps, out_ch)
    up = upstream.reshape(batch * steps, out_ch)
    grads = {"kernels": (up.T @ cols).reshape(kernels.shape), "bias": up.sum(axis=0)}
    dcols = (up @ w_mat).reshape(batch, steps, in_ch, k)
    dxp = np.zeros_like(xp)
    for j in range(k):
        dxp[:, first + j:first + j + steps] += dcols[..., j]
    return out, dxp[:, pad:pad + t_len], grads


def attention_reference(K_w, Q_w, x, steps, upstream):
    """``Attention``'s last ``steps`` output rows, input gradient and {key: gradient}."""
    batch, t_len, d = x.shape
    first = t_len - steps
    keys, queries = x @ K_w, x[:, first:] @ Q_w
    scores = (queries @ keys.transpose(0, 2, 1) / np.sqrt(K_w.shape[1])).reshape(-1, t_len)
    z = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = (z / z.sum(axis=1, keepdims=True)).reshape(batch, steps, t_len)
    scale = 1.0 / np.sqrt(K_w.shape[1])
    dweights = upstream @ x.transpose(0, 2, 1)
    dscores = weights * (dweights - (dweights * weights).sum(axis=2, keepdims=True))
    dqueries = dscores @ keys * scale
    dkeys = dscores.transpose(0, 2, 1) @ queries * scale
    grads = {"K_w": x.reshape(-1, d).T @ dkeys.reshape(batch * t_len, -1),
             "Q_w": x[:, first:].reshape(-1, d).T @ dqueries.reshape(batch * steps, -1)}
    dx = weights.transpose(0, 2, 1) @ upstream
    dx[:, first:] += dqueries @ Q_w.T
    dx += dkeys @ K_w.T
    return weights @ x, dx, grads


def layernorm_reference(gain, shift, x, upstream):
    """``LayerNorm``'s output, input gradient and {key: gradient}, with np.mean and np.var."""
    d = gain.shape[0]
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + LAYERNORM_EPSILON)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv
    dxhat = upstream * gain
    grads = {"gain": (upstream * xhat).reshape(-1, d).sum(axis=0),
             "shift": upstream.reshape(-1, d).sum(axis=0)}
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return gain * xhat + shift, dx, grads


def dense_reference(weight, bias, activation, x, upstream):
    """``Dense``'s output, input gradient and {key: gradient}."""
    z = x @ weight + bias
    if activation == "relu":
        y, dz = np.maximum(z, 0.0), upstream * (z > 0.0)
    elif activation == "sigmoid":
        y = 1.0 / (1.0 + np.exp(-z))
        dz = upstream * y * (1.0 - y)
    else:
        y, dz = z, upstream
    in_dim, out_dim = weight.shape
    dz_rows = dz.reshape(-1, out_dim)
    grads = {"weight": x.reshape(-1, in_dim).T @ dz_rows, "bias": dz_rows.sum(axis=0)}
    return y, dz @ weight.T, grads


def full_sequence_network(net, x, loss_grad, training=False, rng=None):
    """``net``'s forward and backward with the top block over all T steps.

    Every block runs its layers on whole windows, the head reads the top
    block's last step, and the head gradient is scattered into a (B, T,
    merged) array that is zero except at that step. Takes (B, window,
    features) inputs and a (B,) loss gradient; returns (outputs, input
    gradient, {dotted key: parameter gradient}).
    """
    cfg = net.config
    x = np.asarray(x, dtype=np.float64)
    for block in net.blocks:
        conv_out = block.conv_act.forward(block.conv.forward(x))
        attn_out = block.attn.forward(block.gru.forward(x))
        x = block.norm.forward(np.concatenate([conv_out, attn_out], axis=2))
    hidden = net.head_drop.forward(net.head_hidden.forward(x[:, -1, :]), training, rng)
    out = net.head_out.forward(hidden).reshape(-1)
    up = net.head_hidden.backward(
        net.head_drop.backward(net.head_out.backward(np.reshape(loss_grad, (-1, 1)))))
    grad_seq = np.zeros((up.shape[0], cfg.window, up.shape[1]))
    grad_seq[:, -1] = up
    for block in reversed(net.blocks):
        g = block.norm.backward(grad_seq)
        g_conv, g_attn = g[:, :, :cfg.conv_filters], g[:, :, cfg.conv_filters:]
        grad_seq = (block.conv.backward(block.conv_act.backward(g_conv))
                    + block.gru.backward(block.attn.backward(g_attn)))
    layers = [(f"block{i}.{name}", getattr(block, name))
              for i, block in enumerate(net.blocks) for name in ("conv", "gru", "attn", "norm")]
    layers += [("head.hidden", net.head_hidden), ("head.out", net.head_out)]
    grads = {f"{prefix}.{name}": g for prefix, layer in layers for name, g in layer.grads.items()}
    return out, grad_seq, grads


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


def shapley_sample_reference(model, x, background, n_perms, rng):
    """Permutation-sampling Shapley estimate, one window per model call.

    Walks each ``rng.permutation(d)`` in order, scoring every new
    coalition by itself (memoized by bitmask); returns (values, std errors).
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[1]
    bg = np.broadcast_to(np.asarray(background, dtype=np.float64), x.shape)
    cache = {}

    def value(mask):
        if mask not in cache:
            mixed = bg.copy()
            for j in range(d):
                if mask >> j & 1:
                    mixed[:, j] = x[:, j]
            cache[mask] = float(model(mixed))
        return cache[mask]

    marginals = np.zeros((n_perms, d))
    for p in range(n_perms):
        mask = 0
        prev = value(0)
        for j in rng.permutation(d):
            mask |= 1 << int(j)
            nxt = value(mask)
            marginals[p, j] = nxt - prev
            prev = nxt
    stderr = (marginals.std(axis=0, ddof=1) / np.sqrt(n_perms) if n_perms > 1
              else np.zeros(d))
    return marginals.mean(axis=0), stderr


def trapezoid_auc(points):
    """AUC from (fpr, tpr) pairs by explicit trapezoid enumeration."""
    area = 0.0
    for (f0, t0), (f1, t1) in zip(points, points[1:]):
        area += (f1 - f0) * (t0 + t1) / 2.0
    return area
