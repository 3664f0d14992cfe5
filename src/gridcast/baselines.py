"""Classical comparison models on flattened windows.

All three consume the same scaled (n, window, 13) inputs as the
network, flattened time-major/feature-minor, and predict the raw-kW
target directly. Each is written out in full at small-data scale: KNN
is an exact search (a bounded Gram-matrix prefilter, then the direct
distance on the few surviving rows), Bayesian ridge a closed-form
posterior mean, and the forest an ensemble of greedy variance-reduction
CART trees over bootstrap samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .tensor import RngState, permutation_heads


def flatten_windows(inputs: np.ndarray) -> np.ndarray:
    """(n, window, features) -> (n, window*features), time-major feature-minor."""
    return inputs.reshape(inputs.shape[0], -1)


# --- KNN ---------------------------------------------------------------------


# Queries per prefilter chunk: each chunk holds a few (KNN_CHUNK, n)
# arrays, never a (q, n) distance matrix.
KNN_CHUNK = 16


def knn_predict_batch(train_x, train_y, queries, k: int) -> np.ndarray:
    """Mean of the k nearest training targets for each (n, d) query row, 1 <= k <= n.

    Distance ties break toward the lower training index. The search is
    exact in two stages. Stage 1 takes ``KNN_CHUNK`` queries at a time,
    estimates every squared distance as ``|q|^2 + |x|^2 - 2 q.x`` with
    one matmul, and keeps as candidates the rows whose estimate, less a
    rigorous rounding bound, does not exceed the k-th smallest estimate
    plus its bound. Stage 2 computes the direct distance
    ``((x - q)**2).sum()`` on the candidates only and takes the first k
    of a stable sort. Every dropped row's direct distance is strictly
    above the k-th smallest, and the candidates keep index order, so the
    chosen rows, their order and the mean are those of a full scan, bit
    for bit; no Gram value reaches the output.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64).reshape(-1, train_x.shape[1])
    f = train_x.shape[1]
    # Rounding bound (Higham, ch. 3; u = 2^-53, gamma_m = m u / (1 - m u)).
    # With S = |q|^2 + |x|^2, the computed |q|^2, |x|^2 and q.x are each
    # within gamma_f of their true size (|q| |x| <= S / 2 bounds q.x),
    # and the two additions that combine them add at most u each on terms
    # of size <= 2S: the estimate is within 2 gamma_{f+2} S of the true
    # squared distance D. The stage-2 sum of f rounded squares of rounded
    # differences is within gamma_{f+2} D <= 2 gamma_{f+2} S of D. So the
    # estimate is within 4 gamma_{f+2} S of the stage-2 value. The slack
    # c S is more than twice that, which covers the rounding of the slack
    # and of estimate +- slack themselves. The absolute term covers
    # underflow, where the relative model does not hold: each product
    # loses at most the smallest normal number, even where a BLAS flushes
    # subnormals to zero.
    c = 16.0 * (f + 4) * 2.0 ** -53
    tiny = 16.0 * (f + 4) * np.finfo(np.float64).tiny
    train_sq = np.einsum("ij,ij->i", train_x, train_x)
    out = np.empty(queries.shape[0])
    for start in range(0, queries.shape[0], KNN_CHUNK):
        chunk = queries[start:start + KNN_CHUNK]
        query_sq = np.einsum("ij,ij->i", chunk, chunk)[:, None]
        approx = chunk @ train_x.T
        approx *= -2.0
        approx += train_sq
        approx += query_sq
        slack = train_sq + query_sq
        slack *= c
        slack += tiny
        upper = approx + slack
        upper.partition(k - 1, axis=1)
        kth = upper[:, k - 1:k]
        # written as a negation so a NaN or inf bound keeps the row
        keep = ~(approx - slack > kth)
        for row, query in enumerate(chunk):
            cand = np.flatnonzero(keep[row])
            diff = train_x[cand] - query
            dists = (diff * diff).sum(axis=1)
            out[start + row] = train_y[cand[np.argsort(dists, kind="stable")[:k]]].mean()
    return out


# --- Bayesian ridge ------------------------------------------------------------


class BayesianRidge:
    """Posterior-mean linear regression with a Gaussian weight prior.

    With centered X and y, weights solve (X'X + alpha I) w = X'y, a unit
    noise precision; the intercept re-attaches the training means.
    """

    def __init__(self, alpha: float = 1e-6):
        self.alpha = alpha
        self.weights = None
        self.intercept = None
        self._x_mean = None

    def fit(self, x, y) -> "BayesianRidge":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._x_mean = x.mean(axis=0)
        y_mean = y.mean()
        xc = x - self._x_mean
        yc = y - y_mean
        gram = xc.T @ xc + self.alpha * np.eye(x.shape[1])
        try:
            self.weights = np.linalg.solve(gram, xc.T @ yc)
        except np.linalg.LinAlgError:
            raise NumericError(
                "singular system; use a prior precision alpha > 0"
            ) from None
        self.intercept = float(y_mean)
        return self

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return (x - self._x_mean) @ self.weights + self.intercept


# --- random forest --------------------------------------------------------------


MIN_LEAF = 2


@dataclass
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 12
    seed: int = 0


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = value


def best_split(x: np.ndarray, y: np.ndarray, sizes, min_leaf: int) -> list:
    """Best split of each node in a batch by sum-of-squares reduction.

    Node b holds ``sizes[b]`` rows. ``x`` is (nodes, k, width): its k
    candidate columns, padded past the node's rows with +inf, which a
    stable sort puts after every row, so ``x`` must hold no NaN. ``y``
    is (nodes, width), its padding any finite value. Returns, per node, (gain, column,
    threshold) with ``column`` indexing the k columns, or None when no
    column has a split that leaves ``min_leaf`` rows on both sides.
    Thresholds sit midway between adjacent distinct values; rows with
    value <= threshold go left. Gain ties resolve to the smallest
    left-side count within a column and to the lowest column index
    across columns, so results are order-deterministic. Sorted prefix
    sums over a padded row equal the unpadded ones bit for bit, and each
    node reads its totals at its own last row, so a node's result does
    not depend on the batch it is in.
    """
    nodes, k, width = x.shape
    if width < 2 * min_leaf:
        return [None] * nodes
    order = np.argsort(x, axis=-1, kind="stable")
    node, col = np.arange(nodes), np.arange(k)
    ys = y.take(order + (node * width)[:, None, None])
    xs = x.take(order + (np.arange(nodes * k) * width).reshape(nodes, k, 1))
    m = np.asarray(sizes)[:, None, None]
    p = np.arange(min_leaf, width - min_leaf + 1)      # left-side counts
    left = slice(min_leaf - 1, width - min_leaf)       # sorted rows p-1 ...
    right = slice(min_leaf, width - min_leaf + 1)      # ... and p
    distinct = (p <= m - min_leaf) & (xs[..., left] != xs[..., right])
    csum = np.cumsum(ys, axis=-1)
    csq = np.cumsum(ys * ys, axis=-1)
    last = (node[:, None], col, m[..., 0] - 1)
    total = csum[last][..., None]
    total_csq = csq[last][..., None]
    # Column totals are squared one at a time as numpy scalars, which
    # calls libm pow; an array's ** 2 multiplies instead, and the two
    # differ in the last bit now and then. One ulp can flip a near-tie
    # split, so the scalar form keeps fitted forests, and compare.csv,
    # reproducible across releases.
    total_sq = np.array([t ** 2 for t in total.ravel()]).reshape(total.shape)
    total_sse = total_csq - total_sq / m
    left_sse = csq[..., left] - csum[..., left] ** 2 / p
    right_sum = total - csum[..., left]
    # past a node's last split the count is clamped; distinct masks it
    right_sse = (total_csq - csq[..., left]) - right_sum ** 2 / np.maximum(m - p, 1)
    gain = np.where(distinct, total_sse - left_sse - right_sse, -np.inf)
    at = gain.argmax(axis=-1)
    best = gain[node[:, None], col, at]
    column = best.argmax(axis=-1)
    split = p[at[node, column]]
    threshold = (xs[node, column, split - 1] + xs[node, column, split]) / 2.0
    return [None if g == -np.inf else (g, c, t) for g, c, t in
            zip(best[node, column].tolist(), column.tolist(), threshold.tolist())]


# Nodes of at most SPLIT_BATCH_ROWS rows share one best_split call per
# round: those of at most SPLIT_SMALL_ROWS rows in one batch, the rest in
# one batch per power of two, so padding stays small. Larger nodes, where
# numpy's per-call cost no longer dominates, run as a batch of 1.
SPLIT_BATCH_ROWS = 128
SPLIT_SMALL_ROWS = 32


def _batch_key(index: int, rows: int) -> int:
    if rows > SPLIT_BATCH_ROWS:
        return -1 - index
    return max(SPLIT_SMALL_ROWS, 1 << (rows - 1).bit_length())


def _grow_trees(trees: list, x: np.ndarray, y: np.ndarray, roots: list,
               max_depth: int, min_leaf: int):
    """Grows ``trees[i]`` on rows ``roots[i]`` of (x, y), all trees in lockstep.

    A node is an int array of row indices. Each tree's nodes are visited
    depth first, left before right. A node deeper than ``max_depth``, too
    small to split or with one target value stays a leaf; any other node
    draws its round(sqrt(d)) candidate columns from its tree's ``rng``
    (d - 1 words) and is split when the best gain is positive. Each
    round takes one such node from every unfinished tree, so the s-th
    node a tree searches reads the same words however many trees grow
    beside it, and every tree is the tree grown alone, bit for bit.
    """
    n, d = x.shape
    k = min(max(1, round(np.sqrt(d))), d)
    # column-major x plus a +inf column n, the row index padding points at
    padded_x = np.full((d, n + 1), np.inf)
    padded_x[:, :n] = x.T
    flat_x = padded_x.ravel()
    padded_y = np.append(y, 0.0)

    def open_node(rows, depth):
        """A new node valued at its mean target, as a stack entry."""
        values = y[rows]
        # what values.mean() computes, without its per-call overhead
        return _Node(float(values.sum() / values.size)), rows, values, depth

    stacks = []
    for tree, rows in zip(trees, roots):
        root = open_node(rows, 0)
        tree.root = root[0]
        stacks.append([root])
    while True:
        searched = []     # (tree, node, rows, depth): each tree's next split search
        for t, stack in enumerate(stacks):
            while stack:
                node, rows, values, depth = stack.pop()
                if (depth < max_depth and rows.size >= 2 * min_leaf
                        and not (values == values[0]).all()):
                    searched.append((t, node, rows, depth))
                    break
        if not searched:
            return
        feats = permutation_heads([trees[t].rng for t, *_ in searched], d, k)
        batches = {}
        for i, (_, _, rows, _) in enumerate(searched):
            batches.setdefault(_batch_key(i, rows.size), []).append(i)
        for batch in batches.values():
            sizes = [searched[i][2].size for i in batch]
            index = np.full((len(batch), max(sizes)), n)
            for b, i in enumerate(batch):
                index[b, :sizes[b]] = searched[i][2]
            cand = flat_x.take(feats[batch][:, :, None] * (n + 1) + index[:, None, :])
            for i, found in zip(batch, best_split(cand, padded_y[index], sizes, min_leaf)):
                if found is None or found[0] <= 0.0:
                    continue
                t, node, rows, depth = searched[i]
                node.feature = int(feats[i, found[1]])
                node.threshold = found[2]
                go_left = padded_x[node.feature, rows] <= node.threshold
                left = open_node(rows[go_left], depth + 1)
                right = open_node(rows[~go_left], depth + 1)
                node.left, node.right = left[0], right[0]
                stacks[t] += (right, left)


class RegressionTree:
    """Greedy CART regressor with mean-valued leaves, grown by ``_grow_trees``.

    Each node searches round(sqrt(d)) columns drawn from ``rng``.
    """

    def __init__(self, rng: RngState):
        self.rng = rng
        self.root = None

    def predict_one(self, row) -> float:
        node = self.root
        while node.left is not None:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.array([self.predict_one(row) for row in x])


class RandomForest:
    """Bagged CART trees; per-tree streams derive from the master seed."""

    def __init__(self, config: ForestConfig):
        self.config = config
        self.trees: list[RegressionTree] = []

    def fit(self, x, y) -> "RandomForest":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape[0] < 2:
            raise DataError("forest needs at least two samples")
        master = RngState(self.config.seed)
        n = x.shape[0]
        self.trees = [RegressionTree(master.spawn(i)) for i in range(self.config.n_trees)]
        bootstraps = [tree.rng.integers(n, n) for tree in self.trees]
        _grow_trees(self.trees, x, y, bootstraps, self.config.max_depth, MIN_LEAF)
        return self

    def predict(self, x) -> np.ndarray:
        preds = np.stack([tree.predict(x) for tree in self.trees])
        return preds.mean(axis=0)
