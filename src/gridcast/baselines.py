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

from .errors import DataError, NumericError, ParameterError
from .tensor import RngState


def flatten_windows(inputs: np.ndarray) -> np.ndarray:
    """(n, window, features) -> (n, window*features), time-major feature-minor."""
    if inputs.ndim != 3:
        raise ParameterError(f"expected (n, window, features), got {inputs.shape}")
    return inputs.reshape(inputs.shape[0], -1)


# --- KNN ---------------------------------------------------------------------


# Queries per prefilter chunk: each chunk holds a few (KNN_CHUNK, n)
# arrays, never a (q, n) distance matrix.
KNN_CHUNK = 16


def knn_predict_batch(train_x, train_y, queries, k: int) -> np.ndarray:
    """Mean of the k nearest training targets for each (n, d) query row.

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
    if train_x.shape[0] == 0:
        raise DataError("knn needs a non-empty training set")
    if not 1 <= k <= train_x.shape[0]:
        raise ParameterError(f"k must be in [1, {train_x.shape[0]}], got {k}")
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
        if alpha < 0:
            raise ParameterError(f"need alpha >= 0, got {alpha}")
        self.alpha = alpha
        self.weights = None
        self.intercept = None
        self._x_mean = None

    def fit(self, x, y) -> "BayesianRidge":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape[0] == 0:
            raise DataError("bayesian ridge needs at least one sample")
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

    def validate(self):
        if self.n_trees < 1 or self.max_depth < 1:
            raise ParameterError(
                f"n_trees, max_depth must be >= 1, got {self.n_trees}, {self.max_depth}"
            )


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = value


def best_split(x: np.ndarray, y: np.ndarray, min_leaf: int):
    """Best split of a node over its candidate columns by sum-of-squares reduction.

    ``x`` holds the candidate columns as (m, k); a 1-D column is the
    k=1 case. Returns (gain, column, threshold), ``column`` indexing
    ``x``'s columns, or None when no column has a split that leaves
    ``min_leaf`` rows on both sides. Thresholds sit midway between
    adjacent distinct values; rows with value <= threshold go left.
    Gain ties resolve to the smallest left-side count within a column
    and to the lowest column index across columns, so results are
    order-deterministic.
    """
    cols = x.reshape(x.shape[0], -1).T                 # (k, m)
    m = cols.shape[1]
    if m < 2 * min_leaf:
        return None
    order = np.argsort(cols, axis=1, kind="stable")
    xs = np.take_along_axis(cols, order, axis=1)
    ys = y[order]
    left = slice(min_leaf - 1, m - min_leaf)           # sorted rows p-1 ...
    right = slice(min_leaf, m - min_leaf + 1)          # ... and p
    distinct = xs[:, left] != xs[:, right]
    if not distinct.any():
        return None
    csum = np.cumsum(ys, axis=1)
    csq = np.cumsum(ys * ys, axis=1)
    # Column totals are squared one at a time as numpy scalars, which
    # calls libm pow; an array's ** 2 multiplies instead, and the two
    # differ in the last bit now and then. One ulp can flip a near-tie
    # split, so the scalar form keeps fitted forests, and compare.csv,
    # reproducible across releases.
    total_sq = np.array([total ** 2 for total in csum[:, -1]])
    total_sse = csq[:, -1] - total_sq / m
    p = np.arange(min_leaf, m - min_leaf + 1)          # left-side counts
    left_sse = csq[:, left] - csum[:, left] ** 2 / p
    right_sum = csum[:, -1:] - csum[:, left]
    right_sse = (csq[:, -1:] - csq[:, left]) - right_sum ** 2 / (m - p)
    gain = np.where(distinct, total_sse[:, None] - left_sse - right_sse, -np.inf)
    at = gain.argmax(axis=1)
    best = gain[np.arange(gain.shape[0]), at]
    column = int(best.argmax())
    split = p[at[column]]
    return float(best[column]), column, float((xs[column, split - 1] + xs[column, split]) / 2.0)


class RegressionTree:
    """Greedy CART regressor with mean-valued leaves.

    Each node searches round(sqrt(d)) columns drawn from ``rng``, or
    every column when ``rng`` is None.
    """

    def __init__(self, max_depth: int = 12, min_leaf: int = MIN_LEAF,
                 rng: RngState | None = None):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.rng = rng
        self.root = None

    def fit(self, x, y) -> "RegressionTree":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape[0] < 2:
            raise DataError("tree needs at least two samples")
        self._d = x.shape[1]
        self.root = self._grow(x, y, 0)
        return self

    def _candidate_features(self) -> np.ndarray:
        d = self._d
        m = min(max(1, round(np.sqrt(d))), d)
        if m == d or self.rng is None:
            return np.arange(d)
        return self.rng.permutation(d)[:m]

    def _grow(self, x, y, depth: int) -> _Node:
        node = _Node(float(y.mean()))
        if depth >= self.max_depth or y.size < 2 * self.min_leaf or np.all(y == y[0]):
            return node
        feats = self._candidate_features()
        found = best_split(x[:, feats], y, self.min_leaf)
        if found is None or found[0] <= 0.0:
            return node
        _, column, node.threshold = found
        node.feature = int(feats[column])
        mask = x[:, node.feature] <= node.threshold
        node.left = self._grow(x[mask], y[mask], depth + 1)
        node.right = self._grow(x[~mask], y[~mask], depth + 1)
        return node

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
        config.validate()
        self.config = config
        self.trees: list[RegressionTree] = []

    def fit(self, x, y) -> "RandomForest":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape[0] < 2:
            raise DataError("forest needs at least two samples")
        master = RngState(self.config.seed)
        n = x.shape[0]
        self.trees = []
        for i in range(self.config.n_trees):
            tree_rng = master.spawn(i)
            idx = tree_rng.integers(n, n)
            tree = RegressionTree(self.config.max_depth, rng=tree_rng)
            self.trees.append(tree.fit(x[idx], y[idx]))
        return self

    def predict(self, x) -> np.ndarray:
        preds = np.stack([tree.predict(x) for tree in self.trees])
        return preds.mean(axis=0)
