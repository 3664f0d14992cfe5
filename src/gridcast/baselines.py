"""Classical comparison models on flattened windows.

All three consume the same scaled (n, window, 13) inputs as the
network, flattened time-major/feature-minor, and predict the raw-kW
target directly. Each is written out in full at small-data scale: KNN
is an exact search (a bounded Gram-matrix prefilter, then the direct
distance on the few surviving rows), Bayesian ridge a closed-form
posterior mean, and the forest an ensemble of greedy variance-reduction
CART trees over bootstrap samples.

``compare`` runs them with fixed settings: ``KNN_K`` neighbours, prior
precision ``RIDGE_ALPHA``, and ``ForestConfig``'s ``max_depth``.
"""

from __future__ import annotations

import os
import signal
import traceback
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .tensor import RngState, permutation_heads


def flatten_windows(inputs: np.ndarray) -> np.ndarray:
    """(n, window, features) -> (n, window*features), time-major feature-minor."""
    return inputs.reshape(inputs.shape[0], -1)


# --- KNN ---------------------------------------------------------------------


KNN_K = 5  # neighbours per query in compare
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
    plus its bound. Stage 2 takes all of a chunk's candidates at once:
    it computes the direct distance ``((x - q)**2).sum()`` of each, sorts
    them by query and then distance with one stable sort, and averages
    the first k of each query. Every dropped row's direct distance is
    strictly above the k-th smallest, and the candidates keep index
    order within each query, so the chosen rows, their order and the
    mean are those of a full scan, bit for bit; no Gram value reaches
    the output.
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
        query, cand = np.nonzero(keep)
        diff = train_x[cand] - chunk[query]
        dists = (diff * diff).sum(axis=1)
        # by query, then distance; stable, so equal distances keep index order
        nearest = cand[np.lexsort((dists, query))]
        counts = np.bincount(query, minlength=len(chunk))
        firsts = np.cumsum(counts) - counts
        out[start:start + KNN_CHUNK] = train_y[nearest[firsts[:, None] + np.arange(k)]].mean(axis=1)
    return out


# --- Bayesian ridge ------------------------------------------------------------


RIDGE_ALPHA = 1e-6  # compare's prior precision


class BayesianRidge:
    """Posterior-mean linear regression with a Gaussian weight prior.

    With centered X and y, weights solve (X'X + alpha I) w = X'y, a unit
    noise precision; the intercept re-attaches the training means.
    """

    def __init__(self, alpha: float):
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


def rank_columns(x: np.ndarray) -> np.ndarray:
    """(d, n + 1) int32 ranks of the columns of an (n, d) matrix, for ``best_split``.

    A larger value has a larger rank and equal values share one (-0.0
    equals 0.0). Column n, where padding row indices point, ranks above
    every value. Ranked one column at a time, so the temporaries are a
    few length-n arrays.
    """
    n, d = x.shape
    ranks = np.empty((d, n + 1), dtype=np.int32)
    ranks[:, n] = n
    for f in range(d):
        ranks[f, :n] = np.unique(x[:, f], return_inverse=True)[1]
    return ranks


_INT32_MAX = np.iinfo(np.int32).max


def rank_sort(r: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, sorted ranks)`` along the last axis of ranks ``r`` in [0, n].

    Equal ranks keep position order, which is the order a stable sort
    of the ranked values gives. Each key packs a rank above its
    position, ``(rank << shift) | position`` with ``shift`` the bit
    length of width - 1, so keys are unique and one in-place default
    sort, several times faster than a stable argsort, orders them;
    int32 keys sort faster than int64 and hold every key while
    (n + 1) << shift fits.
    """
    width = r.shape[-1]
    shift = (width - 1).bit_length()
    dtype = np.int32 if (n + 1) << shift <= _INT32_MAX else np.int64
    keys = np.left_shift(r, shift, dtype=dtype)
    keys |= np.arange(width, dtype=dtype)
    keys.sort(axis=-1)
    return keys & ((1 << shift) - 1), keys >> shift


def best_split(x: np.ndarray, ranks: np.ndarray, feats: np.ndarray, rows: np.ndarray,
               y: np.ndarray, sizes, min_leaf: int) -> list:
    """Best split of each node in a batch by sum-of-squares reduction.

    Node b holds the ``sizes[b]`` rows ``rows[b, :sizes[b]]`` of the
    (n, d) matrix ``x``, padded past them with row n, and searches its k
    candidate columns ``feats[b]``. ``ranks`` is ``rank_columns(x)``.
    ``y`` is (nodes, width), the targets of ``rows``, its padding any
    finite value. Returns, per node, (gain, column, threshold) with
    ``column`` indexing ``feats[b]``, or None when no column has a split
    that leaves ``min_leaf`` rows on both sides. Thresholds sit midway
    between adjacent distinct values, computed as ``lo / 2 + hi / 2`` so
    that no sum overflows, and on ``lo`` where the midpoint rounds onto
    ``hi``; rows with value <= threshold go left. Gain ties resolve to
    the smallest left-side count within a column and to the lowest
    column index across columns, so results are order-deterministic.
    Sorted prefix sums over a padded row equal the unpadded ones bit for
    bit, and each node reads its totals at its own last row, so a node's
    result does not depend on the batch it is in.
    """
    (nodes, width), k = rows.shape, feats.shape[1]
    if width < 2 * min_leaf:
        return [None] * nodes
    n = ranks.shape[1] - 1
    r = ranks.take(feats[:, :, None] * (n + 1) + rows[:, None, :])
    order, rs = rank_sort(r, n)
    node, col = np.arange(nodes), np.arange(k)
    ys = y.take(order + (node * width)[:, None, None])
    m = np.asarray(sizes)[:, None, None]
    p = np.arange(min_leaf, width - min_leaf + 1)      # left-side counts
    left = slice(min_leaf - 1, width - min_leaf)       # sorted rows p-1 ...
    right = slice(min_leaf, width - min_leaf + 1)      # ... and p
    distinct = (p <= m - min_leaf) & (rs[..., left] != rs[..., right])
    csum = np.cumsum(ys, axis=-1)
    csq = np.cumsum(ys * ys, axis=-1)
    last = (node[:, None], col, m[..., 0] - 1)
    total = csum[last][..., None]
    total_csq = csq[last][..., None]
    # Column totals are squared one at a time as Python floats, which
    # calls libm pow; an array's ** 2 multiplies instead, and the two
    # differ in the last bit now and then. One ulp can flip a near-tie
    # split, so the scalar form keeps fitted forests, and compare.csv,
    # reproducible across releases.
    total_sq = np.array([t ** 2 for t in total.ravel().tolist()]).reshape(total.shape)
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
    # the rows on either side of the split; a node of at most min_leaf rows,
    # which has no split, points past its rows at row n, which x lacks
    below = np.minimum(rows[node, order[node, column, split - 1]], n - 1)
    above = np.minimum(rows[node, order[node, column, split]], n - 1)
    f = feats[node, column]
    lo, hi = x[below, f], x[above, f]
    # the same double as (lo + hi) / 2.0 while that sum is finite and the
    # halves are normal; a threshold equal to hi would send every row left
    threshold = lo / 2.0 + hi / 2.0
    threshold = np.where(threshold < hi, threshold, lo)
    return [None if g == -np.inf else (g, c, t) for g, c, t in
            zip(best[node, column].tolist(), column.tolist(), threshold.tolist())]


# A level's split searches go to best_split in runs of nodes sorted by
# size, each run at most SPLIT_ENTRIES node x column x row entries (a
# larger node runs alone), which bounds best_split's temporaries.
SPLIT_ENTRIES = 1 << 13


def _grow_trees(streams: list, x: np.ndarray, y: np.ndarray, roots: list, ranks: np.ndarray,
                max_depth: int, min_leaf: int) -> bytes:
    """Grows a tree on rows ``roots[i]`` of (x, y) with rng ``streams[i]``, all a level at a time.

    ``ranks`` is ``rank_columns(x)``. A node at depth ``max_depth``, too
    small to split or with one target value stays a leaf; any other node
    draws its round(sqrt(d)) candidate columns from its tree's stream
    (d - 1 words) and is split when the best gain is positive. Each
    tree's nodes draw in level order, every level left to right, so a
    node reads the same words however many trees grow beside it and
    however its level's searches are batched, and every tree is the tree
    grown alone, bit for bit. One round searches a whole level of every
    tree, so a fit takes at most ``max_depth`` rounds. A level is three
    arrays: the rows of every node, tree by tree and left to right, each
    node's size and the tree that owns it.

    Every node is numbered by its place in its level, level after level,
    so the roots are nodes 0 to len(roots) - 1 and a split node's
    children are ``left`` and ``left + 1``. Returns the bytes ``_unpack_trees``
    reads: the int64 count of all nodes, then each tree's final rng
    counter, int64 feature and left (-1 at a leaf) and float64 threshold
    and value, each array over the nodes in that order.
    """
    n, d = x.shape
    k = min(max(1, round(np.sqrt(d))), d)
    padded_y = np.append(y, 0.0)
    rows = np.concatenate(roots)
    sizes = np.array([root.size for root in roots])
    owner = np.arange(len(roots))
    levels = []         # (value, feature, threshold, left) of each level's nodes
    count = 0           # nodes up to this level's last: the next level's first index
    for depth in range(max_depth + 1):
        count += sizes.size
        starts = np.cumsum(sizes) - sizes
        targets = y[rows]
        value = np.empty(sizes.size)
        # Each mean adds its node's targets in the order values.sum() adds
        # them on the node alone, bit for bit: as one contiguous slice, or as
        # a row of a matrix of equal-size nodes. np.add.reduceat adds in
        # another order.
        by_size = np.argsort(sizes, kind="stable")
        for of_size in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
            size = sizes[of_size[0]]
            if of_size.size == 1:
                start = starts[of_size[0]]
                value[of_size] = targets[start:start + size].sum() / size
            else:
                value[of_size] = targets[starts[of_size, None] + np.arange(size)].sum(axis=1) / size
        # a node's min and max differ unless its targets are all equal; the
        # last target, repeated, keeps an empty last node's start in range
        # without changing a last node's min or max
        targets = np.append(targets, targets[-1:])
        varied = (sizes >= 2 * min_leaf) & (np.minimum.reduceat(targets, starts)
                                              != np.maximum.reduceat(targets, starts))
        feature, left = np.full(sizes.size, -1), np.full(sizes.size, -1)
        threshold = np.zeros(sizes.size)
        levels.append((value, feature, threshold, left))
        if depth == max_depth or not varied.any():
            break
        searched = np.flatnonzero(varied)
        feats = permutation_heads(
            streams, np.bincount(owner[searched], minlength=len(streams)), d, k)
        by_size = np.argsort(-sizes[searched], kind="stable")
        while by_size.size:
            batch = by_size[:max(1, SPLIT_ENTRIES // (k * sizes[searched[by_size[0]]]))]
            by_size = by_size[batch.size:]
            nodes = searched[batch]
            width = np.arange(sizes[nodes[0]])
            inside = width < sizes[nodes][:, None]
            index = np.full(inside.shape, n)
            index[inside] = rows[(starts[nodes][:, None] + width)[inside]]
            found = best_split(x, ranks, feats[batch], index, padded_y[index], sizes[nodes],
                               min_leaf)
            for i, columns, hit in zip(nodes.tolist(), feats[batch], found):
                if hit is None or hit[0] <= 0.0:
                    continue
                feature[i], threshold[i] = columns[hit[1]], hit[2]
        split = feature >= 0
        if not split.any():
            break
        left[split] = count + 2 * np.arange(split.sum())
        # children, left before right, in their parents' order; a stable sort
        # keeps each child's rows in its parent's order
        node = np.repeat(np.arange(sizes.size), sizes)
        keep = split[node]
        rows, node = rows[keep], node[keep]
        child = 2 * (np.cumsum(split) - 1)[node] + ~(x[rows, feature[node]] <= threshold[node])
        rows = rows[np.argsort(child, kind="stable")]
        sizes = np.bincount(child, minlength=2 * int(split.sum()))
        owner = np.repeat(owner[split], 2)
    value, feature, threshold, left = (np.concatenate(field) for field in zip(*levels))
    head = np.array([value.size] + [stream._counter for stream in streams], dtype=np.int64)
    ints = np.array([feature, left], dtype=np.int64)
    return head.tobytes() + ints.tobytes() + np.array([threshold, value]).tobytes()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, or the host's count
    where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _grow_in_processes(trees: list, x: np.ndarray, y: np.ndarray, roots: list,
                       max_depth: int, min_leaf: int, jobs: int):
    """``_grow_trees`` with the trees split by stride over ``jobs`` processes.

    The columns are ranked once, before any fork, and every process
    grows on that table. The caller grows share 0, ``trees[::jobs]``;
    share j of the others grows in a forked child, which sends the
    grower's bytes back through a pipe and ends. Every share becomes
    ``_Node`` trees through ``_unpack_trees``, the caller's own first,
    while the children may still run. Every tree grows as it would grow
    alone, so the trees are the serial fit's, bit for bit. Every pipe is
    read to its end before any child is reaped, so no child blocks on a
    full pipe. Whatever happens, every child is reaped before this
    returns, killed first if this process failed; a child that exits
    non-zero or sends a payload of the wrong length raises
    ``ChildProcessError``.
    """
    ranks = rank_columns(x)
    streams = [tree.rng for tree in trees]
    workers = []        # (pid, read end of its pipe) of each child
    payloads = []
    try:
        for j in range(1, jobs):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _grow_in_child(write, streams[j::jobs], x, y, roots[j::jobs], ranks, max_depth,
                               min_leaf)
            os.close(write)
            workers.append((pid, read))
        _unpack_trees(_grow_trees(streams[::jobs], x, y, roots[::jobs], ranks, max_depth,
                                  min_leaf), trees[::jobs])
        for _, read in workers:
            chunks = []
            while chunk := os.read(read, 1 << 20):
                chunks.append(chunk)
            payloads.append(b"".join(chunks))
    finally:
        statuses = []
        for pid, read in workers:
            if len(payloads) < len(workers):
                os.kill(pid, signal.SIGKILL)
            os.close(read)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for j, ((pid, _), status, payload) in enumerate(zip(workers, statuses, payloads), 1):
        if status != 0:
            raise ChildProcessError(f"forest worker {pid} exited with status {status}")
        _unpack_trees(payload, trees[j::jobs])


def _grow_in_child(write: int, streams: list, x, y, roots, ranks, max_depth, min_leaf):
    """Runs in a forked child: grows trees with ``streams``, writes the
    grower's bytes to the pipe end ``write`` and ends the process, never
    returning. ``os._exit`` skips the flush of stdio buffers copied from
    the parent, which would write their contents a second time."""
    status = 1
    try:
        view = memoryview(_grow_trees(streams, x, y, roots, ranks, max_depth, min_leaf))
        while view:
            view = view[os.write(write, view):]
        status = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _unpack_trees(payload: bytes, trees: list):
    """Links the ``_Node`` trees that ``_grow_trees`` wrote into ``trees``,
    their fields Python ints and floats, and sets each tree's rng counter.
    The payload numbers the nodes of all its trees in one level order:
    the roots first, and a split node's children at ``left`` and
    ``left + 1``."""
    t = len(trees)
    total = int(np.frombuffer(payload, np.int64, count=1)[0]) if len(payload) >= 8 else 0
    if len(payload) != 8 * (1 + t + 4 * total):
        raise ChildProcessError(f"forest worker sent {len(payload)} bytes for {t} trees")
    ints = np.frombuffer(payload, np.int64, count=1 + t + 2 * total)
    feature, left = ints[1 + t:].reshape(2, total)
    threshold, value = np.frombuffer(payload, offset=ints.nbytes).reshape(2, total)
    nodes = [_Node(v) for v in value.tolist()]
    # a leaf keeps _Node's feature and threshold, which the payload repeats
    split = np.flatnonzero(left >= 0)
    for node, f, th, lo in zip([nodes[i] for i in split.tolist()], feature[split].tolist(),
                               threshold[split].tolist(), left[split].tolist()):
        node.feature, node.threshold, node.left, node.right = f, th, nodes[lo], nodes[lo + 1]
    for tree, root, counter in zip(trees, nodes, ints[1:1 + t].tolist()):
        tree.root = root
        tree.rng._counter = counter


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
        master = RngState(self.config.seed)
        n = x.shape[0]
        self.trees = [RegressionTree(master.spawn(i)) for i in range(self.config.n_trees)]
        bootstraps = [tree.rng.integers(n, n) for tree in self.trees]
        jobs = min(usable_cpus(), len(self.trees)) if hasattr(os, "fork") else 1
        _grow_in_processes(self.trees, x, y, bootstraps, self.config.max_depth, MIN_LEAF, jobs)
        return self

    def predict(self, x) -> np.ndarray:
        preds = np.stack([tree.predict(x) for tree in self.trees])
        return preds.mean(axis=0)
