"""Synthetic data generators, a small gradient-boosted-tree classifier and a
logistic-regression baseline.

The four generators produce five Gaussian-family predictor columns whose
subpopulation distributions differ by shifts, variances or local mixture
replacements, a protected label G that the models never see, and a Bernoulli
response driven by a logistic function of the predictor sum.  Normal
parameters are (mean, variance).

The boosted-tree classifier minimizes logistic loss with Newton leaf values,
exact split search, and depth/leaf/min-samples limits.  The columns' sort
order, and the root's sorted values and tie mask, are built once per fit; each
node keeps its rows in that order and sums its gradient and hessian once, and
one vectorized pass scores every cut of every feature (the exact-greedy column
block of XGBoost; Chen & Guestrin, KDD 2016).  A node that cannot split, at
max_depth or once the leaf budget is spent, is neither sorted nor searched.
Training is deterministic for a given configuration.  Prediction is one
pipeline of three steps (QuickScorer; Lucchese et al., SIGIR 2015): ``codes``
ranks each input column once against the model's sorted split thresholds,
``cleared`` ORs into a per-tree mask the leaf bits of the nodes whose test a
row fails, and ``raw`` takes each tree's exit leaf as the lowest bit that
survives and adds the leaf values tree by tree.  Rows are scored PASS_ROWS at
a time.  A row assembled from two sources, the columns of a coalition from one
row and the others from a background row, is scored from the masks of each
side, found once per source row and ORed per pair.  An input whose few columns
are replaced again and again, as in a frontier search over monotone maps of
those columns, keeps the masks of its other columns: each call ranks and
re-tests only the nodes on the replaced columns.
"""

from __future__ import annotations

import csv
import itertools
import json
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .calibrate import SEPARATION_BOUND, binary_labels, json_field, newton_logistic, sigmoid

LOG_LOSS_CLAMP = 1e-6
PRED_CLAMP = 1e-9
# M1-M3: each column's mean shift for class G=0, and its variance base + per_g * G
SHIFT_MODELS = {
    "M1": (np.array([10.0, -4.0, 16.0, 1.0, -3.0]) / 20.0, (0.5, 1.0, 1.0, 1.0, 1.0),
           (1.0, 0.0, 0.0, -0.5, -0.75)),
    "M2": (np.array([2.5, 1.0, 4.0, -0.25, 0.75]) / 10.0, (0.5, 1.0, 1.0, 1.0, 1.0),
           (0.75, 0.0, 0.0, -0.75, 0.0)),
    "M3": (np.array([2.5, 1.0, 4.0, 0.25, 0.75]) / 10.0, (1.0,) * 5, (0.0,) * 5),
}
MODEL_IDS = (*SHIFT_MODELS, "M4")
MODEL_KINDS = ("gbm", "logistic")  # TrainedModel's kinds, offered by `train --kind`
MAX_LEAVES = 64  # one bit per leaf in a uint64 mask
PASS_ROWS = 1 << 13  # rows, or (row, background row) pairs, scored or ORed per pass
EXIT_BYTES = 1 << 16  # bytes of masks per in-place pass of _exit_leaf


@dataclass(frozen=True)
class SyntheticSpec:
    model_id: str
    n_rows: int
    p_protected: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.model_id not in MODEL_IDS:
            raise ValueError(f"unknown model id '{self.model_id}'")
        if self.n_rows < 1:
            raise ValueError("n_rows must be >= 1")
        if not 0.0 < self.p_protected < 1.0:
            raise ValueError("p_protected must lie in (0, 1)")


def _repeated_name(names):
    """The first name that ``names`` holds a second time, or None."""
    return next((name for k, name in enumerate(names) if name in names[:k]), None)


@dataclass(frozen=True)
class Dataset:
    x: np.ndarray  # (n, p)
    g: np.ndarray  # (n,) protected attribute, 0 = non-protected
    y: np.ndarray  # (n,) binary response
    feature_names: tuple[str, ...]

    def __post_init__(self):
        if (name := _repeated_name((*self.feature_names, "g", "y"))) is not None:
            raise ValueError(f"dataset names column '{name}' twice")

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def columns(self) -> dict:
        cols = {name: self.x[:, i] for i, name in enumerate(self.feature_names)}
        cols["g"] = self.g
        cols["y"] = self.y
        return cols

    def subset(self, idx) -> "Dataset":
        return Dataset(x=self.x[idx], g=self.g[idx], y=self.y[idx],
                       feature_names=self.feature_names)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(self.feature_names) + ["g", "y"])
            for i in range(self.n_rows):
                writer.writerow([repr(float(v)) for v in self.x[i]]
                                + [int(self.g[i]), int(self.y[i])])

    @staticmethod
    def from_csv(path) -> "Dataset":
        """A header ending in g,y, then rows in ``np.loadtxt``'s number grammar."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])  # an empty file has no header
            if header[-2:] != ["g", "y"]:
                raise ValueError("dataset CSV must start with a header ending in columns g,y")
            if (name := _repeated_name(header)) is not None:
                raise ValueError(f"dataset CSV header names column '{name}' twice")
            read = [reader.line_num]  # the last line loadtxt took: it takes one at a time
            body = (line for read[0], line in enumerate(fh, read[0] + 1))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # no rows: reported below
                    data = np.loadtxt(body, delimiter=",", comments=None, quotechar='"',
                                      ndmin=2, dtype=float)
            except ValueError as exc:  # loadtxt counts data rows; name the file line
                message = re.sub(r"at row \d+(;.*)?", f"at line {read[0]}", str(exc))
                raise ValueError(message) from None
        if data.size == 0:
            raise ValueError("dataset CSV has no rows")
        if data.shape[1] != len(header):
            raise ValueError("every row of a dataset CSV must have as many cells as its header")
        binary_labels(data[:, -2:], "dataset CSV columns g and y must hold 0 or 1")
        return Dataset(x=data[:, :-2], g=data[:, -2].astype(int),
                       y=data[:, -1].astype(int), feature_names=tuple(header[:-2]))


def split_dataset(data: Dataset, fractions=(0.5, 0.25, 0.25), seed: int = 0):
    """Disjoint shuffled splits covering the whole dataset."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(data.n_rows)
    bounds = np.cumsum([int(round(f * data.n_rows)) for f in fractions[:-1]])
    parts = np.split(order, bounds)
    return tuple(data.subset(np.sort(p)) for p in parts)


def _sample_skew_normal(rng, xi: float, omega: float, alpha: float, n: int) -> np.ndarray:
    """Skew-normal draws via the bivariate-normal representation."""
    delta = alpha / np.hypot(1.0, alpha)
    u0 = rng.standard_normal(n)
    u1 = rng.standard_normal(n)
    z = delta * np.abs(u0) + np.sqrt(1.0 - delta * delta) * u1
    return xi + omega * z


def _draw_protected(rng, n: int, p: float) -> np.ndarray:
    g = (rng.random(n) < p).astype(int)
    if n >= 2 and g.min() == g.max():
        # hard guarantee that both classes are present
        g[rng.integers(n)] = 1 - g[0]
    return g


def generate(spec: SyntheticSpec) -> Dataset:
    """Generate one synthetic dataset; identical specs give identical data."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_rows
    mu = 5.0
    g = _draw_protected(rng, n, spec.p_protected)
    shift = 1 - g  # class G=0 receives the mean shift

    if spec.model_id in SHIFT_MODELS:
        a, var_base, var_per_g = SHIFT_MODELS[spec.model_id]
        x = np.column_stack([
            mu - a[i] * shift + np.sqrt(var_base[i] + var_per_g[i] * g) * rng.standard_normal(n)
            for i in range(5)])
        slope, center = 2.0, 24.5
    else:
        # M4: local mixture replacements on X1, X3 for the non-protected
        # class; tail events of independent gate variables select skewed
        # replacement draws.
        s = 1.6
        z0 = mu + np.sqrt(1.25) * rng.standard_normal(n)
        z1 = mu + np.sqrt(2.0) * rng.standard_normal(n)
        z3 = mu + rng.standard_normal(n)
        z2 = _sample_skew_normal(rng, xi=mu - 1.5, omega=2.4, alpha=8.0, n=n)
        z4 = _sample_skew_normal(rng, xi=mu + 1.5, omega=2.4, alpha=-1.0, n=n)
        gate1 = ((z0 > mu + s) | (z0 < mu - s)) & (shift == 1)
        gate3 = ((z3 > mu + s) | (z3 < mu - s)) & (shift == 1)
        x1 = z1 + (z2 - z1) * gate1
        x3 = z1 + (z4 - z1) * gate3
        x2 = mu - 0.6 * shift + rng.standard_normal(n)
        x4 = mu + 0.15 * shift + np.sqrt(1.25 - 0.75 * g) * rng.standard_normal(n)
        x5 = mu - 0.45 * shift + rng.standard_normal(n)
        x = np.column_stack([x1, x2, x3, x4, x5])
        slope, center = 1.5, 24.0

    probs = sigmoid(slope * (x.sum(axis=1) - center))
    y = (rng.random(n) < probs).astype(int)
    names = tuple(f"x{i + 1}" for i in range(x.shape[1]))
    return Dataset(x=x, g=g, y=y, feature_names=names)


@dataclass(frozen=True)
class GbmConfig:
    n_estimators: int = 150
    max_leaves: int = 8
    max_depth: int = 3
    learning_rate: float = 0.1
    min_samples_leaf: int = 50

    def __post_init__(self):
        if self.n_estimators < 1 or self.max_leaves < 2 or self.max_depth < 1:
            raise ValueError("invalid GBM configuration")
        if self.max_leaves > MAX_LEAVES:
            raise ValueError(f"max_leaves must be <= {MAX_LEAVES}")
        if not 0 < self.learning_rate < np.inf:  # NaN fails both
            raise ValueError("learning rate must be positive and finite")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


_TREE_FIELDS = (("feature", int), ("threshold", float), ("left", int), ("right", int),
                ("value", float))
@dataclass
class _Tree:
    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray  # a row goes left when x[feature] <= threshold
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        if not (self.feature.shape == self.threshold.shape == self.left.shape
                == self.right.shape == self.value.shape):
            raise ValueError("tree node arrays differ in length")

    def to_dict(self) -> dict:
        return {key: getattr(self, key).tolist() for key, _ in _TREE_FIELDS}

    @staticmethod
    def from_dicts(dicts) -> tuple:
        """Trees from ``to_dict`` forms, each field decoded for all at once."""
        columns = []
        for key, dtype in _TREE_FIELDS:
            lists = json_field([d[key] for d in dicts], [list], f"tree field '{key}'")
            flat = json_field([v for vs in lists for v in vs], [dtype], f"tree field '{key}'")
            stops = list(itertools.accumulate(map(len, lists)))
            columns.append([flat[a:b] for a, b in zip([0] + stops, stops)])
        return tuple(_Tree(*fields) for fields in zip(*columns))


def _lay_out(feature, left, right, start, size):
    """Leaves left to right, internal nodes in order, and each one's left-subtree
    leaf bits, of the tree at ``start:start + size`` in the lists.  Raises
    unless every node reached from the root lies in the tree, reached once."""
    leaves, nodes, bits, seen = [], [], [], [False] * size
    stack = [(0, None)]  # (node, (parent, first leaf of its left subtree) if a right child)
    while stack:
        node, parent = stack.pop()
        if not 0 <= node < size:
            raise ValueError(f"a tree refers to node {node}, outside its {size} nodes")
        if seen[node]:
            raise ValueError(f"a tree reaches node {node} twice from its root")
        seen[node] = True
        if parent is not None:  # the parent's left subtree is laid out
            nodes.append(parent[0])
            bits.append((1 << len(leaves)) - (1 << parent[1]))
        node += start
        if feature[node] < 0:
            leaves.append(node)
        else:
            stack += ((right[node], (node, len(leaves))), (left[node], None))
    return leaves, nodes, bits


@dataclass(frozen=True)
class _PackedTrees:
    """An ensemble in the layout of the bitvector prediction kernel.

    Node ``k`` of tree ``t`` sits at ``[k, t]``; trees with fewer internal
    nodes are padded with nodes that clear nothing.  Leaf ``j`` of a tree owns
    bit ``j`` of its mask, leaves numbered left to right.  Features are the
    input columns the trees split on, in ascending order, so no structure is
    sized by the largest column index.
    """

    columns: tuple          # per feature, its input column
    thresholds: tuple       # per feature, the sorted unique split thresholds
    feature: np.ndarray     # (nodes, trees) feature of the node
    rank: np.ndarray        # (nodes, trees) index of its threshold in thresholds
    clear: np.ndarray       # (nodes, trees) bits of the leaves of its left subtree
    leaf: np.ndarray        # (trees, leaves) learning_rate * leaf value

    @property
    def width(self) -> int:
        """Columns an input needs: one past the last column split on."""
        return self.columns[-1] + 1 if self.columns else 0

    @staticmethod
    def pack(trees, learning_rate: float) -> "_PackedTrees":
        """The layout of ``trees``, each checked to have at most MAX_LEAVES
        leaves, no NaN split threshold and its nodes reached once at most."""
        feature, threshold, left, right, value = (
            np.concatenate([np.empty(0, dtype)] + [getattr(t, key) for t in trees])
            for key, dtype in _TREE_FIELDS)
        sizes = [t.feature.size for t in trees]
        leaf_counts = np.bincount(np.repeat(np.arange(len(trees)), sizes)[feature < 0])
        if leaf_counts.max(initial=0) > MAX_LEAVES:
            raise ValueError(f"a tree has more than {MAX_LEAVES} leaves")
        if np.any(np.isnan(threshold[feature >= 0])):
            raise ValueError("a tree has a NaN split threshold")
        lists = feature.tolist(), left.tolist(), right.tolist()
        layouts = [_lay_out(*lists, start, size)
                   for start, size in zip(itertools.accumulate([0] + sizes), sizes)]
        # one stable sort groups the split nodes by feature, each group in model order
        nodes = np.flatnonzero(feature >= 0)
        columns, local = np.unique(feature[nodes], return_inverse=True)
        by_feature = nodes[np.argsort(local, kind="stable")]
        feature_of, rank_of = (np.zeros(feature.size, dtype=np.intp) for _ in range(2))
        feature_of[nodes] = local
        counts = np.bincount(local, minlength=columns.size)
        thresholds = []
        for stop, count in zip(np.cumsum(counts).tolist(), counts.tolist()):
            on_f = by_feature[stop - count:stop]
            thresholds.append(np.unique(threshold[on_f]))
            rank_of[on_f] = np.searchsorted(thresholds[-1], threshold[on_f])
        # codes run from 0 to the threshold count; size them to it so they never wrap
        code_dtype = np.min_scalar_type(max((th.size for th in thresholds), default=0))
        n_leaves = max((len(layout[0]) for layout in layouts), default=1)
        n_nodes = max((len(layout[1]) for layout in layouts), default=0)
        mask_dtype = np.min_scalar_type((1 << n_leaves) - 1)
        # (position, tree, node) of each internal node and of each leaf in its tree's order
        splits, cells = ([(k, t, node) for t, layout in enumerate(layouts)
                          for k, node in enumerate(layout[part])] for part in (1, 0))
        k, t, node = np.array(splits, dtype=np.intp).reshape(-1, 3).T
        split_feature, rank, clear = (np.zeros((n_nodes, len(trees)), dtype=dtype)
                                      for dtype in (np.intp, code_dtype, mask_dtype))
        split_feature[k, t], rank[k, t] = feature_of[node], rank_of[node]
        clear[k, t] = np.array([b for layout in layouts for b in layout[2]], dtype=mask_dtype)
        j, t, node = np.array(cells, dtype=np.intp).reshape(-1, 3).T
        leaf = np.zeros((len(trees), n_leaves))
        leaf[t, j] = learning_rate * value[node]
        return _PackedTrees(tuple(columns.tolist()), tuple(thresholds), split_feature, rank,
                            clear, leaf)

    def on_columns(self, columns) -> np.ndarray:
        """A flag per feature: whether its input column is one of ``columns``."""
        columns = set(columns)
        return np.array([c in columns for c in self.columns], dtype=bool)

    def codes(self, x: np.ndarray, features=None) -> np.ndarray:
        """(features, rows) rank of each row's value among each feature's
        split thresholds, for the features flagged in ``features`` (a boolean
        per feature; every feature when None) and 0 for the others.

        ``x <= threshold`` holds exactly when the count of the feature's
        thresholds below x is at most the threshold's rank, so ties go left,
        and NaN sorts last and goes right.
        """
        if x.ndim != 2 or x.shape[1] < self.width:
            raise ValueError(f"the model splits on {self.width} columns; "
                             f"the input has shape {x.shape}")
        codes = np.zeros((len(self.thresholds), x.shape[0]), dtype=self.rank.dtype)
        for f, (column, th) in enumerate(zip(self.columns, self.thresholds)):
            if features is None or features[f]:
                codes[f] = np.searchsorted(th, x[:, column])
        return codes

    def nodes(self, features=None) -> list:
        """Per node position, ``(trees, feature, rank, bits)`` of the nodes
        there: in every tree (``trees`` a full slice) when ``features`` is
        None, else in the trees whose node splits on a feature flagged in
        ``features``, positions with none left out."""
        positions = []
        for feature, rank, clear in zip(self.feature, self.rank, self.clear):
            trees = (slice(None) if features is None
                     else np.flatnonzero(features[feature] & (clear != 0)))
            if features is None or trees.size:
                positions.append((trees, feature[trees], rank[trees, None], clear[trees, None]))
        return positions

    def cleared(self, codes: np.ndarray, nodes=None) -> np.ndarray:
        """(trees, rows) masks of the rows of ``codes``: the leaf bits of the
        ``nodes`` (every node when None) whose test each row fails, ORed into
        new zeros PASS_ROWS rows at a time.

        A row cannot exit in the left subtree of a node whose test it fails,
        and every other leaf left of its exit leaf lies in such a subtree: the
        lowest leaf bit that no failed node clears is the exit leaf.  A code
        of 0 fails no node, so the features that ``codes`` leaves at 0 add
        nothing.
        """
        out = np.zeros((self.leaf.shape[0], codes.shape[1]), dtype=self.clear.dtype)
        nodes = self.nodes() if nodes is None else nodes
        for start in range(0, out.shape[1], PASS_ROWS):
            block = slice(start, start + PASS_ROWS)
            for trees, feature, rank, bits in nodes:
                out[trees, block] |= (codes[feature, block] > rank) * bits
        return out

    def raw(self, masks: np.ndarray, init: float) -> np.ndarray:
        """Raw scores of the (trees, ...) ``masks``: ``init`` plus each tree's
        learning_rate times the value of its exit leaf, added tree by tree in
        tree order, so sums match training's.  The masks are overwritten with
        the exit leaves."""
        exit_leaf = _exit_leaf(masks)
        out = np.full(masks.shape[1:], init)
        flat = out.reshape(-1)
        for leaf, exits in zip(self.leaf, exit_leaf.reshape(len(exit_leaf), flat.size)):
            flat += leaf.take(exits)
        return out


def _exit_leaf(cleared: np.ndarray) -> np.ndarray:
    """Index of the lowest bit of each mask that is not cleared (the count of
    trailing ones), written over ``cleared`` and returned.

    The masks are taken a few trees at a time, at most EXIT_BYTES (or one
    tree), so the one temporary stays cache-sized and is allocated once per
    call.
    """
    step = max(1, EXIT_BYTES // max(1, cleared[:1].nbytes))
    ones = np.empty_like(cleared[:step])
    for start in range(0, cleared.shape[0], step):
        c = cleared[start:start + step]
        t = ones[:c.shape[0]]
        np.invert(np.add(c, 1, out=t), out=t)
        np.bitwise_count(np.bitwise_and(c, t, out=c), out=c)
    return cleared


def _sorted_columns(xt, order, min_leaf, cs, invalid):
    """Into ``cs`` each feature's values in ``order``, and into ``invalid``
    the cuts inside a run of ties; returns both."""
    n = order.shape[1]
    for j in range(order.shape[0]):  # ids in range; mode "raise" would buffer out
        xt[j].take(order[j], out=cs[j], mode="clip")
    np.logical_not(np.greater(cs[:, min_leaf:n - min_leaf + 1], cs[:, min_leaf - 1:n - min_leaf],
                              out=invalid), out=invalid)
    return cs, invalid


def _best_split(xt, grad, hess, order, totals, min_leaf, work, columns):
    """Exact search over every feature at once; returns (gain, feature,
    threshold).

    ``order`` is the node's (features, rows) slice of the fit's column order:
    its row ``f`` lists the node's rows by ascending ``xt[f]``, ties by row.
    ``totals`` is the node's (gradient, hessian) sums.  ``columns`` is the
    root's ``_sorted_columns``, built once per fit, or None for any other
    node, to build them here.  ``work`` is the fit's scratch, six float
    rows and one flag row of its features times rows; every temporary is a
    contiguous view of it.  Ties are broken deterministically by feature
    index then threshold.
    """
    g_total, h_total = totals
    parent = g_total * g_total / max(h_total, 1e-12)
    best = (0.0, -1, 0.0)
    n_features, n = order.shape
    if n < 2 * min_leaf:
        return best
    # cut c puts sorted positions 0..c left; both sides keep >= min_leaf rows
    cuts = slice(min_leaf - 1, n - min_leaf)
    n_cuts = n - 2 * min_leaf + 1
    floats, flags = work
    cs, gl, hl = (buf[:n_features * n].reshape(n_features, n) for buf in floats[:3])
    gain, gr, hr = (buf[:n_features * n_cuts].reshape(n_features, n_cuts)
                    for buf in floats[3:])
    cs, invalid = columns or _sorted_columns(
        xt, order, min_leaf, cs, flags[:n_features * n_cuts].reshape(n_features, n_cuts))
    grad.take(order, out=gl, mode="clip").cumsum(axis=1, out=gl)
    hess.take(order, out=hl, mode="clip").cumsum(axis=1, out=hl)
    gl, hl = gl[:, cuts], hl[:, cuts]
    # gl * gl / max(hl, 1e-12) + gr * gr / max(hr, 1e-12) - parent, op by op
    np.subtract(g_total, gl, out=gr)
    np.subtract(h_total, hl, out=hr)
    np.divide(np.multiply(gl, gl, out=gain), np.maximum(hl, 1e-12, out=hl), out=gain)
    np.divide(np.multiply(gr, gr, out=gr), np.maximum(hr, 1e-12, out=hr), out=gr)
    np.subtract(np.add(gain, gr, out=gain), parent, out=gain)
    np.copyto(gain, -np.inf, where=invalid)
    picks = gain.argmax(axis=1)
    for j, pick in enumerate(picks.tolist()):
        if gain[j, pick] > best[0] + 1e-12:
            cut = min_leaf - 1 + pick
            lo, hi = float(cs[j, cut]), float(cs[j, cut + 1])
            # the midpoint overflows to inf, or rounds up to hi, near the
            # ends of the float range and between adjacent floats
            mid = 0.5 * (lo + hi)
            best = (float(gain[j, pick]), j, mid if lo <= mid < hi else lo)
    return best


def _grow_tree(xt, order, grad, hess, config: GbmConfig, work, root_columns):
    """Best-first growth honoring depth, leaf-count and leaf-size limits.

    ``order`` is the fit's (features, rows) column order.  Each node sums its
    gradient and hessian once, for its value and its search.  A split cuts
    the node's slice of the order with one mask over row ids, a stable
    partition, so both children's slices stay sorted, but only when the
    children will be searched: not at ``max_depth``, nor after the split that
    fills ``max_leaves`` and so completes the tree.  Returns the tree and,
    per leaf, the training rows it holds and its value.
    """
    nodes = []  # [feature, threshold, left, right, value, rows]; feature -1 marks a leaf
    frontier = []
    n_features, n_rows = xt.shape

    def new_node(rows, sub, depth, columns=None):
        totals = grad[rows].sum(), hess[rows].sum()
        nodes.append([-1, 0.0, -1, -1, -totals[0] / max(totals[1], 1e-12), rows])
        node = len(nodes) - 1
        if sub is not None:
            gain, feat, thr = _best_split(xt, grad, hess, sub, totals,
                                          config.min_samples_leaf, work, columns)
            if feat >= 0:
                frontier.append((gain, node, rows, sub, feat, thr, depth + 1))
        return node

    new_node(np.arange(n_rows), order, 0, root_columns)
    n_leaves = 1
    while frontier and n_leaves < config.max_leaves:
        frontier.sort(key=lambda item: (-item[0], item[1]))
        gain, node, rows, sub, feat, thr, depth = frontier.pop(0)
        goes_left = xt[feat] <= thr
        go_left = goes_left[rows]
        n_leaves += 1
        subs = None, None
        if depth < config.max_depth and n_leaves < config.max_leaves:
            in_left = goes_left[sub]
            subs = sub[in_left].reshape(n_features, -1), sub[~in_left].reshape(n_features, -1)
        nodes[node][:4] = (feat, thr, new_node(rows[go_left], subs[0], depth),
                           new_node(rows[~go_left], subs[1], depth))
    tree = _Tree(*(np.asarray(column, dtype=dtype)
                   for column, (_, dtype) in zip(zip(*nodes), _TREE_FIELDS)))
    return tree, [(rows, value) for feat, _, _, _, value, rows in nodes if feat < 0]


def _probability(raw: np.ndarray) -> np.ndarray:
    p = sigmoid(raw)
    return np.clip(p, PRED_CLAMP, 1.0 - PRED_CLAMP, out=p)


@dataclass(frozen=True)
class TrainedModel:
    """Probability-scoring model: boosted trees or logistic regression."""

    kind: str  # one of MODEL_KINDS
    favorable_sign: int = 1
    init_score: float = 0.0
    learning_rate: float = 0.0
    trees: tuple = field(default=())
    coef: np.ndarray | None = None
    intercept: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind '{self.kind}'")
        if self.kind == "gbm":  # checks the trees and lays them out for the kernel, once
            object.__setattr__(self, "_packed", _PackedTrees.pack(self.trees, self.learning_rate))

    def raw_score(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=float)
        if self.kind != "gbm":
            return self.intercept + x @ self.coef
        packed, out = self._packed, np.empty(x.shape[0])
        codes = packed.codes(x)
        for start in range(0, x.shape[0], PASS_ROWS):  # bounds the (trees, rows) masks
            rows = slice(start, start + PASS_ROWS)
            out[rows] = packed.raw(packed.cleared(codes[:, rows]), self.init_score)
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _probability(self.raw_score(x))

    def coalition_scores(self, x: np.ndarray, background: np.ndarray, subset):
        """Probabilities of the rows that take the columns in ``subset`` from
        a row of ``x`` and the others from a row of ``background`` (gbm only).

        A node on a column in the subset reads only the ``x`` row and any
        other node only the background row, so each side's failed nodes are
        found once per row and a pair's masks are the OR of its two sides.
        Rows of ``x`` with the same threshold codes on the subset score alike,
        so one representative of each is scored.  Returns ``(inverse,
        blocks)``: ``blocks`` yields the (m, b) probabilities of the next m
        representatives against every background row, at most PASS_ROWS
        pairs per block (one representative when b exceeds it), and row ``r``
        of ``x`` scores as representative ``inverse[r]``.  Each probability
        has the bits of ``self`` on the assembled row.
        """
        if self.kind != "gbm":
            raise ValueError("coalition scores are defined for gbm models only")
        packed = self._packed
        in_subset = packed.on_columns(subset)
        x_codes = packed.codes(np.asarray(x, dtype=float), in_subset)
        inverse = np.zeros(x_codes.shape[1], dtype=np.intp)
        for f in np.flatnonzero(in_subset):  # one feature at a time, so keys never overflow
            _, inverse = np.unique(inverse * (packed.thresholds[f].size + 1) + x_codes[f],
                                   return_inverse=True)
        keys = np.zeros((x_codes.shape[0], inverse.max(initial=-1) + 1), dtype=x_codes.dtype)
        keys[:, inverse] = x_codes  # any row with a key represents it
        from_x = packed.cleared(keys)
        from_b = packed.cleared(packed.codes(np.asarray(background, dtype=float), ~in_subset))
        step = max(1, PASS_ROWS // from_b.shape[1])

        def blocks():
            for start in range(0, from_x.shape[1], step):
                masks = from_x[:, start:start + step, None] | from_b[:, None, :]
                yield _probability(packed.raw(masks, self.init_score))

        return inverse, blocks()

    def replaced_scores(self, x: np.ndarray, columns):
        """The model on rows that equal those of ``x`` outside the input
        ``columns`` (gbm only).

        A node on any other column reads the same value of a row in every
        call, so the masks of those nodes are found once.  Returns
        ``score(rows)``: it ranks only the ``columns`` of ``rows`` and ORs in
        the bits of only the nodes on them.  Each probability has the bits of
        ``self`` on ``rows``.
        """
        if self.kind != "gbm":
            raise ValueError("replaced-column scores are defined for gbm models only")
        packed = self._packed
        replaced = packed.on_columns(columns)
        frozen = packed.cleared(packed.codes(np.asarray(x, dtype=float), ~replaced),
                                packed.nodes(~replaced))
        nodes = packed.nodes(replaced)

        def score(rows):
            masks = packed.cleared(packed.codes(np.asarray(rows, dtype=float), replaced), nodes)
            return _probability(packed.raw(np.bitwise_or(masks, frozen, out=masks),
                                           self.init_score))

        return score

    def to_json(self) -> str:
        payload = {"kind": self.kind, "favorable_sign": self.favorable_sign}
        if self.kind == "gbm":
            payload.update({"init_score": self.init_score,
                            "learning_rate": self.learning_rate,
                            "trees": [t.to_dict() for t in self.trees]})
        else:
            payload.update({"coef": self.coef.tolist(), "intercept": self.intercept})
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "TrainedModel":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("a model must be a JSON object")

        def field(key, dtype):
            return json_field(d[key], dtype, f"model field '{key}'")

        if d["kind"] == "gbm":
            sign, init_score, learning_rate = (field("favorable_sign", int),
                                               field("init_score", float),
                                               field("learning_rate", float))
            if not np.isfinite(init_score):
                raise ValueError(f"malformed model: {init_score!r} is not finite "
                                 "in model field 'init_score'")
            if not 0 < learning_rate < np.inf:  # NaN fails both
                raise ValueError(f"malformed model: {learning_rate!r} is not positive and "
                                 "finite in model field 'learning_rate'")
            return TrainedModel(kind="gbm", favorable_sign=sign, init_score=init_score,
                                learning_rate=learning_rate,
                                trees=_Tree.from_dicts(field("trees", [dict])))
        if d["kind"] == "logistic":
            return TrainedModel(kind="logistic", favorable_sign=field("favorable_sign", int),
                                coef=field("coef", [float]), intercept=field("intercept", float))
        raise ValueError(f"unknown model kind '{d['kind']}'")


def _validate_training_labels(y):
    y = binary_labels(y, "y must be binary 0/1")
    if y.min() == y.max():
        raise ValueError("y is single-class; nothing to learn")
    return y


def train_gbm(x, y, config: GbmConfig | None = None,
              favorable_sign: int = 1) -> TrainedModel:
    """Boosted trees on logistic loss; the protected attribute must not be a
    column of x."""
    x = np.asarray(x, dtype=float)
    y = _validate_training_labels(y)
    config = config if config is not None else GbmConfig()
    p_mean = float(np.mean(y))
    init = float(np.log(p_mean / (1.0 - p_mean)))
    z = np.full(x.shape[0], init)
    xt = np.ascontiguousarray(x.T)
    order = np.argsort(xt, axis=1, kind="stable")
    work = np.empty((6, xt.size)), np.empty(xt.size, dtype=bool)  # for _best_split
    # every tree's root holds all rows, so its sorted columns are built once
    n_cuts = max(0, x.shape[0] - 2 * config.min_samples_leaf + 1)
    root = _sorted_columns(xt, order, config.min_samples_leaf, np.empty(xt.shape),
                           np.empty((xt.shape[0], n_cuts), dtype=bool))
    trees = []
    for _ in range(config.n_estimators):
        p = sigmoid(z)
        grad = p - y
        hess = np.maximum(p * (1.0 - p), 1e-12)
        tree, leaves = _grow_tree(xt, order, grad, hess, config, work, root)
        trees.append(tree)
        for rows, value in leaves:
            z[rows] += config.learning_rate * value
    return TrainedModel(kind="gbm", favorable_sign=favorable_sign, init_score=init,
                        learning_rate=config.learning_rate, trees=tuple(trees))


def train_logistic(x, y, favorable_sign: int = 1) -> TrainedModel:
    """Maximum-likelihood logistic regression via Newton iterations."""
    x = np.asarray(x, dtype=float)
    y = _validate_training_labels(y).astype(float)
    beta = newton_logistic(np.column_stack([np.ones(x.shape[0]), x]), y)
    if np.linalg.norm(beta) > SEPARATION_BOUND:
        warnings.warn("logistic training diverged (separation); returning "
                      "bounded coefficients", stacklevel=2)
        beta = beta / np.linalg.norm(beta) * SEPARATION_BOUND
    return TrainedModel(kind="logistic", favorable_sign=favorable_sign,
                        coef=beta[1:].copy(), intercept=float(beta[0]))


def log_loss(y_labels, scores) -> float:
    """Mean binomial deviance of 0/1 labels, with scores clamped away from 0
    and 1, from one log per row: ``-mean(log |s + y - 1|)``, where ``|s +
    y - 1|`` is exactly ``s`` if ``y == 1`` and ``1 - s`` if ``y == 0``.
    That has the bits of ``-mean(y log s + (1 - y) log(1 - s))``, whose
    other term is a signed zero."""
    y = binary_labels(y_labels)
    s = np.clip(np.asarray(scores, dtype=float).ravel(), LOG_LOSS_CLAMP,
                1.0 - LOG_LOSS_CLAMP)
    if y.size != s.size:
        raise ValueError("labels and scores must have the same length")
    y -= 1
    s += y
    np.abs(s, out=s)
    return float(-np.mean(np.log(s, out=s)))
