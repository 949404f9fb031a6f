"""Synthetic data generators, a small gradient-boosted-tree classifier and a
logistic-regression baseline.

The four generators produce five Gaussian-family predictor columns whose
subpopulation distributions differ by shifts, variances or local mixture
replacements, a protected label G that the models never see, and a Bernoulli
response driven by a logistic function of the predictor sum.  Normal
parameters are (mean, variance).

The boosted-tree classifier minimizes logistic loss with Newton leaf values,
exact split search on sorted columns, and depth/leaf/min-samples limits.  It
is deterministic for a given configuration.  Prediction ranks each input
column once against the model's sorted split thresholds, then finds every
row's exit leaf in all trees at once as the lowest leaf bit that survives the
masks of the nodes whose test fails (QuickScorer; Lucchese et al., SIGIR
2015), and adds the leaf values tree by tree.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .calibrate import sigmoid

LOG_LOSS_CLAMP = 1e-6
PRED_CLAMP = 1e-9
MODEL_IDS = ("M1", "M2", "M3", "M4")
MAX_LEAVES = 64  # one bit per leaf in a uint64 mask
BLOCK_ROWS = 512  # rows per prediction pass; bounds the (trees, rows) temporaries


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


@dataclass(frozen=True)
class Dataset:
    x: np.ndarray  # (n, p)
    g: np.ndarray  # (n,) protected attribute, 0 = non-protected
    y: np.ndarray  # (n,) binary response
    feature_names: tuple[str, ...]

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
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[-2:] != ["g", "y"]:
                raise ValueError("dataset CSV must end with columns g,y")
            names = tuple(header[:-2])
            rows = [[float(v) for v in row] for row in reader if row]
        if not rows:
            raise ValueError("dataset CSV has no rows")
        data = np.asarray(rows, dtype=float)
        return Dataset(x=data[:, :-2], g=data[:, -2].astype(int),
                       y=data[:, -1].astype(int), feature_names=names)


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

    if spec.model_id in ("M1", "M2", "M3"):
        if spec.model_id == "M1":
            a = np.array([10.0, -4.0, 16.0, 1.0, -3.0]) / 20.0
            variances = [0.5 + g, np.ones(n), np.ones(n), 1.0 - 0.5 * g,
                         1.0 - 0.75 * g]
            slope, center = 2.0, 24.5
        elif spec.model_id == "M2":
            a = np.array([2.5, 1.0, 4.0, -0.25, 0.75]) / 10.0
            variances = [0.5 + 0.75 * g, np.ones(n), np.ones(n),
                         1.0 - 0.75 * g, np.ones(n)]
            slope, center = 2.0, 24.5
        else:
            a = np.array([2.5, 1.0, 4.0, 0.25, 0.75]) / 10.0
            variances = [np.ones(n)] * 5
            slope, center = 2.0, 24.5
        cols = []
        for i in range(5):
            sd = np.sqrt(np.asarray(variances[i], dtype=float))
            cols.append(mu - a[i] * shift + sd * rng.standard_normal(n))
        x = np.column_stack(cols)
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
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1 or self.max_leaves < 2 or self.max_depth < 1:
            raise ValueError("invalid GBM configuration")
        if self.max_leaves > MAX_LEAVES:
            raise ValueError(f"max_leaves must be <= {MAX_LEAVES}")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


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
        if np.sum(self.feature < 0) > MAX_LEAVES:
            raise ValueError(f"a tree has more than {MAX_LEAVES} leaves")
        if np.any(np.isnan(self.threshold[self.feature >= 0])):
            raise ValueError("a tree has a NaN split threshold")

    def to_dict(self) -> dict:
        return {"feature": self.feature.tolist(),
                "threshold": self.threshold.tolist(),
                "left": self.left.tolist(), "right": self.right.tolist(),
                "value": self.value.tolist()}

    @staticmethod
    def from_dict(d) -> "_Tree":
        return _Tree(feature=np.asarray(d["feature"], dtype=int),
                     threshold=np.asarray(d["threshold"], dtype=float),
                     left=np.asarray(d["left"], dtype=int),
                     right=np.asarray(d["right"], dtype=int),
                     value=np.asarray(d["value"], dtype=float))

    def leaves_in_order(self):
        """Leaves left to right, and each internal node with the range of
        leaf positions its left subtree covers, as (node, first, stop)."""
        leaves, splits = [], []

        def walk(node):
            if self.feature[node] < 0:
                leaves.append(node)
                return
            first = len(leaves)
            walk(self.left[node])
            splits.append((node, first, len(leaves)))
            walk(self.right[node])

        walk(0)
        return leaves, splits


@dataclass(frozen=True)
class _PackedTrees:
    """An ensemble in the layout of the bitvector prediction kernel.

    Node ``k`` of tree ``t`` sits at ``[k, t]``; trees with fewer internal
    nodes are padded with nodes that clear nothing.  Leaf ``j`` of a tree owns
    bit ``j`` of its mask, leaves numbered left to right.
    """

    thresholds: tuple       # per feature, the sorted unique split thresholds
    feature: np.ndarray     # (nodes, trees) feature of the node
    rank: np.ndarray        # (nodes, trees) index of its threshold in thresholds
    clear: np.ndarray       # (nodes, trees) bits of the leaves of its left subtree
    leaf: np.ndarray        # (trees, leaves) learning_rate * leaf value

    @staticmethod
    def pack(trees, learning_rate: float) -> "_PackedTrees":
        n_features = max((int(t.feature.max()) + 1 for t in trees), default=0)
        thresholds = tuple(
            np.unique(np.concatenate([t.threshold[t.feature == f] for t in trees]))
            for f in range(n_features))
        # codes run from 0 to the threshold count; size them to it so they never wrap
        code_dtype = np.min_scalar_type(max((th.size for th in thresholds), default=0))
        layouts = [t.leaves_in_order() for t in trees]
        n_leaves = max((len(leaves) for leaves, _ in layouts), default=1)
        n_nodes = max((len(splits) for _, splits in layouts), default=0)
        mask_dtype = np.min_scalar_type((1 << n_leaves) - 1)
        feature = np.zeros((n_nodes, len(trees)), dtype=np.intp)
        rank = np.zeros((n_nodes, len(trees)), dtype=code_dtype)
        clear = np.zeros((n_nodes, len(trees)), dtype=mask_dtype)
        leaf = np.zeros((len(trees), n_leaves))
        for t, (tree, (leaves, splits)) in enumerate(zip(trees, layouts)):
            leaf[t, :len(leaves)] = learning_rate * tree.value[leaves]
            for k, (node, first, stop) in enumerate(splits):
                f = int(tree.feature[node])
                feature[k, t] = f
                rank[k, t] = np.searchsorted(thresholds[f], tree.threshold[node])
                clear[k, t] = (1 << stop) - (1 << first)
        return _PackedTrees(thresholds, feature, rank, clear, leaf)

    def terms(self, x: np.ndarray):
        """Per block of at most BLOCK_ROWS rows of ``x``: the block's row
        slice and the (trees, rows) learning_rate times the value of each
        row's exit leaf.

        Each feature column is ranked once: ``x <= threshold`` holds exactly
        when the count of the feature's thresholds below x is at most the
        threshold's rank, so ties go left, and NaN sorts last and goes right.
        A row cannot exit in the left subtree of a node whose test it fails,
        and every other leaf left of its exit leaf lies in such a subtree: the
        lowest leaf bit that no failed node clears is the exit leaf.
        """
        codes = np.empty((len(self.thresholds), x.shape[0]), dtype=self.rank.dtype)
        for f, th in enumerate(self.thresholds):
            codes[f] = np.searchsorted(th, x[:, f])
        trees = np.arange(self.leaf.shape[0])[:, None]
        for start in range(0, x.shape[0], BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            block = codes[:, rows]
            cleared = np.zeros((self.leaf.shape[0], block.shape[1]), dtype=self.clear.dtype)
            for feature, rank, clear in zip(self.feature, self.rank, self.clear):
                cleared |= (block[feature] > rank[:, None]) * clear[:, None]
            exit_leaf = np.bitwise_count(cleared & ~(cleared + 1))  # trailing ones
            yield rows, self.leaf[trees, exit_leaf]


def _best_split(x, grad, hess, rows, min_leaf):
    """Exact search over sorted columns; returns (gain, feature, threshold).

    Ties are broken deterministically by feature index then threshold.
    """
    g_total = grad[rows].sum()
    h_total = hess[rows].sum()
    parent = g_total * g_total / max(h_total, 1e-12)
    best = (0.0, -1, 0.0)
    for j in range(x.shape[1]):
        col = x[rows, j]
        order = np.argsort(col, kind="stable")
        cs = col[order]
        gs = np.cumsum(grad[rows][order])
        hs = np.cumsum(hess[rows][order])
        n = rows.size
        k = np.arange(1, n)
        valid = (cs[1:] > cs[:-1]) & (k >= min_leaf) & (n - k >= min_leaf)
        if not np.any(valid):
            continue
        gl, hl = gs[:-1][valid], hs[:-1][valid]
        gr, hr = g_total - gl, h_total - hl
        gain = (gl * gl / np.maximum(hl, 1e-12)
                + gr * gr / np.maximum(hr, 1e-12) - parent)
        pick = int(np.argmax(gain))
        if gain[pick] > best[0] + 1e-12:
            cut = np.flatnonzero(valid)[pick]
            best = (float(gain[pick]), j, float(0.5 * (cs[cut] + cs[cut + 1])))
    return best


def _grow_tree(x, grad, hess, config: GbmConfig):
    """Best-first growth honoring depth, leaf-count and leaf-size limits.

    Returns the tree and, per leaf, the training rows it holds and its value.
    """
    feature, threshold, left, right, value = [], [], [], [], []
    node_rows = {}

    def new_node(rows):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(-grad[rows].sum() / max(hess[rows].sum(), 1e-12))
        node_rows[len(feature) - 1] = rows
        return len(feature) - 1

    root_rows = np.arange(x.shape[0])
    root = new_node(root_rows)
    frontier = []
    if config.max_depth >= 1:
        gain, feat, thr = _best_split(x, grad, hess, root_rows, config.min_samples_leaf)
        if feat >= 0:
            frontier.append((gain, root, root_rows, feat, thr, 1))
    n_leaves = 1
    while frontier and n_leaves < config.max_leaves:
        frontier.sort(key=lambda item: (-item[0], item[1]))
        gain, node, rows, feat, thr, depth = frontier.pop(0)
        go_left = x[rows, feat] <= thr
        rows_l, rows_r = rows[go_left], rows[~go_left]
        feature[node], threshold[node] = feat, thr
        left[node] = new_node(rows_l)
        right[node] = new_node(rows_r)
        n_leaves += 1
        for child_rows, child in ((rows_l, left[node]), (rows_r, right[node])):
            if depth < config.max_depth:
                c_gain, c_feat, c_thr = _best_split(x, grad, hess, child_rows,
                                                    config.min_samples_leaf)
                if c_feat >= 0:
                    frontier.append((c_gain, child, child_rows, c_feat, c_thr,
                                     depth + 1))
    tree = _Tree(feature=np.asarray(feature, dtype=int),
                 threshold=np.asarray(threshold, dtype=float),
                 left=np.asarray(left, dtype=int),
                 right=np.asarray(right, dtype=int),
                 value=np.asarray(value, dtype=float))
    return tree, [(node_rows[nd], tree.value[nd]) for nd in node_rows
                  if tree.feature[nd] < 0]


@dataclass(frozen=True)
class TrainedModel:
    """Probability-scoring model: boosted trees or logistic regression."""

    kind: str  # gbm | logistic
    favorable_sign: int = 1
    init_score: float = 0.0
    learning_rate: float = 0.0
    trees: tuple = field(default=())
    coef: np.ndarray | None = None
    intercept: float = 0.0

    @property
    def _packed(self) -> _PackedTrees:
        packed = self.__dict__.get("_packed_cache")
        if packed is None:
            packed = _PackedTrees.pack(self.trees, self.learning_rate)
            object.__setattr__(self, "_packed_cache", packed)
        return packed

    def raw_score(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=float)
        if self.kind != "gbm":
            return self.intercept + x @ self.coef
        out = np.full(x.shape[0], self.init_score)
        for rows, terms in self._packed.terms(x):
            block = out[rows]
            for term in terms:  # in tree order, so sums match training's
                block += term
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.clip(sigmoid(self.raw_score(x)), PRED_CLAMP, 1.0 - PRED_CLAMP)

    predict = __call__

    def staged_scores(self, x: np.ndarray):
        """Probability predictions after each boosting round (gbm only)."""
        if self.kind != "gbm":
            raise ValueError("staged scores are defined for gbm models only")
        x = np.asarray(x, dtype=float)
        terms = np.empty((len(self.trees), x.shape[0]))
        for rows, block in self._packed.terms(x):
            terms[:, rows] = block
        z = np.full(x.shape[0], self.init_score)
        for term in terms:
            z = z + term
            yield np.clip(sigmoid(z), PRED_CLAMP, 1.0 - PRED_CLAMP)

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
        if d["kind"] == "gbm":
            return TrainedModel(kind="gbm", favorable_sign=int(d["favorable_sign"]),
                                init_score=float(d["init_score"]),
                                learning_rate=float(d["learning_rate"]),
                                trees=tuple(_Tree.from_dict(t) for t in d["trees"]))
        if d["kind"] == "logistic":
            return TrainedModel(kind="logistic",
                                favorable_sign=int(d["favorable_sign"]),
                                coef=np.asarray(d["coef"], dtype=float),
                                intercept=float(d["intercept"]))
        raise ValueError(f"unknown model kind '{d['kind']}'")


def _validate_training_labels(y):
    y = np.asarray(y).ravel().astype(int)
    if not np.all(np.isin(y, (0, 1))):
        raise ValueError("y must be binary 0/1")
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
    trees = []
    for _ in range(config.n_estimators):
        p = sigmoid(z)
        grad = p - y
        hess = np.maximum(p * (1.0 - p), 1e-12)
        tree, leaves = _grow_tree(x, grad, hess, config)
        trees.append(tree)
        for rows, value in leaves:
            z[rows] += config.learning_rate * value
    return TrainedModel(kind="gbm", favorable_sign=favorable_sign, init_score=init,
                        learning_rate=config.learning_rate, trees=tuple(trees))


def train_logistic(x, y, favorable_sign: int = 1, tol: float = 1e-8,
                   max_iter: int = 100) -> TrainedModel:
    """Maximum-likelihood logistic regression via Newton iterations."""
    x = np.asarray(x, dtype=float)
    y = _validate_training_labels(y).astype(float)
    design = np.column_stack([np.ones(x.shape[0]), x])
    beta = np.zeros(design.shape[1])
    for _ in range(max_iter):
        p = sigmoid(design @ beta)
        grad = design.T @ (p - y)
        if np.linalg.norm(grad) <= tol:
            break
        w = np.maximum(p * (1.0 - p), 1e-12)
        hess = design.T @ (design * w[:, None])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.pinv(hess) @ grad
        beta = beta - step
        if np.linalg.norm(beta) > 1e4:
            warnings.warn("logistic training diverged (separation); returning "
                          "bounded coefficients", stacklevel=2)
            beta = beta / np.linalg.norm(beta) * 1e4
            break
    return TrainedModel(kind="logistic", favorable_sign=favorable_sign,
                        coef=beta[1:].copy(), intercept=float(beta[0]))


def log_loss(y_labels, scores) -> float:
    """Mean binomial deviance with scores clamped away from 0 and 1."""
    y = np.asarray(y_labels, dtype=float).ravel()
    s = np.clip(np.asarray(scores, dtype=float).ravel(), LOG_LOSS_CLAMP,
                1.0 - LOG_LOSS_CLAMP)
    if y.size != s.size:
        raise ValueError("labels and scores must have the same length")
    return float(-np.mean(y * np.log(s) + (1.0 - y) * np.log(1.0 - s)))
