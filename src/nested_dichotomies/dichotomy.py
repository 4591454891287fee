"""Nested dichotomies: recursive class-set splitting with a binary model
per internal node, and product-rule probability estimates.

Construction walks down from the full class set.  At each internal node
the strategy picks a two-block partition of the node's classes, a binary
model is trained on all of the node's instances relabeled by block, and
the two blocks recurse.  Each node draws randomness from a stream derived
from (seed, root-to-node path), so identical inputs give identical trees
regardless of evaluation order.

A class probability is the product of the branch probabilities along the
root-to-leaf path for that class; the per-class vector always sums to one
because each node's two branch probabilities do.
"""

from __future__ import annotations

import numpy as np

from .data import Batch, Dataset
from .errors import NDError, TrainingError
from .learners import ConstantModel, LearnerParams, fit_binary_model
from .seeds import node_rng
from .selection import SubsetSelector


class NDNode:
    """Either a leaf (single class) or an internal node holding a binary
    model and the two child nodes over its class-subset blocks."""

    __slots__ = ("class_subset", "model", "left", "right")

    def __init__(self, class_subset, model=None, left=None, right=None):
        self.class_subset = tuple(sorted(class_subset))
        self.model = model
        self.left = left
        self.right = right
        if self.is_leaf:
            assert model is None and left is None and right is None
        else:
            assert model is not None and left is not None and right is not None

    @property
    def is_leaf(self) -> bool:
        return len(self.class_subset) == 1


class MultiClassModel:
    """Class picks derived from the subclass's
    ``predict_distribution_batch``; argmax ties go to the lowest class
    index.  Both methods take one row or a 2-D array of rows and return
    one result per row."""

    def predict_distribution_batch(self, rows) -> np.ndarray:
        raise NotImplementedError

    def predict_class_batch(self, rows) -> np.ndarray:
        return np.argmax(self.predict_distribution_batch(rows), axis=1)


class NestedDichotomy(MultiClassModel):
    def __init__(self, root: NDNode, class_names, build_seed: int, strategy_id: str):
        self.root = root
        self.class_names = tuple(class_names)
        self.build_seed = build_seed
        self.strategy_id = strategy_id

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    # -- prediction ----------------------------------------------------

    def predict_distribution_batch(self, rows) -> np.ndarray:
        """Class probabilities of ``rows``, which every node model takes as
        one :class:`Batch`: checked once, and encoded once if any node
        model reads features."""
        batch = Batch.of(rows)
        out = np.zeros((len(batch), self.n_classes))
        # an explicit stack, left subtree first: a recursive closure would be
        # a reference cycle holding ``out`` until the cyclic collector runs
        stack = [(self.root, np.ones(len(batch)))]
        while stack:
            node, mass = stack.pop()
            if node.is_leaf:
                out[:, node.class_subset[0]] = mass
                continue
            p = node.model.predict_prob_batch(batch)
            stack.append((node.right, mass * (1.0 - p)))
            stack.append((node.left, mass * p))
        return out

    # -- inspection ----------------------------------------------------

    def _preorder(self):
        """``(node, path)`` pairs, each node before its left subtree and
        the left subtree before the right; ``path`` holds the branches
        from the root, 0 for left and 1 for right."""
        stack = [(self.root, ())]
        while stack:
            node, path = stack.pop()
            yield node, path
            if not node.is_leaf:
                stack.append((node.right, path + (1,)))
                stack.append((node.left, path + (0,)))

    def internal_nodes(self) -> list[NDNode]:
        return [node for node, _ in self._preorder() if not node.is_leaf]

    def to_text(self) -> str:
        lines = []
        for node, path in self._preorder():
            names = ",".join(self.class_names[c] for c in node.class_subset)
            lines.append("  " * len(path) + f"[{names}]")
        return "\n".join(lines) + "\n"

    def to_model_text(self) -> str:
        """Full line-oriented dump: split structure plus every node model."""
        lines = [f"nested_dichotomy strategy={self.strategy_id} seed={self.build_seed}"]
        lines.append("classes " + ",".join(self.class_names))
        for node, path in self._preorder():
            tag = "".join(map(str, path)) or "root"
            subset = ",".join(str(c) for c in node.class_subset)
            if node.is_leaf:
                lines.append(f"leaf {tag} classes={subset}")
                continue
            lines.append(f"node {tag} classes={subset}")
            lines.extend("  " + line for line in node.model.to_lines())
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        """Graphviz digraph; nodes are numbered in preorder, and each edge
        line follows the whole subtree of its child.  Labels escape ``\\``
        and ``"``, so any class name is read back as written."""
        lines = ["digraph nested_dichotomy {", "  node [shape=ellipse];"]
        ids = {}
        open_edges = []  # (child path, edge line), deepest last
        for i, (node, path) in enumerate(self._preorder()):
            # close the edges into subtrees that this node is outside of
            while open_edges and path[: len(open_edges[-1][0])] != open_edges[-1][0]:
                lines.append(open_edges.pop()[1])
            ids[path] = i
            label = ", ".join(self.class_names[c] for c in node.class_subset)
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{i} [label="{label}"];')
            if path:
                open_edges.append((path, f"  n{ids[path[:-1]]} -> n{i};"))
        lines.extend(line for _, line in reversed(open_edges))
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_nd(
    d: Dataset,
    strategy: SubsetSelector,
    learner: LearnerParams,
    seed: int,
    class_ids=None,
    structure_only: bool = False,
) -> NestedDichotomy:
    """Build one nested dichotomy over ``class_ids`` (default: the classes
    present in ``d``), which must be distinct indices of ``d``'s declared
    classes.

    The structural split is made even when the node's data is missing
    classes of its subset (bootstrap resamples can drop classes): the
    strategy splits any class set (see ``selection``), and a block with no
    instances gets a constant-probability node model at the empirical
    prior.

    ``structure_only`` skips training the final per-node models (constant
    placeholders are stored instead); split selection, and any model it
    needs, runs exactly as usual.  Structure studies over many trees use
    this, since node models never influence the splits.
    """
    present = d.classes_present()
    if class_ids is None:
        class_ids = present
    class_ids = tuple(sorted(class_ids))
    # fewer distinct declared ids than ids: a repeat or an undeclared id
    if len(set(class_ids).intersection(range(d.n_classes))) < len(class_ids):
        raise NDError(f"class ids must be distinct declared class indices, got {class_ids}")
    if len(class_ids) < 2:
        raise NDError(f"need at least 2 classes to build, got {len(class_ids)}")

    def build(subset, node_data: Dataset, path) -> NDNode:
        if len(subset) == 1:
            return NDNode(subset)
        try:
            decision = strategy.select(subset, node_data, learner, node_rng(seed, path))
        except NDError as exc:
            raise TrainingError(subset, exc) from exc
        if structure_only:
            model = ConstantModel(0.5, node_data.layout)
        else:
            model = _node_model(node_data, decision, learner, subset)
        left = build(decision.s1, node_data.restrict_to_classes(decision.s1), path + (0,))
        right = build(decision.s2, node_data.restrict_to_classes(decision.s2), path + (1,))
        return NDNode(subset, model, left, right)

    # datasets are immutable, so the root shares d unless it must drop rows
    # of a present class that class_ids leaves out
    root_data = d if set(present) <= set(class_ids) else d.restrict_to_classes(class_ids)
    root = build(class_ids, root_data, ())
    return NestedDichotomy(root, d.class_names, seed, strategy.strategy_id)


def _node_model(node_data: Dataset, decision, learner, subset):
    """Binary model over the full node data relabeled by block; degenerate
    one-sided nodes get a constant model at the empirical prior."""
    counts = node_data.class_counts()
    w1 = counts[list(decision.s1)].sum()
    w2 = counts[list(decision.s2)].sum()
    if w1 <= 0 or w2 <= 0:
        total = w1 + w2
        prior = w1 / total if total > 0 else 0.5
        return ConstantModel(prior, node_data.layout)
    try:
        return fit_binary_model(node_data.relabel_binary(decision.s1), learner)
    except NDError as exc:
        raise TrainingError(subset, exc) from exc

