"""Straightforward references for the transition system and the ISR maps.

``ajparse`` runs every action, the oracle, sequence replay and ISR
translation on an open rightmost chain. These are the straightforward
versions that rebuild the changed chain ancestors after every action;
property tests require the two to agree. The same holds for ``phi``, whose
reduce is one pass in ``ajparse``, and ``gamma``: the version here reduces at
the topmost projection until none is left, and the one here returns the
stack with a count of every leaf of the tree, which the tests compare with
the leaves of ``gamma``'s stack. ``decode_beam`` scores
each step as a list of floats, breaks ties on the action index and builds
actions only for the beam's members; ``reference_decode_beam`` builds every
legal action of every item and sorts them, breaking ties on the action's
fields. The perceptron keeps the weights of all three factors as one row
per feature; ``reference_train`` and the decoder here keep target weights
in a dict keyed by feature and label weights in dicts keyed by
``(feature, label)``. A label row holds only the slots that updates have
touched, and label scores add those entries feature by feature;
``ReferenceAveragedRows`` keeps ``width`` weights per row and
``reference_label_scores`` adds whole rows. The predictor's parser state
is an open chain of frames in training and decoding; the trainer and
decoder here build a tree per step with ``apply_action`` and read their
features off its rightmost chain. ``load_corpus`` reads a file in one scan and builds
each node, normalized, as its bracket closes; ``reference_load_corpus``
splits the file into entries, tokenizes and parses each, checks its labels
and then normalizes the whole tree. ``legal_actions`` maps each index of the
action space to its action; ``reference_legal_actions`` lists the actions
by nested loops over depths and labels. ``extract_brackets`` splits each
collapsed label once as it folds the tree; ``reference_extract_brackets``
restores the unary chains as a new tree and then folds that, numbering the
leaves with a count of its own.
``enumerate_legal_stacks`` searches depth-first and removes duplicate stacks
by a tuple of strings per stack; ``reference_enumerate_legal_stacks``
searches breadth-first, removes duplicates by the stacks themselves and
yields each with the number of shifts on the path that reached it.
``score`` reads the gold and predicted trees in lockstep and holds an error
raised reading the predicted side until gold has been read;
``reference_score`` takes gold as a list and reads the predicted side after it.
``reference_restore_unary_chains`` expands collapsed labels back into unary
chains, the inverse the collapse round-trips compare against.
``node_equal`` compares two trees as tuples first and walks them only when
that compare says False or runs out of recursion; ``reference_node_equal``
always walks. The module also holds the baseline the predictor must beat
(``majority_label`` and ``decode_right_branching``) and ``write_corpus``,
which writes trees one bracketed line each.
"""

import math
import random
import sys
from collections import Counter, deque
from operator import add
from typing import Optional

from ajparse.exhaustive import EXTRA_INTERNAL, _token
from ajparse.isr import (
    EMPTY_STACK,
    REDUCE,
    SHIFT,
    IllegalStackError,
    is_legal_stack,
    isr_apply,
    project,
    translate_action,
)
from ajparse.oracle import oracle_action_sequence
from ajparse.predictor import _NONE_KEY, _node_tag, collect_labels
from ajparse.scoring import ScoreReport, _sentence_brackets
from ajparse.transition import (
    INITIAL_STATE,
    IllegalActionError,
    action_kind,
    apply_action,
    apply_sequence,
    attach,
    juxtapose,
)
from ajparse.tree import (
    LABEL_SEPARATOR,
    ConstituencyTree,
    Internal,
    LabelFormatError,
    Leaf,
    Token,
    collapsed_node,
    fold,
    iter_leaves,
    iter_nodes,
    rightmost_chain,
)
from ajparse.treebank import (
    CorpusEntry, DegenerateSentenceError, TreebankFormatError, tokens_of, write_bracketed,
)


def replace_on_rightmost_chain(chain: list, depth: int, new_node) -> Internal:
    """Rebuild the tree with ``chain[depth]`` replaced by ``new_node``;
    ancestors above ``depth`` are recreated with their last child swapped."""
    node = new_node
    for d in range(depth - 1, -1, -1):
        parent = chain[d]
        node = Internal(parent.label, parent.children[:-1] + (node,))
    return node


def reference_legal_actions(state, label_vocabulary) -> list:
    """The action space by nested loops. Empty tree: attach(0, X) for each
    label X. Otherwise, for each depth d on the chain and each p in None +
    sorted(V): attach(d, p), then juxtapose(d, p, q) for each q in sorted(V)."""
    labels = sorted(label_vocabulary)
    if state.root is None:
        return [attach(0, lbl) for lbl in labels]
    actions = []
    for d in range(len(rightmost_chain(state))):
        for p in [None] + labels:
            actions.append(attach(d, p))
            actions += [juxtapose(d, p, q) for q in labels]
    return actions


def reference_restore_unary_chains(tree: ConstituencyTree) -> ConstituencyTree:
    """Expand each separator-joined label into a descending chain of new
    nodes."""

    def expand(node, children: list) -> Internal:
        parts = node.label.split(LABEL_SEPARATOR)
        if any(not p for p in parts):
            raise LabelFormatError(f"malformed collapsed label: {node.label!r}")
        out = Internal(parts[-1], tuple(children))
        for part in reversed(parts[:-1]):
            out = Internal(part, (out,))
        return out

    if tree.root is None:
        return tree
    return ConstituencyTree(fold(tree.root, lambda leaf: leaf, expand))


def reference_has_unary_chains(tree: ConstituencyTree) -> bool:
    """Whether some internal node's only child is internal, over
    ``iter_nodes``."""
    return any(
        isinstance(node, Internal)
        and len(node.children) == 1
        and isinstance(node.children[0], Internal)
        for node in iter_nodes(tree.root)
    )


def reference_node_equal(a, b) -> bool:
    """Tree equality by one pairwise pre-order walk, POS tags counting only
    when both sides carry them."""
    if a is None or b is None:
        return a is None and b is None
    for x, y in zip(iter_nodes(a), iter_nodes(b)):
        if isinstance(x, Leaf) != isinstance(y, Leaf):
            return False
        if isinstance(x, Leaf):
            if x.token.word != y.token.word:
                return False
            if x.token.pos and y.token.pos and x.token.pos != y.token.pos:
                return False
        elif x.label != y.label or len(x.children) != len(y.children):
            return False
    return True


def reference_extract_brackets(tree) -> Counter:
    """One bracket per internal node of the tree with its unary chains
    restored, folded again."""
    brackets = Counter()
    leaves = 0

    def leaf_span(leaf) -> tuple:
        nonlocal leaves
        leaves += 1
        return leaves - 1, leaves - 1

    def span(node, spans: list) -> tuple:
        starts, ends = zip(*spans)
        start, end = min(starts), max(ends)
        brackets[(node.label, start, end)] += 1
        return start, end

    restored = reference_restore_unary_chains(tree)
    if restored.root is not None:
        fold(restored.root, leaf_span, span)
    return brackets


def reference_score(gold: list, predicted) -> ScoreReport:
    """Score ``predicted``, any iterable of trees, against the list ``gold``.

    ``predicted`` is read to its end before a mismatch is raised: an error
    raised while reading it comes first, then a differing sentence count,
    then the first sentence whose words or labels do not fit."""
    matched = gold_total = predicted_total = exact = count = 0
    error = None
    for i, p in enumerate(predicted):
        count = i + 1
        if error is not None or i >= len(gold):
            continue
        try:
            gb, pb = _sentence_brackets(i, gold[i], p)
        except ValueError as err:
            error = err
            continue
        matched += sum((gb & pb).values())
        gold_total += sum(gb.values())
        predicted_total += sum(pb.values())
        if gb == pb:
            exact += 1
    if count != len(gold):
        raise ValueError(f"gold has {len(gold)} sentences but predicted has {count}")
    if error is not None:
        raise error
    lp = 100.0 * matched / predicted_total if predicted_total else 0.0
    lr = 100.0 * matched / gold_total if gold_total else 0.0
    f1 = 2 * lp * lr / (lp + lr) if lp + lr > 0 else 0.0
    em = exact / len(gold) if gold else 0.0
    return ScoreReport(em, f1, lp, lr, matched, gold_total, predicted_total, len(gold))


def reference_apply_action(state, token, action):
    """Execute one action on a persistent tree, rebuilding the target and
    its ancestors, with its own copy of the legality rule."""
    target, parent_label, new_label = action
    leaf = Leaf(token)
    chain = rightmost_chain(state)
    depth = len(chain)
    if depth == 0:
        if new_label is not None or target != 0 or parent_label is None:
            raise IllegalActionError(
                "the empty tree only admits attach(0, <label>)", action
            )
        return ConstituencyTree(Internal(parent_label, (leaf,)))
    if not 0 <= target < depth:
        raise IllegalActionError(
            f"target {target} outside rightmost chain of length {depth}",
            action,
        )
    new_child = leaf if parent_label is None else Internal(parent_label, (leaf,))
    target_node = chain[target]
    if new_label is None:
        replacement = Internal(target_node.label, target_node.children + (new_child,))
    else:
        replacement = Internal(new_label, (target_node, new_child))
    return ConstituencyTree(replace_on_rightmost_chain(chain, target, replacement))


def reference_last_action(root: Internal):
    """Infer the last action of ``root`` and undo it, rebuilding the chain
    ancestors. Returns (action, predecessor root or None, case id)."""
    chain = rightmost_chain(root)
    parent = chain[-1]
    if len(parent.children) > 1:
        branch = "1"
        parent_label = None
        holder_depth = len(chain) - 1  # the last leaf's parent
    else:
        branch = "2"
        parent_label = parent.label
        holder_depth = len(chain) - 2  # the parent's parent

    if holder_depth < 0:
        if branch == "1":
            return attach(0, parent_label), None, "1-1"
        return attach(0, parent_label), None, "2-1"

    holder = chain[holder_depth]
    siblings = holder.children[:-1]
    if len(siblings) == 1 and isinstance(siblings[0], Internal):
        action = juxtapose(holder_depth, parent_label, holder.label)
        new_root = replace_on_rightmost_chain(chain, holder_depth, siblings[0])
        return action, new_root, f"{branch}-2"

    action = attach(holder_depth, parent_label)
    shrunk = Internal(holder.label, siblings)
    new_root = replace_on_rightmost_chain(chain, holder_depth, shrunk)
    return action, new_root, f"{branch}-3"


def reference_oracle(tree, case_tally=None) -> list:
    actions = []
    root = tree.root
    while root is not None:
        action, root, case = reference_last_action(root)
        if case_tally is not None:
            case_tally[case] = case_tally.get(case, 0) + 1
        actions.append(action)
    actions.reverse()
    return actions


def reference_apply_sequence(tokens, actions):
    """Fold ``reference_apply_action`` over the sequence from the empty tree."""
    state = INITIAL_STATE
    for i, (token, action) in enumerate(zip(tokens, actions)):
        try:
            state = reference_apply_action(state, token, action)
        except IllegalActionError as err:
            raise IllegalActionError(err.reason, action, step=i) from err
    return state


def reference_translate_sequence(tokens, actions) -> list:
    """``translate_action`` of every step, then one reduce per chain node."""
    state = INITIAL_STATE
    out = []
    for token, action in zip(tokens, actions):
        out.extend(translate_action(state, action))
        state = reference_apply_action(state, token, action)
    out.extend([REDUCE] * len(rightmost_chain(state)))
    return out


def reference_reduce_fully(elems):
    """Reduce at the topmost projection until none is left; returns the
    final element list, or None when a projection has nothing above it."""
    elems = list(elems)
    while True:
        idx = next(
            (i for i in range(len(elems) - 1, -1, -1) if isinstance(elems[i], str)),
            None,
        )
        if idx is None:
            return elems
        if idx == len(elems) - 1:
            return None
        elems[idx:] = [Internal(elems[idx], tuple(elems[idx + 1 :]))]


def reference_phi(stack):
    final = reference_reduce_fully(stack)
    if final is None or len(final) > 1:
        raise IllegalStackError("phi is only defined on legal stacks")
    n_proj = sum(1 for e in stack if isinstance(e, str))
    root = final[0] if final else None
    return root, n_proj - 1


def reference_gamma(aug):
    """``(gamma(aug), n)``, where ``n`` counts every leaf of ``aug``."""
    root, mark = aug
    elems = []
    node = root
    depth = 0
    if node is not None:
        while isinstance(node, Internal) and depth <= mark:
            elems.append(node.label)
            elems.extend(node.children[:-1])
            node = node.children[-1]
            depth += 1
        elems.append(node)
    return tuple(elems), sum(1 for _ in iter_leaves(root))


def reference_enumerate_legal_stacks(max_tokens: int, labels):
    """Breadth-first search over legal ISR states reachable with at most
    ``max_tokens`` shifts, capping internal-node growth at ``max_tokens +
    EXTRA_INTERNAL`` so the space stays finite (projections can otherwise
    nest without bound). Yields ``(stack, shifts)``, where ``shifts`` counts
    the shifts on the path to the stack, carried in the queue."""
    cap = 2 * max_tokens + EXTRA_INTERNAL
    seen = {EMPTY_STACK}
    # Weight (total node count plus projections) is tracked incrementally:
    # shift and project add one, reduce folds a projection into one node.
    queue = deque([(EMPTY_STACK, 0, 0)])
    yield EMPTY_STACK, 0
    projections = [project(lbl) for lbl in labels]
    tokens = [_token(i) for i in range(max_tokens)]
    while queue:
        stack, weight, shifts = queue.popleft()
        moves = []
        if shifts < max_tokens:
            moves.append((SHIFT, tokens[shifts], weight + 1, shifts + 1))
        for pj in projections:
            moves.append((pj, None, weight + 1, shifts))
        moves.append((REDUCE, None, weight, shifts))
        for action, token, succ_weight, succ_shifts in moves:
            if succ_weight > cap:
                continue
            try:
                succ = isr_apply(stack, action, token)
            except IllegalStackError:
                continue
            if not is_legal_stack(succ):
                continue
            # Tuples do not cache their hash, so membership test and insert
            # in one call: the set grows only for an unseen stack.
            size = len(seen)
            seen.add(succ)
            if len(seen) == size:
                continue
            queue.append((succ, succ_weight, succ_shifts))
            yield succ, succ_shifts


def featurize(chain, token, context, prev_kind: str):
    """The predictor's state features, read off the tree's rightmost chain
    of ``Internal`` nodes instead of the open chain's frames."""
    w = token.word
    p = token.pos or "~"
    depth = len(chain)
    feats = [
        f"w={w}",
        f"p={p}",
        f"w|p={w}|{p}",
        f"len={min(depth, 6)}",
        f"prev={prev_kind}",
    ]
    if not chain:
        feats.append("chain=empty")
    else:
        bottom = chain[-1]
        feats += [
            f"c0={bottom.label}",
            f"c0|w={bottom.label}|{w}",
            f"c0|p={bottom.label}|{p}",
            f"c0.first={_node_tag(bottom.children[0])}",
            f"c0.last={_node_tag(bottom.children[-1])}",
            f"cr={chain[0].label}",
            f"c0.last|p={_node_tag(bottom.children[-1])}|{p}",
        ]
        if depth >= 2:
            feats += [f"c1={chain[-2].label}", f"c1|p={chain[-2].label}|{p}"]
        if depth >= 3:
            feats.append(f"c2={chain[-3].label}")
    for back, tok in enumerate(reversed(context), start=1):
        feats += [f"w-{back}={tok.word}", f"p-{back}={tok.pos or '~'}"]
    return tuple(feats)


def target_features(chain, depth: int, token):
    """The predictor's target features of ``chain[depth]``, an ``Internal``
    node whose last child is read off the node itself."""
    node = chain[depth]
    dist = min(len(chain) - 1 - depth, 4)
    d = min(depth, 4)
    lab = node.label
    p = token.pos or "~"
    return (
        f"t.lab={lab}",
        f"t.dist={dist}",
        f"t.d={d}",
        f"t.lab|p={lab}|{p}",
        f"t.lab|w={lab}|{token.word}",
        f"t.dist|p={dist}|{p}",
        f"t.last={_node_tag(node.children[-1])}",
        f"t.lab|dist={lab}|{dist}",
    )


def teacher_steps(tree):
    """(state, token, context, prev_kind, action) tuples for one gold tree,
    with a tree for each state, built by ``apply_action``."""
    tokens = tokens_of(tree)
    actions = oracle_action_sequence(tree)
    steps = []
    state = INITIAL_STATE
    prev_kind = "none"
    for i, (token, action) in enumerate(zip(tokens, actions)):
        context = tuple(tokens[max(0, i - 2) : i])
        steps.append((state, token, context, prev_kind, action))
        state = apply_action(state, token, action)
        prev_kind = action_kind(action)
    return steps


class _AveragedWeights:
    """Perceptron weights with lazily-updated running averages."""

    def __init__(self):
        self.w = {}
        self._totals = {}
        self._stamps = {}
        self.steps = 0

    def tick(self):
        self.steps += 1

    def update(self, keys, delta: float):
        for k in keys:
            self._totals[k] = self._totals.get(k, 0.0) + (
                self.steps - self._stamps.get(k, 0)
            ) * self.w.get(k, 0.0)
            self._stamps[k] = self.steps
            self.w[k] = self.w.get(k, 0.0) + delta

    def averaged(self) -> dict:
        if self.steps == 0:
            return {}
        out = {}
        for k, v in self.w.items():
            total = self._totals.get(k, 0.0) + (
                self.steps - self._stamps.get(k, 0)
            ) * v
            avg = total / self.steps
            if avg != 0.0:
                out[k] = avg
        return out


class ReferenceAveragedRows:
    """Perceptron weights for one factor with a list of ``width`` weights
    per feature, untouched slots included."""

    def __init__(self, width: int):
        self.width = width
        self.w = {}
        self._totals = {}
        self._stamps = {}
        self.steps = 0

    def tick(self):
        self.steps += 1

    def update(self, feats, slot: int, delta: float):
        for f in feats:
            row = self.w.get(f)
            if row is None:
                row = self.w[f] = [0.0] * self.width
                self._totals[f], self._stamps[f] = [0.0] * self.width, [0] * self.width
            totals, stamps = self._totals[f], self._stamps[f]
            totals[slot] += (self.steps - stamps[slot]) * row[slot]
            stamps[slot] = self.steps
            row[slot] += delta

    def averaged(self) -> dict:
        """Averaged rows; features whose every slot averages to zero are left out."""
        if self.steps == 0:
            return {}
        out = {}
        for f, row in self.w.items():
            avg = [
                (total + (self.steps - stamp) * v) / self.steps
                for v, total, stamp in zip(row, self._totals[f], self._stamps[f])
            ]
            if any(avg):
                out[f] = avg
        return out


def reference_label_scores(rows: dict, feats, width: int) -> list:
    """Per-slot sums of the ``width``-weight rows of ``feats``, added row by row."""
    acc = [0.0] * width
    for f in feats:
        row = rows.get(f)
        if row is not None:
            acc = list(map(add, acc, row))
    return acc


def _label_key(label):
    return label if label is not None else _NONE_KEY


def _label_keys(feats, label):
    key = _label_key(label)
    return [(f, key) for f in feats]


def _sum_left_to_right(values) -> float:
    """``sum`` as it was before Python 3.12 made float sums compensated."""
    total = 0.0
    for v in values:
        total += v
    return total


def _factor_scores(target_w, parent_w, new_w, feats, chain, token, choices):
    """The target score of each chain depth and, for the parent and new
    factors, a map from each label in ``choices`` to its score, summed over
    ``(feature, label key)`` dict lookups."""
    targets = [
        sum(target_w.get(f, 0.0) for f in target_features(chain, d, token))
        for d in range(len(chain))
    ] or [0.0]
    keyed = [(c, _label_key(c)) for c in choices]
    parent, new = (
        {c: _sum_left_to_right(w.get((f, k), 0.0) for f in feats) for c, k in keyed}
        for w in (parent_w, new_w)
    )
    return targets, parent, new


def label_dict(rows: dict, labels) -> tuple:
    """``ActionScorer.label_weights``, each row a dict from slot to weight,
    as the parent and the new weights, each keyed by ``(feature, label
    key)``, zeros left out. Of the ``2 * W`` slots, the first W are the
    parent factor's."""
    keys = [_NONE_KEY] + sorted(labels)
    width = len(keys)
    return tuple(
        {
            (f, keys[s - offset]): v
            for f, row in rows.items()
            for s, v in row.items()
            if v and offset <= s < offset + width
        }
        for offset in (0, width)
    )


def label_rows(parent: dict, new: dict, labels) -> dict:
    """The inverse of ``label_dict``: one dict from slot to weight per
    feature, the new weights' slots offset by the width. Keys naming no
    label are dropped."""
    keys = [_NONE_KEY] + sorted(labels)
    rows = {}
    for offset, weights in ((0, parent), (len(keys), new)):
        for (f, key), v in weights.items():
            if key in keys:
                rows.setdefault(f, {})[offset + keys.index(key)] = v
    return rows


def reference_train(trees, epochs: int, seed: int):
    """Teacher-forced averaged-perceptron training over dict-keyed weights.

    Returns the labels, the target weights, the parent and new weights keyed
    by ``(feature, label key)``, and the per-epoch accuracies.
    """
    labels = collect_labels(trees)
    factors = target_w, parent_w, new_w = [_AveragedWeights() for _ in range(3)]
    choices = [None] + labels

    examples = [teacher_steps(tree) for tree in trees]
    rng = random.Random(seed)
    order = list(range(len(examples)))
    history = []
    for _ in range(epochs):
        rng.shuffle(order)
        hits = Counter()
        totals = Counter()
        for idx in order:
            for state, token, context, prev_kind, action in examples[idx]:
                gold_d, gold_parent, gold_new = action
                chain = rightmost_chain(state)
                feats = featurize(chain, token, context, prev_kind)
                for w in factors:
                    w.tick()
                targets, parent_scores, new_scores = _factor_scores(
                    target_w.w, parent_w.w, new_w.w, feats, chain, token, choices
                )
                if len(chain) > 1:
                    pred_d = max(range(len(targets)), key=targets.__getitem__)
                    totals["target"] += 1
                    if pred_d == gold_d:
                        hits["target"] += 1
                    else:
                        target_w.update(target_features(chain, gold_d, token), 1.0)
                        target_w.update(target_features(chain, pred_d, token), -1.0)
                for factor, w, scores, gold in (
                    ("parent", parent_w, parent_scores, gold_parent),
                    ("new", new_w, new_scores, gold_new),
                ):
                    pred = max(scores, key=scores.__getitem__)
                    totals[factor] += 1
                    if pred == gold:
                        hits[factor] += 1
                    else:
                        w.update(_label_keys(feats, gold), 1.0)
                        w.update(_label_keys(feats, pred), -1.0)
        history.append(
            {
                factor: (hits[factor] / totals[factor] if totals[factor] else 1.0)
                for factor in ("target", "parent", "new")
            }
        )
    target, parent, new = (w.averaged() for w in factors)
    return labels, target, parent, new, history


def reference_model_text(labels, target, parent, new) -> str:
    """The model file of dict-keyed weights, as ``ActionScorer.save`` writes it."""
    lines = ["ajparse-model\t1", "labels\t" + "\t".join(labels), "[target]"]
    lines += [f"{k}\t{target[k]!r}" for k in sorted(target)]
    for name, table in (("parent", parent), ("new", new)):
        lines.append(f"[{name}]")
        lines += [f"{feat}\t{lbl}\t{table[(feat, lbl)]!r}" for feat, lbl in sorted(table)]
    lines.append("[end]")
    return "".join(line + "\n" for line in lines)


def scorer_weights(scorer) -> tuple:
    """An ``ActionScorer``'s weights as ``(target, parent, new)`` dicts."""
    return (
        {f: row[0] for f, row in scorer.target_weights.items()},
        *label_dict(scorer.label_weights, scorer.labels),
    )


def step_scores(weights, labels, state, token, context, prev_kind) -> list:
    """``(joint, normalized, action)`` for every legal action of one step,
    in ``legal_actions`` order, over ``scorer_weights`` dicts: the summed
    factor score, and that score less the step's log-sum-exp."""
    chain = rightmost_chain(state)
    t, p, n = _factor_scores(
        *weights, featurize(chain, token, context, prev_kind), chain, token, [None] + labels,
    )
    actions = reference_legal_actions(state, labels)
    joint = [t[d] + p[parent] + n[new] for d, parent, new in actions]
    m = max(joint)
    lse = m + math.log(sum(math.exp(s - m) for s in joint))
    return [(s, s - lse, action) for s, action in zip(joint, actions)]


def _label_sort_key(label: Optional[str]):
    return (0, "") if label is None else (1, label)


def _action_sort_key(action):
    target, parent_label, new_label = action
    return (
        new_label is not None,
        target,
        _label_sort_key(parent_label),
        _label_sort_key(new_label),
    )


def reference_decode_beam(scorer, tokens, beam: int):
    """Beam search that builds, keys and sorts every candidate action."""
    if not tokens:
        raise ValueError("cannot decode an empty sentence")
    if beam < 1:
        raise ValueError("beam must be >= 1")
    weights = scorer_weights(scorer)
    items = [(0.0, 0, INITIAL_STATE, "none")]  # (score, rank, state, prev_kind)
    for i, token in enumerate(tokens):
        context = tuple(tokens[max(0, i - 2) : i])
        candidates = []
        for score, rank, state, prev_kind in items:
            for _, s, action in step_scores(weights, scorer.labels, state, token, context,
                                            prev_kind):
                candidates.append((score + s, _action_sort_key(action), rank, state, action))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        items = [
            (total, rank, apply_action(state, token, action), action_kind(action))
            for rank, (total, _, _, state, action) in enumerate(candidates[:beam])
        ]
    return items[0][2]


# The treebank reader in stages: split the file into entries, tokenize and
# parse each entry, check its labels, then normalize the whole tree.


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append((c, i))
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], i))
            i = j
    return tokens


def _close_bracket(off, label, atoms, children):
    """The node for one bracket pair."""
    if atoms and children:
        raise TreebankFormatError("token outside a preterminal pair", atoms[0][1])
    if atoms:
        if len(atoms) > 1:
            raise TreebankFormatError("multiple tokens in one preterminal", atoms[1][1])
        if not label:
            raise TreebankFormatError("preterminal without a POS tag", off)
        return Leaf(Token(atoms[0][0], label))
    if not children:
        raise TreebankFormatError("empty constituent", off)
    if not label:
        if len(children) == 1:
            return children[0]  # label-less wrapper
        raise TreebankFormatError("unlabeled constituent with several children", off)
    return Internal(label, tuple(children))


def reference_parse_bracketed(text: str) -> ConstituencyTree:
    tokens = _tokenize(text)
    if not tokens:
        raise TreebankFormatError("no tree found", 0)
    if tokens[0][0] != "(":
        raise TreebankFormatError(f"expected '(' but found {tokens[0][0]!r}", tokens[0][1])
    frames = []  # open brackets, innermost last: (offset, label, atoms, children)
    pos, n = 0, len(tokens)
    while True:
        tok, off = tokens[pos]
        pos += 1
        if tok == "(":
            label = ""
            if pos < n and tokens[pos][0] not in "()":
                label = tokens[pos][0]
                pos += 1
            frames.append((off, label, [], []))
        elif tok == ")":
            off, label, atoms, children = frames.pop()
            node = _close_bracket(off, label, atoms, children)
            if not frames:
                break
            frames[-1][3].append(node)
        else:
            frames[-1][2].append((tok, off))
        if pos >= n:
            raise TreebankFormatError("unbalanced parentheses", frames[-1][0])
    if pos != n:
        raise TreebankFormatError("trailing content after tree", tokens[pos][1])
    while (
        isinstance(node, Internal)
        and node.label in ("", "TOP", "ROOT")
        and len(node.children) == 1
    ):
        node = node.children[0]
    if isinstance(node, Leaf):
        raise TreebankFormatError("tree root is a leaf", tokens[0][1])
    return ConstituencyTree(node)


def _reference_strip_label(label: str) -> str:
    if label in ("-NONE-", "-LRB-", "-RRB-") or label.startswith("-"):
        return label
    for sep in "-=":
        i = label.find(sep)
        if i > 0:
            label = label[:i]
    return label


def reference_normalize(tree: ConstituencyTree) -> ConstituencyTree:
    if tree.root is None:
        return tree

    def keep(leaf):
        return None if leaf.token.pos == "-NONE-" else leaf

    def rebuild(node, children):
        children = [c for c in children if c is not None]
        if not children:
            return None
        return collapsed_node(_reference_strip_label(node.label), children)

    root = fold(tree.root, keep, rebuild)
    if root is None:
        raise DegenerateSentenceError("normalization removed the entire sentence")
    return ConstituencyTree(root)


def reference_split_trees(text: str):
    """Yield (raw S-expression, offset) for each top-level tree."""
    depth = 0
    start = None
    for i, c in enumerate(text):
        if c == "(":
            if depth == 0:
                start = i
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise TreebankFormatError("unbalanced ')'", i)
            if depth == 0:
                yield text[start : i + 1], start
        elif depth == 0 and not c.isspace():
            raise TreebankFormatError(f"stray text {c!r} between trees", i)
    if depth != 0:
        raise TreebankFormatError("unbalanced '('", start or 0)


def _check_plain_labels(tree: ConstituencyTree) -> None:
    for node in iter_nodes(tree.root):
        if isinstance(node, Internal) and LABEL_SEPARATOR in node.label:
            raise TreebankFormatError(f"label {node.label!r} contains the reserved separator")


def reference_load_corpus(path: str, normalization=True, strict=True, plain_labels=True) -> list:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    entries = []
    for i, (raw, offset) in enumerate(reference_split_trees(text)):
        try:
            tree = reference_parse_bracketed(raw)
            if plain_labels:
                _check_plain_labels(tree)
            if normalization:
                tree = reference_normalize(tree)
        except ValueError as err:
            if strict:
                reason, where = str(err), offset
                if isinstance(err, TreebankFormatError):
                    reason, where = err.reason, offset + (err.offset or 0)
                raise TreebankFormatError(reason, offset=where, entry=i) from err
            # The line the reader writes to stderr, so that tests compare the
            # two readers' skips by what each prints.
            print(f"skipping malformed entry {i}: {err}", file=sys.stderr)
            continue
        entries.append(CorpusEntry(i, tree))
    return entries


def write_corpus(trees, path: str) -> None:
    """Write each tree as one bracketed line."""
    with open(path, "w", encoding="utf-8") as fh:
        for tree in trees:
            fh.write(write_bracketed(tree) + "\n")


def majority_label(trees) -> str:
    """The most frequent internal label, the first in sorted order on a tie."""
    counts = Counter(node.label for tree in trees for node in iter_nodes(tree.root)
                     if isinstance(node, Internal))
    if not counts:
        raise ValueError("corpus has no internal nodes")
    return min(counts, key=lambda label: (-counts[label], label))


def decode_right_branching(tokens, label: str) -> ConstituencyTree:
    """The baseline parse: each token attaches at the deepest chain node
    under a single label."""
    # Before token i the chain has i nodes.
    return apply_sequence(tokens, [attach(max(i - 1, 0), label) for i in range(len(tokens))])
