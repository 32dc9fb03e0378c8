"""Linear baseline action predictor.

A factored averaged perceptron scores (target depth, parent_label,
new_label) independently over sparse features of the open chain and a
small token window; new_label = None decodes as attach, anything else as
juxtapose. Trained with teacher forcing on oracle actions; decoding is
greedy or beam search with legality masking.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from collections import Counter, defaultdict

from .oracle import oracle_action_sequence
from .transition import (
    action_at,
    action_kind,
    close_chain,
    label_choices,
    step,
)
from .tree import LABEL_SEPARATOR, ConstituencyTree, Internal, Leaf, Token, iter_nodes
from .treebank import tokens_of, undecodable

MODEL_MAGIC = "ajparse-model"
MODEL_VERSION = 1

_NONE_KEY = "<none>"


class ModelFormatError(ValueError):
    pass


def _node_tag(node) -> str:
    return node.label if isinstance(node, Internal) else (node.token.pos or node.token.word)


def featurize(chain, token: Token, context, prev_kind: str):
    """Sparse state features shared by the label factors.

    ``chain`` is the state's open chain of ``[label, children]`` frames,
    root first, whose deepest frame's children end with the last leaf;
    ``context`` holds up to the two preceding tokens, oldest first. Output
    is deterministic and bounded by the template count.
    """
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
        label, children = chain[-1]
        last = _node_tag(children[-1])
        feats += [
            f"c0={label}",
            f"c0|w={label}|{w}",
            f"c0|p={label}|{p}",
            f"c0.first={_node_tag(children[0])}",
            f"c0.last={last}",
            f"cr={chain[0][0]}",
            f"c0.last|p={last}|{p}",
        ]
        if depth >= 2:
            feats += [f"c1={chain[-2][0]}", f"c1|p={chain[-2][0]}|{p}"]
        if depth >= 3:
            feats.append(f"c2={chain[-3][0]}")
    for back, tok in enumerate(reversed(context), start=1):
        feats += [f"w-{back}={tok.word}", f"p-{back}={tok.pos or '~'}"]
    return tuple(feats)


def _target_features(chain, depth: int, token: Token):
    lab = chain[depth][0]
    dist = min(len(chain) - 1 - depth, 4)
    d = min(depth, 4)
    # A frame's implicit last child is the next frame's node.
    last = _node_tag(chain[depth][1][-1]) if dist == 0 else chain[depth + 1][0]
    p = token.pos or "~"
    return (
        f"t.lab={lab}",
        f"t.dist={dist}",
        f"t.d={d}",
        f"t.lab|p={lab}|{p}",
        f"t.lab|w={lab}|{token.word}",
        f"t.dist|p={dist}|{p}",
        f"t.last={last}",
        f"t.lab|dist={lab}|{dist}",
    )


class _AveragedRows:
    """Perceptron weights for one table: a row of weights per feature, with
    lazily-updated running averages per slot. A label row holds only the
    slots that updates have touched; any other slot weighs 0.0. The target
    table has one slot, as its features name the depth they score, and a
    row is a one-weight list: ``[w]`` takes 64 B where ``{0: w}`` takes 224.
    Dict target rows would drop the ``width > 1`` forks, but on perfbench's
    parse-many-labels they raised the ``tracemalloc`` peak of ``train`` from
    2,054 to 2,145 kB and of beam-1 ``parse`` from 580 to 624 kB.
    The running totals and last-update steps stay dense lists of ``width``
    slots per feature: dicts of the touched slots raised ``train``'s peak
    from 1,621 to 1,700 kB there. ``averaged()`` spends the table.
    """

    def __init__(self, width: int):
        self.width = width
        self.w = {}
        self._totals = {}  # feature -> running total per slot
        self._stamps = {}  # feature -> step of the last update per slot
        self.steps = 0

    def tick(self):
        self.steps += 1

    def update(self, feats, slot: int, delta: float):
        for f in feats:
            row = self.w.get(f)
            if row is None:
                row = self.w[f] = defaultdict(float) if self.width > 1 else [0.0]
                self._totals[f], self._stamps[f] = [0.0] * self.width, [0] * self.width
            totals, stamps = self._totals[f], self._stamps[f]
            totals[slot] += (self.steps - stamps[slot]) * row[slot]
            stamps[slot] = self.steps
            row[slot] += delta

    def averaged(self) -> dict:
        """Averaged rows: a label row keeps the slots whose average is not
        zero, and features with no such slot are left out. This spends the
        table: each feature's row, totals and stamps are dropped as its
        averaged row is made, so the two tables are never held whole at
        once, and the table is empty afterwards."""
        if self.steps == 0:
            self.w.clear()
            self._totals.clear()
            self._stamps.clear()
            return {}
        out = {}
        for f in list(self.w):
            row, totals, stamps = self.w.pop(f), self._totals.pop(f), self._stamps.pop(f)
            avg = {}
            for s, v in (row.items() if self.width > 1 else enumerate(row)):
                a = (totals[s] + (self.steps - stamps[s]) * v) / self.steps
                if a:
                    avg[s] = a
            if avg:
                out[f] = avg if self.width > 1 else [avg[0]]
        return out


def slot_keys(labels, path: str) -> list:
    """The model-file name of each slot; None is written ``<none>``.

    A parse writes labels as bracketed text that ``score`` reads back, so
    each needs a nonempty part on each side of every chain separator and no
    whitespace or parenthesis, and the first token needs some label. A
    label spelled ``<none>`` or given twice would share a name with another
    slot, so the weights of the two could not be told apart.
    """
    if not labels:
        raise ModelFormatError(f"{path}: the label vocabulary is empty")
    for label in labels:
        if "" in label.split(LABEL_SEPARATOR) or any(c.isspace() or c in "()" for c in label):
            raise ModelFormatError(f"{path}: label {label!r} cannot be written in a parse")
    keys = [_NONE_KEY if c is None else c for c in label_choices(labels)]
    if len(set(keys)) != len(keys):
        raise ModelFormatError(
            f"{path}: a label is repeated or spelled {_NONE_KEY!r}, the name for no label"
        )
    return keys


class ActionScorer:
    """Averaged weights for the three action factors plus the label vocabulary.

    Each table maps a feature to a row of weights: a one-weight list in
    ``target_weights``, and in ``label_weights`` a dict from slot to weight,
    holding only the slots the feature has a weight for. The parent and new
    factors read the same features and share the label rows: slot ``s`` of
    ``label_choices(labels)``, of width W, is parent slot ``s`` and new slot
    ``W + s``, saved under ``[parent]`` and ``[new]``.

    Equal scorers hold equal fields; a scorer is mutable, so it has no hash.
    """

    def __init__(self, labels: list, target_weights: dict, label_weights: dict,
                 epoch_accuracy: list = None):
        self.labels = labels
        self.target_weights = target_weights
        self.label_weights = label_weights
        self.epoch_accuracy = [] if epoch_accuracy is None else epoch_accuracy

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"ActionScorer({fields})"

    def save(self, path: str) -> None:
        keys = slot_keys(self.labels, path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{MODEL_MAGIC}\t{MODEL_VERSION}\n")
            fh.write("labels\t" + "\t".join(self.labels) + "\n")
            fh.write("[target]\n")
            for k in sorted(self.target_weights):
                fh.write(f"{k}\t{self.target_weights[k][0]!r}\n")
            order = sorted(range(len(keys)), key=keys.__getitem__)
            for name, offset in (("parent", 0), ("new", len(keys))):
                fh.write(f"[{name}]\n")
                for feat in sorted(self.label_weights):
                    row = self.label_weights[feat]
                    for s in order:
                        if row.get(offset + s):
                            fh.write(f"{feat}\t{keys[s]}\t{row[offset + s]!r}\n")
            fh.write("[end]\n")

    @classmethod
    def load(cls, path: str) -> "ActionScorer":
        with open(path, encoding="utf-8") as fh:
            try:
                header = fh.readline().rstrip("\n").split("\t")
                if len(header) != 2 or header[0] != MODEL_MAGIC:
                    raise ModelFormatError(f"{path}: not a model file")
                try:
                    version = int(header[1])
                except ValueError:
                    raise ModelFormatError(
                        f"{path}: model version {header[1]!r} is not an integer"
                    ) from None
                if version != MODEL_VERSION:
                    raise ModelFormatError(
                        f"{path}: unsupported model version {header[1]}"
                    )
                label_line = fh.readline().rstrip("\n").split("\t")
                if label_line[0] != "labels":
                    raise ModelFormatError(f"{path}: missing label vocabulary")
                labels = label_line[1:]
                keys = slot_keys(labels, path)
                slots = {key: s for s, key in enumerate(keys)}
                offsets = {"target": None, "parent": 0, "new": len(keys)}
                target_rows, label_rows = {}, {}
                current = None
                for line in fh:
                    line = line.rstrip("\n")
                    if line.startswith("["):
                        section = line[1:-1] if line.endswith("]") else line
                        if section == "end":
                            break
                        if section not in offsets:
                            raise ModelFormatError(f"{path}: unknown section {line}")
                        current = section
                        continue
                    if current is None:
                        raise ModelFormatError(f"{path}: weight line outside a section")
                    parts = line.split("\t")
                    width = 2 if current == "target" else 3
                    if len(parts) != width:
                        raise ModelFormatError(
                            f"{path}: [{current}] weight line has {len(parts)}"
                            f" tab-separated fields, expected {width}"
                        )
                    try:
                        weight = float(parts[-1])
                    except ValueError:
                        weight = math.nan
                    if not math.isfinite(weight):
                        # Decoding needs a total order on scores.
                        raise ModelFormatError(
                            f"{path}: [{current}] weight {parts[-1]!r} is not a finite number"
                        )
                    if current == "target":
                        target_rows[parts[0]] = [weight]
                    elif parts[1] in slots:
                        # A label outside the vocabulary has no slot and is never scored.
                        row = label_rows.get(parts[0])
                        if row is None:
                            row = label_rows[parts[0]] = {}
                        row[offsets[current] + slots[parts[1]]] = weight
                else:
                    raise ModelFormatError(f"{path}: file ends before [end]")
            except UnicodeDecodeError as err:
                raise ModelFormatError(undecodable(fh, err)) from None
        return cls(labels, target_rows, label_rows)


def _label_scores(rows: dict, feats, width: int) -> list:
    """Per-slot sums of the rows of ``feats``, added feature by feature.

    A slot that a row leaves out would add 0.0, which changes no sum but
    -0.0, and no sum is -0.0: each starts at 0.0, and x + y is -0.0 only
    when x and y both are.
    """
    acc = [0.0] * width
    for f in feats:
        row = rows.get(f)
        if row is not None:
            for s, v in row.items():
                acc[s] += v
    return acc


_NO_ROW = (0.0,)


def _factor_scores(target_rows, label_rows, feats, chain, token, width):
    """Score the three factors of one step.

    Returns the target score of each chain depth (``[0.0]`` on the empty
    tree, whose only target is 0) and, for the parent and new factors, the
    score of each of the ``width`` label slots, the halves of ``label_rows``.
    """
    targets = [
        sum(target_rows.get(f, _NO_ROW)[0] for f in _target_features(chain, d, token))
        for d in range(len(chain))
    ] or [0.0]
    labels = _label_scores(label_rows, feats, 2 * width)
    return targets, labels[:width], labels[width:]


def _internal_labels(trees):
    for tree in trees:
        for node in iter_nodes(tree.root):
            if isinstance(node, Internal):
                yield node.label


def collect_labels(trees) -> list:
    return sorted(set(_internal_labels(trees)))


def _teacher_steps(tokens, actions):
    """(chain, token, context, prev_kind, action) for each step of a gold
    action sequence, replayed on one open chain. Each chain is yielded
    before its action and edited in place after it."""
    chain = []
    prev_kind = "none"
    for i, (token, action) in enumerate(zip(tokens, actions)):
        yield chain, token, tuple(tokens[max(0, i - 2) : i]), prev_kind, action
        step(chain, Leaf(token), action)
        prev_kind = action_kind(action)


def train(trees, epochs: int, seed: int) -> ActionScorer:
    """Teacher-forced averaged-perceptron training.

    Deterministic given the seed (per-epoch shuffling order is derived from
    it); per-epoch per-factor accuracies are stored on the returned scorer.
    """
    if not trees:
        raise ValueError("cannot train on an empty corpus")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    labels = collect_labels(trees)
    choices = label_choices(labels)
    width = len(choices)
    slot_of = {c: s for s, c in enumerate(choices)}
    factors = target_w, label_w = _AveragedRows(1), _AveragedRows(2 * width)

    # One tuple per distinct action, shared by every step that takes it.
    shared = {}
    examples = [
        (tokens_of(tree), [shared.setdefault(a, a) for a in oracle_action_sequence(tree)])
        for tree in trees
    ]
    rng = random.Random(seed)
    order = list(range(len(examples)))
    history = []
    for _ in range(epochs):
        rng.shuffle(order)
        hits = Counter()
        totals = Counter()
        for idx in order:
            for chain, token, context, prev_kind, action in _teacher_steps(*examples[idx]):
                gold_d, gold_parent, gold_new = action
                feats = featurize(chain, token, context, prev_kind)
                for w in factors:
                    w.tick()
                targets, parent_scores, new_scores = _factor_scores(
                    target_w.w, label_w.w, feats, chain, token, width
                )
                # First-max argmaxes: ties go to the smallest depth, then to
                # None, then to the first label in sorted order.
                if len(chain) > 1:
                    pred_d = max(range(len(targets)), key=targets.__getitem__)
                    totals["target"] += 1
                    if pred_d == gold_d:
                        hits["target"] += 1
                    else:
                        target_w.update(_target_features(chain, gold_d, token), 0, 1.0)
                        target_w.update(_target_features(chain, pred_d, token), 0, -1.0)
                for factor, offset, scores, gold in (
                    ("parent", 0, parent_scores, slot_of[gold_parent]),
                    ("new", width, new_scores, slot_of[gold_new]),
                ):
                    pred = scores.index(max(scores))
                    totals[factor] += 1
                    if pred == gold:
                        hits[factor] += 1
                    else:
                        label_w.update(feats, offset + gold, 1.0)
                        label_w.update(feats, offset + pred, -1.0)
        history.append(
            {
                factor: (hits[factor] / totals[factor] if totals[factor] else 1.0)
                for factor in ("target", "parent", "new")
            }
        )
    scorer = ActionScorer(labels, *(w.averaged() for w in factors))
    scorer.epoch_accuracy = history
    return scorer


def decode_beam(scorer: ActionScorer, tokens, beam: int) -> ConstituencyTree:
    """Beam search over summed, per-step-normalized factor scores;
    beam = 1 is greedy decoding.

    Each item scores its step as plain floats, one joint score per action at
    its ``legal_actions`` index, and subtracts their log-sum-exp so that path
    scores are comparable across items; without it, raw perceptron margins
    accumulate incomparably across alternative prefixes and wide beams
    degrade. An item builds one list over its joint scores: it sums the
    target and parent factors per (depth, parent) pair, takes the exact
    maximum as the sum of the two maxima (float ``+`` is monotone in each
    operand), and lists every joint score less that maximum in index order,
    which the log-sum-exp reads. Ties break on ``(k % W != 0, k)`` for the
    index k of width W: attach before juxtapose, then target depth, then
    parent and new label order (None first); then on item rank.

    The step carries the beam-th best total over the items scored so far as
    a running cut; while fewer are known it is the lowest, which keeps them
    all. An item computes totals only for its candidates: the indices whose
    shifted score reaches ``low``, the (beam + 1)-th largest. Every other
    index has a strictly smaller joint score, since rounding is monotone, so
    its total is at most the smallest candidate total. If that smallest
    total still reaches the cut, ties or rounding may hide more equal totals
    outside, and the item doubles its candidate count and scores again, up
    to every index; otherwise nothing outside can reach the cut. Each item
    keeps only the candidates that reach the cut, so the step never holds
    every item's depth x (L+1)**2 totals. Once ``beam`` totals are known the
    cut only rises, so the kept candidates include all that reach the final
    cut, and only those are sorted. Only the beam's members become actions.
    Items are open chains: a successor copies the frames that ``step``
    edits, from the action's target down, and shares those above.
    """
    if not tokens:
        raise ValueError("cannot decode an empty sentence")
    if beam < 1:
        raise ValueError("beam must be >= 1")
    choices = label_choices(scorer.labels)
    width = len(choices)
    items = [(0.0, 0, [], "none")]  # (score, rank, chain, prev_kind)
    for i, token in enumerate(tokens):
        context = tuple(tokens[max(0, i - 2) : i])
        best, kept = [], []
        for score, rank, chain, prev_kind in items:
            t, p, n = _factor_scores(
                scorer.target_weights, scorer.label_weights,
                featurize(chain, token, context, prev_kind), chain, token, width,
            )
            # Index k scores tps[k // w] + n[k % w]: on a chain, k = d*W**2 +
            # i*W + j scores (t[d] + p[i]) + n[j]; on the empty tree, k is
            # attach(0, choices[k + 1]), whose new slot is None.
            if chain:
                tps = [td + pi for td in t for pi in p]
            else:
                tps, n = [t[0] + pi for pi in p[1:]], n[:1]
            w = len(n)
            m = max(tps) + max(n)
            shifted = [tp + nj - m for tp in tps for nj in n]
            lse = m + math.log(sum(map(math.exp, shifted)))
            if not math.isfinite(lse):
                # The cut needs a total order; a sum of finite weights can
                # still overflow to inf, and inf - inf is nan.
                raise ValueError("step scores overflow the float range")
            prior, r = best, beam + 1
            while True:
                low = heapq.nlargest(r, shifted)[-1]
                ks = [k for k, v in enumerate(shifted) if v >= low]
                totals = [score + (tps[k // w] + n[k % w] - lse) for k in ks]
                best = heapq.nlargest(beam, itertools.chain(prior, totals))
                cut = best[-1]
                if min(totals) < cut or len(ks) == len(shifted):
                    break
                r *= 2
            kept += [(-total, k % width != 0, k, rank, chain)
                     for k, total in zip(ks, totals) if total >= cut]
        candidates = [c for c in kept if -c[0] >= cut]
        candidates.sort()  # (k, rank) is unique, so no two chains are compared
        items = []
        for rank, (neg_total, _, k, _, chain) in enumerate(candidates[:beam]):
            action = action_at(k, len(chain), choices)
            d, _, _ = action
            successor = chain[:d] + [[label, list(kids)] for label, kids in chain[d:]]
            step(successor, Leaf(token), action)
            items.append((-neg_total, rank, successor, action_kind(action)))
    return ConstituencyTree(close_chain(items[0][2], 0))
