"""The record types keep the contract their dataclass forms had: the same
construction, defaults, ``repr``, equality and hash, read-only fields on
the frozen ones, no hash on the mutable ones, and pickling."""

import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ajparse.exhaustive import CheckReport
from ajparse.predictor import ActionScorer
from ajparse.scoring import ScoreReport
from ajparse.tree import EMPTY_TREE, ConstituencyTree, Internal, Leaf, Token
from ajparse.treebank import CorpusEntry

ROOT = Internal("S", (Leaf(Token("a", "D")), Leaf(Token("b"))))
ROOT_REPR = ("Internal(label='S', children=(Leaf(token=Token(word='a', pos='D')), "
             "Leaf(token=Token(word='b', pos=''))))")
REPORT_FIELDS = (97.5, 88.0, 87.5, 88.5, 7, 8, 9, 3)


def _roundtrip(obj):
    copied = pickle.loads(pickle.dumps(obj))
    assert copied == obj and type(copied) is type(obj)
    return copied


def test_token_record():
    assert Token("a") == Token(word="a") == Token("a", "") and Token("a").pos == ""
    token = Token(pos="D", word="a")
    assert (token.word, token.pos) == ("a", "D")
    assert repr(token) == "Token(word='a', pos='D')"
    assert hash(token) == hash(("a", "D")) and token == Token("a", "D")
    assert token != Token("a") and token != Token("b", "D")
    with pytest.raises(ValueError, match="non-empty"):
        Token("")
    for name in ("word", "pos"):
        with pytest.raises(AttributeError):
            setattr(token, name, "x")
    _roundtrip(token)


def test_constituency_tree_record():
    tree = ConstituencyTree(root=ROOT)
    assert tree.root is ROOT and ConstituencyTree(ROOT) == tree
    assert repr(tree) == f"ConstituencyTree(root={ROOT_REPR})"
    assert repr(EMPTY_TREE) == "ConstituencyTree(root=None)"
    assert hash(tree) == hash((ROOT,)) and hash(EMPTY_TREE) == hash((None,))
    assert tree != EMPTY_TREE and EMPTY_TREE == ConstituencyTree(None)
    # Not a 1-tuple: a tree never equals the final ISR stack over its root.
    assert tree != (ROOT,) and (ROOT,) != tree and tree != ROOT
    with pytest.raises(ValueError, match="internal root"):
        ConstituencyTree(ROOT.children[0])
    with pytest.raises(AttributeError):
        tree.root = None
    with pytest.raises(AttributeError):
        del tree.root
    with pytest.raises(AttributeError):
        tree.other = 1
    assert tree.root is ROOT
    assert _roundtrip(tree).root == ROOT
    assert _roundtrip(EMPTY_TREE).root is None


@pytest.mark.parametrize("cls, names, fields, text", [
    (CorpusEntry, ("id", "tree"), (4, ConstituencyTree(ROOT)),
     f"CorpusEntry(id=4, tree=ConstituencyTree(root={ROOT_REPR}))"),
    (ScoreReport, ("em", "f1", "lp", "lr", "matched", "gold_total", "predicted_total",
                   "sentences"), REPORT_FIELDS,
     "ScoreReport(em=97.5, f1=88.0, lp=87.5, lr=88.5, matched=7, gold_total=8, "
     "predicted_total=9, sentences=3)"),
], ids=["CorpusEntry", "ScoreReport"])
def test_frozen_records(cls, names, fields, text):
    record = cls(*fields)
    assert cls(**dict(zip(names, fields))) == record
    assert tuple(getattr(record, name) for name in names) == fields
    assert repr(record) == text
    assert hash(record) == hash(fields)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(TypeError):
        cls(*fields[:-1])
    _roundtrip(record)


def test_check_report_record():
    report = CheckReport()
    assert repr(report) == (
        "CheckReport(trees_checked=0, sequences_enumerated=0, case_tally=Counter(), "
        "stacks_checked=0, augmented_checked=0, reduce_lemma_checked=0, "
        "translations_checked=0, failures=[])"
    )
    other = CheckReport()
    assert other == report and other.case_tally is not report.case_tally
    assert other.failures is not report.failures
    filled = CheckReport(1, 2, Counter({"1-1": 3}), 4, 5, 6, 7, ["x"])
    assert filled == CheckReport(
        trees_checked=1, sequences_enumerated=2, case_tally=Counter({"1-1": 3}),
        stacks_checked=4, augmented_checked=5, reduce_lemma_checked=6,
        translations_checked=7, failures=["x"],
    )
    assert filled != report and report != (0,) * 8
    report.trees_checked += 1
    report.case_tally["2-1"] += 1
    assert report != other and other.case_tally == Counter()
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)
    _roundtrip(filled)


def test_action_scorer_record():
    scorer = ActionScorer(["A"], {"f": [1.5]}, {"g": {0: 2.0}})
    assert repr(scorer) == (
        "ActionScorer(labels=['A'], target_weights={'f': [1.5]}, "
        "label_weights={'g': {0: 2.0}}, epoch_accuracy=[])"
    )
    same = ActionScorer(labels=["A"], target_weights={"f": [1.5]},
                        label_weights={"g": {0: 2.0}})
    assert same == scorer and same.epoch_accuracy is not scorer.epoch_accuracy
    assert ActionScorer(["A"], {}, {}, [{"target": 1.0}]).epoch_accuracy == [{"target": 1.0}]
    scorer.epoch_accuracy.append({"target": 1.0})
    assert scorer != same and same.epoch_accuracy == []
    assert scorer != (["A"], {"f": [1.5]}, {"g": {0: 2.0}}, [{"target": 1.0}])
    with pytest.raises(TypeError):
        ActionScorer(["A"], {})
    with pytest.raises(TypeError, match="unhashable"):
        hash(scorer)
    _roundtrip(scorer)


def test_importing_the_cli_leaves_out_dataclasses_inspect_and_logging():
    # The difference is taken inside the child, so modules that site hooks
    # import at start-up do not count.
    code = ("import sys; before = set(sys.modules); import ajparse.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    added = set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True).stdout.split())
    assert "ajparse.cli" in added
    assert not added & {"dataclasses", "inspect", "logging", "traceback", "linecache", "tokenize"}
