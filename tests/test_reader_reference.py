"""The one-pass treebank reader reads exactly as the staged reader in
``reference.py``: the same entries, or the same error with the same entry
number and offset, and the same lenient warnings, on generated treebanks
and on cut or mangled ones."""

import contextlib
import io
import itertools

from hypothesis import given, settings

import reference
from treebank_texts import entries, mangled_treebanks, render, treebanks
from ajparse.treebank import (
    DegenerateSentenceError,
    TreebankFormatError,
    load_corpus,
    normalize,
    parse_bracketed,
    tokens_of,
)


def _outcome(read, *args, **kwargs):
    """The result or the error of ``read``, and the lines it wrote to stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            result = ("ok", read(*args, **kwargs))
        except Exception as err:
            result = (type(err), str(err))
    return result, stderr.getvalue().splitlines()


def _same_reads(path, text):
    assert _outcome(parse_bracketed, text) == _outcome(reference.reference_parse_bracketed, text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    for strict, normalization, plain_labels in itertools.product((True, False), repeat=3):
        kwargs = dict(strict=strict, normalization=normalization, plain_labels=plain_labels)
        outcome = _outcome(load_corpus, path, **kwargs)
        assert outcome == _outcome(reference.reference_load_corpus, path, **kwargs), kwargs
        if outcome[0][0] == "ok":
            # Within one load, equal tokens are one object.
            tokens = [t for entry in outcome[0][1] for t in tokens_of(entry.tree)]
            assert len({id(t) for t in tokens}) == len(set(tokens)), kwargs


@settings(max_examples=80, deadline=None)
@given(text=treebanks())
def test_reader_matches_staged_reader(tmp_path_factory, text):
    _same_reads(str(tmp_path_factory.getbasetemp() / "generated.mrg"), text)


@settings(max_examples=200, deadline=None)
@given(text=mangled_treebanks())
def test_reader_matches_staged_reader_on_mangled_text(tmp_path_factory, text):
    _same_reads(str(tmp_path_factory.getbasetemp() / "mangled.mrg"), text)


@settings(max_examples=80, deadline=None)
@given(text=entries.flatmap(render))
def test_normalize_of_parse_is_the_loaded_entry(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "one.mrg"
    path.write_text(text, encoding="utf-8")
    try:
        tree = parse_bracketed(text)
    except ValueError:
        return
    loaded, _ = _outcome(load_corpus, str(path), plain_labels=False)
    try:
        expected = normalize(tree)
    except DegenerateSentenceError as err:
        assert loaded == (TreebankFormatError, f"{err} (entry 0) (offset {text.index('(')})")
        return
    assert loaded[0] == "ok" and [e.tree for e in loaded[1]] == [expected]
