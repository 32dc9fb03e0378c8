import contextlib
import hashlib
import io
import os
import re
import stat
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ajparse import cli, exhaustive
from ajparse.cli import main
from ajparse.exhaustive import enumerate_trees
from ajparse.isr import SHIFT
from ajparse.predictor import ActionScorer, ModelFormatError
from ajparse.synth import generate_corpus
from ajparse.tree import rightmost_chain, tree_equal
from ajparse.treebank import (
    TreebankFormatError, iter_corpus, load_corpus, parse_bracketed, tokens_of, write_bracketed,
)
from reference import decode_right_branching, write_corpus
from treebank_texts import mangled_treebanks


@pytest.fixture
def corpus_file(tmp_path):
    p = tmp_path / "corpus.mrg"
    write_corpus(generate_corpus(30, seed=21), str(p))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def result_line(stdout):
    return stdout.strip().splitlines()[-1]


def load_error(path, **options):
    """The text of the error a strict load of ``path`` raises."""
    with pytest.raises(TreebankFormatError) as info:
        load_corpus(str(path), **options)
    return str(info.value)


def _words(corpus_path, words_path):
    """Write the sentences of a treebank file as ``parse`` input, one line
    of ``word_POS`` items each."""
    with open(words_path, "w", encoding="utf-8") as out:
        for entry in iter_corpus(str(corpus_path)):
            out.write(" ".join(f"{t.word}_{t.pos}" for t in tokens_of(entry.tree)) + "\n")


def test_verify_fixture(capsys, sample_path):
    code, out, _ = run(capsys, "verify", sample_path)
    assert code == 0
    assert result_line(out) == "RESULT ok=3 fail=0"


def test_verify_empty_corpus(capsys, tmp_path):
    p = tmp_path / "empty.mrg"
    p.write_text("")
    code, out, _ = run(capsys, "verify", str(p))
    assert code == 0
    assert result_line(out) == "RESULT ok=0 fail=0"


def test_verify_corpus(capsys, corpus_file):
    code, out, _ = run(capsys, "verify", corpus_file)
    assert code == 0
    assert result_line(out) == "RESULT ok=30 fail=0"


def test_malformed_input_exits_nonzero(capsys, tmp_path):
    p = tmp_path / "bad.mrg"
    p.write_text("(S (NN a)\n")
    code, out, err = run(capsys, "verify", str(p))
    assert code == 1
    assert "RESULT ok=0 fail=1" in out


@pytest.mark.parametrize("command", ["oracle", "translate-isr"])
def test_strict_load_error_leaves_output_file_untouched(capsys, tmp_path, command):
    bad = tmp_path / "bad.mrg"
    bad.write_text("(S (NP (NN a)))\n(S (NN b)\n")
    out_path = tmp_path / "out.txt"
    out_path.write_bytes(b"earlier output\n")
    code, out, _ = run(capsys, command, str(bad), str(out_path))
    assert (code, result_line(out)) == (1, "RESULT ok=0 fail=1")
    assert out_path.read_bytes() == b"earlier output\n"
    assert sorted(os.listdir(tmp_path)) == ["bad.mrg", "out.txt"]


def test_lenient_skip_warnings_precede_entry_errors(capsys, tmp_path):
    # Entry 0 has a unary chain, which the oracle refuses without
    # normalization; entry 1 is malformed and skipped.
    p = tmp_path / "mixed.mrg"
    p.write_text("(S (NP (NN a)))\n(S (NN b) ())\n")
    code, out, err = run(capsys, "verify", str(p), "--lenient", "--no-normalize")
    assert (code, result_line(out)) == (1, "RESULT ok=0 fail=1")
    assert err.splitlines() == [
        "skipping malformed entry 1: empty constituent (offset 10)",
        "entry 0: oracle input must not contain unary chains",
    ]


def test_lenient_entries_keep_their_file_numbers(capsys, tmp_path):
    # Entry 1 is malformed and skipped, entry 2 has a unary chain; the
    # warning, the entry error and the output ids all count file entries.
    p, out_path = tmp_path / "mixed.mrg", tmp_path / "out.tsv"
    p.write_text("(S (NN a))\n(S (NN b) ())\n(S (NP (NN c)))\n(S (NN d))\n")
    code, out, err = run(capsys, "oracle", str(p), str(out_path), "--lenient", "--no-normalize")
    assert (code, result_line(out)) == (1, "RESULT ok=2 fail=1")
    assert err.splitlines() == [
        "skipping malformed entry 1: empty constituent (offset 10)",
        "entry 2: oracle input must not contain unary chains",
    ]
    assert [line.split("\t")[0] for line in out_path.read_text().splitlines()] == ["0", "3"]


def test_strict_load_error_after_a_failing_entry_is_the_only_error(capsys, tmp_path):
    p = tmp_path / "mixed.mrg"
    p.write_text("(S (NP (NN a)))\n(S (NN b) ())\n")
    code, out, err = run(capsys, "verify", str(p), "--no-normalize")
    assert (code, out) == (1, "RESULT ok=0 fail=1\n")
    assert err == load_error(p, normalization=False) + "\n"
    assert "entry 1" in err


def test_oracle_to_a_missing_directory_prints_only_the_os_error(capsys, tmp_path):
    p = tmp_path / "mixed.mrg"
    p.write_text("(S (NP (NN a)))\n(S (NP (NN b)) (VP (VB c)))\n")
    target = tmp_path / "missing" / "out.tsv"
    code, out, err = run(capsys, "oracle", str(p), str(target), "--no-normalize")
    assert (code, out) == (1, "RESULT ok=0 fail=1\n")
    assert err == f"[Errno 2] No such file or directory: {str(target)!r}\n"


WRITING_COMMANDS = ["oracle", "translate-isr", "parse"]


@pytest.fixture
def writing_argv(tmp_path, sample_path):
    """``writing_argv(command, output)``: the argv of one of
    ``WRITING_COMMANDS`` that writes ``output`` from the fixture. ``parse``
    reads the fixture's words, with a model trained on it, from
    ``tmp_path/inputs``."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    words, model = str(inputs / "words.txt"), str(inputs / "m.model")
    _words(sample_path, words)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(["train", sample_path, "--model", model, "--epochs", "1"])

    def argv(command, output):
        if command == "parse":
            return ["parse", words, str(output), "--model", model]
        return [command, sample_path, str(output)]

    return argv


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_output_over_an_existing_file_keeps_its_mode(capsys, tmp_path, writing_argv, command):
    fresh, kept = tmp_path / "fresh.txt", tmp_path / "kept.txt"
    run(capsys, *writing_argv(command, fresh))
    kept.write_text("earlier output, longer than the new one\n" * 100)
    kept.chmod(0o604)
    code, out, _ = run(capsys, *writing_argv(command, kept))
    assert (code, result_line(out)) == (0, "RESULT ok=3 fail=0")
    assert kept.read_bytes() == fresh.read_bytes()
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask  # as open() makes it
    assert sorted(os.listdir(tmp_path)) == ["fresh.txt", "inputs", "kept.txt"]


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write any file")
def test_output_over_a_read_only_file_is_refused(capsys, tmp_path, sample_path):
    output = tmp_path / "out.txt"
    output.write_bytes(b"earlier output\n")
    output.chmod(0o444)
    code, out, err = run(capsys, "oracle", sample_path, str(output))
    assert (code, out) == (1, "RESULT ok=0 fail=1\n")
    assert err == f"[Errno 13] Permission denied: {str(output)!r}\n"
    assert output.read_bytes() == b"earlier output\n"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_output_through_a_symlink_replaces_its_target(capsys, tmp_path, writing_argv, command):
    fresh = tmp_path / "fresh.txt"
    run(capsys, *writing_argv(command, fresh))
    elsewhere, link = tmp_path / "elsewhere", tmp_path / "link.txt"
    elsewhere.mkdir()
    target = elsewhere / "target.txt"
    link.symlink_to(os.path.join("elsewhere", "target.txt"))
    target.write_text("earlier output\n")
    for dangling in (False, True):
        if dangling:
            target.unlink()
        code, out, _ = run(capsys, *writing_argv(command, link))
        assert (code, result_line(out)) == (0, "RESULT ok=3 fail=0")
        assert os.readlink(link) == os.path.join("elsewhere", "target.txt")
        assert target.read_bytes() == fresh.read_bytes()
        assert os.listdir(elsewhere) == ["target.txt"]
    assert sorted(os.listdir(tmp_path)) == ["elsewhere", "fresh.txt", "inputs", "link.txt"]


def test_output_name_of_the_longest_length(capsys, tmp_path, sample_path):
    output = tmp_path / ("x" * 255)
    code, out, _ = run(capsys, "oracle", sample_path, str(output))
    assert (code, result_line(out)) == (0, "RESULT ok=3 fail=0")
    assert os.listdir(tmp_path) == ["x" * 255]


def test_output_to_a_pipe_is_written_in_place(capsys, tmp_path, sample_path):
    fresh, pipe, received = tmp_path / "fresh.txt", tmp_path / "pipe", []
    run(capsys, "oracle", sample_path, str(fresh))
    os.mkfifo(pipe)

    def read():
        with open(pipe, "rb") as fh:
            received.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    code, out, _ = run(capsys, "oracle", sample_path, str(pipe))
    reader.join(timeout=10)
    assert (code, result_line(out)) == (0, "RESULT ok=3 fail=0")
    assert received == [fresh.read_bytes()]
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["fresh.txt", "pipe"]


def test_output_over_a_directory_is_refused(capsys, tmp_path, sample_path):
    output = tmp_path / "out"
    output.mkdir()
    (output / "kept.txt").write_bytes(b"earlier output\n")
    code, out, err = run(capsys, "oracle", sample_path, str(output))
    assert (code, out) == (1, "RESULT ok=0 fail=1\n")
    assert err == f"[Errno 21] Is a directory: {str(output)!r}\n"
    assert os.listdir(output) == ["kept.txt"]
    assert (output / "kept.txt").read_bytes() == b"earlier output\n"
    assert os.listdir(tmp_path) == ["out"]


def test_output_beside_a_temporary_file_of_the_first_name(capsys, tmp_path, sample_path):
    clean = tmp_path / "clean"
    clean.mkdir()
    run(capsys, "oracle", sample_path, str(clean / "out.txt"))
    taken = tmp_path / f".ajparse-{os.getpid()}-0.tmp"
    taken.write_bytes(b"another writer's lines\n")
    code, out, _ = run(capsys, "oracle", sample_path, str(tmp_path / "out.txt"))
    assert (code, result_line(out)) == (0, "RESULT ok=3 fail=0")
    assert (tmp_path / "out.txt").read_bytes() == (clean / "out.txt").read_bytes()
    assert taken.read_bytes() == b"another writer's lines\n"
    assert sorted(os.listdir(tmp_path)) == [taken.name, "clean", "out.txt"]


@pytest.mark.parametrize(
    "command, name",
    [("oracle", "format_actions"), ("translate-isr", "format_isr_actions"),
     ("parse", "write_bracketed")],
)
def test_an_error_after_the_first_line_leaves_the_output_as_it_was(capsys, tmp_path, monkeypatch,
                                                                    writing_argv, command, name):
    real, calls = getattr(cli, name), []

    def second_call_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("boom")
        return real(*args)

    monkeypatch.setattr(cli, name, second_call_fails)
    output = tmp_path / "out.txt"
    output.write_bytes(b"earlier output\n")
    code, out, err = run(capsys, *writing_argv(command, output))
    assert (code, out, err) == (1, "RESULT ok=0 fail=1\n", "internal error: RuntimeError: boom\n")
    assert output.read_bytes() == b"earlier output\n"
    assert sorted(os.listdir(tmp_path)) == ["inputs", "out.txt"]


def test_parse_decode_error_after_failing_sentences_is_the_only_error(capsys, tmp_path,
                                                                       writing_argv):
    # The undecodable byte comes after the reader's first chunk, so it is
    # met only once the failing sentences before it have been decoded.
    argv = writing_argv("parse", tmp_path / "out.txt")
    argv[1] = str(tmp_path / "inputs" / "bad.txt")
    with open(argv[1], "wb") as fh:
        fh.write(b"Arthur_NNP sees_VBZ\n" + b"gr(ail_NN\n" * 2000 + b"\xff_NN\n")
    (tmp_path / "out.txt").write_bytes(b"earlier output\n")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "RESULT ok=0 fail=1\n")
    assert err == f"{argv[1]}: byte 0xff is not UTF-8 text (invalid start byte)\n"
    assert (tmp_path / "out.txt").read_bytes() == b"earlier output\n"
    assert sorted(os.listdir(tmp_path)) == ["inputs", "out.txt"]


@pytest.mark.parametrize("command", [
    "verify", "oracle", "translate-isr", "stats", "score-gold", "score-predicted", "train",
    "parse",
])
def test_an_input_that_is_not_utf8_names_its_file(capsys, tmp_path, request, command):
    bad, good, output = tmp_path / "bad.txt", tmp_path / "good.mrg", tmp_path / "out.txt"
    bad.write_bytes(b"(S (NN a))\n(S (NN \xff))\n")
    good.write_text("(S (NN a))\n(S (NN b))\n")
    argv = {
        "verify": ["verify", bad],
        "oracle": ["oracle", bad, output],
        "translate-isr": ["translate-isr", bad, output],
        "stats": ["stats", bad],
        "score-gold": ["score", bad, good],
        "score-predicted": ["score", good, bad],
        "train": ["train", bad, "--model", output],
    }.get(command)
    if command == "parse":
        argv = request.getfixturevalue("writing_argv")("parse", output)
        bad.write_bytes(b"a_NN\n\xff_NN\n")
        argv[1] = bad
    code, out, err = run(capsys, *map(str, argv))
    assert (code, out) == (1, "RESULT ok=0 fail=1\n")
    assert err == f"{bad}: byte 0xff is not UTF-8 text (invalid start byte)\n"
    assert not output.exists()


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_an_input_error_comes_before_the_output_error(capsys, tmp_path, writing_argv, command):
    argv = writing_argv(command, tmp_path / "missing" / "out.txt")
    argv[1] = str(tmp_path / "no-such-input")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "RESULT ok=0 fail=1\n")
    assert err == f"[Errno 2] No such file or directory: {argv[1]!r}\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify"], 2),
        (["parse", "in.txt", "out.mrg", "--model", "m.model", "--beam", "x"], 2),
        (["no-such-command"], 2),
        (["-h"], 0),
    ],
)
def test_usage_errors_end_in_a_result_line(capsys, argv, code):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out = capsys.readouterr()
    assert exit_.value.code == code
    if code:
        assert "usage:" in out.err
        assert result_line(out.out) == "RESULT ok=0 fail=1"
    else:
        assert "RESULT" not in out.out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_beam_and_epochs_below_one_are_usage_errors(capsys, sample_path, tmp_path, count):
    model, sentences = tmp_path / "m.model", tmp_path / "in.txt"
    run(capsys, "train", sample_path, "--model", str(model), "--epochs", "1")
    sentences.write_text("the king\nwaves\n")
    parsed, retrained = tmp_path / "out.mrg", tmp_path / "new.model"
    for argv, written in (
        (["parse", str(sentences), str(parsed), "--model", str(model), "--beam", count], parsed),
        (["train", sample_path, "--model", str(retrained), "--epochs", count], retrained),
    ):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        out = capsys.readouterr()
        assert exit_.value.code == 2
        assert f"expected a positive integer, got '{count}'" in out.err
        assert result_line(out.out) == "RESULT ok=0 fail=1"
        assert not written.exists()


def test_oracle_output_lines(capsys, sample_path, tmp_path):
    out_path = tmp_path / "actions.tsv"
    code, out, _ = run(capsys, "oracle", sample_path, str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 3
    first = lines[0].split("\t")
    assert first[0] == "0" and first[1] == "6"
    assert first[2] == (
        "attach(0,NP) juxtapose(0,VP,S) attach(1,NP)"
        " juxtapose(2,PP,NP) attach(3,NP) attach(4,None)"
    )


def test_translate_isr_golden_fragment(capsys, sample_path, tmp_path):
    out_path = tmp_path / "isr.txt"
    code, out, _ = run(capsys, "translate-isr", sample_path, str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert "reduce pj:NP shift pj:PP" in lines[0]
    assert len(lines[0].split()) == 20  # n + 2m for the first fixture


# sha256 of the whole output file of each command, on the fixture and on a
# 300-sentence synth corpus.
GOLDEN_OUTPUTS = {
    ("sample", "oracle"): "0c8cb9669d50ab3f3d60d9addfa4f08f771450b956bb9c4c13b14ffaa77a4895",
    ("sample", "translate-isr"): "311294977c3c03d655c8d152ffd4e91ecd3b607f90b0c1176b50fe05b0417d93",
    ("synth", "oracle"): "82639800ad6744d3a596ff49efe45e2e04bab818b2388762a85476c1d67df265",
    ("synth", "translate-isr"): "20951c79fbcb4d25077b599b2ffd6dc193f0a05b3d37f4aef9112ac0e7739432",
}


@pytest.mark.parametrize("corpus, command", sorted(GOLDEN_OUTPUTS))
def test_oracle_and_translate_isr_golden_digests(capsys, sample_path, tmp_path, corpus, command):
    path = sample_path
    if corpus == "synth":
        path = str(tmp_path / "synth.mrg")
        write_corpus(generate_corpus(300, seed=7), path)
    out_path = tmp_path / "out.txt"
    code, out, _ = run(capsys, command, path, str(out_path))
    assert code == 0
    assert result_line(out) == f"RESULT ok={3 if corpus == 'sample' else 300} fail=0"
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == GOLDEN_OUTPUTS[corpus, command]


def test_enumerate_check_small(capsys):
    code, out, _ = run(capsys, "enumerate-check", "--n-max", "2", "--vocab-size", "2")
    assert code == 0
    assert "case tally:" in out
    assert "1-1=0" in out
    assert result_line(out).startswith("RESULT ok=")
    assert result_line(out).endswith("fail=0")


def test_enumerate_check_counts(capsys):
    # Pins every count of the exhaustive check at the benchmark's bounds.
    code, out, _ = run(capsys, "enumerate-check", "--n-max", "3", "--vocab-size", "2")
    assert code == 0
    assert out.splitlines() == [
        "trees checked: 290",
        "action sequences enumerated: 290",
        "case tally: 1-1=0 1-2=100 1-3=50 2-1=290 2-2=272 2-3=136",
        "augmented trees checked: 19894",
        "legal stacks checked: 28822",
        "reduce-lemma states checked: 14774",
        "translated steps checked: 848",
        "RESULT ok=49854 fail=0",
    ]


def _second_result_changed(real, change):
    """``real`` with ``change`` applied to what its second call returns,
    the call for entry 1 of a three-entry file."""
    calls = []

    def changed(*args):
        calls.append(args)
        result = real(*args)
        return change(result) if len(calls) == 2 else result

    return changed


def _second_shift_moved_up(actions):
    """The second shift moved to follow the first, which leaves two subtrees
    with no projection beneath them."""
    actions = list(actions)
    actions.insert(1, actions.pop(actions.index(SHIFT, 1)))
    return actions


@pytest.mark.parametrize("change, message", [
    (_second_shift_moved_up, "illegal intermediate stack during replay"),
    (lambda actions: actions[:-1], "replayed stack does not hold the gold tree"),
], ids=["illegal-order", "no-final-reduce"])
def test_translate_isr_reports_a_broken_translation(capsys, tmp_path, monkeypatch, sample_path,
                                                    change, message):
    clean, output = tmp_path / "clean.txt", tmp_path / "out.txt"
    run(capsys, "translate-isr", sample_path, str(clean))
    monkeypatch.setattr(cli, "translate_sequence",
                        _second_result_changed(cli.translate_sequence, change))
    output.write_bytes(b"earlier output\n")
    code, out, err = run(capsys, "translate-isr", sample_path, str(output))
    assert (code, out, err) == (1, "RESULT ok=2 fail=1\n", f"entry 1: {message}\n")
    # The output holds the other entries' lines, as a clean run writes them.
    lines = clean.read_text().splitlines(keepends=True)
    assert output.read_text() == lines[0] + lines[2]
    assert sorted(os.listdir(tmp_path)) == ["clean.txt", "out.txt"]


def test_verify_reports_a_tree_rebuilt_wrong(capsys, monkeypatch, sample_path):
    wrong = parse_bracketed("(X (T x))")
    monkeypatch.setattr(cli, "apply_sequence",
                        _second_result_changed(cli.apply_sequence, lambda tree: wrong))
    code, out, err = run(capsys, "verify", sample_path)
    assert (code, out, err) == (1, "RESULT ok=2 fail=1\n", "entry 1: rebuilt tree differs\n")


def test_enumerate_check_reports_a_broken_oracle(capsys, monkeypatch):
    real = exhaustive.oracle_action_sequence

    def drops_the_second_action(tree, **kwargs):
        return real(tree, **kwargs)[:1]

    monkeypatch.setattr(exhaustive, "oracle_action_sequence", drops_the_second_action)
    code, out, err = run(capsys, "enumerate-check", "--n-max", "2", "--vocab-size", "1")
    assert code == 1
    # Each two-leaf tree fails to rebuild and translates one step fewer.
    assert out.splitlines() == [
        "trees checked: 5",
        "action sequences enumerated: 5",
        "case tally: 1-1=0 1-2=1 1-3=1 2-1=5 2-2=1 2-3=1",
        "augmented trees checked: 48",
        "legal stacks checked: 92",
        "reduce-lemma states checked: 31",
        "translated steps checked: 5",
        "RESULT ok=150 fail=4",
    ]
    assert err == "".join(
        f"COUNTEREXAMPLE: oracle failed to rebuild {tree!r}\n"
        for tree in enumerate_trees(2, ["A"])
    )


def test_enumerate_check_bounds(capsys):
    for bound in (["--n-max", "9"], ["--n-max", "0"], ["--n-max", "-2"], ["--vocab-size", "0"]):
        code, out, err = run(capsys, "enumerate-check", *bound)
        assert code == 1
        assert result_line(out) == "RESULT ok=0 fail=1"


def test_stats(capsys, sample_path):
    code, out, _ = run(capsys, "stats", sample_path)
    assert code == 0
    assert "sentences: 3" in out
    assert "action attach:" in out


def test_stats_counts_failures_per_entry(capsys, tmp_path, sample_path):
    p = tmp_path / "mixed.mrg"
    with open(sample_path) as fh:
        good = fh.read().splitlines()
    p.write_text("\n".join([good[0], "(S (NP (NN a)))", good[1]]) + "\n")
    code, out, err = run(capsys, "stats", str(p), "--no-normalize")
    assert code == 1
    assert result_line(out) == "RESULT ok=2 fail=1"
    assert "sentences: 2" in out
    assert "entry 1:" in err
    code, out, _ = run(capsys, "verify", str(p), "--no-normalize")
    assert result_line(out) == "RESULT ok=2 fail=1"
    # oracle and translate-isr write lines for entries 0 and 2 only, the
    # same lines they write for them when entry 1 is a good tree.
    all_good = tmp_path / "good.mrg"
    all_good.write_text("\n".join([good[0], good[2], good[1]]) + "\n")
    for command in ("oracle", "translate-isr"):
        expected = tmp_path / f"{command}-good.txt"
        code, out, _ = run(capsys, command, str(all_good), str(expected), "--no-normalize")
        assert (code, result_line(out)) == (0, "RESULT ok=3 fail=0")
        written = tmp_path / f"{command}.txt"
        code, out, err = run(capsys, command, str(p), str(written), "--no-normalize")
        assert (code, result_line(out)) == (1, "RESULT ok=2 fail=1")
        assert "entry 1: oracle input must not contain unary chains" in err
        lines = expected.read_text().splitlines(keepends=True)
        assert written.read_text() == lines[0] + lines[2]


def test_parse_writes_parentheses_as_ptb_tokens(capsys, tmp_path):
    gold_text = "(S (NP (DT the) (-LRB- -LRB-) (NN king) (-RRB- -RRB-)) (VP (VBZ waves)))"
    gold = tmp_path / "gold.mrg"
    gold.write_text((gold_text + "\n") * 3)
    model = tmp_path / "m.model"
    run(capsys, "train", str(gold), "--model", str(model), "--epochs", "3")
    sents = tmp_path / "sents.txt"
    sents.write_text("the_DT (_( king_NN )_) waves_VBZ\n")
    predicted = tmp_path / "pred.mrg"
    code, out, _ = run(capsys, "parse", str(sents), str(predicted), "--model", str(model))
    assert (code, result_line(out)) == (0, "RESULT ok=1 fail=0")
    text = predicted.read_text()
    assert "(-LRB- -LRB-)" in text and "(-RRB- -RRB-)" in text
    gold.write_text(gold_text + "\n")
    code, out, _ = run(capsys, "score", str(gold), str(predicted))
    assert (code, result_line(out)) == (0, "RESULT ok=1 fail=0")
    assert "sentences=1" in out


def test_parse_fails_only_the_sentence_with_a_parenthesis(capsys, tmp_path, corpus_file):
    model, sents = _trained_model(capsys, tmp_path, corpus_file)
    sents.write_text("Arthur_NNP sees_VBZ\nthe_DT gr(ail_NN\nArthur_NNP waves_V)BZ\n")
    predicted = tmp_path / "pred.mrg"
    code, out, err = run(capsys, "parse", str(sents), str(predicted), "--model", str(model))
    assert (code, result_line(out)) == (1, "RESULT ok=1 fail=2")
    assert "sentence 1:" in err and "sentence 2:" in err
    assert "Traceback" not in err
    assert predicted.read_text().splitlines()[1:] == ["", ""]


def test_train_parse_score_pipeline(capsys, tmp_path, corpus_file):
    model = tmp_path / "m.model"
    code, out, err = run(
        capsys, "train", corpus_file, "--model", str(model), "--epochs", "4",
        "--seed", "3",
    )
    assert code == 0
    assert model.exists()
    assert "epoch 1:" in err

    # Sentences from the training corpus, in token_POS form.
    from ajparse.treebank import load_corpus, tokens_of

    entries = load_corpus(corpus_file)
    sents = tmp_path / "sents.txt"
    sents.write_text(
        "\n".join(
            " ".join(f"{t.word}_{t.pos}" for t in tokens_of(e.tree))
            for e in entries
        )
        + "\n"
    )
    predicted = tmp_path / "pred.mrg"
    code, out, _ = run(
        capsys, "parse", str(sents), str(predicted), "--model", str(model),
        "--beam", "2",
    )
    assert code == 0
    assert len(predicted.read_text().splitlines()) == 30

    code, out, _ = run(capsys, "score", corpus_file, str(predicted))
    assert code == 0
    f1 = float([l for l in out.splitlines() if l.startswith("F1")][0].split()[1])
    assert f1 > 80.0  # memorizing model on training sentences


def test_train_determinism(capsys, tmp_path, corpus_file):
    a, b = tmp_path / "a.model", tmp_path / "b.model"
    run(capsys, "train", corpus_file, "--model", str(a), "--epochs", "2", "--seed", "5")
    run(capsys, "train", corpus_file, "--model", str(b), "--epochs", "2", "--seed", "5")
    assert a.read_bytes() == b.read_bytes()


def test_score_gold_vs_gold(capsys, corpus_file):
    code, out, _ = run(capsys, "score", corpus_file, corpus_file)
    assert code == 0
    assert "F1 100.00" in out
    assert "EM 1.00" in out


def test_score_mismatched_corpora(capsys, tmp_path, corpus_file, sample_path):
    code, out, err = run(capsys, "score", corpus_file, sample_path)
    assert code == 1
    assert "RESULT ok=0 fail=1" in out


def test_score_names_sentence_of_malformed_label(capsys, tmp_path):
    gold = tmp_path / "gold.mrg"
    gold.write_text("(S (A (T a)) (B (T b)))\n(S (A (T a)) (B (T b)))\n")
    pred = tmp_path / "pred.mrg"
    pred.write_text("(S (A (T a)) (B (T b)))\n(S (A+ (T a)) (B (T b)))\n")
    code, out, err = run(capsys, "score", str(gold), str(pred))
    assert (code, result_line(out)) == (1, "RESULT ok=0 fail=1")
    assert err.strip() == "sentence 1: malformed collapsed label: 'A+'"


_GOLD = ("(S (NP (NN a)) (VP (VB b)))", "(S (NP (NN c)) (VP (VB d)))",
         "(S (NP (NN e)) (VP (VB f)))")
# Sentence 0 of the gold file with another first word.
_WRONG_WORD = "(S (NP (NN x)) (VP (VB b)))"


def _score(capsys, tmp_path, gold, predicted, *flags):
    gold_path, predicted_path = tmp_path / "gold.mrg", tmp_path / "pred.mrg"
    gold_path.write_text("\n".join(gold) + "\n")
    predicted_path.write_text("\n".join(predicted) + "\n")
    return gold_path, predicted_path, run(capsys, "score", str(gold_path), str(predicted_path),
                                          *flags)


def test_score_counts_the_streamed_file_before_naming_a_sentence(capsys, tmp_path):
    _, _, (code, out, err) = _score(capsys, tmp_path, _GOLD, [_WRONG_WORD, _GOLD[1]])
    assert (code, out) == (1, "RESULT ok=0 fail=1\n")
    assert err == "gold has 3 sentences but predicted has 2\n"


def test_score_reports_a_later_predicted_load_error_first(capsys, tmp_path):
    cut = _GOLD[2][:-3]
    _, predicted, (code, out, err) = _score(capsys, tmp_path, _GOLD, [_WRONG_WORD, _GOLD[1], cut])
    assert (code, out) == (1, "RESULT ok=0 fail=1\n")
    assert err == load_error(predicted, plain_labels=False) + "\n"
    assert err.startswith("unbalanced '('")


def test_score_reports_the_gold_load_error_before_the_predicted_one(capsys, tmp_path):
    gold, _, (code, out, err) = _score(capsys, tmp_path, [_GOLD[0], "(S (NN a b))"],
                                       ["()", _GOLD[1]])
    assert (code, out) == (1, "RESULT ok=0 fail=1\n")
    assert err == load_error(gold, plain_labels=False) + "\n"
    assert err.startswith("multiple tokens in one preterminal (entry 1)")


def test_score_lenient_warnings_name_gold_skips_first(capsys, tmp_path):
    # The gold file's malformed entry comes last, the predicted file's first.
    _, _, (code, out, err) = _score(capsys, tmp_path, [*_GOLD[:2], "(S (NN a b))"],
                                    ["()", *_GOLD[:2]], "--lenient")
    assert (code, result_line(out)) == (0, "RESULT ok=2 fail=0")
    assert err.splitlines() == [
        "skipping malformed entry 2: multiple tokens in one preterminal (offset 9)",
        "skipping malformed entry 0: empty constituent (offset 0)",
    ]


def test_score_lenient_predicted_skips_before_and_after_gold_ends_precede_the_count(
        capsys, tmp_path):
    # The predicted file's entry 0 is read while gold is still open, its
    # entry 2 only after gold's end; both lines wait for that end, and the
    # count mismatch follows them.
    _, _, (code, out, err) = _score(capsys, tmp_path, ["(S (NN a))"],
                                    ["()", "(S (NN a))", "(S (NN b) ())", "(S (NN c))"],
                                    "--lenient")
    assert (code, out) == (1, "RESULT ok=0 fail=1\n")
    assert err.splitlines() == [
        "skipping malformed entry 0: empty constituent (offset 0)",
        "skipping malformed entry 2: empty constituent (offset 10)",
        "gold has 1 sentences but predicted has 2",
    ]


@pytest.mark.parametrize("flags", [(), ("--lenient",)])
def test_score_gold_load_error_hides_an_earlier_predicted_one(capsys, tmp_path, flags):
    # The predicted file's skipped entry and its cut one are both read before
    # gold's stray text; neither its warning nor its error may show.
    gold, _, (code, out, err) = _score(capsys, tmp_path, [*_GOLD[:2], "x"],
                                       ["()", _GOLD[0], "(S"], *flags)
    assert (code, out) == (1, "RESULT ok=0 fail=1\n")
    assert err == load_error(gold, plain_labels=False) + "\n"
    assert err.startswith("stray text 'x' between trees")


def test_score_missing_predicted_file_after_a_gold_load_error(capsys, tmp_path):
    gold = tmp_path / "gold.mrg"
    gold.write_text(_GOLD[0] + "\n(S\n")
    code, out, err = run(capsys, "score", str(gold), str(tmp_path / "missing.mrg"))
    assert (code, out) == (1, "RESULT ok=0 fail=1\n")
    assert err == load_error(gold, plain_labels=False) + "\n"


def test_score_longer_predicted_file_reports_its_load_error_not_the_count(capsys, tmp_path):
    cut = _GOLD[2][:-3]
    _, predicted, (code, out, err) = _score(capsys, tmp_path, _GOLD[:2], [*_GOLD, cut])
    assert (code, out) == (1, "RESULT ok=0 fail=1\n")
    assert err == load_error(predicted, plain_labels=False) + "\n"
    assert err.startswith("unbalanced '('")


@pytest.fixture(scope="module")
def heap_peak(tmp_path_factory):
    """``heap_peak(command, sentences)``: the input file size and the heap
    peak of one corpus command on a ``synth`` file (seed 5) of that many
    sentences, each measured once per module. ``parse`` reads the file's
    sentences with a model of one label, which keeps decoding cheap."""
    directory = tmp_path_factory.mktemp("peaks")
    sample = os.path.join(os.path.dirname(__file__), "fixtures", "sample.mrg")
    one_label, model = directory / "one-label.mrg", str(directory / "one-label.model")
    one_label.write_text("(S (NN a) (NN b))\n")
    _words(sample, directory / "sample.txt")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        # Imports and caches are not the commands' heap.
        main(["stats", sample])
        main(["train", str(one_label), "--model", model, "--epochs", "1"])
        main(["parse", str(directory / "sample.txt"), str(directory / "sample.out"),
              "--model", model])
    peaks = {}

    def measure(command, sentences):
        path = directory / f"{sentences}.mrg"
        if not path.exists():
            write_corpus(generate_corpus(sentences, seed=5), str(path))
        if command == "parse":
            path = directory / f"{sentences}.txt"
            if not path.exists():
                _words(directory / f"{sentences}.mrg", path)
        if (command, sentences) not in peaks:
            argv = {"oracle": [path, directory / "actions.tsv"], "score": [path, path],
                    "translate-isr": [path, directory / "isr.txt"],
                    "parse": [path, directory / "parsed.mrg", "--model", model]}.get(command, [path])
            with contextlib.redirect_stdout(io.StringIO()):
                tracemalloc.start()
                try:
                    code = main([command, *map(str, argv)])
                    peaks[command, sentences] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert code == 0, command
        return os.path.getsize(path), peaks[command, sentences]

    return measure


def test_corpus_commands_hold_one_tree_at_a_time(heap_peak):
    """Each corpus command's heap peak stays a small multiple of its input
    file: it holds one entry's text and one tree, not every loaded tree,
    which took over 15 times the file size. ``score`` reads its two files
    in lockstep, so it holds one tree of each."""
    for command in ("verify", "oracle", "translate-isr", "stats", "score"):
        size, peak = heap_peak(command, 300)
        assert peak < 8 * size, (command, peak / size)


def test_corpus_command_peaks_do_not_grow_with_the_file(heap_peak):
    """A file four times as long leaves the peak of each command about where
    it was: no command holds its input or its output lines."""
    for command in ("verify", "stats", "score", "oracle", "translate-isr", "parse"):
        peaks = heap_peak(command, 300)[1], heap_peak(command, 1200)[1]
        assert peaks[1] < 1.5 * peaks[0], (command, peaks)


def _trained_model(capsys, tmp_path, corpus_file):
    model = tmp_path / "m.model"
    run(capsys, "train", corpus_file, "--model", str(model), "--epochs", "1")
    sents = tmp_path / "sents.txt"
    sents.write_text("Arthur_NNP sees_VBZ the_DT grail_NN\n")
    return model, sents


def test_parse_rejects_model_cut_before_end(capsys, tmp_path, corpus_file):
    model, sents = _trained_model(capsys, tmp_path, corpus_file)
    text = model.read_text()
    model.write_text(text[: text.index("[parent]")])
    with pytest.raises(ModelFormatError):
        ActionScorer.load(str(model))
    code, out, err = run(capsys, "parse", str(sents), str(tmp_path / "o.mrg"),
                         "--model", str(model))
    assert code == 1
    assert result_line(out) == "RESULT ok=0 fail=1"
    assert "ends before [end]" in err


def test_every_prefix_of_a_model_file_loads_whole_or_fails_by_name(capsys, tmp_path,
                                                                  sample_path):
    """Only the whole file, with or without its final newline, loads; any
    shorter prefix makes ``parse`` end in a named model error. Cut at every
    byte of the first two lines and of the last three, and at every line
    boundary between them."""
    model, sents = _trained_model(capsys, tmp_path, sample_path)
    data = model.read_bytes()
    whole = ActionScorer.load(str(model))
    starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    cuts = {*range(starts[2] + 1), *starts, *range(starts[-4], len(data) + 1)}
    prefix, output = tmp_path / "cut.model", tmp_path / "o.mrg"
    loaded = []
    for cut in sorted(cuts):
        prefix.write_bytes(data[:cut])
        code, out, err = run(capsys, "parse", str(sents), str(output), "--model", str(prefix))
        if code == 0:
            assert ActionScorer.load(str(prefix)) == whole, cut
            loaded.append(cut)
            continue
        assert (code, out) == (1, "RESULT ok=0 fail=1\n"), cut
        assert err.startswith(f"{prefix}: ") and err.count("\n") == 1, (cut, err)
        assert not output.exists()
    assert loaded == [len(data) - 1, len(data)]
    # A model cut inside a two-byte character fails by name too.
    cafe = tmp_path / "cafe.mrg"
    cafe.write_text("(S (NP (NN café)) (VP (VB b)))\n", encoding="utf-8")
    run(capsys, "train", str(cafe), "--model", str(model), "--epochs", "1")
    data = model.read_bytes()
    prefix.write_bytes(data[:data.index("é".encode()) + 1])
    output = tmp_path / "cafe.out"
    code, out, err = run(capsys, "parse", str(sents), str(output), "--model", str(prefix))
    assert (code, out) == (1, "RESULT ok=0 fail=1\n")
    assert err == f"{prefix}: byte 0xc3 is not UTF-8 text (unexpected end of data)\n"
    assert not output.exists()


def test_parse_rejects_non_integer_model_version(capsys, tmp_path, corpus_file):
    model, sents = _trained_model(capsys, tmp_path, corpus_file)
    text = model.read_text()
    model.write_text("ajparse-model\tx\n" + text.split("\n", 1)[1])
    code, out, err = run(capsys, "parse", str(sents), str(tmp_path / "o.mrg"),
                         "--model", str(model))
    assert code == 1
    assert result_line(out) == "RESULT ok=0 fail=1"
    assert f"{model}: model version 'x' is not an integer" in err
    assert "invalid literal" not in err


def test_train_refuses_label_spelled_like_no_label(capsys, tmp_path):
    """Model files write the no-label slot as ``<none>``, so a treebank
    label spelled so would share that slot's lines."""
    gold = tmp_path / "none.mrg"
    gold.write_text(
        "(S (<none> (DT the) (NN king)) (VP (VBZ sees) (<none> (DT a) (NN sword))))\n"
        "(S (NP (NNP Arthur)) (VP (VBZ waves)))\n"
    )
    model = tmp_path / "none.model"
    code, out, err = run(capsys, "train", str(gold), "--model", str(model), "--epochs", "3")
    assert (code, result_line(out)) == (1, "RESULT ok=0 fail=1")
    assert "spelled '<none>'" in err
    assert "epoch" not in err  # refused before the first epoch
    assert not model.exists()


@pytest.mark.parametrize("text, flags, skipped", [
    ("", (), []),
    ("(S (NN a) ())\n(S (NN b c))\n", ("--lenient",), [
        "skipping malformed entry 0: empty constituent (offset 10)",
        "skipping malformed entry 1: multiple tokens in one preterminal (offset 9)",
    ]),
], ids=["empty", "all-skipped"])
def test_train_on_no_entries_names_the_empty_corpus(capsys, tmp_path, text, flags, skipped):
    gold, model = tmp_path / "gold.mrg", tmp_path / "m.model"
    gold.write_text(text)
    code, out, err = run(capsys, "train", str(gold), "--model", str(model), *flags)
    assert (code, out) == (1, "RESULT ok=0 fail=1\n")
    assert err.splitlines() == [*skipped, "cannot train on an empty corpus"]
    assert not model.exists()


def test_parse_refuses_model_label_it_cannot_write(capsys, tmp_path):
    """A label holding a space would be written as two atoms, which
    ``score`` cannot read back, so the model does not load."""
    model, sents, output = tmp_path / "space.model", tmp_path / "in.txt", tmp_path / "o.mrg"
    model.write_text("ajparse-model\t1\nlabels\tNP\tN P\n[end]\n")
    sents.write_text("the_DT king_NN\n")
    code, out, err = run(capsys, "parse", str(sents), str(output), "--model", str(model))
    assert (code, result_line(out)) == (1, "RESULT ok=0 fail=1")
    assert "'N P'" in err
    assert not output.exists()


@pytest.mark.parametrize("body, message", [
    ("label\tNP\n[end]\n", "missing label vocabulary"),
    ("labels\tNP\n[bogus]\n[end]\n", "unknown section [bogus]"),
    ("labels\tNP\nt.d=0\t1.0\n[target]\n[end]\n", "weight line outside a section"),
], ids=["no-labels", "unknown-section", "weight-before-section"])
def test_parse_rejects_malformed_model_file(capsys, tmp_path, body, message):
    model, sents, output = tmp_path / "bad.model", tmp_path / "in.txt", tmp_path / "o.mrg"
    model.write_text("ajparse-model\t1\n" + body)
    sents.write_text("the_DT king_NN\n")
    code, out, err = run(capsys, "parse", str(sents), str(output), "--model", str(model))
    assert (code, result_line(out)) == (1, "RESULT ok=0 fail=1")
    assert f"{model}: {message}" in err


def test_parse_reads_words_without_a_tag(capsys, tmp_path):
    """A word with no ``_POS`` is written as an ``XX`` leaf; ``_NN``, whose
    only underscore leads, is a word, not a tag."""
    model, sents, output = tmp_path / "m.model", tmp_path / "in.txt", tmp_path / "o.mrg"
    model.write_text("ajparse-model\t1\nlabels\tS\n[end]\n")
    sents.write_text("Arthur waves _NN\n")
    code, out, _ = run(capsys, "parse", str(sents), str(output), "--model", str(model))
    assert (code, result_line(out)) == (0, "RESULT ok=1 fail=0")
    leaves = re.findall(r"\((\S+) ([^\s()]+)\)", output.read_text())
    assert leaves == [("XX", "Arthur"), ("XX", "waves"), ("XX", "_NN")]


def test_parse_rejects_short_weight_line(capsys, tmp_path, corpus_file):
    model, sents = _trained_model(capsys, tmp_path, corpus_file)
    lines = model.read_text().splitlines(keepends=True)
    i = lines.index("[parent]\n") + 1
    lines[i] = lines[i].split("\t", 1)[1]  # drop the feature field
    model.write_text("".join(lines))
    with pytest.raises(ModelFormatError):
        ActionScorer.load(str(model))
    code, out, err = run(capsys, "parse", str(sents), str(tmp_path / "o.mrg"),
                         "--model", str(model))
    assert code == 1
    assert result_line(out) == "RESULT ok=0 fail=1"
    assert "expected 3" in err


def test_parse_rejects_non_finite_weights(capsys, tmp_path, corpus_file):
    model, sents = _trained_model(capsys, tmp_path, corpus_file)
    lines = model.read_text().splitlines(keepends=True)
    for section, value in (("[target]\n", "inf"), ("[parent]\n", "nan")):
        i = lines.index(section) + 1
        lines[i] = lines[i].rsplit("\t", 1)[0] + f"\t{value}\n"
    model.write_text("".join(lines))
    with pytest.raises(ModelFormatError, match=r"\[target\] weight 'inf'"):
        ActionScorer.load(str(model))
    code, out, err = run(capsys, "parse", str(sents), str(tmp_path / "o.mrg"),
                         "--model", str(model))
    assert code == 1
    assert result_line(out) == "RESULT ok=0 fail=1"
    assert str(model) in err and "[target]" in err and "not a finite number" in err
    assert "Traceback" not in err


_OVERFLOWING_MODELS = {
    # Each weight is finite, but their sum at target depth 0 is inf.
    "inf": "[target]\nt.d=0\t1e308\nt.dist=0\t1e308\nt.lab=S\t1e308\n[parent]\n[new]\n",
    # The same sum is -inf, so every joint score of the step is -inf.
    "minus-inf": "[target]\nt.d=0\t-1e308\nt.dist=0\t-1e308\n[parent]\n[new]\n",
    # Target depth 0 sums to inf and new label NP to -inf after a noun, so
    # the step holds inf and nan joint scores.
    "mixed": "[target]\nt.d=0\t1e308\nt.dist=0\t1e308\n[parent]\n"
             "[new]\np=NN\tNP\t-1e308\nw|p=b|NN\tNP\t-1e308\n",
}


@pytest.mark.parametrize("weights", sorted(_OVERFLOWING_MODELS))
@pytest.mark.parametrize("beam", [1, 3, 10])
def test_parse_fails_sentences_whose_scores_overflow(capsys, tmp_path, beam, weights):
    model = tmp_path / "m.model"
    model.write_text(f"ajparse-model\t1\nlabels\tNP\tS\n{_OVERFLOWING_MODELS[weights]}[end]\n")
    sents = tmp_path / "sents.txt"
    sents.write_text("a_DT b_NN c_NN d_NN e_VB\na_DT\n")
    code, out, err = run(capsys, "parse", str(sents), str(tmp_path / "o.mrg"),
                         "--model", str(model), "--beam", str(beam))
    assert code == 1
    assert result_line(out) == "RESULT ok=1 fail=1"
    assert "sentence 0: step scores overflow" in err
    assert "internal error" not in err


@pytest.mark.parametrize("value", ["-inf", "nan", "NaN", "1e999", "x"])
def test_model_load_rejects_non_finite_parent_weight(tmp_path, value):
    model = tmp_path / "m.model"
    model.write_text(
        f"ajparse-model\t1\nlabels\tS\n[target]\n[parent]\nw=a\tS\t{value}\n"
        "[new]\n[end]\n"
    )
    with pytest.raises(ModelFormatError, match=r"m\.model: \[parent\] weight"):
        ActionScorer.load(str(model))


def _right_branching(levels):
    """``(S (T w0) (S (T w1) ... (S (T wN))...))``, ``levels`` S nodes deep."""
    opens = "".join(f"(S (T w{i}) " for i in range(levels - 1))
    return opens + f"(S (T w{levels - 1}))" + ")" * (levels - 1)


def test_deeper_than_recursion_limit(capsys, tmp_path):
    levels = 1100  # CPython's default recursion limit is 1000 frames
    text = _right_branching(levels)
    tree = parse_bracketed(text)
    assert len(tokens_of(tree)) == levels
    assert len(rightmost_chain(tree)) == levels
    assert write_bracketed(tree) == text
    assert tree_equal(parse_bracketed(write_bracketed(tree)), tree)
    baseline = decode_right_branching(tokens_of(tree), "S")
    assert len(tokens_of(baseline)) == levels

    gold = str(tmp_path / "deep.mrg")
    write_corpus([tree], gold)
    for argv in (
        ["oracle", gold, str(tmp_path / "actions.tsv")],
        ["verify", gold],
        ["translate-isr", gold, str(tmp_path / "isr.txt")],
        ["stats", gold],
        ["score", gold, gold],
    ):
        code, out, _ = run(capsys, *argv)
        assert (code, result_line(out)) == (0, "RESULT ok=1 fail=0"), argv


def _flat(leaves):
    """``(S (T w0) (T w1) ... (T wN))``, one node over ``leaves`` leaves."""
    return "(S " + " ".join(f"(T w{i})" for i in range(leaves)) + ")"


@pytest.mark.parametrize("text", [_right_branching(5000), _flat(5000)], ids=["deep", "flat"])
def test_long_sentence_through_every_corpus_command(capsys, tmp_path, text):
    # At 5,000 tokens a command that rebuilds the tree per action, O(n^2),
    # takes about a minute on the deep sentence.
    gold = tmp_path / "long.mrg"
    gold.write_text(text + "\n")
    gold = str(gold)
    for argv in (
        ["oracle", gold, str(tmp_path / "actions.tsv")],
        ["verify", gold],
        ["translate-isr", gold, str(tmp_path / "isr.txt")],
        ["stats", gold],
        ["score", gold, gold],
    ):
        code, out, _ = run(capsys, *argv)
        assert (code, result_line(out)) == (0, "RESULT ok=1 fail=0"), argv


def test_long_flat_sentence_through_train_and_parse(capsys, tmp_path):
    # Decoding steps one open chain per beam item; closing the whole tree
    # per action would make this O(n^2). The deep sentence stays out: each
    # step scores every chain depth, O(n * depth), minutes at 5,000 levels.
    gold = tmp_path / "flat.mrg"
    gold.write_text(_flat(5000) + "\n")
    sents = tmp_path / "flat.txt"
    sents.write_text(" ".join(f"w{i}_T" for i in range(5000)) + "\n")
    model = str(tmp_path / "flat.model")
    code, out, _ = run(capsys, "train", str(gold), "--model", model, "--epochs", "1")
    assert (code, result_line(out)) == (0, "RESULT ok=1 fail=0")
    for beam in ("1", "10"):
        parsed = str(tmp_path / f"beam{beam}.mrg")
        for argv in (
            ["parse", str(sents), parsed, "--model", model, "--beam", beam],
            ["verify", parsed],
            ["score", str(gold), parsed],
        ):
            code, out, _ = run(capsys, *argv)
            assert (code, result_line(out)) == (0, "RESULT ok=1 fail=0"), argv


def test_unexpected_error_ends_in_result_line(capsys, monkeypatch, sample_path):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("ajparse.cli.cmd_stats", broken)
    code, out, err = run(capsys, "stats", sample_path)
    assert code == 1
    assert result_line(out) == "RESULT ok=0 fail=1"
    assert err.strip() == "internal error: RuntimeError: boom"


@settings(max_examples=100, deadline=None)
@given(
    text=mangled_treebanks(),
    command=st.sampled_from(["oracle", "verify", "translate-isr", "score", "stats"]),
    lenient=st.booleans(),
    no_normalize=st.booleans(),
)
def test_cut_and_mangled_treebanks_end_in_a_result_line(tmp_path_factory, text, command, lenient,
                                                         no_normalize):
    work = tmp_path_factory.getbasetemp()
    gold = work / "mangled.mrg"
    gold.write_text(text, encoding="utf-8")
    argv = [command, str(gold)]
    if command in ("oracle", "translate-isr"):
        argv.append(str(work / f"mangled.{command}"))
    elif command == "score":
        argv.append(str(gold))
    if lenient:
        argv.append("--lenient")
    if no_normalize and command != "score":
        argv.append("--no-normalize")
    _assert_ends_in_a_result_line(argv)


def _assert_ends_in_a_result_line(argv):
    """Run ``main(argv)``: it must print no ``internal error``, end in a
    ``RESULT`` line and exit 0 exactly when that line counts no failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "internal error" not in err.getvalue(), argv
    ok_fail = re.fullmatch(r"RESULT ok=(\d+) fail=(\d+)", out.getvalue().splitlines()[-1])
    assert ok_fail, argv
    assert code == (0 if ok_fail.group(2) == "0" else 1), argv


SAMPLE_PATH = os.path.join(os.path.dirname(__file__), "fixtures", "sample.mrg")
with open(SAMPLE_PATH, encoding="utf-8") as fh:
    SAMPLE_TEXT = fh.read()
# The sample treebank whole or cut anywhere, which under --lenient leaves
# whole entries to train on, and generated treebanks, cut and mangled.
train_texts = st.one_of(
    st.just(SAMPLE_TEXT),
    st.integers(0, len(SAMPLE_TEXT)).map(lambda cut: SAMPLE_TEXT[:cut]),
    mangled_treebanks(),
)


@settings(max_examples=60, deadline=None)
@given(text=train_texts, lenient=st.booleans(), epochs=st.integers(1, 2))
def test_cut_and_mangled_treebanks_through_train_end_in_a_result_line(tmp_path_factory, text,
                                                                      lenient, epochs):
    work = tmp_path_factory.getbasetemp()
    gold = work / "train.mrg"
    gold.write_text(text, encoding="utf-8")
    argv = ["train", str(gold), "--model", str(work / "fuzz.model"), "--epochs", str(epochs)]
    _assert_ends_in_a_result_line(argv + ["--lenient"] if lenient else argv)


@pytest.fixture(scope="module")
def sample_model_bytes(tmp_path_factory):
    model = tmp_path_factory.mktemp("model") / "sample.model"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["train", SAMPLE_PATH, "--model", str(model), "--epochs", "2"]) == 0
    return model.read_bytes()


# Items of a ``parse`` input line: words the sample model knows, with and
# without tags, bare parentheses (read as -LRB-/-RRB-), parentheses inside
# a word or tag, empty parts around the ``_`` separator, and non-ASCII text.
SENTENCE_ITEMS = ("Arthur_NNP", "seeks_VBZ", "the_DT", "grail", "knight_NN", "(", ")_-RRB-",
                  "(_(", "a(b_NN", "x_N)N", "_NN", "x_", "_", "__", "a_b_c", "café_NN", "0")
SENTENCE_SEPARATORS = (" ", " ", " ", "\t", "\n", "\n", "\r\n", "", "\u00a0", "\x1c")
MODEL_INSERTS = (b"\t", b"\n", b"[", b"]", b"[end]\n", b"nan", b"<none>", b"\xff", b"x\t1.0\n")


@settings(max_examples=80, deadline=None)
@given(items=st.lists(st.sampled_from(SENTENCE_ITEMS), max_size=10), rnd=st.randoms(),
       damage=st.sampled_from(("none", "none", "cut", "insert")), at=st.floats(0, 1),
       insert=st.sampled_from(MODEL_INSERTS), beam=st.sampled_from(["1", "3"]))
def test_mangled_sentences_and_cut_models_through_parse_end_in_a_result_line(
        tmp_path_factory, sample_model_bytes, items, rnd, damage, at, insert, beam):
    work = tmp_path_factory.getbasetemp()
    sents, model = work / "fuzz.txt", work / "parse.model"
    sents.write_text("".join(item + rnd.choice(SENTENCE_SEPARATORS) for item in items),
                     encoding="utf-8")
    data = sample_model_bytes
    i = int(at * len(data))
    if damage == "cut":
        data = data[:i]
    elif damage == "insert":
        data = data[:i] + insert + data[i:]
    model.write_bytes(data)
    _assert_ends_in_a_result_line(["parse", str(sents), str(work / "fuzz.mrg"),
                                   "--model", str(model), "--beam", beam])
