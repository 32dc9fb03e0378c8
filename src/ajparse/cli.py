"""Command-line surface for batch workflows and verification.

All subcommands are deterministic given their flags and print a final
machine-readable summary line ``RESULT ok=<k> fail=<j>``; the exit status is
0 iff there were zero failures.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import stat
import sys
from collections import Counter

from . import exhaustive, predictor, scoring
from .isr import REDUCE, SHIFT, format_isr_actions, is_legal_stack, isr_apply, translate_sequence
from .oracle import oracle_action_sequence
from .transition import action_kind, apply_sequence, format_actions
from .tree import Internal, Token, iter_nodes, node_equal, tree_equal
from .treebank import (
    TreebankFormatError,
    iter_corpus,
    load_corpus,
    tokens_of,
    undecodable,
    write_bracketed,
)


def _result(ok: int, fail: int) -> int:
    print(f"RESULT ok={ok} fail={fail}")
    return 0 if fail == 0 else 1


@contextlib.contextmanager
def _output_file(path: str):
    """Yield a text file for the lines of the output ``path`` as they are
    made. They go to a temporary file beside ``path`` (beside its target, if
    ``path`` is a symlink), which ``os.replace`` moves over it when the block
    ends without error, with the permission bits of the file it replaces. An
    error removes the temporary file and leaves ``path`` as it was. An OS
    error of the output names ``path`` and is raised only when the block
    ends, after the input has been read, so that an error of the input comes
    first; until then the lines go to ``os.devnull``. A device or a pipe,
    such as ``/dev/stdout``, cannot be replaced and is written in place."""
    try:
        mode = os.stat(path).st_mode
    except OSError:
        mode = None
    if mode is not None and not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
        with open(path, "w", encoding="utf-8") as out:
            yield out
        return
    target = os.path.realpath(path) if os.path.islink(path) else path
    head = os.path.dirname(target)
    failed = None
    for n in itertools.count():
        # Not named after the output, whose name may be as long as a name
        # can be.
        temp = os.path.join(head, f".ajparse-{os.getpid()}-{n}.tmp")
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        except OSError as err:
            temp, failed, fd = None, err, os.open(os.devnull, os.O_WRONLY)
        break
    try:
        with open(fd, "w", encoding="utf-8") as out:
            yield out
        if failed is None:
            try:
                if mode is not None:
                    # A file that may not be written is not replaced either.
                    os.close(os.open(target, os.O_WRONLY))
                    os.chmod(temp, stat.S_IMODE(mode))
                os.replace(temp, target)
                temp = None
            except OSError as err:
                failed = err
        if failed is not None:
            raise OSError(failed.errno, failed.strerror, path) from None
    finally:
        if temp is not None:
            os.remove(temp)


def _each_entry(args, work, output=None) -> tuple:
    """Run ``work`` on each entry of ``args.input`` as it is read and count
    ``(ok, fail)``. An entry fails when ``work`` raises ``ValueError``, whose
    text goes to stderr; otherwise the line ``work`` returns is written to
    ``output``, if given, as it is made (see ``_output_file``). Entry errors
    are kept until the whole file has been read and the output is in place,
    so that a load error leaves an existing output file as it was and is the
    only error printed."""
    entries = iter_corpus(args.input, normalization=not args.no_normalize, strict=args.strict)
    ok, errors = 0, []
    with _output_file(output) if output else contextlib.nullcontext() as out:
        for entry in entries:
            try:
                line = work(entry)
            except ValueError as err:
                errors.append(f"entry {entry.id}: {err}")
                continue
            ok += 1
            if output:
                out.write(line + "\n")
    for error in errors:
        print(error, file=sys.stderr)
    return ok, len(errors)


def cmd_oracle(args) -> int:
    def work(entry):
        actions = oracle_action_sequence(entry.tree)
        return f"{entry.id}\t{len(actions)}\t{format_actions(actions)}"

    return _result(*_each_entry(args, work, args.output))


def cmd_verify(args) -> int:
    def work(entry):
        actions = oracle_action_sequence(entry.tree)
        rebuilt = apply_sequence(tokens_of(entry.tree), actions)
        if not tree_equal(rebuilt, entry.tree):
            raise ValueError("rebuilt tree differs")

    return _result(*_each_entry(args, work))


def cmd_translate_isr(args) -> int:
    def work(entry):
        tokens = tokens_of(entry.tree)
        actions = oracle_action_sequence(entry.tree)
        isr_actions = translate_sequence(tokens, actions)
        stack = _replay_checked(isr_actions, tokens)
        if len(stack) != 1 or not node_equal(stack[0], entry.tree.root):
            raise ValueError("replayed stack does not hold the gold tree")
        n = len(tokens)
        m = sum(isinstance(node, Internal) for node in iter_nodes(entry.tree.root))
        if len(isr_actions) != n + 2 * m:
            raise ValueError(f"length {len(isr_actions)} != n + 2m = {n + 2 * m}")
        return format_isr_actions(isr_actions)

    return _result(*_each_entry(args, work, args.output))


def _replay_checked(isr_actions, tokens) -> tuple:
    """Run ISR actions from the empty stack, shifting ``tokens`` in order;
    ValueError on the first illegal stack. A move passes ``isr_apply`` only
    the suffix it reads, which the result replaces, so a replay is linear."""
    stack = []
    projections = []  # the index of each projection on the stack
    it = iter(tokens)
    for action in isr_actions:
        if action == SHIFT:
            stack += isr_apply((stack.pop(),) if stack else (), action, next(it))
        elif action == REDUCE:
            start = projections.pop() if projections else 0
            stack[start:] = isr_apply(tuple(stack[start:]), action)
        else:
            stack += isr_apply((stack.pop(),) if stack else (), action)
            projections.append(len(stack) - 2)
        if not is_legal_stack(stack):
            raise ValueError("illegal intermediate stack during replay")
    return tuple(stack)


def cmd_enumerate_check(args) -> int:
    report = exhaustive.run_all_checks(args.n_max, args.vocab_size)
    print(f"trees checked: {report.trees_checked}")
    print(f"action sequences enumerated: {report.sequences_enumerated}")
    print(
        "case tally: "
        + " ".join(f"{c}={report.case_tally.get(c, 0)}" for c in sorted(set(report.case_tally) | {'1-1'}))
    )
    print(f"augmented trees checked: {report.augmented_checked}")
    print(f"legal stacks checked: {report.stacks_checked}")
    print(f"reduce-lemma states checked: {report.reduce_lemma_checked}")
    print(f"translated steps checked: {report.translations_checked}")
    for witness in report.failures:
        print(f"COUNTEREXAMPLE: {witness}", file=sys.stderr)
    checks = (
        report.trees_checked
        + report.augmented_checked
        + report.stacks_checked
        + report.translations_checked
    )
    return _result(checks, len(report.failures))


def cmd_train(args) -> int:
    trees = [e.tree for e in load_corpus(args.input, normalization=True, strict=args.strict)]
    if trees:
        # A label the model file cannot name fails before training, not
        # after; an empty corpus is train's own error, about the input.
        predictor.slot_keys(predictor.collect_labels(trees), args.model)
    scorer = predictor.train(trees, epochs=args.epochs, seed=args.seed)
    for epoch, acc in enumerate(scorer.epoch_accuracy, start=1):
        line = " ".join(f"{k}={v:.4f}" for k, v in sorted(acc.items()))
        print(f"epoch {epoch}: {line}", file=sys.stderr)
    scorer.save(args.model)
    return _result(len(trees), 0)


# PTB tokens for a bare parenthesis, which bracketed output cannot hold.
_PTB_PARENS = {"(": "-LRB-", ")": "-RRB-"}


def _ptb_text(text: str) -> str:
    text = _PTB_PARENS.get(text, text)
    if "(" in text or ")" in text:
        raise ValueError(f"token text {text!r} holds a parenthesis")
    return text


def _sentence_tokens(line: str) -> list:
    """``token[_POS]`` items of one input line as tokens; a word or tag that
    is a bare ``(``/``)`` becomes ``-LRB-``/``-RRB-``."""
    tokens = []
    for part in line.split():
        word, _, pos = part.rpartition("_")
        if not word:
            word, pos = part, ""
        tokens.append(Token(_ptb_text(word), _ptb_text(pos)))
    return tokens


def cmd_parse(args) -> int:
    # Sentence errors wait, as entry errors do in _each_entry, so that an
    # error that stops the command is the only one printed.
    scorer = predictor.ActionScorer.load(args.model)
    ok, errors = 0, []
    with open(args.input, encoding="utf-8") as fh, _output_file(args.output) as out:
        try:
            for i, line in enumerate(line for line in fh if line.split()):
                try:
                    tree = predictor.decode_beam(scorer, _sentence_tokens(line), args.beam)
                except ValueError as err:
                    errors.append(f"sentence {i}: {err}")
                    out.write("\n")
                    continue
                out.write(write_bracketed(tree) + "\n")
                ok += 1
        except UnicodeDecodeError as err:
            raise ValueError(undecodable(fh, err)) from None
    for error in errors:
        print(error, file=sys.stderr)
    return _result(ok, len(errors))


def cmd_score(args) -> int:
    # Labels with the chain separator are legitimate here: predicted files
    # hold collapsed trees. The files stream in lockstep; the predicted side's
    # skip lines wait until gold has been read, and go if gold fails.
    options = dict(normalization=True, strict=args.strict, plain_labels=False)
    held, gold_read = [], False

    def gold():
        nonlocal gold_read
        for entry in iter_corpus(args.gold, **options):
            yield entry.tree
        gold_read = True

    predicted = (e.tree for e in iter_corpus(args.predicted, warn=held.append, **options))
    try:
        report = scoring.score(gold(), predicted)
    finally:
        if gold_read:
            for line in held:
                print(line, file=sys.stderr)
    print(scoring.format_report(report))
    return _result(report.sentences, 0)


def cmd_stats(args) -> int:
    kind_hist = Counter()
    aj_total = isr_total = 0

    def work(entry):
        nonlocal aj_total, isr_total
        tokens = tokens_of(entry.tree)
        actions = oracle_action_sequence(entry.tree)
        isr_actions = translate_sequence(tokens, actions)
        aj_total += len(actions)
        isr_total += len(isr_actions)
        kind_hist.update(map(action_kind, actions))

    ok, fail = _each_entry(args, work)
    print(f"sentences: {ok}")
    print(f"aj actions: {aj_total}")
    print(f"isr actions: {isr_total}")
    for kind in sorted(kind_hist):
        print(f"action {kind}: {kind_hist[kind]}")
    return _result(ok, fail)


def _positive_int(text: str) -> int:
    """The argparse type of counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ajparse",
        description="Strongly incremental constituency parsing toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def lenient(p):
        p.add_argument(
            "--lenient", dest="strict", action="store_false",
            help="skip malformed entries instead of failing",
        )

    def common(p, output=False):
        p.add_argument("input", help="bracketed treebank file")
        if output:
            p.add_argument("output", help="output file")
        p.add_argument("--no-normalize", action="store_true", help="skip normalization")
        lenient(p)

    p = sub.add_parser("oracle", help="dump oracle action sequences")
    common(p, output=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="oracle round-trip check on a corpus")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("translate-isr", help="translate oracle actions to ISR")
    common(p, output=True)
    p.set_defaults(func=cmd_translate_isr)

    p = sub.add_parser("enumerate-check", help="exhaustive small-bound checks")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--vocab-size", type=int, default=2)
    p.set_defaults(func=cmd_enumerate_check)

    p = sub.add_parser("train", help="train the linear action predictor")
    p.add_argument("input", help="bracketed treebank file")
    p.add_argument("--model", required=True)
    p.add_argument("--epochs", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    lenient(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("parse", help="parse tokenized sentences (token[_POS] per line)")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--model", required=True)
    p.add_argument("--beam", type=_positive_int, default=1)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("score", help="PARSEVAL scoring of predicted vs gold trees")
    p.add_argument("gold")
    p.add_argument("predicted")
    lenient(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("stats", help="per-corpus action statistics")
    common(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error; -h exits 0 and is no failure.
        if exc.code:
            print("RESULT ok=0 fail=1")
        raise
    try:
        return args.func(args)
    except (TreebankFormatError, OSError, ValueError) as err:
        print(str(err), file=sys.stderr)
        print("RESULT ok=0 fail=1")
        return 1
    except Exception as err:
        # Last resort, so that every input still ends in a RESULT line.
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        print("RESULT ok=0 fail=1")
        return 1


if __name__ == "__main__":
    sys.exit(main())
