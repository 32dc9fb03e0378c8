"""A fixed pure-Python loop that times machine speed, run in its own process.

``run.py`` starts this once, pinned to the CPU the benchmark runs on, and
writes a line to its standard input before and after every timed command;
for each line it runs the loop and prints the seconds it took.  The loop
builds, walks and hashes frozen dataclass nodes, like the package's own work,
but does not use ajparse, and running it in a separate interpreter keeps its
heap apart from the one the benchmark's commands leave behind.
"""

from __future__ import annotations

import gc
import sys
from dataclasses import dataclass
from time import perf_counter

ROUNDS = 500


@dataclass(frozen=True)
class Node:
    label: int
    kids: tuple


def loop_seconds() -> float:
    start = perf_counter()
    for _ in range(ROUNDS):
        stack = []
        for i in range(48):
            if i % 3 == 2:
                right, left = stack.pop(), stack.pop()
                stack.append(Node(i & 7, (left, right)))
            else:
                stack.append(Node(i & 15, ()))
        seen = set()
        while stack:
            node = stack.pop()
            seen.add(node)
            stack.extend(node.kids)
    return perf_counter() - start


def main() -> None:
    gc.disable()  # the loop makes no cycles
    for _ in sys.stdin:
        print(loop_seconds(), flush=True)


if __name__ == "__main__":
    main()
