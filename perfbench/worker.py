"""Run one pickled call in a Python process of its own.

    python3 perfbench/worker.py CALL RESULT

loads ``(function, args)`` from the file CALL, calls ``function(*args)``
and pickles what it returns to the file RESULT.  ``workloads.in_processes``
starts one of these per call and waits for each.
"""
from __future__ import annotations

import pickle
import sys


def main(call: str, result: str) -> None:
    with open(call, "rb") as fh:
        fn, args = pickle.load(fh)
    out = fn(*args)
    with open(result, "wb") as fh:
        pickle.dump(out, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
