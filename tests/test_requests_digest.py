"""Byte identity of the benchmark's requests, as one digest.

`benchmark_requests.jsonl` holds 402 argv lists, one JSON list a line: the
requests of `perfbench/workloads.py` for census seeds 1-8, then classify
seeds 1-8, then suites seeds 1-2, in that order.  Regenerate it with

    for s in 1 2 3 4 5 6 7 8; do python perfbench/workloads.py census --seed $s; done
    for s in 1 2 3 4 5 6 7 8; do python perfbench/workloads.py classify --seed $s; done
    for s in 1 2; do python perfbench/workloads.py suites --seed $s; done

The recipe of the digest: each request runs through `cli.main` in this
process, after every lru cache of a loaded `parafusion` module is cleared;
its exit status as `f"{status}\\n"` and then its standard output are fed,
in request order, into one sha256.  Other framings (the status without the
newline, or its repr) give other digests.  A change that alters report
bytes on purpose updates the pinned prefix and says why.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from parafusion import cli

REQUESTS = Path(__file__).with_name("benchmark_requests.jsonl")
DIGEST = "6b504cc1a14834a8"


def _clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "parafusion" or name.startswith("parafusion."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_the_benchmark_requests_keep_their_bytes():
    requests = [json.loads(line) for line in REQUESTS.read_text().splitlines()]
    assert len(requests) == 402
    digest = hashlib.sha256()
    for argv in requests:
        _clear_caches()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(argv)
        digest.update(f"{status}\n".encode())
        digest.update(out.getvalue().encode())
    assert digest.hexdigest()[:len(DIGEST)] == DIGEST
