"""One SHA-256 digest per benchmark workload, over every output it produces.

Runs each request of the three workloads in ``perfbench/workloads.py`` in
process, at seeds 1 and 7, and hashes what it returns: a command line's exit
code and stdout (the temporary directory that holds the generated EOS tables
is replaced by ``<workdir>``), and a library call's level-set reports
(``to_json_dict()``) or model checks (each report's ``to_json_dict()``).  Two
trees whose digests agree gave the same bytes for every request, so a change
meant to keep every float can be checked with

    python tools/workload_digest.py

run on both.  Digests may differ across numpy versions; they are a comparison
on one machine, not a fixed reference.

A request is sent as ``execute`` in ``perfbench/child.py`` sends it (stdout
and stderr redirected around ``cli.main(list(req.argv))``, or ``req.call()``
for a library request); ``_request_bytes`` must keep mirroring it, or the
digest hashes a different execution than the benchmark runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from staticstar import cli  # noqa: E402

SEEDS = (1, 7)


def _library_bytes(result) -> bytes:
    """A library request's result: a model's checks or a list of level-set reports."""
    if hasattr(result, "checks"):
        payload = {name: rep.to_json_dict() for name, rep in result.checks.items()}
    else:
        payload = [rep.to_json_dict() for rep in result]
    return json.dumps(payload, sort_keys=True).encode()


def _request_bytes(req, workdir: str) -> bytes:
    if req.argv is None:
        return _library_bytes(req.call())
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(req.argv))
    return f"{rc}\n{out.getvalue().replace(workdir, '<workdir>')}".encode()


def main() -> int:
    for name in workloads.WORKLOADS:
        h, count = hashlib.sha256(), 0
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                for req in workloads.generate(name, seed, workdir):
                    data = _request_bytes(req, workdir)
                    h.update(len(data).to_bytes(8, "little") + data)
                    count += 1
        print(f"{name} seeds={','.join(map(str, SEEDS))} requests={count} sha256={h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
