"""Record the reference outputs of round 0 of every workload.

    python3 perfbench/make_reference.py

Runs each round-0 op once through ``grazebeam.cli.main`` and writes
``perfbench/reference.json``: the exit code, and the ``graze w`` values,
the ``verify`` verdict vector or the table values.  The stored file was
made at the commit that added the benchmark; regenerate it only when a
change to the program's outputs is intended, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from grazebeam import cli  # noqa: E402


def main() -> int:
    ops = {}
    for name in workloads.WORKLOADS:
        for op in workloads.round_ops(name, 0, random.Random(0)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(op.argv))
            ops[op.key] = workloads.summarize(op, code, out.getvalue())
            print("%-60.60s exit %d" % (op.key, code), file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write('{"ops": {\n%s\n}}\n' % ",\n".join(
            "%s: %s" % (json.dumps(key), json.dumps(ops[key]))
            for key in sorted(ops)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
