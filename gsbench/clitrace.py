"""Run one gsembed CLI command with the layer functions traced.

    python gsbench/clitrace.py SPANS_CSV OP ARGS...

is ``python -m gsembed.cli ARGS...`` with the span recorder installed
before the CLI module executes, so its ``from .x import y`` names are the
traced ones.  The spans of this one command are appended to SPANS_CSV when
the process ends.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder  # noqa: E402


def main() -> int:
    path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import gsembed  # noqa: F401  (loads every layer module the CLI uses)
    import gsembed.corpus  # noqa: F401

    rec = Recorder(id_offset=op * 10_000_000)
    rec.install()
    sys.argv = ["gsembed"] + argv
    code = 0
    try:
        rec.run_op(op, runpy.run_module, "gsembed.cli", None, "__main__")
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(path, "a", newline="") as fh:
            rec.write(fh, header=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
