"""Run ``repro.cli.main`` with every layer traced, then write the spans.

Usage: ``python perfbench/traced_cli.py SPANS.json repro-args...``

The benchmark starts the serving daemon and the socket worker through
this launcher on a traced run.  The spans are written when the
command returns: ``repro serve`` returns on SIGINT, ``repro worker``
on the coordinator's stop broadcast.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_program  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv: list) -> int:
    if len(argv) < 2:
        print("usage: traced_cli.py SPANS.json repro-args...",
              file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    require_program()
    import repro.cli

    tracer = Tracer()
    tracer.install()
    try:
        return repro.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
