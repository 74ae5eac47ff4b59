"""Run ``repro serve`` with every deployment default, optionally traced.

Usage: ``python bench/serve_main.py LEDGER_DIR READY_FILE [--spans FILE]``
with ``src`` on ``PYTHONPATH``.  With ``--spans`` the layers in
:data:`spans.LAYERS` are wrapped for the server's lifetime and the spans
are written to FILE after the server drains.
"""

from __future__ import annotations

import argparse

from spans import Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("ledger")
    parser.add_argument("ready_file")
    parser.add_argument("--spans", metavar="FILE", default=None)
    args = parser.parse_args(argv)

    from repro.cli.main import main as repro_main

    tracer = Tracer() if args.spans else None
    if tracer is not None:
        tracer.install()
    try:
        return repro_main(["serve", "--ledger", args.ledger, "--port", "0",
                           "--ready-file", args.ready_file, "--no-record"])
    finally:
        if tracer is not None:
            tracer.restore()
            tracer.write_jsonl(args.spans)


if __name__ == "__main__":
    raise SystemExit(main())
