"""Start ``repro-serve`` from the checkout's sources, optionally traced.

Usage: ``python3 perfbench/serve.py [--ledger PATH] -- <repro-serve args>``.
Without ``--ledger`` this is exactly the ``repro-serve`` entry point.  With
it, the service ledger is installed before the server starts; when the
server exits (SIGTERM drains it) the ledger summary is written to PATH and
its spans to PATH with ``.spans`` appended.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv) -> int:
    ledger_path = None
    if argv[:1] == ["--ledger"]:
        ledger_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    import repro.service.server as server

    ledger = None
    if ledger_path is not None:
        from ledger import ServiceLedger

        ledger = ServiceLedger()
        ledger.install()
    code = server.main(argv)
    if ledger is not None:
        ledger.uninstall()
        with open(ledger_path, "w") as handle:
            json.dump(ledger.summary(), handle)
        ledger.write_spans(ledger_path + ".spans")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
