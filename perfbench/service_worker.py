"""A service worker that reports when its handshake with the server is done.

It runs the worker loop of ``repro-popsim worker``
(:func:`repro.service.worker.run_worker_async`) and prints ``ready`` once
the server has welcomed it, so the benchmark can end its set-up clock at
the moment every worker can take units.

Usage::

    PYTHONPATH=src python3 perfbench/service_worker.py HOST:PORT
"""

from __future__ import annotations

import asyncio
import sys

from repro.service.protocol import parse_endpoint
from repro.service.worker import run_worker_async


def main() -> int:
    host, port = parse_endpoint(sys.argv[1])

    def announce(reader, writer):
        print("ready", flush=True)
        return reader, writer

    asyncio.run(run_worker_async(host, port, transport_wrap=announce))
    return 0


if __name__ == "__main__":
    sys.exit(main())
