"""Start the serve daemon the way the benchmark runs it.

    python3 perfbench/daemon.py [--trace-out FILE] -- SERVE-ARGS...

Calls ``repro.cli.main(["serve", *SERVE-ARGS])`` with line-buffered
standard output, so the "serving ... on" line reaches the benchmark at
once.  With ``--trace-out`` the layer wrappers are installed first and
the spans are written to FILE when SIGINT shuts the daemon down.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)


def main(argv: list) -> int:
    split = argv.index("--")
    own, serve_args = argv[:split], argv[split + 1 :]
    trace_out = Path(own[own.index("--trace-out") + 1]) if "--trace-out" in own else None
    sys.stdout.reconfigure(line_buffering=True)

    tracer = None
    if trace_out is not None:
        from perfbench.serve import request_kind
        from perfbench.tracing import Tracer

        tracer = Tracer(trace_out.parent)
        tracer.plan()
        tracer.install()
        # Each request line starts a new op, so one request's spans
        # share an id; its low two bits carry the kind of request.
        import repro.serve.service as service

        traced_decode = getattr(service, "decode_line", None)
        if traced_decode is not None:
            ops = itertools.count(1)

            def decode_line(line: bytes) -> dict:
                tracer.op = next(ops) << 2 | request_kind(line)
                return traced_decode(line)

            service.decode_line = decode_line

    from repro.cli import main as cli_main

    code = cli_main(["serve", *serve_args])
    if tracer is not None:
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
