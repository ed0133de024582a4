"""Server processes the benchmark starts, one per call.

    python3 perfbench/procs.py serve --root DIR [--max-batch N] [--trace FILE]
    python3 perfbench/procs.py store --root DIR [--trace FILE]

``serve`` runs the prediction server over the registry of the workspace
at ``DIR`` (what ``repro serve`` builds from a ``ServeSpec``); ``store``
runs the store service over ``DIR`` (what ``repro store serve`` runs).
Both bind an ephemeral port on 127.0.0.1, print ``READY <port>`` and
serve until SIGTERM.  With ``--trace FILE`` the layer entry points are
wrapped (see ``tracing.py``) and the spans are written to ``FILE`` as
JSON after the server has stopped.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("serve", "store"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--max-batch", type=int, default=None,
                        help="largest engine batch, and the request queue "
                             "if larger than its default (ServeSpec)")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(tracing.Tracer())

    if args.role == "serve":
        from repro.api import ServeSpec, Workspace
        spec = ServeSpec(port=0)
        if args.max_batch is not None:
            spec = spec.replace(max_batch=args.max_batch,
                                max_queue=max(spec.max_queue, args.max_batch))
        server = Workspace(args.root).serve(spec)
    else:
        from repro.remote import StoreService
        server = StoreService(args.root, port=0)

    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    print(f"READY {server.address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        if tracer is not None:
            Path(args.trace).write_text(
                json.dumps([s.as_dict() for s in tracer.spans]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
