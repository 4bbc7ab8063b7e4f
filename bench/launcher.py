"""Run one reebcut CLI invocation for the benchmark.

    python launcher.py <meta.json> <trace 0|1|probe> [reebcut arguments...]

Imports ``reebcut.cli``, records the ``time.perf_counter`` reading at that
moment in ``meta.json`` (the parent compares it with its own reading at
spawn; both read the system-wide monotonic clock), then calls
``reebcut.cli.main`` and exits with its code.  With ``probe`` it stops
after the import.  With ``1`` it installs the tracer around the call and
writes the spans next to ``meta.json`` as ``spans.npz``.
"""

import json
import os
import sys
import time


def main(argv):
    meta_path, mode, cli_args = argv[0], argv[1], argv[2:]
    import reebcut.cli

    meta = {"imported_at": time.perf_counter()}
    rc = 0
    if mode != "probe":
        tracer = None
        if mode == "1":
            from tracer import Tracer

            tracer = Tracer().install()
        try:
            rc = reebcut.cli.main(cli_args)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.dump(os.path.join(os.path.dirname(meta_path), "spans.npz"))
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
