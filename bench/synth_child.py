"""Set-up step of the benchmark, run in a fresh process each time.

Imports rwclust from the given source tree, runs one `rwclust synth` through
`rwclust.cli.main` and prints one JSON line with the seconds spent importing
and synthesizing. A fresh process makes the import cost real and keeps the
parent's peak RSS free of set-up work.

Usage: python3 bench/synth_child.py SRC_DIR TRACE SYNTH_ARG...
With TRACE=1 the line also carries the seconds spent in generate_panel.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src, trace, synth_args = Path(argv[0]).resolve(), argv[1] == "1", argv[2:]
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    from rwclust import cli
    imported = time.perf_counter()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.stderr.write(f"rwclust imported from {cli.__file__}, not from {src}\n")
        return 2
    generate_s = None
    if trace:
        from spans import Tracer, summarize
        tracer = Tracer()
        with tracer.patched([(cli, "generate_panel", None)]):
            code = cli.main(synth_args)
        generate_s = summarize(tracer.spans)["total_s"]["synthetic.generate_panel"]
    else:
        code = cli.main(synth_args)
    done = time.perf_counter()
    print(json.dumps({
        "exit": code,
        "import_s": imported - start,
        "synth_s": done - imported,
        "generate_panel_s": generate_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
