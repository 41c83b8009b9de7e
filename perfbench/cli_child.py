"""One cli-oneshot op: `python -m wondersys.cli ARGS`, with the speed calibration inside.

    python perfbench/cli_child.py OUT [--trace] -- CLI ARGS...

A child process runs at the speed of the core it lands on, which the
parent cannot see, so the child times the calibration loop itself and
writes it to OUT as JSON, with how long the loop took.  It then runs the
CLI as `python -m` does.  With --trace it instead imports `wondersys.cli`
(timing the import), installs the tracer, calls `main` and adds the spans,
counters and import time to OUT.  Exits with the CLI's exit code.
"""
from __future__ import annotations

import json
import runpy
import sys
import time


def main() -> int:
    out, flags = sys.argv[1], sys.argv[2:sys.argv.index("--")]
    argv = sys.argv[sys.argv.index("--") + 1:]
    from speed import loop_seconds

    start = time.perf_counter()
    data = {"loop_s": loop_seconds(3)}
    data["calibration_s"] = time.perf_counter() - start
    if "--trace" not in flags:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        sys.argv = ["wondersys.cli", *argv]
        runpy.run_module("wondersys.cli", run_name="__main__", alter_sys=True)
        return 0  # the CLI exits through sys.exit

    start = time.perf_counter()
    import wondersys.cli

    data["import_ms"] = (time.perf_counter() - start) * 1e3
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = wondersys.cli.main(argv)
    finally:
        tracer.enabled = False
        data.update(tracer.to_json())
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
