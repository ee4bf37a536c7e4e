"""Run one kerrswitch CLI command in a fresh interpreter and mark its phases.

    python3 perfbench/launch.py MARK_JSON TRACE_JSON|- WORKLOAD -- CLI_ARGS...

Imports kerrswitch from the `src/` directory next to this benchmark, wraps
`kerrswitch.cli.parse_config` to note the monotonic time and the process CPU
time when the config has been parsed, runs `kerrswitch.cli.main(CLI_ARGS)`,
and writes those marks to MARK_JSON. With a TRACE_JSON path, every public name
listed in `spans.WRAPPED` is traced and the spans are written there.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str]) -> int:
    mark_path, trace_path, workload, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: launch.py MARK_JSON TRACE_JSON|- WORKLOAD -- CLI_ARGS...")
    sys.path.insert(0, str(ROOT / "src"))
    import kerrswitch.cli as cli

    marks = {"imported_at": time.monotonic(), "module": cli.__file__}
    tracer = None
    if trace_path != "-":
        from spans import Tracer

        tracer = Tracer(trace_path, workload)
        tracer.install()
    parse = cli.parse_config

    def parse_and_mark(*args, **kwargs):
        config = parse(*args, **kwargs)
        marks["parsed_at"] = time.monotonic()
        marks["cpu_at_parse"] = _cpu_self()
        return config

    cli.parse_config = parse_and_mark
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump()
        Path(mark_path).write_text(json.dumps(marks))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
