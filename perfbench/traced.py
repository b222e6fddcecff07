"""Run one `ballwsd` command with layer spans recorded.

    python perfbench/traced.py SPANS.json <ballwsd arguments...>

Behaves like `python -m ballwsd <arguments>` (same exit code and output)
and writes the spans, plus any patched name that was not restored after
the command, to SPANS.json.
"""

import json
import sys

from tracer import Tracer


def run() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import ballwsd.cli
    try:
        rc = ballwsd.cli.main(argv)
    finally:
        not_restored = tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "not_restored": not_restored}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(run())
