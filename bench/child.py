"""One benchmark repetition in a fresh interpreter.

Usage: ``python child.py JOB.json``.  The job names the configs and curation
specs to validate, the ``driftbench`` CLI commands to run and where to write
the result.  The process is ready once ``driftbench.cli`` is imported and
every config and spec has passed the package's own validation; the parent
measures set-up from its spawn time to ``ready`` on the shared monotonic clock.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path


def _status_kib(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    from driftbench import cli

    for config in job["configs"]:
        cli.validate_config(Path(config).read_text(encoding="utf-8"), "unused")
    for spec in job["specs"]:
        cli._parse_curation_spec(spec)
    ready = time.monotonic()

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    codes = []
    for argv in job["commands"]:
        try:
            codes.append(cli.main(argv))
        except Exception:  # noqa: BLE001 - a crashed command is a counted failure
            traceback.print_exc()
            codes.append(-1)
    done = time.monotonic()
    # File-backed pages (shared libraries) are left out: how many of them are
    # resident depends on the machine's page cache, not on this program.
    peak_kib = _status_kib("VmHWM") - _status_kib("RssFile")

    if tracer is not None:
        tracer.dump(job["spans"])
    result = {"ready": ready, "done": done, "codes": codes, "peak_rss_mib": peak_kib / 1024}
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
