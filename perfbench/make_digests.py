"""Regenerate reference_digests.json: the sha256 of the expected stdout of
every request in the pool, each computed cold with --no-cache.

Run from the repository root:  python3 perfbench/make_digests.py

Only regenerate when a change is meant to alter CLI output, and say so in
that change; the digests are what every benchmark run is checked against.
"""

from __future__ import annotations

import json
import sys

import workloads


def main() -> int:
    workloads.import_gammaq()
    digests = {}
    for request in workloads.request_pool():
        workloads.reset()
        rc, stdout, stderr, error = workloads.call_cli(request + ["--no-cache"])
        if error or rc != 0 or "[FAIL]" in stdout:
            print(f"{workloads.key(request)}: rc={rc} {error or stderr.strip()}", file=sys.stderr)
            return 1
        digests[workloads.key(request)] = workloads.digest(request, stdout)
    with open(workloads.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {workloads.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
