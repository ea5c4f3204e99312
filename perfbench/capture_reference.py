"""Capture the reference outputs of every fixed-input item.

Run from the root of a checkout of the commit whose outputs are the
reference (the benchmark's was captured at the seed commit):

    python3 perfbench/capture_reference.py

It writes ``perfbench/reference/fixed_items.json.gz``. The benchmark then
requires every fixed item to reproduce these outputs to one unit in the 9th
significant digit.
"""

import gzip
import json
import shutil
import sys
import tempfile

import bootstrap


def main():
    bootstrap.import_program()
    import workloads

    items = {}
    work = tempfile.mkdtemp(dir=bootstrap.ROOT)
    try:
        for name, (item, files) in workloads.fixed_items().items():
            items[name] = workloads.capture(item, work, files)
            print(f"captured {name}")
    finally:
        shutil.rmtree(work)
    workloads.REFERENCE_PATH.parent.mkdir(exist_ok=True)
    payload = {"git_sha": bootstrap.git_sha(), "items": items}
    with gzip.GzipFile(workloads.REFERENCE_PATH, "wb", mtime=0) as raw:
        raw.write(json.dumps(payload, sort_keys=True, indent=0).encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
