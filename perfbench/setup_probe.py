"""Set-up probe: a fresh interpreter that gets one workload's inputs ready.

    python3 perfbench/setup_probe.py SRC_DIR INPUT_DIR WORKLOAD

Imports spinpoint from SRC_DIR, parses every model and state file the
workload uses, validates every pair, then prints "ready". run.py times
this from spawn to that line.
"""

import json
import os
import sys


def main():
    src, in_dir, workload = sys.argv[1:4]
    sys.path.insert(0, src)
    from spinpoint import cli

    with open(os.path.join(os.path.dirname(in_dir), "manifest.json")) as fh:
        cases = json.load(fh)["workloads"][workload]["cases"]
    models = {}
    for case in cases:
        if case["model"] not in models:
            models[case["model"]] = cli.load_model(os.path.join(in_dir, case["model"]))
            models[case["model"]][1].validation()
        if "state" in case:
            cli.load_packet(os.path.join(in_dir, case["state"]), models[case["model"]][0])
    print("ready", flush=True)


if __name__ == "__main__":
    main()
