"""Write the default-seed reference outputs the benchmark compares against.

    python3 perfbench/make_reference.py [workload ...]

Run only at a revision whose outputs are known good: a later revision is
checked against these files within the tolerances in workloads.py.
"""

import json
import sys

from run import OUT, import_package
from workloads import DEFAULT_SEED, WORKLOADS, reference_path, summarize


def main(names) -> int:
    cli = import_package()
    OUT.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        wl = WORKLOADS[name]
        out = OUT / f"reference_{name}.csv"
        status = cli.main(wl.argv(DEFAULT_SEED, str(out)))
        if status != 0:
            print(f"{name}: exit status {status}", file=sys.stderr)
            return 1
        with open(reference_path(wl), "w", encoding="utf-8") as fh:
            json.dump(summarize(wl, out), fh)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
