"""One set-up of a workload in a fresh interpreter, timed from outside by
run.py for ``setup_s``: import mddsim, generate the inputs, run the untimed
warm-up operation (the workload's first operation at smoke size), exit.

    python3 perfbench/setup_probe.py --workload NAME --seed N --root DIR
"""

import sys

import run  # pins BLAS threads before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    import mddsim.cli

    import workloads

    root = Path(args.root)
    workloads.build(args.workload, args.seed, root)
    warmup = workloads.build(args.workload, args.seed, root / "warmup", smoke=True).ops[0]
    # exit codes are the gate's business; the probe only has to finish
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        mddsim.cli.main(list(warmup.argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
