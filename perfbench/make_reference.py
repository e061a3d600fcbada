"""Regenerate the committed reference artifacts under perfbench/reference/.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every full-size operation of each workload once at the reference seed
and stores its exit code and parsed artifacts. Only a change to the
benchmark, or a reviewed change to the program's outputs, should rerun it.
"""

import sys

import run  # pins BLAS threads before numpy is imported

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402


def main(names: list[str]) -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    import gate
    import workloads

    for name in names or workloads.WORKLOADS:
        root = run.OUT / "reference-work" / name
        shutil.rmtree(root, ignore_errors=True)
        workload = workloads.build(name, gate.REFERENCE_SEED, root)
        ops = {}
        for op in workload.ops:
            _, code, error = run.call(op)
            if error is not None:
                print(error, file=sys.stderr)
                return 1
            files = gate.read_artifacts(op.out)
            problems = gate.check_any_seed(op, files, gate.REFERENCE_SEED)
            if code != op.expected_exit or problems:
                print(f"{name}/{op.key}: exit {code}; {problems}", file=sys.stderr)
                return 1
            ops[op.key] = {"exit": code,
                           "files": {f: gate.parse(f, data) for f, data in files.items()}}
        path = gate.reference_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"seed": gate.REFERENCE_SEED, "ops": ops}, indent=1) + "\n")
        shutil.rmtree(root, ignore_errors=True)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
