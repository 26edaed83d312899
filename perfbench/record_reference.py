"""Record the reference outputs the benchmark checks every pass against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs one untraced pass per noise-seed slot (``workloads.NOISE_SEED_SLOTS``)
of each named workload (default: all) and writes
``perfbench/reference/<workload>.json``.  Run it only on the commit whose
outputs are the reference; a later commit must reproduce them to 1e-9
relative, or state the tolerance and the reason where it changes them.
"""

from __future__ import annotations

import json
import sys

from run import HERE, ROOT, SRC, WORK_ROOT, Worker, commit, src_digest
import workloads


def record(name: str) -> dict:
    work = WORK_ROOT / f"reference-{name}"
    work.mkdir(parents=True, exist_ok=True)
    worker = Worker(work, float("inf"))
    outputs, machine = {}, None
    for slot in range(workloads.NOISE_SEED_SLOTS):
        job = {"src": str(SRC), "workload": name, "seed": slot,
               "smoke": False, "trace": False, "out_dir": str(work / "pass")}
        _, _, result, err = worker.run(job)
        err = err or (result or {}).get("error")
        if err:
            raise SystemExit(f"{name} slot {slot}: {err}")
        outputs[str(workloads.noise_seed(slot))] = result["outputs"]
        machine = result["machine"]
        print(f"{name}: noise seed {workloads.noise_seed(slot)} recorded "
              f"({result['pass_s']:.2f} s)", flush=True)
    return {"workload": name, "commit": commit(), "src_sha256": src_digest(),
            "machine": machine, "outputs": outputs}


def main(argv) -> int:
    names = argv[1:] or list(workloads.NAMES)
    for name in names:
        ref = record(name)
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
