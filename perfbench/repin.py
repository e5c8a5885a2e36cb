"""Re-pin every job's answer and nominal work at the current commit.

    python3 perfbench/repin.py <commit>

Runs each job of every workload once on the pin seed, checks it against
theory, and writes pins.json: the exact answer (as repr) and the nominal
work, the sum of samples x steps over every verification the job makes.
A change that alters verdicts, time bounds or clearances on purpose re-pins
in its own commit and says why.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    run.import_package()
    import tracing
    import workloads
    doc = {"commit": argv[0], "seed": workloads.PIN_SEED,
           "machine": run.machine(), "workloads": {}}
    run.WORK.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
            inputs = workloads.make_inputs(workload, workloads.PIN_SEED,
                                           workdir)
            pins = {}
            for job in workloads.make_jobs(workload, inputs):
                tr = tracing.Tracer()
                tracing.install(tr)
                try:
                    with tr.job(job.name):
                        out = job.run()
                finally:
                    tr.uninstall()
                answer, problems = run.settle(job, out, None)
                if problems:
                    print(f"{workload}/{job.name}: {problems}",
                          file=sys.stderr)
                    return 1
                pins[job.name] = {
                    "answer": answer,
                    "nominal_sample_steps":
                        tr.counts["verifier.verify.sample_steps"]}
                print(f"{workload}/{job.name}: {pins[job.name]}")
        doc["workloads"][workload] = pins
    with open(run.PINS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
