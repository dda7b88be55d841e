"""Time one cold set-up of a workload and print it as one JSON line.

Set-up is ``import spisep`` plus one warm-up call of each timed function on
the workload's smallest input; making that input is not timed.  run.py
starts this in fresh processes, so each sample pays the import again.  The
sample is scaled by the host's speed, measured right after it with the
Python calibration unit (see calibrate.py).

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import bootstrap

bootstrap.pin_threads()

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    import_s = bootstrap.import_spisep()
    import calibrate
    import spans
    import workloads

    workload = workloads.make(name)
    inputs = workload.inputs(seed, 0)
    t0 = time.perf_counter()
    workload.warm_up(inputs, spans.Untraced)
    warm_up_s = time.perf_counter() - t0
    raw_s = import_s + warm_up_s
    pace = calibrate.Pacer("python")
    pace(raw_s)
    print(json.dumps({
        "import_s": import_s, "warm_up_s": warm_up_s, "raw_setup_s": raw_s,
        "speed": pace.speed, "setup_s": raw_s * pace.speed,
    }))


if __name__ == "__main__":
    main()
