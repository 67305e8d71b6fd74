"""One set-up of a benchmark workload in a fresh interpreter.

Imports the CLI, loads the rome calibration and runs the workload's tiny
warm-up commands, then exits; ``run.py`` times the whole process.  Once numpy
is imported, a ``HostGauge`` probes how fast the host runs for the rest of the
set-up; the last line of stdout is a JSON object with the time the probes took
and the gauge's scale factor, which ``run.py`` uses to scale the set-up time.

    python3 benchmarks/setup_probe.py ROOT WORKLOAD SEED OUTDIR
"""

import contextlib
import io
import json
import sys
from pathlib import Path

root, workload, seed, outdir = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), sys.argv[4]
sys.path.insert(0, str(root / "src"))

from hostspeed import HostGauge  # noqa: E402

gauge = HostGauge()
gauge.start()
try:
    from noisy_euler import cli  # noqa: E402
    from noisy_euler.calibration import bundled_device, noise_params_for  # noqa: E402

    from workloads import WORKLOADS  # noqa: E402

    noise_params_for(bundled_device("rome").qubit(3))
    for tag, argv in WORKLOADS[workload].warmup_commands(seed):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["--output-dir", outdir, "--tag", tag, *argv])
        if rc != 0:
            sys.exit(f"warm-up command {argv[0]} exited with {rc}")
finally:
    gauge.stop()
# The probe that start() ran is inside the time run.py measures too.
print(json.dumps({"probe_s": gauge.start_s + gauge.probe_s, "factor": gauge.factor}))
