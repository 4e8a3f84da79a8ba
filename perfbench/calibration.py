"""Host speed calibration.

This host (a 2-vCPU KVM guest) runs the same CPU-bound code at speeds
that differ by up to 2x for stretches of seconds to minutes, on both
vCPUs at once. Wall times of interpreter-bound work taken minutes apart
are therefore not comparable. The runner times a short fixed loop
before every measured CLI call and after each pass, and scales the
run's wall times by REFERENCE_S / (mean loop time over the run): the
reported seconds are what the work would take at the speed the loop
has when it takes REFERENCE_S. One scale per run beats one per pass:
the host also flips speed within a second, and a pass holds too few
loop samples to average that out.

The loop is a small-array numpy RK4 driven from Python, like the
program's flow kernel, so the host slows both alike. It is code of the
benchmark, so a change to the program never changes it. Only the
interpreter-bound workloads are scaled (workloads.CALIBRATED); the
analysis workload is dense BLAS, which swings less than the loop does,
and scaling it (or set-up time) widened its spread over seeds.

The scale assumes the scaled workloads stay interpreter-bound. Once the
flow kernel runs as compiled code, the loop may no longer track it:
compare the raw median pass time (per-layer host.raw_pass_s) before
trusting a scaled gain, and re-check whether these workloads still need
the scale.
"""

import statistics
import time

from checks import final_cost

# loop time at the reference speed (this host in a fast stretch)
REFERENCE_S = 0.04

_PENTAGON_FLOW = {
    "graph": {"n": 5, "edges": [[1, 2], [1, 3], [1, 4], [1, 5], [2, 3], [3, 4], [4, 5]]},
    "configuration": {
        "generator": {"n": 5},
        "perturbation": {"amplitude": 0.5, "seed": 2},
    },
    "angles": {"source": "triangle_formation"},
    "integrator": {"h": 0.001, "t_final": 0.25},
}


class Calibrator:
    """Times the calibration loop and turns samples into a scale."""

    def __init__(self):
        final_cost(_PENTAGON_FLOW)  # the first call pays one-time costs

    def sample(self):
        t0 = time.perf_counter()
        final_cost(_PENTAGON_FLOW)
        return time.perf_counter() - t0

    def scale(self, samples):
        """Factor from wall seconds to seconds at the reference speed."""
        return REFERENCE_S / statistics.fmean(samples)
