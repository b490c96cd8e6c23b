"""Child process for the benchmark: runs mvmocap CLI calls in-process.

    python3 perfbench/worker.py serve
        Reads one JSON request per stdin line, {"argv": [...], "trace": bool},
        runs `mvmocap.cli.main(argv)` and answers with one JSON line holding
        the exit code, wall time, this process's peak RSS and, when traced,
        the per-layer spans. Each CLI subcommand gets its own worker, so the
        peak RSS belongs to that command alone.

    python3 perfbench/worker.py setup CALIB
        The set-up probe: import mvmocap, load the calibration, build the
        run config, topology and template, and print the process's CPU time
        so far; then run the reference kernel REF_REPEATS times and print the
        median of its CPU times.

Every call is followed by one run of `Reference.run` in the same process,
and its CPU time goes into the reply: the parent reports command times
relative to it (see README.md).

`mvmocap` is imported from `src/` of the current directory.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

REF_REPEATS = 3  # reference runs per set-up probe


class Reference:
    """A fixed piece of Python and small-array numpy work, like the CLI's mix.

    It is part of the benchmark, not of mvmocap, so no change to the program
    changes it; its CPU time measures how fast the host runs right now.
    """

    def __init__(self):
        import numpy as np

        # Not numpy.random: importing it would add to the worker's peak RSS.
        self.mats = np.sin(np.arange(3600.0)).reshape(300, 3, 4)
        self.points = np.cos(np.arange(1200.0)).reshape(300, 4) + 2.0
        self.rows = [[float(x) for x in row] for row in self.points[:60]]

    def run(self) -> float:
        """Runs the kernel once; returns its CPU seconds."""
        c0 = time.process_time()
        for _ in range(8):
            parts = []
            for m, p in zip(self.mats, self.points):
                u, v, w = (m @ p).tolist()
                parts.append(f'<circle cx="{u / w:.2f}" cy="{v / w:.2f}" r="{abs(w):.3f}"/>')
            json.loads(json.dumps({"rows": self.rows, "svg": "".join(parts)}))
        return time.process_time() - c0


def setup_probe(calib: str) -> None:
    from mvmocap import io as mio
    from mvmocap.cli import RunConfig
    from mvmocap.skeleton import default_template, default_topology

    mio.load_cameras(calib)
    RunConfig(calib=calib).estimator_config()
    default_topology()
    default_template()
    print(time.process_time())
    ref = Reference()
    print(sorted(ref.run() for _ in range(REF_REPEATS))[REF_REPEATS // 2])


def serve() -> None:
    import mvmocap.cli as cli
    from tracer import Tracer

    proto = sys.stdout
    ref = Reference()
    ref.run()
    for line in sys.stdin:
        request = json.loads(line)
        tracer = Tracer() if request["trace"] else None
        captured = io.StringIO()
        gc.collect()
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = cli.main(request["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = 1
            captured.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if tracer:
            tracer.remove()
        ref_cpu = ref.run()
        reply = {
            "code": code,
            "wall_s": wall,
            "cpu_s": cpu,
            "ref_cpu_s": ref_cpu,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "output": captured.getvalue()[-2000:],
            "trace": tracer.report() if tracer else None,
        }
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


if __name__ == "__main__":
    if sys.argv[1:2] == ["serve"]:
        serve()
    elif sys.argv[1:2] == ["setup"] and len(sys.argv) == 3:
        setup_probe(sys.argv[2])
    else:
        sys.exit("usage: worker.py serve | worker.py setup CALIB")
