"""Quickstart: profile a mini-Chapel program with variable blame.

Run:  python examples/quickstart.py

Writes a small data-parallel program, runs it under the four-step blame
pipeline (static analysis → sampled execution → post-mortem →
presentation), and prints the three views of paper §IV.D.
"""

from repro import Profiler, RunConfig
from repro.views import render_code_centric, render_data_centric, render_hybrid

SOURCE = """
// A toy simulation: positions updated from forces, energies reduced.
config const n: int = 120;
config const steps: int = 5;

var D: domain(1) = {0..n-1};
var pos: [D] 3*real;
var vel: [D] 3*real;
var force: [D] 3*real;

proc applyForces(dt: real) {
  forall i in D {
    vel[i] = vel[i] + force[i] * dt;
    pos[i] = pos[i] + vel[i] * dt;
  }
}

proc computeForces() {
  forall i in D {
    var r = pos[i];
    var r2 = r[0]*r[0] + r[1]*r[1] + r[2]*r[2] + 1.0;
    force[i] = r * (0.0 - 1.0 / r2);
  }
}

proc energy(): real {
  var e = 0.0;
  for i in D {
    var v = vel[i];
    e += v[0]*v[0] + v[1]*v[1] + v[2]*v[2];
  }
  return e;
}

proc main() {
  forall i in D {
    pos[i] = (i * 0.1, i * 0.05, i * 0.01);
  }
  for s in 1..steps {
    computeForces();
    applyForces(0.01);
  }
  writeln("kinetic energy:", energy());
}
"""


def main() -> None:
    run = RunConfig(
        num_threads=8,       # the simulated SMP width
        threshold=2003,      # PMU overflow threshold (prime)
    )
    profiler = Profiler(SOURCE, run, filename="quickstart.chpl")
    result = profiler.profile()

    print("program output:")
    for line in result.run_result.output:
        print("  ", line)
    print()
    print(render_data_centric(result.report, top=12, min_blame=0.01))
    print()
    print(render_code_centric(result.module, result.postmortem, top=8))
    print()
    print(render_hybrid(result.report, min_blame=0.05))
    print()
    print(
        f"[{result.monitor.n_samples} samples, "
        f"{result.report.stats.user_samples} in user code, "
        f"simulated wall {result.run_result.wall_seconds:.5f}s]"
    )


if __name__ == "__main__":
    main()
