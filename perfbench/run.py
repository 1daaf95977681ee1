"""channet benchmark: three workloads, timed end to end, and per layer when traced.

    python3 perfbench/run.py --workload star-linear --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports channet from ``src/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it print the same
metrics by name and unit. See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("star-linear", "star-nonlinear", "certify-suite")
SETUP_PROBES = 6
CERTIFY_PER_UNIT = 5
# At least two whole units: one pass of the suite takes about 20 s.
MIN_UNITS = 2
OUTLET_REL_TOL = 1e-8
EPSILON_START = 1e-3


def fail(reason):
    print(f"check failed: {reason}", file=sys.stderr)
    return False


class StarWorkload:
    """The README star driven through channet.cli.main: certify, then simulate.

    One unit is five certify calls and one simulate call. The inputs are
    fixed; the seed does not change them.
    """

    def __init__(self, mode, workdir):
        from inputs import star_config

        self.mode = mode
        self.config = workdir / "star.json"
        self.config.write_text(json.dumps(star_config(mode)))
        self.workdir = workdir

    def ops(self):
        # certify is a tenth of simulate's cost; five calls per unit give
        # verdict_s and verdict_p85_s enough samples in one run.
        return ["certify"] * CERTIFY_PER_UNIT + ["simulate"]

    def run(self, op):
        """Run one CLI call: (seconds, named times, correct, bytes written)."""
        import channet.cli

        out = self.workdir / op
        start = time.perf_counter()
        rc = channet.cli.main([op, "--config", str(self.config), "--out", str(out)])
        seconds = time.perf_counter() - start
        written = sum(f.stat().st_size for f in out.iterdir())
        return seconds, {op: seconds}, self.check(op, rc, out), written

    def check(self, op, rc, out):
        from inputs import NU_HAT_REL_TOL, STAR_NU_HAT

        if rc != 0:
            return fail(f"channet {op} exited with {rc}")
        name = "certificate.json" if op == "certify" else "simulate_summary.json"
        report = json.loads((out / name).read_text())
        if report.get("certified") is not True:
            return fail(f"channet {op}: the star is not certified")
        if op == "simulate":
            ref = STAR_NU_HAT[self.mode]
            if not abs(report["nu_hat"] - ref) <= NU_HAT_REL_TOL * ref:
                return fail(f"nu_hat {report['nu_hat']!r} is not within {NU_HAT_REL_TOL:g} of {ref!r}")
        return True


class SuiteWorkload:
    """The criterion-5 networks, each through steady, gain screen and certificate.

    The network set is fixed by ``suite_seed``, so that every run measures the
    same 363 channels; ``seed`` sets the order in which they are visited.
    """

    def __init__(self, seed, suite_seed):
        import numpy as np
        from channet.topology import network_from_dict
        from inputs import suite

        self.suite_seed = suite_seed
        self.networks = [
            (network_from_dict(n["network"]), n["H0"], n["flux"], n["outlet_depths"])
            for n in suite(suite_seed)
        ]
        self.order = [int(i) for i in np.random.default_rng(seed).permutation(len(self.networks))]

    def ops(self):
        return self.order

    def run(self, op):
        import channet

        from inputs import draw_gain

        topo, H0, flux, outlets = self.networks[op]
        start = time.perf_counter()
        profiles = channet.solve_network_steady(topo, H0, flux)
        screen = {j: channet.is_admissible(profiles[j], 0.0) for j in topo.terminal_channels}
        gains = {
            j: draw_gain(self.suite_seed, op, j, rec, profiles[j].outlet_depth)
            for j, rec in screen.items()
        }
        records = [
            channet.is_admissible(profiles[j], k, eta_bar_L=screen[j].eta_bar_L, phi_L=screen[j].phi_L)
            for j, k in gains.items()
        ]
        certify_start = time.perf_counter()
        cert = channet.certify_network(topo, profiles, gains, epsilon_start=EPSILON_START)
        end = time.perf_counter()
        times = {"verdict": end - start, "certify": end - certify_start}
        return end - start, times, self.check(op, profiles, outlets, records, cert), 0

    @staticmethod
    def check(op, profiles, outlets, records, cert):
        for i, expected in outlets.items():
            got = profiles[i].outlet_depth
            if not abs(got - expected) <= OUTLET_REL_TOL * expected:
                return fail(f"network {op} channel {i}: outlet depth {got!r}, closed form {expected!r}")
        if not all(r.admissible for r in records):
            return fail(f"network {op}: a drawn gain is not admissible")
        margins = [*cert.junction_min_eig.values(), cert.trunk_inlet,
                   *cert.terminal_margins.values(), *cert.interior_min_eig.values()]
        if not cert.certified or not all(m > 0.0 for m in margins):
            return fail(f"network {op}: not certified ({', '.join(cert.failed_checks)})")
        return True


def make_workload(name, seed, suite_seed, workdir):
    if name == "certify-suite":
        return SuiteWorkload(seed, suite_seed)
    return StarWorkload(name.split("-", 1)[1], workdir)


def run_op(workload, op, tally):
    """One operation; an exception or a failed check counts as a failure."""
    tally["attempted"] += 1
    try:
        seconds, times, ok, written = workload.run(op)
    except Exception:
        traceback.print_exc()
        seconds, times, ok, written = 0.0, {}, False, 0
    if not ok:
        tally["failed"] += 1
    return seconds, times, written


def measure(workload, seconds, recorder):
    """Run whole workload units until ``seconds`` have passed.

    Without a recorder every operation is timed untraced, between two
    brackets of reference kernels, and its times are kept both as wall time
    and normalised to the host's speed (hostspeed.py). With a recorder, every
    operation runs twice in a row, untraced and then traced, so that the
    tracing overhead is measured on the same operations under the same load.
    """
    from hostspeed import HostSpeed
    from spans import instrument

    tally = {"attempted": 0, "failed": 0, "units": 0, "bytes": 0}
    samples, walls = {}, {}
    paired = {"plain": 0.0, "traced": 0.0}
    speed = HostSpeed() if recorder is None else None
    if speed is not None:
        speed.bracket()  # warm-up
        before = speed.bracket()
    deadline = time.perf_counter() + seconds
    while tally["units"] < MIN_UNITS or time.perf_counter() < deadline:
        for op in workload.ops():
            seconds, times, _ = run_op(workload, op, tally)
            if speed is not None:
                after = speed.bracket()
                factor = speed.factor(before, after)
                before = after
                for k, v in times.items():
                    walls.setdefault(k, []).append(v)
                    samples.setdefault(k, []).append(v * factor)
                continue
            for k, v in times.items():
                samples.setdefault(k, []).append(v)
            paired["plain"] += seconds
            recorder.op = f"{tally['units']}:{op}"
            with instrument(recorder):
                seconds, _, written = run_op(workload, op, tally)
            paired["traced"] += seconds
            tally["bytes"] += written
        tally["units"] += 1
    return tally, samples, walls, paired


def setup_times(args):
    """Times of fresh processes that import channet and build the inputs.

    Returns the wall times and the same times normalised to the host's speed,
    each probe between two brackets of reference kernels.
    """
    from hostspeed import HostSpeed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--suite-seed", str(args.suite_seed)]
    # The first probe also compiles bytecode; it is not timed.
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
    speed = HostSpeed()
    walls, normalised = [], []
    before = speed.bracket()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        walls.append(time.perf_counter() - start)
        after = speed.bracket()
        normalised.append(walls[-1] * speed.factor(before, after))
        before = after
    return walls, normalised


def end_to_end(samples, setup):
    import numpy as np

    if "simulate" in samples:
        verdict, decay = samples["certify"], samples["simulate"]
    else:
        # The suite runs no simulation; its answer to the decay question is
        # the certificate, so decay_s times certify_network alone.
        verdict, decay = samples["verdict"], samples["certify"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_s": (statistics.median(verdict), "s"),
        "verdict_p85_s": (float(np.percentile(verdict, 85.0)), "s"),
        "networks_per_s": (len(verdict) / sum(verdict), "1/s"),
        "decay_s": (statistics.median(decay), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def write_spans(recorder, path):
    with open(path, "w") as fh:
        json.dump([s.to_dict(i) for i, s in enumerate(recorder.spans)], fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="order in which the suite visits its networks; the star inputs are fixed")
    p.add_argument("--suite-seed", type=int, default=31514,
                   help="generator seed of the suite's 70 networks (31514: acceptance criterion 5)")
    p.add_argument("--seconds", type=float, default=20.0, help="measure whole workload units for this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    # numpy, channet and the benchmark modules that use them are imported
    # only after the BLAS thread limits are set and src/ is on the path, so
    # every import of them in this file sits inside a function.
    args = parse_args(argv)
    if not (SRC / "channet" / "__init__.py").is_file():
        print(f"error: no channet sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import channet

    if SRC.resolve() not in Path(channet.__file__).resolve().parents:
        print(f"error: channet was imported from {channet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        workload = make_workload(args.workload, args.seed, args.suite_seed, workdir)
        if args.setup_probe:
            return 0
        setup_walls, setup = ([], []) if args.trace else setup_times(args)
        recorder = None
        if args.trace:
            from spans import Recorder

            recorder = Recorder()
        tally, samples, walls, paired = measure(workload, args.seconds, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(samples) < 2:
        print("error: no operation completed, nothing to report", file=sys.stderr)
        return 1
    if recorder is None:
        metrics = end_to_end(samples, setup)
        wall = end_to_end(walls, setup_walls)
        print("wall times, not normalised to the host's speed: "
              + ", ".join(f"{n} = {v:.6g} {u}" for n, (v, u) in wall.items() if n != "peak_rss_mb"))
    else:
        from spans import layer_metrics

        metrics = layer_metrics(recorder, tally["units"], tally["bytes"])
        metrics["trace.overhead_pct"] = (100.0 * (paired["traced"] / paired["plain"] - 1.0), "%")
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
        write_spans(recorder, spans_path)
        print(f"spans: {len(recorder.spans)} written to {spans_path.relative_to(ROOT)}")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {tally['failed'] / tally['attempted']:.6g} ({tally['failed']} of {tally['attempted']} operations)")
    print("samples: " + ", ".join(f"{k} n={len(v)}" for k, v in samples.items()))
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
