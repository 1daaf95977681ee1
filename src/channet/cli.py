"""Command-line front end: steady states, gain screening, certificates, runs.

Four subcommands (steady, gains, certify, simulate) share one JSON
configuration file and write their reports into an output directory. Field
data goes to RFC-4180 CSV with 17-significant-digit scientific notation so
binary64 values survive a round trip; summaries go to JSON. All outputs are
deterministic functions of the configuration.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import SimulationError, SteadyStateError, TopologyError, WeightError
from .gains import is_admissible
from .simulate import CFL_SAFETY, Bump, NetworkSimulator, check_run_options, mass_balance
from .steady import solve_network_steady
from .topology import (_NETWORK, _REQUIRED, NetworkTopology, _Each, _Table, _walk,
                       network_to_dict)
from .weights import DEFAULT_EPSILON, _check_epsilon_start, certify_network

# the file simulate writes its summary to, beside the trace and the snapshot
_SUMMARY = "simulate_summary.json"


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration for every subcommand."""

    topology: NetworkTopology
    root_flux: float
    root_inlet_depth: float
    gains: dict[int, float]
    epsilon_start: float = DEFAULT_EPSILON
    mode: str = "linear"
    T: float = 100.0
    cfl: float = CFL_SAFETY
    perturbation: dict[int, Bump] = field(default_factory=dict)
    sample_stride: int | None = None
    trace_path: str = "trace.csv"
    snapshot_path: str | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Parse and check a configuration through the schema tables below:
        a value they refuse, a gain for a channel that is not terminal or a
        perturbation of a channel not in the network raises ValueError naming
        its path, and a topology error TopologyError, before any solve."""
        topo, (flux, depth), gains, epsilon_start, sim = _walk(_CONFIG, data, "configuration")
        stray = [j for j in sorted(gains) if j not in topo.channels or j in topo.junctions]
        if stray:
            raise ValueError(f"gains: gains for channel(s) {', '.join(map(str, stray))}, "
                             "which are not terminal channels")
        config = cls(topo, flux, depth, gains, epsilon_start, *sim)
        for j in config.perturbation:
            if j not in topo.channels:
                raise ValueError(f"simulation.perturbation.{j}: perturbation of channel {j}, "
                                 "which is not in the network")
        return config

    def to_dict(self) -> dict:
        return {
            "network": network_to_dict(self.topology),
            "root": {"Q": self.root_flux, "H0": self.root_inlet_depth},
            "gains": {str(j): k for j, k in sorted(self.gains.items())},
            "lyapunov": {"epsilon_start": self.epsilon_start},
            "simulation": {key: getattr(self, key) for key in _SIMULATION.rows} | {
                "perturbation": {str(j): asdict(b) for j, b in sorted(self.perturbation.items())},
            },
        }


def _simulation(mode, T, cfl, perturbation, sample_stride, trace_path, snapshot_path):
    """The simulation section in row order, once check_run_options accepts
    its run options and each output is one file name in the output directory
    (not empty, ".", "..", absolute or in a directory) that overwrites none."""
    check_run_options(mode=mode, T=T, cfl=cfl, sample_stride=sample_stride)
    taken = [_SUMMARY]
    for name, path in (("trace_path", trace_path), ("snapshot_path", snapshot_path)):
        if path is not None and (path in ("", ".", "..") or os.path.basename(path) != path):
            raise ValueError(f"{name} must be a file name in the output directory, not {path!r}")
        if path in taken:
            raise ValueError(f"{name} {path!r} would overwrite another output")
        taken.append(path)
    return mode, T, cfl, perturbation, sample_stride, trace_path, snapshot_path


# The configuration schema, one table per section, read by topology._walk.
_SIMULATION = _Table({
    "mode": (str, RunConfig.mode),
    "T": (float, RunConfig.T),
    "cfl": (float, RunConfig.cfl),
    "perturbation": (_Each(_Table({
        "amplitude_h": (float, Bump.amplitude_h),
        "amplitude_v": (float, Bump.amplitude_v),
        "center": (float, Bump.center),
        "width": (float, Bump.width),
    }, build=Bump, noun="bump "), "perturbation of channel", keyed=True), {}),
    "sample_stride": (int, RunConfig.sample_stride),
    "trace_path": (str, RunConfig.trace_path),
    "snapshot_path": (str, RunConfig.snapshot_path),
}, build=_simulation)

_CONFIG = _Table({
    "network": (_NETWORK, _REQUIRED),
    "root": (_Table({"Q": (float, _REQUIRED), "H0": (float, _REQUIRED)}), _REQUIRED),
    "gains": (_Each(float, "gain", keyed=True), {}),
    "lyapunov": (_Table({"epsilon_start": (float, RunConfig.epsilon_start)},
                        build=_check_epsilon_start), {}),
    "simulation": (_SIMULATION, {}),
})


# 17-significant-digit scientific notation, exact for binary64
_NUMBER = "%.16e"


def _sanitize(obj):
    """Replace non-finite floats with None so the JSON stays standard: the
    one place where a JSON output writes NaN and +-inf as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(_sanitize(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], formats: list[str], rows) -> None:
    """The header, then each row of ``rows`` through one %-format joined
    from the column ``formats``. These are the bytes of csv.writer's
    default dialect, whose CRLF ends every line: column names, channel ids
    and numbers need no quotes."""
    row_format = ",".join(formats) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row_format % row for row in rows)


def cmd_steady(config: RunConfig, profiles, outdir: Path) -> int:
    summary = []
    for i in sorted(config.topology.channels):
        prof = profiles[i]
        faces = zip(*(a.tolist() for a in (prof.x_faces, prof.H_faces, prof.V_faces)))
        _write_csv(
            outdir / f"steady_channel_{i}.csv",
            ["channel", "x", "H", "V"],
            ["%d"] + [_NUMBER] * 3,
            ((i, *face) for face in faces),
        )
        summary.append(
            {
                "channel": i,
                "flux": prof.flux,
                "inlet_depth": prof.inlet_depth,
                "outlet_depth": prof.outlet_depth,
                "critical_depth": prof.critical_depth,
                "blowup_bound": prof.blowup_bound,
                "blowup_margin": prof.blowup_bound - prof.length,
            }
        )
    _write_json(
        outdir / "steady_summary.json",
        {
            "root": {"Q": config.root_flux, "H0": config.root_inlet_depth},
            "channels": summary,
        },
    )
    return 0


def cmd_gains(config: RunConfig, profiles, outdir: Path) -> int:
    records = [
        is_admissible(profiles[j], config.gains[j])
        for j in sorted(config.topology.terminal_channels)
    ]
    _write_json(
        outdir / "gains_report.json",
        {"terminals": [r.to_dict() for r in records]},
    )
    return 0


def _certificate(config: RunConfig, profiles):
    return certify_network(
        config.topology, profiles, config.gains, epsilon_start=config.epsilon_start
    )


def cmd_certify(config: RunConfig, profiles, outdir: Path) -> int:
    cert = _certificate(config, profiles)
    _write_json(outdir / "certificate.json", cert.to_dict())
    if not cert.certified:
        print(
            f"error: certification failed: {', '.join(cert.failed_checks)}",
            file=sys.stderr,
        )
        return 4
    return 0


def cmd_simulate(config: RunConfig, profiles, outdir: Path) -> int:
    # an output name that a directory holds is refused before the run, as it
    # would be by the write after it
    for name in filter(None, (config.trace_path, config.snapshot_path, _SUMMARY)):
        if (outdir / name).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(outdir / name))
    cert = _certificate(config, profiles)
    if cert.weights is None:
        print(
            "error: no Lyapunov weight set exists for this configuration "
            f"({', '.join(cert.failed_checks)})",
            file=sys.stderr,
        )
        return 5
    sim = NetworkSimulator(cert.weights, config.gains, mode=config.mode, cfl=config.cfl)
    trace = sim.run(config.perturbation, config.T, sample_stride=config.sample_stride)

    ids = sorted(config.topology.channels)
    header = ["t", "V", "V_ext", "l2_norm", "boundary_B"] + [
        f"l2_channel_{i}" for i in ids
    ]
    # columns as lists of Python floats: indexing numpy arrays per value
    # would box a numpy scalar for every number written
    columns = [trace.t, trace.V, trace.V_ext, trace.l2, trace.boundary_B]
    columns += [trace.channel_l2[i] for i in ids]
    _write_csv(outdir / config.trace_path, header, [_NUMBER] * len(columns),
               zip(*(c.tolist() for c in columns)))

    if config.snapshot_path is not None:
        fields = sim.fields(sim.final_state)

        def cells(i):
            prof = profiles[i]
            h, v = fields[i]
            H, V = prof.H_centers + h, prof.V_centers + v
            return zip(*(a.tolist() for a in (prof.x_centers, H, V, h, v)))

        _write_csv(
            outdir / config.snapshot_path,
            ["channel", "x", "H", "V", "h", "v"],
            ["%d"] + [_NUMBER] * 5,
            ((i, *cell) for i in ids for cell in cells(i)),
        )

    _write_json(
        outdir / _SUMMARY,
        {
            "nu_hat": 0.0 if trace.zero_trace else trace.nu_hat,
            "r2": None if trace.zero_trace else trace.r2,
            "V0": trace.V[0],
            "VT": trace.V[-1],
            "cfl_dt": trace.dt,
            "cfl_bound": trace.cfl_bound,
            "mass_balance": mass_balance(trace),
            "zero_trace": trace.zero_trace,
            "mode": trace.mode,
            "T": config.T,
            "certified": cert.certified,
        },
    )
    return 0


_COMMANDS = {
    "steady": cmd_steady,
    "gains": cmd_gains,
    "certify": cmd_certify,
    "simulate": cmd_simulate,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it records the
    subcommand's name, and main looks the command up at each call."""
    parser = argparse.ArgumentParser(
        prog="channet",
        description="Steady states, feedback gains, decay certificates and "
        "simulations for tree-shaped channel networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def _object(pairs):
    """The pairs of a JSON object as a dict; ValueError names a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {json.dumps(key)}")
        obj[key] = value
    return obj


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            config = RunConfig.from_dict(json.load(fh, object_pairs_hook=_object))
    except (OSError, ValueError, TopologyError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2

    missing = sorted(set(config.topology.terminal_channels) - set(config.gains))
    if missing:
        print(
            f"error: no gain for terminal channel(s) {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 3

    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        profiles = solve_network_steady(
            config.topology, config.root_inlet_depth, config.root_flux
        )
        return _COMMANDS[args.command](config, profiles, outdir)
    except OSError as exc:  # an output directory or file that cannot be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except SteadyStateError as exc:
        print(f"error: steady state failed: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        t = getattr(exc, "sim_time", None)
        stamp = "" if t is None else f" at t = {t:.6e}"
        print(f"error: simulation failed{stamp}: {exc}", file=sys.stderr)
        return 5
    except WeightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
