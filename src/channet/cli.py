"""Command-line front end: steady states, gain screening, certificates, runs.

Four subcommands (steady, gains, certify, simulate) share one JSON
configuration file and write their reports into an output directory. Field
data goes to RFC-4180 CSV with 17-significant-digit scientific notation so
binary64 values survive a round trip; summaries go to JSON. All outputs are
deterministic functions of the configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    ReflectionPole,
    SimulationError,
    SteadyStateError,
    TopologyError,
    WeightError,
)
from .gains import is_admissible
from .simulate import CFL_SAFETY, Bump, NetworkSimulator, check_run_options, mass_balance
from .steady import solve_network_steady
from .topology import NetworkTopology, network_from_dict, network_to_dict, validate_topology
from .weights import DEFAULT_EPSILON, certify_network


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
        """Parse and check a configuration. A bad topology, a NaN or
        infinite number, a count that is not whole, a gain for a channel
        that is not terminal, a perturbation of a channel that is not in the
        network or a run option the simulator refuses raises TopologyError
        or ValueError here, before any solve."""
        topo = network_from_dict(data["network"])
        validate_topology(topo)
        root = data["root"]
        gains = {int(j): _finite(k, f"gain {j}") for j, k in data.get("gains", {}).items()}
        stray = sorted(set(gains) - set(topo.terminal_channels))
        if stray:
            raise ValueError(f"gains for channel(s) {', '.join(map(str, stray))}, "
                             "which are not terminal channels")
        lyap = data.get("lyapunov", {})
        epsilon_start = float(lyap.get("epsilon_start", DEFAULT_EPSILON))
        if not 0.0 < epsilon_start < math.inf:
            raise ValueError(f"epsilon_start must be positive and finite, not {epsilon_start!r}")
        simc = data.get("simulation", {})
        pert = {}
        for j, entry in simc.get("perturbation", {}).items():
            if int(j) not in topo.channels:
                raise ValueError(f"perturbation of channel {j}, which is not in the network")
            pert[int(j)] = Bump(
                amplitude_h=float(entry.get("amplitude_h", 0.0)),
                amplitude_v=float(entry.get("amplitude_v", 0.0)),
                center=float(entry.get("center", 0.5)),
                width=float(entry.get("width", 0.5)),
            )
        stride = simc.get("sample_stride")
        check_run_options(sample_stride=stride)  # before int() could truncate it
        config = cls(
            topology=topo,
            root_flux=_finite(root["Q"], "Q"),
            root_inlet_depth=_finite(root["H0"], "H0"),
            gains=gains,
            epsilon_start=epsilon_start,
            mode=str(simc.get("mode", "linear")),
            T=float(simc.get("T", 100.0)),
            cfl=float(simc.get("cfl", CFL_SAFETY)),
            perturbation=pert,
            sample_stride=None if stride is None else int(stride),
            trace_path=str(simc.get("trace_path", "trace.csv")),
            snapshot_path=simc.get("snapshot_path"),
        )
        check_run_options(mode=config.mode, cfl=config.cfl, T=config.T)
        return config

    def to_dict(self) -> dict:
        return {
            "network": network_to_dict(self.topology),
            "root": {"Q": self.root_flux, "H0": self.root_inlet_depth},
            "gains": {str(j): k for j, k in sorted(self.gains.items())},
            "lyapunov": {"epsilon_start": self.epsilon_start},
            "simulation": {
                "mode": self.mode,
                "T": self.T,
                "cfl": self.cfl,
                "perturbation": {
                    str(j): {
                        "amplitude_h": b.amplitude_h,
                        "amplitude_v": b.amplitude_v,
                        "center": b.center,
                        "width": b.width,
                    }
                    for j, b in sorted(self.perturbation.items())
                },
                "sample_stride": self.sample_stride,
                "trace_path": self.trace_path,
                "snapshot_path": self.snapshot_path,
            },
        }


def _finite(value, name: str) -> float:
    """value as a float; ValueError, naming it, if it is NaN or infinite."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, not {value!r}")
    return x


def _fmt(x: float) -> str:
    """17-significant-digit scientific notation, exact for binary64."""
    return f"{x:.16e}"


def _sanitize(obj):
    """Replace non-finite floats with None so the JSON stays standard."""
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


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_steady(config: RunConfig, profiles, outdir: Path) -> int:
    summary = []
    for i in sorted(config.topology.channels):
        prof = profiles[i]
        rows = [
            (str(i), _fmt(x), _fmt(H), _fmt(V))
            for x, H, V in zip(prof.x_faces, prof.H_faces, prof.V_faces)
        ]
        _write_csv(
            outdir / f"steady_channel_{i}.csv",
            ["channel", "x", "H", "V"],
            rows,
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
    if any(r.pole for r in records):
        bad = [r.channel for r in records if r.pole]
        print(
            f"error: gain at the reflection pole for terminal channel(s) "
            f"{', '.join(map(str, bad))}",
            file=sys.stderr,
        )
        return 3
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
    cert = _certificate(config, profiles)
    if cert.weights is None:
        print(
            "error: no Lyapunov weight set exists for this configuration "
            f"({', '.join(cert.failed_checks)})",
            file=sys.stderr,
        )
        return 5
    sim = NetworkSimulator(config.topology, profiles, config.gains,
                           weights=cert.weights, mode=config.mode, cfl=config.cfl)
    trace = sim.run(config.perturbation or None, config.T,
                    sample_stride=config.sample_stride)

    ids = sorted(config.topology.channels)
    header = ["t", "V", "V_ext", "l2_norm", "boundary_B"] + [
        f"l2_channel_{i}" for i in ids
    ]
    # columns as lists of Python floats: indexing numpy arrays per value
    # would box a numpy scalar for every number written
    columns = [trace.t, trace.V, trace.V_ext, trace.l2, trace.boundary_B]
    columns += [trace.channel_l2[i] for i in ids]
    rows = [[_fmt(x) for x in row] for row in zip(*(c.tolist() for c in columns))]
    _write_csv(outdir / config.trace_path, header, rows)

    if config.snapshot_path is not None:
        fields = sim.fields(sim.final_state.y)
        rows = []
        for i in ids:
            prof = profiles[i]
            h, v = fields[i]
            H, V = prof.H_centers + h, prof.V_centers + v
            rows.extend(
                (str(i), *map(_fmt, cell))
                for cell in zip(*(a.tolist() for a in (prof.x_centers, H, V, h, v)))
            )
        _write_csv(
            outdir / config.snapshot_path,
            ["channel", "x", "H", "V", "h", "v"],
            rows,
        )

    _write_json(
        outdir / "simulate_summary.json",
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="channet",
        description="Steady states, feedback gains, decay certificates and "
        "simulations for tree-shaped channel networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            config = RunConfig.from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, TopologyError) as exc:
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
    outdir.mkdir(parents=True, exist_ok=True)

    try:
        profiles = solve_network_steady(
            config.topology, config.root_inlet_depth, config.root_flux
        )
    except SteadyStateError as exc:
        print(f"error: steady state failed: {exc}", file=sys.stderr)
        return 2

    try:
        return args.func(config, profiles, outdir)
    except ReflectionPole as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
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
