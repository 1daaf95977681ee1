"""Command-line interface: config parsing, outputs, exit codes."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import channet
from channet.characteristics import CharCoeffs
from channet.cli import RunConfig, main
from channet.errors import BadSplitSum, CycleDetected, DisconnectedChannel, MultipleParents
from channet.gains import is_admissible
from channet.steady import integrate_channel_steady, solve_network_steady
from channet.topology import ChannelSpec, NetworkTopology, network_to_dict

from conftest import (
    FACE_FAILURES,
    G,
    STAR_ROOT_DEPTH,
    STAR_ROOT_FLUX,
    dry_outlet_cell,
    nudge_face_cell,
    small_star,
)

FLOAT_CELL = re.compile(rb"-?\d\.\d{16}e[+-]\d{2,3}")


def star_config(**overrides):
    """Config dict for the four-channel star, tuned for fast runs."""
    cfg = {
        "network": network_to_dict(small_star(cells=24)),
        "root": {"Q": STAR_ROOT_FLUX, "H0": STAR_ROOT_DEPTH},
        "gains": {"2": 0.0, "3": 0.0, "4": 0.0},
        "lyapunov": {"epsilon_start": 1e-3},
        "simulation": {
            "mode": "linear",
            "T": 3.0,
            "cfl": 0.9,
            "perturbation": {
                "2": {"amplitude_h": 1e-3, "center": 0.5, "width": 0.5}
            },
            "sample_stride": 4,
            "trace_path": "trace.csv",
            "snapshot_path": "snapshot.csv",
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(tmp_path, command, cfg, out="out"):
    path = write_config(tmp_path, cfg, name=f"{command}_{out}.json")
    outdir = tmp_path / out
    code = main([command, "--config", path, "--out", str(outdir)])
    return code, outdir


def star_profiles_for_config(cfg):
    topo = small_star(cells=24)
    return topo, solve_network_steady(
        topo, cfg["root"]["H0"], cfg["root"]["Q"]
    )


def test_config_round_trip():
    cfg = RunConfig.from_dict(star_config())
    d = cfg.to_dict()
    assert RunConfig.from_dict(d).to_dict() == d
    assert cfg.gains == {2: 0.0, 3: 0.0, 4: 0.0}
    assert cfg.sample_stride == 4
    assert cfg.perturbation[2].amplitude_h == 1e-3


def test_config_defaults():
    cfg = RunConfig.from_dict(
        {
            "network": network_to_dict(small_star(cells=24)),
            "root": {"Q": 1.0, "H0": 2.0},
            "gains": {"2": 0.1, "3": 0.0, "4": 0.0},
        }
    )
    assert cfg.mode == "linear"
    assert cfg.T == 100.0
    assert cfg.cfl == 0.9
    assert cfg.epsilon_start == 1e-3
    assert cfg.sample_stride is None
    assert cfg.perturbation == {}
    assert cfg.trace_path == "trace.csv"
    assert cfg.snapshot_path is None


def test_steady_outputs(tmp_path):
    code, outdir = run_cli(tmp_path, "steady", star_config())
    assert code == 0

    summary = json.loads((outdir / "steady_summary.json").read_text())
    assert summary["root"] == {"Q": STAR_ROOT_FLUX, "H0": STAR_ROOT_DEPTH}
    by_id = {entry["channel"]: entry for entry in summary["channels"]}
    assert sorted(by_id) == [1, 2, 3, 4]
    for entry in by_id.values():
        assert entry["inlet_depth"] > entry["outlet_depth"] > entry["critical_depth"]
        assert entry["blowup_margin"] > 0.0
    # split fractions 0.5 / 0.3 / 0.2 of the trunk flux
    assert by_id[2]["flux"] == pytest.approx(0.5 * STAR_ROOT_FLUX, rel=1e-12)

    for i in (1, 2, 3, 4):
        assert (outdir / f"steady_channel_{i}.csv").exists()


def test_csv_format(tmp_path):
    code, outdir = run_cli(tmp_path, "steady", star_config())
    assert code == 0
    raw = (outdir / "steady_channel_1.csv").read_bytes()
    # windows-style row terminator regardless of platform
    assert raw.endswith(b"\r\n")
    lines = raw.split(b"\r\n")
    assert lines[0] == b"channel,x,H,V"
    body = [ln for ln in lines[1:] if ln]
    assert len(body) == 25  # cells + 1 faces
    for ln in body:
        cells = ln.split(b",")
        assert cells[0] == b"1"
        for cell in cells[1:]:
            assert FLOAT_CELL.fullmatch(cell), cell
    # first face sits at x = 0 with the prescribed inlet depth
    first = body[0].split(b",")
    assert first[1] == b"0.0000000000000000e+00"
    assert float(first[2]) == STAR_ROOT_DEPTH


def test_gains_report(tmp_path):
    code, outdir = run_cli(tmp_path, "gains", star_config())
    assert code == 0
    report = json.loads((outdir / "gains_report.json").read_text())
    records = {r["channel"]: r for r in report["terminals"]}
    assert sorted(records) == [2, 3, 4]
    for rec in records.values():
        assert rec["admissible"] is True
        assert rec["k"] == 0.0
        assert rec["k_pole"] is False
        # both endpoints share a sign (their product is g over the outlet
        # depth), so an admissible zero gain lies entirely outside
        assert rec["a"] < rec["b"]
        assert rec["a"] * rec["b"] > 0.0
        # both characteristic speeds are stored as positive magnitudes
        assert rec["lambda_plus"] > 0.0
        assert rec["lambda_minus"] > 0.0


def test_certify_output(tmp_path):
    code, outdir = run_cli(tmp_path, "certify", star_config())
    assert code == 0
    cert = json.loads((outdir / "certificate.json").read_text())
    assert cert["certified"] is True
    assert cert["failed_checks"] == []
    assert cert["epsilon"] > 0.0
    assert cert["trunk_inlet"] > 0.0
    assert sorted(cert["alphas"]) == ["1", "2", "3", "4"]
    for margin in cert["terminal_margins"].values():
        assert margin > 0.0
    for eig in cert["junction_min_eig"].values():
        assert eig > 0.0


def test_simulate_outputs(tmp_path):
    code, outdir = run_cli(tmp_path, "simulate", star_config())
    assert code == 0

    summary = json.loads((outdir / "simulate_summary.json").read_text())
    assert summary["certified"] is True
    assert summary["zero_trace"] is False
    assert summary["mode"] == "linear"
    assert summary["T"] == 3.0
    assert summary["cfl_dt"] > 0.0
    assert summary["cfl_dt"] <= summary["cfl_bound"]
    assert summary["mass_balance"] <= 1e-10
    assert summary["V0"] > 0.0
    # certified network: the functional does not grow over the run
    assert summary["VT"] <= summary["V0"] * (1.0 + 1e-9)

    raw = (outdir / "trace.csv").read_bytes()
    lines = raw.split(b"\r\n")
    header = lines[0].split(b",")
    assert header[:5] == [b"t", b"V", b"V_ext", b"l2_norm", b"boundary_B"]
    assert header[5:] == [b"l2_channel_%d" % i for i in (1, 2, 3, 4)]
    body = [ln for ln in lines[1:] if ln]
    assert float(body[0].split(b",")[0]) == 0.0
    for cell in body[-1].split(b","):
        assert FLOAT_CELL.fullmatch(cell)

    snap = (outdir / "snapshot.csv").read_bytes().split(b"\r\n")
    assert snap[0] == b"channel,x,H,V,h,v"
    rows = [ln.split(b",") for ln in snap[1:] if ln]
    assert len(rows) == 4 * 24
    # H column carries the absolute state, h the deviation
    for row in rows:
        assert float(row[2]) > 0.0


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_simulate_byte_identical(tmp_path, mode):
    # a nonlinear stage fills one flux buffer in place on every call
    cfg = star_config(simulation={"mode": mode})
    code_a, out_a = run_cli(tmp_path, "simulate", cfg, out="a")
    code_b, out_b = run_cli(tmp_path, "simulate", cfg, out="b")
    assert code_a == code_b == 0
    for name in ("trace.csv", "snapshot.csv", "simulate_summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_zero_trace(tmp_path):
    cfg = star_config(simulation={"perturbation": {}, "T": 1.0})
    code, outdir = run_cli(tmp_path, "simulate", cfg)
    assert code == 0
    summary = json.loads((outdir / "simulate_summary.json").read_text())
    assert summary["zero_trace"] is True
    assert summary["nu_hat"] == 0.0
    assert summary["r2"] is None
    assert summary["V0"] == 0.0


def test_bad_config_exit_two(tmp_path):
    missing_root = {"network": network_to_dict(small_star(cells=24))}
    code, _ = run_cli(tmp_path, "steady", missing_root)
    assert code == 2

    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["steady", "--config", str(bad_json), "--out", str(tmp_path / "x")]) == 2

    absent = tmp_path / "does_not_exist.json"
    assert main(["steady", "--config", str(absent), "--out", str(tmp_path / "y")]) == 2


def refuse_solve(monkeypatch):
    import channet.cli

    def solve(*args):
        raise AssertionError("the steady state was solved")

    monkeypatch.setattr(channet.cli, "solve_network_steady", solve)


@pytest.mark.parametrize("option, value", [
    ("mode", "nonlinar"), ("cfl", 1.5), ("T", -1.0), ("sample_stride", 0), ("sample_stride", -3),
    ("sample_stride", 2.5), ("sample_stride", True), ("T", math.inf),
])
def test_bad_simulation_option_exit_two_before_any_solve(tmp_path, capsys, monkeypatch,
                                                         option, value):
    refuse_solve(monkeypatch)
    code, outdir = run_cli(tmp_path, "simulate", star_config(simulation={option: value}))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration") and option in err
    assert not outdir.exists()


def _set(cfg, path, value):
    *keys, last = path
    for key in keys:
        cfg = cfg[key]
    cfg[last] = value


def _extra_channel(cfg):
    cfg["network"]["channels"].append(dict(cfg["network"]["channels"][-1], id=5))


# each topology error on the star: split fractions that sum to 0.6, a junction
# that feeds the root back, channel 3 claimed twice, and a channel that no
# junction feeds
TOPOLOGY_ERRORS = {
    "BadSplitSum": (BadSplitSum, lambda cfg: _set(cfg, ("network", "split_fractions", "1"),
                                                   [0.1, 0.3, 0.2])),
    "CycleDetected": (CycleDetected, lambda cfg: _set(cfg, ("network", "junctions", "2"), [1])),
    "MultipleParents": (MultipleParents, lambda cfg: _set(cfg, ("network", "junctions", "2"), [3])),
    "DisconnectedChannel": (DisconnectedChannel, _extra_channel),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGY_ERRORS))
def test_topology_error_exit_two_before_any_solve(tmp_path, capsys, monkeypatch, name):
    error, mutate = TOPOLOGY_ERRORS[name]
    cfg = star_config()
    mutate(cfg)
    with pytest.raises(error):
        RunConfig.from_dict(cfg)
    refuse_solve(monkeypatch)
    code, outdir = run_cli(tmp_path, "steady", cfg)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: invalid configuration")
    assert not outdir.exists()


# values that would hang the certificate, write NaN outputs or be truncated,
# each with the text its refusal names; simulate parses the configuration as
# every command does, and runs the certificate too
BAD_VALUES = {
    "Q-nan": (("root", "Q"), math.nan, "Q must be finite"),
    "H0-nan": (("root", "H0"), math.nan, "H0 must be finite"),
    "friction-nan": (("network", "channels", 1, "friction"), math.nan, "friction"),
    "length-nan": (("network", "channels", 1, "length"), math.nan, "length"),
    "cells-9.7": (("network", "channels", 1, "cells"), 9.7, "cells"),
    "gain-nan": (("gains", "2"), math.nan, "gain 2 must be finite"),
    "gain-inf": (("gains", "3"), -math.inf, "gain 3 must be finite"),
    "epsilon_start-nan": (("lyapunov", "epsilon_start"), math.nan, "epsilon_start"),
    "epsilon_start-inf": (("lyapunov", "epsilon_start"), math.inf, "epsilon_start"),
    "epsilon_start-0": (("lyapunov", "epsilon_start"), 0.0, "epsilon_start"),
    "epsilon_start--1": (("lyapunov", "epsilon_start"), -1.0, "epsilon_start"),
    "width-0": (("simulation", "perturbation", "2", "width"), 0.0, "bump width"),
    "amplitude_h-nan": (("simulation", "perturbation", "2", "amplitude_h"), math.nan,
                        "bump amplitude_h"),
}


@pytest.mark.parametrize("case", list(BAD_VALUES))
def test_bad_value_exit_two_before_any_solve(tmp_path, capsys, monkeypatch, case):
    path, value, text = BAD_VALUES[case]
    cfg = star_config()
    _set(cfg, path, value)
    refuse_solve(monkeypatch)
    code, outdir = run_cli(tmp_path, "simulate", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration") and text in err
    assert not outdir.exists()


# channels that a configuration names but the network has no use for: a bump
# on a channel that is not in it, and gains for a junction channel or for no
# channel, each with the command it is given to
STRAY_CHANNELS = {
    "perturbation-9": ("simulate", ("simulation", "perturbation"),
                       {"9": {"amplitude_h": 1e-3, "center": 0.5, "width": 0.5}},
                       "perturbation of channel 9"),
    "gain-junction": ("gains", ("gains", "1"), 0.5, "gains for channel(s) 1,"),
    "gain-absent": ("certify", ("gains", "7"), -3.0, "gains for channel(s) 7,"),
}


@pytest.mark.parametrize("case", list(STRAY_CHANNELS))
def test_stray_channel_exit_two_before_any_solve(tmp_path, capsys, monkeypatch, case):
    command, path, value, text = STRAY_CHANNELS[case]
    cfg = star_config()
    _set(cfg, path, value)
    refuse_solve(monkeypatch)
    code, outdir = run_cli(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration") and text in err
    assert not outdir.exists()


def near_critical_config():
    """One channel whose outlet margin g H - V^2 is 1.8e-6 g H, just above
    the steady solve's 1e-6 tolerance: its length is the blow-up bound less
    1e-12 of it."""
    spec = ChannelSpec(id=1, length=0.1, friction=0.05, friction_exponent=4.0 / 3.0)
    bound = integrate_channel_steady(spec, 1.0, 2.0).blowup_bound
    near = dataclasses.replace(spec, length=bound * (1.0 - 1e-12))
    network = network_to_dict(NetworkTopology(channels={1: near}, root_channel=1))
    return {"network": network, "root": {"Q": 2.0, "H0": 1.0}, "gains": {"1": 0.0}}


def test_near_critical_channel_gets_a_certificate_verdict(tmp_path):
    cfg = near_critical_config()
    config = RunConfig.from_dict(cfg)
    prof = solve_network_steady(config.topology, 1.0, 2.0)[1]
    H_L = prof.outlet_depth
    assert 1e-6 < (G * H_L - (2.0 / H_L) ** 2) / (G * H_L) < 2e-6
    cc = CharCoeffs.from_profile(prof)
    assert all(np.all(np.isfinite(getattr(cc, name))) for name in
               ("lambda1", "lambda2", "gamma1", "delta1", "gamma2", "delta2"))
    for command in ("steady", "gains"):
        assert run_cli(tmp_path, command, cfg, out=command)[0] == 0
    code, outdir = run_cli(tmp_path, "certify", cfg, out="certify")
    assert code in (0, 4)
    cert = json.loads((outdir / "certificate.json").read_text())
    assert cert["certified"] is (code == 0)


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_simulate_too_short_to_fit(tmp_path, mode):
    # one step: the fit window [0.2 T, T] holds the final sample alone
    cfg = star_config(simulation={"mode": mode, "T": 0.05})
    code, outdir = run_cli(tmp_path, "simulate", cfg)
    assert code == 0
    summary = json.loads((outdir / "simulate_summary.json").read_text())
    assert summary["nu_hat"] is None and summary["r2"] is None
    assert summary["zero_trace"] is False and summary["cfl_dt"] == 0.05
    assert len((outdir / "trace.csv").read_text().splitlines()) == 3


def test_blowup_exit_two(tmp_path, capsys):
    cfg = star_config()
    for entry in cfg["network"]["channels"]:
        if entry["id"] == 2:
            entry["length"] = 5.0e5  # far beyond the finite blow-up bound
    code, _ = run_cli(tmp_path, "steady", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "steady state failed" in err
    assert "channel 2" in err


def test_missing_gain_exit_three(tmp_path, capsys):
    cfg = star_config(gains={"2": 0.0, "3": 0.0})
    del cfg["gains"]  # rebuild without channel 4
    cfg["gains"] = {"2": 0.0, "3": 0.0}
    code, _ = run_cli(tmp_path, "gains", cfg)
    assert code == 3
    assert "4" in capsys.readouterr().err


def test_pole_gain_exit_three(tmp_path, capsys):
    cfg = star_config()
    _, profiles = star_profiles_for_config(cfg)
    k_pole = float(np.sqrt(profiles[3].gravity / profiles[3].outlet_depth))
    cfg["gains"]["3"] = k_pole
    code, outdir = run_cli(tmp_path, "gains", cfg)
    assert code == 3
    assert "channel" in capsys.readouterr().err
    report = json.loads((outdir / "gains_report.json").read_text())
    rec = next(r for r in report["terminals"] if r["channel"] == 3)
    assert rec["k_pole"] is True
    assert rec["admissible"] is False
    assert rec["c"] is None


def test_certify_failure_exit_four(tmp_path, capsys):
    cfg = star_config()
    _, profiles = star_profiles_for_config(cfg)
    a, b = is_admissible(profiles[2], 0.0).forbidden
    cfg["gains"]["2"] = 0.5 * (a + b)  # interior of the forbidden interval
    code, outdir = run_cli(tmp_path, "certify", cfg)
    assert code == 4
    assert "certification failed" in capsys.readouterr().err
    cert = json.loads((outdir / "certificate.json").read_text())
    assert cert["certified"] is False
    assert "terminal_margin" in cert["failed_checks"]


def test_simulate_uncertified_still_runs(tmp_path):
    # a forbidden gain voids the certificate but the weights still exist,
    # so the run proceeds and the summary reports the failure
    cfg = star_config()
    _, profiles = star_profiles_for_config(cfg)
    a, b = is_admissible(profiles[2], 0.0).forbidden
    cfg["gains"]["2"] = 0.5 * (a + b)
    code, outdir = run_cli(tmp_path, "simulate", cfg)
    assert code == 0
    summary = json.loads((outdir / "simulate_summary.json").read_text())
    assert summary["certified"] is False


def test_simulate_no_weights_exit_five(tmp_path, capsys):
    # an epsilon schedule that never reaches an admissible value leaves no
    # weight set to integrate against
    cfg = star_config(lyapunov={"epsilon_start": 1e15})
    code, _ = run_cli(tmp_path, "simulate", cfg)
    assert code == 5
    assert "no Lyapunov weight set" in capsys.readouterr().err


def test_simulate_crash_exit_five(tmp_path, capsys):
    cfg = star_config(
        simulation={
            "mode": "nonlinear",
            "perturbation": {
                "2": {
                    "amplitude_h": -1.8,
                    "amplitude_v": -2.0,
                    "center": 0.5,
                    "width": 0.5,
                }
            },
        }
    )
    code, _ = run_cli(tmp_path, "simulate", cfg)
    assert code == 5
    assert "simulation failed" in capsys.readouterr().err


def test_simulate_nonlinear_outputs(tmp_path):
    cfg = star_config(simulation={"mode": "nonlinear"})
    code, outdir = run_cli(tmp_path, "simulate", cfg)
    assert code == 0
    summary = json.loads((outdir / "simulate_summary.json").read_text())
    assert summary["mode"] == "nonlinear"
    # the nonlinear run keeps 2% headroom below the initial bound
    assert summary["cfl_dt"] <= 0.98 * summary["cfl_bound"] * (1.0 + 1e-12)
    assert summary["mass_balance"] <= 1e-10


def test_simulate_dry_face_exit_five(tmp_path, capsys, monkeypatch):
    import channet.simulate

    initial_state = channet.simulate.NetworkSimulator.initial_state

    def drying(sim, perturbation=None):
        state = initial_state(sim, perturbation)
        dry_outlet_cell(sim, state, 4)
        return state

    monkeypatch.setattr(channet.simulate.NetworkSimulator, "initial_state", drying)
    code, _ = run_cli(tmp_path, "simulate", star_config(simulation={"mode": "nonlinear"}))
    assert code == 5
    err = capsys.readouterr().err
    assert "simulation failed at t = 0.000000e+00" in err
    assert "channel 4, outlet face" in err


@pytest.mark.parametrize("face", sorted(FACE_FAILURES))
def test_simulate_face_solve_failure_exit_five(tmp_path, capsys, monkeypatch, face):
    import channet.simulate

    channel, end, _, text = FACE_FAILURES[face]
    initial_state = channet.simulate.NetworkSimulator.initial_state

    def nudged(sim, perturbation=None):
        state = initial_state(sim, perturbation)
        nudge_face_cell(sim, state, channel, end)
        return state

    monkeypatch.setattr(channet.simulate.NetworkSimulator, "initial_state", nudged)
    monkeypatch.setattr(channet.simulate, "NEWTON_MAX_ITER", 0)
    code, _ = run_cli(tmp_path, "simulate", star_config(simulation={"mode": "nonlinear"}))
    assert code == 5
    err = capsys.readouterr().err
    assert "simulation failed at t = 0.000000e+00" in err
    assert text in err


def test_module_entry_point(tmp_path):
    path = write_config(tmp_path, star_config())
    outdir = tmp_path / "proc"
    proc = subprocess.run(
        [sys.executable, "-m", "channet.cli", "steady",
         "--config", path, "--out", str(outdir)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (outdir / "steady_summary.json").exists()


LOADED_SCIPY = """
import json, sys
from channet.cli import main
codes = [main([c, "--config", sys.argv[1], "--out", sys.argv[2] + "/" + c]) for c in sys.argv[3:]]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def scipy_loaded_by(tmp_path, *commands):
    """Exit codes of the commands, run one after another through main in a
    fresh process on the README star, and the scipy modules loaded then."""
    path = write_config(tmp_path, star_config(network=network_to_dict(small_star())))
    src = str(Path(channet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", LOADED_SCIPY, path, str(tmp_path), *commands],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    return loaded


def test_steady_gains_certify_load_no_scipy(tmp_path):
    # numpy only: the steady state, the gain screen and the certificate solve
    # no ODE and no sparse system, so scipy is never imported
    assert scipy_loaded_by(tmp_path, "steady", "gains", "certify") == []


def test_simulate_loads_scipy_sparse_only(tmp_path):
    loaded = scipy_loaded_by(tmp_path, "simulate")
    assert "scipy.sparse" in loaded
    assert not {"scipy.integrate", "scipy.optimize"} & set(loaded)
