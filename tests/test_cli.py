"""Command-line interface: config parsing, outputs, exit codes."""

import csv
import dataclasses
import io
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
from channet.cli import _CONFIG, RunConfig, main
from channet.errors import (BadSplitSum, CycleDetected, DisconnectedChannel, MultipleParents,
                            TopologyError)
from channet.gains import is_admissible
from channet.steady import integrate_channel_steady, solve_network_steady
from channet.topology import (_REQUIRED, ChannelSpec, NetworkTopology, _Each, _Table,
                              network_to_dict)

from conftest import (
    FACE_FAILURES,
    G,
    STAR_ROOT_DEPTH,
    STAR_ROOT_FLUX,
    draw_tree,
    dry_junction,
    dry_outlet_cell,
    nudge_face_cell,
    reflection_pole,
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


def readme_config(mode="linear"):
    """The README star's configuration: 100 cells, zero gains, T = 200."""
    cfg = star_config(network=network_to_dict(small_star(cells=100)),
                      simulation={"mode": mode, "T": 200.0})
    del cfg["simulation"]["sample_stride"]
    return cfg


def tree_config():
    """The tests' two-level tree, with a gain per terminal, a bump and every
    simulation option given."""
    topo, H0, flux = draw_tree(np.random.default_rng(5))
    cfg = star_config(network=network_to_dict(topo), root={"Q": flux, "H0": H0},
                      simulation={"mode": "nonlinear", "snapshot_path": None})
    cfg["gains"] = {str(j): 0.25 * j for j in topo.terminal_channels}
    cfg["simulation"]["perturbation"] = {"3": {"amplitude_v": -2e-3, "center": 0.25,
                                               "width": 0.4}}
    return cfg


@pytest.mark.parametrize("name", ["readme-linear", "readme-nonlinear", "tree"])
def test_config_round_trips_to_an_equal_config(name):
    data = tree_config() if name == "tree" else readme_config(name.split("-")[1])
    config = RunConfig.from_dict(data)
    assert RunConfig.from_dict(config.to_dict()) == config
    assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


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


def csv_writer_bytes(header, rows):
    """What csv.writer's default dialect writes for ``rows``, each number in
    17-significant-digit notation and each channel id as str."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows([str(x) if isinstance(x, int) else f"{x:.16e}" for x in row] for row in rows)
    return buffer.getvalue().encode()


def test_csv_rows_are_the_bytes_of_csv_writer(tmp_path):
    # every CSV output is written one %-format per row; its bytes are
    # csv.writer's, terminators and quoting included, for the numbers it
    # holds and for values at the edges of binary64
    edge = [0.0, -0.0, 5e-324, -1.7976931348623157e308, math.pi, -1e-300, math.nan,
            math.inf, -math.inf]
    rows = [(i, *edge[k:k + 3]) for i in (1, 12) for k in range(len(edge) - 2)]
    path = tmp_path / "edge.csv"
    channet.cli._write_csv(path, ["channel", "x", "H", "V"], ["%d"] + [channet.cli._NUMBER] * 3,
                           rows)
    assert path.read_bytes() == csv_writer_bytes(["channel", "x", "H", "V"], rows)

    cfg = star_config()
    code, steady = run_cli(tmp_path, "steady", cfg, out="steady")
    assert code == 0
    code, outdir = run_cli(tmp_path, "simulate", cfg)
    assert code == 0
    files = [steady / f"steady_channel_{i}.csv" for i in (1, 2, 3, 4)]
    files += [outdir / "trace.csv", outdir / "snapshot.csv"]
    for path in files:
        header, *body = csv.reader(io.StringIO(path.read_bytes().decode(), newline=""))
        if header[0] == "channel":
            rows = [[int(row[0])] + [float(x) for x in row[1:]] for row in body]
        else:
            rows = [[float(x) for x in row] for row in body]
        assert path.read_bytes() == csv_writer_bytes(header, rows), path.name


def test_gains_report(tmp_path):
    code, outdir = run_cli(tmp_path, "gains", star_config())
    assert code == 0
    report = json.loads((outdir / "gains_report.json").read_text())
    records = {r["channel"]: r for r in report["terminals"]}
    assert sorted(records) == [2, 3, 4]
    for rec in records.values():
        assert rec["admissible"] is True
        assert rec["k"] == 0.0
        assert rec["reflection"] == -1.0
        assert "k_pole" not in rec
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


def test_parser_is_built_once_and_looks_the_command_up_at_each_call(tmp_path, monkeypatch):
    # the cached parser records only the subcommand's name, so a command
    # replaced after the parser was built is the one that runs
    import channet.cli

    channet.cli._build_parser.cache_clear()
    assert run_cli(tmp_path, "steady", star_config(), out="steady")[0] == 0
    ran = []

    def certify(config, profiles, outdir):
        ran.append(outdir)
        return 0

    monkeypatch.setitem(channet.cli._COMMANDS, "certify", certify)
    assert run_cli(tmp_path, "certify", star_config(), out="certify")[0] == 0
    assert ran == [tmp_path / "certify"]
    info = channet.cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def refuse_solve(monkeypatch):
    import channet.cli

    def solve(*args):
        raise AssertionError("the steady state was solved")

    monkeypatch.setattr(channet.cli, "solve_network_steady", solve)


@pytest.mark.parametrize("option, value", [
    ("mode", "nonlinar"), ("cfl", 1.5), ("T", -1.0), ("sample_stride", 0), ("sample_stride", -3),
    ("sample_stride", 2.5), ("sample_stride", True), ("T", math.inf),
    # output paths: a number would crash the run after the simulation, and a
    # null trace path would write a file named None
    ("trace_path", None), ("trace_path", 5), ("snapshot_path", 5), ("snapshot_path", True),
    ("snapshot_path", ["snapshot.csv"]),
    # output names: a missing directory, an empty name or a directory would
    # crash the run after the simulation, an absolute path would write
    # outside the output directory, and a second output of the same name
    # would overwrite the first
    ("trace_path", "sub/trace.csv"), ("trace_path", ""), ("trace_path", "."),
    ("trace_path", ".."), ("trace_path", "/trace.csv"), ("trace_path", "simulate_summary.json"),
    ("snapshot_path", "sub/snapshot.csv"), ("snapshot_path", ""), ("snapshot_path", "./"),
    ("snapshot_path", "trace.csv"), ("snapshot_path", "simulate_summary.json"),
])
def test_bad_simulation_option_exit_two_before_any_solve(tmp_path, capsys, monkeypatch,
                                                         option, value):
    refuse_solve(monkeypatch)
    code, outdir = run_cli(tmp_path, "simulate", star_config(simulation={option: value}))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration") and option in err
    assert not outdir.exists()


def test_output_directory_that_cannot_be_made_exit_two_before_any_solve(tmp_path, capsys,
                                                                       monkeypatch):
    # --out naming a regular file, and a directory below one
    taken = tmp_path / "notadir"
    taken.write_text("")
    path = write_config(tmp_path, star_config())
    refuse_solve(monkeypatch)
    for out in (taken, taken / "sub"):
        assert main(["steady", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and "notadir" in err
        assert "Traceback" not in err
    assert taken.read_text() == ""


@pytest.mark.parametrize("command, name", [
    ("steady", "steady_summary.json"), ("gains", "gains_report.json"),
    ("certify", "certificate.json"), ("simulate", "simulate_summary.json"),
    ("simulate", "trace.csv"), ("simulate", "snapshot.csv"),
])
def test_output_file_that_cannot_be_written_exit_two(tmp_path, capsys, monkeypatch, command,
                                                     name):
    # an output whose name a directory holds; simulate refuses it before
    # its certificate and its run, and writes nothing
    import channet.cli

    def refuse(*args, **kwargs):
        raise AssertionError("the certificate or the run took place")

    if command == "simulate":
        monkeypatch.setattr(channet.cli, "certify_network", refuse)
        monkeypatch.setattr(channet.cli.NetworkSimulator, "run", refuse)
    (tmp_path / "out" / name).mkdir(parents=True)
    code, outdir = run_cli(tmp_path, command, star_config())
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and name in err
    assert "Traceback" not in err
    if command == "simulate":
        assert os.listdir(outdir) == [name]


def test_gains_report_writes_zero_flux_terminals_with_nulls(tmp_path):
    # all the root's flux into channel 2: terminals 3 and 4 carry none, so
    # their m_L is NaN and their forbidden set the half-line (-inf, 0]
    cfg = star_config()
    cfg["network"]["split_fractions"]["1"] = [1.0, 0.0, 0.0]
    code, outdir = run_cli(tmp_path, "gains", cfg)
    assert code == 0
    text = (outdir / "gains_report.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    records = {r["channel"]: r for r in json.loads(text)["terminals"]}
    for j in (3, 4):
        assert records[j]["a"] is None and records[j]["m_L"] is None
        assert records[j]["b"] == 0.0 and records[j]["half_line"] is True
    assert records[2]["m_L"] is not None and records[2]["a"] is not None


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_split_fraction_minus_zero_writes_the_bytes_of_zero(tmp_path, mode):
    # a split fraction written -0.0 passes 0 <= s; its channel's flux is
    # stored as +0.0, so every output is that of the fraction 0.0
    written = []
    for split in ([1.0, -0.0, 0.0], [1.0, 0.0, 0.0]):
        cfg = readme_config(mode)
        cfg["network"]["split_fractions"]["1"] = split
        cfg["gains"] = {"2": 0.0, "3": 0.5, "4": 0.5}
        files = {}
        for command in ("steady", "gains", "certify", "simulate"):
            code, outdir = run_cli(tmp_path, command, cfg, out=f"{command}{split[1]}")
            assert code == 0
            files |= {(command, p.name): p.read_bytes() for p in outdir.iterdir()}
        written.append(files)
    assert len(written[0]) == 10
    assert written[0] == written[1]


def _set(cfg, path, value):
    *keys, last = path
    for key in keys:
        cfg = cfg[key]
    cfg[last] = value


def _extra_channel(cfg):
    cfg["network"]["channels"].append(dict(cfg["network"]["channels"][-1], id=5))


# each topology error on the star: split fractions that sum to 0.6, a junction
# that feeds the root back, channel 3 claimed twice, a channel that no
# junction feeds, and channel 2 at a gravity other than the root's
TOPOLOGY_ERRORS = {
    "BadSplitSum": (BadSplitSum, lambda cfg: _set(cfg, ("network", "split_fractions", "1"),
                                                   [0.1, 0.3, 0.2])),
    "CycleDetected": (CycleDetected, lambda cfg: _set(cfg, ("network", "junctions", "2"), [1])),
    "MultipleParents": (MultipleParents, lambda cfg: _set(cfg, ("network", "junctions", "2"), [3])),
    "DisconnectedChannel": (DisconnectedChannel, _extra_channel),
    "MixedGravity": (TopologyError, lambda cfg: _set(cfg, ("network", "channels", 1, "gravity"),
                                                     5.0)),
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


# sections and entries that must be JSON objects and are not: each crashed
# the command with an AttributeError traceback
WRONG_TYPES = {
    "perturbation-entry": (("simulation", "perturbation", "2"), 0.5, "perturbation of channel 2"),
    "gains": (("gains",), [0, 0, 0], "gains must be an object"),
    "simulation": (("simulation",), [], "simulation must be an object"),
    "lyapunov": (("lyapunov",), 5, "lyapunov must be an object"),
    "channel-entry": (("network", "channels", 1), 5, "channel entry must be an object"),
    "junctions": (("network", "junctions"), [[2, 3, 4]], "junctions must be an object"),
    "split_fractions": (("network", "split_fractions"), [[0.2, 0.3, 0.5]],
                        "split_fractions must be an object"),
    "root": (("root",), [2.0, 1.0], "root must be an object"),
    "network": (("network",), "star", "network must be an object"),
}


@pytest.mark.parametrize("case", list(WRONG_TYPES))
def test_wrong_type_section_exit_two_before_any_solve(tmp_path, capsys, monkeypatch, case):
    path, value, text = WRONG_TYPES[case]
    cfg = star_config()
    _set(cfg, path, value)
    refuse_solve(monkeypatch)
    code, outdir = run_cli(tmp_path, "certify", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration") and text in err
    assert "Traceback" not in err
    assert not outdir.exists()


def _path_text(path):
    """A path as the configuration's refusals print it: network.channels[1].id."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


# values of each JSON kind, one of which is wrong for every key
SCHEMA_VALUES = {"string": "1.0", "true": True, "null": None, "list": [], "object": {},
                 "nan": math.nan}


def _refused(kind, default, value):
    """Whether a key of this kind and default refuses value for its kind:
    null is read only where the default is null."""
    if value is None:
        return default is not None
    if kind is str:
        return not isinstance(value, str)
    if isinstance(kind, _Table):
        return not isinstance(value, dict)
    if isinstance(kind, _Each):
        return not isinstance(value, dict if kind.keyed else list)
    return True  # a number: no string, bool, list, object or NaN is one


def _schema_cases(kind, value, path=()):
    """(name, path, value) of each wrong value of every key that the schema
    tables read from the configuration value, and of a misspelled key in
    each table."""
    where = "/".join(map(str, path))
    if isinstance(kind, _Table):
        for key, (sub, default) in kind.rows.items():
            for name, bad in SCHEMA_VALUES.items():
                if _refused(sub, default, bad):
                    yield f"{where}/{key}-{name}".lstrip("/"), (*path, key), bad
            if key in value:
                yield from _schema_cases(sub, value[key], (*path, key))
        misspelled = next(iter(kind.rows)).swapcase()
        yield f"{where}/{misspelled}-misspelled".lstrip("/"), (*path, misspelled), 0.5
    elif isinstance(kind, _Each):
        entry = next(iter(value)) if kind.keyed else 0
        for name, bad in SCHEMA_VALUES.items():
            if _refused(kind.kind, _REQUIRED, bad):
                yield f"{where}/{entry}-{name}", (*path, entry), bad
        yield from _schema_cases(kind.kind, value[entry], (*path, entry))


def _rename(cfg, path, new):
    *keys, last = path
    for key in keys:
        cfg = cfg[key]
    cfg[new] = cfg.pop(last)


# the README star with values that float(), int() or dict.get would take
# or pass over: numbers as strings or booleans, misspelled keys, ids that
# are not whole, and a junction that is a number, not a list
SCHEMA_PROBES = {
    "Q-string": (("root", "Q"), "1.0"),
    "Q-true": (("root", "Q"), True),
    "gain-string": (("gains", "2"), "0.5"),
    "length-string": (("network", "channels", 0, "length"), "80"),
    "T-true": (("simulation", "T"), True),
    "simulation-tyop": (("simulation", "tyop"), 1),
    "lyapnov": (("lyapnov",), {"epsilon_start": 1e-3}),
    "amplitde_h": (("simulation", "perturbation", "2", "amplitde_h"), 1e-3),
    "junctions-5": (("network", "junctions", "1"), 5),
    "id-2.5": (("network", "channels", 1, "id"), 2.5),
    "id-true": (("network", "channels", 1, "id"), True),
    "root_channel-1.9": (("network", "root_channel"), 1.9),
    "frction": (("network", "channels", 1, "frction"), None),
    "split-string": (("network", "split_fractions", "1", 1), "0.3"),
    # channel ids int() reads but that are not written as decimals, each
    # beside the entry of the channel it would override
    "gain-02": (("gains", "02"), -5.0),
    "gain-space-2": (("gains", " 2"), -5.0),
    "junctions-+1": (("network", "junctions", "+1"), [2, 3, 4]),
    "split_fractions-01": (("network", "split_fractions", "01"), [0.2, 0.3, 0.5]),
    "perturbation-02": (("simulation", "perturbation", "02"), {"amplitude_h": -1e-3}),
    # keys that int() cannot read, the empty one included: each is refused
    # in the configuration's words, at its own path
    "gain-abc": (("gains", "abc"), 1.0),
    "gain-empty-key": (("gains", ""), 1.0),
    "junctions-1e0": (("network", "junctions", "1e0"), [2]),
}
SCHEMA_CASES = {name: (path, value)
                for name, path, value in _schema_cases(_CONFIG, readme_config())}
SCHEMA_CASES.update(SCHEMA_PROBES)


@pytest.mark.parametrize("case", list(SCHEMA_CASES))
def test_schema_refuses_wrong_kinds_and_unknown_keys_before_any_solve(tmp_path, capsys,
                                                                       monkeypatch, case):
    # every key of every table with each JSON kind that is wrong for it, a
    # misspelled key in each table, and the probes above; simulate reads
    # the whole configuration, the bump included
    path, value = SCHEMA_CASES[case]
    cfg = readme_config()
    if case == "frction":  # channel 2's friction key, misspelled
        _rename(cfg, ("network", "channels", 1, "friction"), "frction")
    else:
        _set(cfg, path, value)
    refuse_solve(monkeypatch)
    code, outdir = run_cli(tmp_path, "simulate", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid configuration: {_path_text(path)}: ")
    assert "Traceback" not in err
    assert "invalid literal" not in err
    assert not outdir.exists()


def test_repeated_key_exit_two_before_any_solve(tmp_path, capsys, monkeypatch):
    # json.load keeps the last of two equal keys, which would read channel
    # 3's gain of -7.5 as 0.0
    text = json.dumps(readme_config()).replace('"gains": {', '"gains": {"3": -7.5, ', 1)
    assert text.count('"3": ') == 2
    path = tmp_path / "config.json"
    path.write_text(text)
    refuse_solve(monkeypatch)
    code = main(["certify", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == 'error: invalid configuration: repeated key "3"\n'
    assert not (tmp_path / "out").exists()


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
    # the non-reflecting gain sqrt(g / H_L) is admissible and reflects
    # nothing; exit 3 is left to missing gains
    cfg = star_config()
    _, profiles = star_profiles_for_config(cfg)
    cfg["gains"]["3"] = float(np.sqrt(profiles[3].gravity / profiles[3].outlet_depth))
    code, outdir = run_cli(tmp_path, "gains", cfg)
    assert code == 0
    assert capsys.readouterr().err == ""
    report = json.loads((outdir / "gains_report.json").read_text())
    rec = next(r for r in report["terminals"] if r["channel"] == 3)
    assert "k_pole" not in rec
    assert rec["admissible"] is True
    assert abs(rec["reflection"]) < 1e-15


def readme_star(mode, factor):
    """The README star (100 cells, T = 200) with every terminal gain at
    factor * sqrt(g / H_L)."""
    topo = small_star(cells=100)
    cfg = readme_config(mode)
    profiles = solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
    cfg["gains"] = {
        str(j): factor * math.sqrt(profiles[j].gravity / profiles[j].outlet_depth)
        for j in topo.terminal_channels
    }
    return cfg


def test_non_reflecting_gains_pass_on_the_readme_star(tmp_path, capsys):
    # sqrt(g / H_L) sends no wave back: the screen admits it at every
    # terminal, and the certificate passes at its first epsilon
    cfg = readme_star("linear", 1.0)
    code, outdir = run_cli(tmp_path, "gains", cfg)
    assert code == 0
    records = json.loads((outdir / "gains_report.json").read_text())["terminals"]
    assert [r["channel"] for r in records] == [2, 3, 4]
    for rec in records:
        assert rec["admissible"] is True
        assert abs(rec["reflection"]) < 1e-15
    code, outdir = run_cli(tmp_path, "certify", cfg, out="cert")
    assert code == 0
    cert = json.loads((outdir / "certificate.json").read_text())
    assert cert["certified"] is True
    assert (cert["epsilon"], cert["halvings"]) == (1e-3, 0)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_non_reflecting_gains_simulate_the_readme_star(tmp_path, mode):
    # zero gains decay at nu_hat = 0.0087; the non-reflecting gains at about 0.066
    code, outdir = run_cli(tmp_path, "simulate", readme_star(mode, 1.0))
    assert code == 0
    summary = json.loads((outdir / "simulate_summary.json").read_text())
    assert summary["certified"] is True
    assert summary["nu_hat"] > 0.06


def test_non_reflecting_gains_at_another_gravity(tmp_path, capsys):
    # the README star with every channel at g = 3.71 and each terminal at
    # sqrt(g / H_L): each reflection is 0 only where every kernel takes the
    # network's gravity, and one that answered for 9.81 would read -0.238
    g = 3.71
    star = small_star(cells=100)
    topo = dataclasses.replace(star, channels={
        i: dataclasses.replace(spec, gravity=g) for i, spec in star.channels.items()})
    profiles = solve_network_steady(topo, STAR_ROOT_DEPTH, STAR_ROOT_FLUX)
    cfg = readme_config("linear")
    cfg["network"] = network_to_dict(topo)
    cfg["gains"] = {str(j): math.sqrt(g / profiles[j].outlet_depth)
                    for j in topo.terminal_channels}
    code, outdir = run_cli(tmp_path, "gains", cfg)
    assert code == 0
    records = json.loads((outdir / "gains_report.json").read_text())["terminals"]
    assert [r["channel"] for r in records] == [2, 3, 4]
    assert all(abs(r["reflection"]) <= 1e-12 for r in records)
    code, outdir = run_cli(tmp_path, "certify", cfg, out="cert")
    assert code == 0
    cert = json.loads((outdir / "certificate.json").read_text())
    assert cert["certified"] is True
    assert sorted(cert["reflection"]) == ["2", "3", "4"]
    assert all(abs(rho) <= 1e-12 for rho in cert["reflection"].values())
    code, outdir = run_cli(tmp_path, "simulate", cfg, out="sim")
    assert code == 0
    summary = json.loads((outdir / "simulate_summary.json").read_text())
    assert summary["certified"] is True
    assert summary["mass_balance"] <= 1e-10
    assert capsys.readouterr().err == ""


def test_ill_posed_gain_exit_four(tmp_path, capsys):
    # at -sqrt(g / H_L) the law fixes the characteristic that arrives from
    # the channel: the terminal margins are negative and certify refuses
    code, outdir = run_cli(tmp_path, "certify", readme_star("linear", -1.0))
    assert code == 4
    assert "terminal_margin" in capsys.readouterr().err
    cert = json.loads((outdir / "certificate.json").read_text())
    assert cert["certified"] is False
    assert "terminal_margin" in cert["failed_checks"]
    assert all(m < 0.0 for m in cert["terminal_margins"].values())


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


def test_refused_step_exit_five_names_its_time_once(tmp_path, capsys):
    # the README star in nonlinear mode with a 0.3 m bump on channel 2 grows
    # its wave speeds past the bound its fixed step was set from; the CLI
    # stamps the time of the refused step, and the refusal does not repeat it
    cfg = readme_config("nonlinear")
    cfg["simulation"]["T"] = 10.0
    cfg["simulation"]["perturbation"]["2"]["amplitude_h"] = 0.3
    code, _ = run_cli(tmp_path, "simulate", cfg)
    assert code == 5
    err = capsys.readouterr().err
    assert "exceeds the stability bound" in err
    assert len(re.findall(r"\bt = ", err)) == 1


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


def test_simulate_dry_junction_face_exit_five(tmp_path, capsys, monkeypatch):
    import channet.simulate

    # no admitted cells carry the junction's invariant below -2 sqrt(g H*),
    # so the nonlinear admission is the linear one's, which checks no cell:
    # the t = 0 sample's face solve meets the dry junction face first
    initial_state = channet.simulate.NetworkSimulator.initial_state

    def drying(sim, perturbation=None):
        state = initial_state(sim, perturbation)
        dry_junction(sim, state)
        return state

    monkeypatch.setattr(channet.simulate.NetworkSimulator, "initial_state", drying)
    monkeypatch.setattr(channet.simulate._Nonlinear, "admit", channet.simulate._Linear.admit)
    code, _ = run_cli(tmp_path, "simulate", star_config(simulation={"mode": "nonlinear"}))
    assert code == 5
    err = capsys.readouterr().err
    assert "simulation failed at t = 0.000000e+00" in err
    assert "channel 1, outlet face" in err


@pytest.mark.parametrize("face", sorted(FACE_FAILURES))
def test_simulate_face_solve_failure_exit_five(tmp_path, capsys, monkeypatch, face):
    import channet.simulate

    channel, end, pole_share, _, text = FACE_FAILURES[face]
    cfg = star_config(simulation={"mode": "nonlinear"})
    _, profiles = star_profiles_for_config(cfg)
    cfg["gains"][str(channel)] = pole_share * reflection_pole(profiles[channel])
    initial_state = channet.simulate.NetworkSimulator.initial_state

    def nudged(sim, perturbation=None):
        state = initial_state(sim, perturbation)
        nudge_face_cell(sim, state, channel, end)
        return state

    monkeypatch.setattr(channet.simulate.NetworkSimulator, "initial_state", nudged)
    code, _ = run_cli(tmp_path, "simulate", cfg)
    assert code == 5
    err = capsys.readouterr().err
    assert "simulation failed at t = 0.000000e+00" in err
    assert text in err


def test_linear_overflow_exit_five(tmp_path):
    # a gain 1e-9 past the ill-posed gain -sqrt(g / H) on channel 2 makes
    # the linear run grow until V overflows; in a fresh process that turns
    # RuntimeWarnings into errors, numpy warns of nothing, and the run exits
    # 5 and writes no summary
    cfg = star_config(simulation={"T": 20.0})
    _, profiles = star_profiles_for_config(cfg)
    prof = profiles[2]
    cfg["gains"]["2"] = (1.0 + 1e-9) * -math.sqrt(prof.gravity / prof.outlet_depth)
    path = write_config(tmp_path, cfg)
    outdir = tmp_path / "overflow"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "channet.cli", "simulate",
         "--config", path, "--out", str(outdir)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 5, proc.stderr
    assert "error: simulation failed at t =" in proc.stderr
    assert "not finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not (outdir / "simulate_summary.json").exists()


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
