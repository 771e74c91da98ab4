"""Command-line interface: exit codes, file formats, determinism, config."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ctinv import cli
from ctinv.consistency import AdmissibilityMap
from ctinv.forward import PhaseRow, PhaseShiftTable

REF1_LINE = "0 0.6283185307179586\n"
SUBCOMMANDS = ("invert", "forward", "roundtrip", "map", "check", "specfun")


def _refuse_constant(name):
    raise ValueError(f"report holds {name}, which strict JSON has no literal for")


def _run(capsys, argv):
    """Invoke the CLI in-process and hand back (exit code, stdout, stderr).

    Every JSON report must be strict JSON (no NaN or Infinity), name its
    subcommand and carry its wall time.
    """
    code = cli.main(argv)
    captured = capsys.readouterr()
    if captured.out.startswith("{"):
        rep = json.loads(captured.out, parse_constant=_refuse_constant)
        assert rep["command"] == next(a for a in argv if a in SUBCOMMANDS)
        assert isinstance(rep["timing_seconds"], float)
    return code, captured.out, captured.err


def _report(out: str) -> dict:
    return json.loads(out)


# ---------------------------------------------------------------- check


def test_check_admissible_exit_ok(capsys):
    code, out, _ = _run(capsys, ["check", "--ells", "0", "--T", "-0.4"])
    assert code == 0
    rep = _report(out)
    assert rep["admissible"] is True
    assert rep["settled"] is True
    assert rep["zeros"] == []
    assert rep["single_channel_rule"] is True
    assert rep["implied_phases"][0] == pytest.approx(0.2 * math.pi, abs=1e-12)
    assert rep["moment_closed_form"] == pytest.approx(-0.8, abs=1e-12)
    assert rep["moment_numeric"] == pytest.approx(-0.8, abs=1e-2)
    assert rep["tail_closed_form"]["alpha"] == pytest.approx(
        rep["tail_fit"]["alpha"], abs=1e-3
    )
    assert rep["sum_rules"]["coeff_sum"] == pytest.approx(0.24, abs=1e-6)


def test_check_inadmissible_exit_3(capsys):
    code, out, _ = _run(capsys, ["check", "--ells", "0", "--T", "2"])
    assert code == 3
    rep = _report(out)
    assert rep["admissible"] is False
    assert rep["settled"] is True
    assert rep["zeros"][0] == pytest.approx(2.4431401944940823, abs=1e-6)
    assert rep["single_channel_rule"] is False
    assert rep["moment_numeric"] is None


def test_check_unsettled_exit_4(capsys):
    # this pair has not settled when the scan has doubled its range twice
    code, out, _ = _run(capsys, ["check", "--ells", "0,1", "--T=0.5,-0.2"])
    assert code == 4
    rep = _report(out)
    assert rep["settled"] is False
    assert rep["scan_r_max"] == 2800.0
    assert rep["admissible"] is False
    assert rep["zeros"] == []


def test_invert_and_check_share_reconstruction(tmp_path, capsys):
    # invert on ref1 picks T = {-0.4}; check on that pair must report the
    # same reconstruction figures, since both go through one pipeline
    phases = tmp_path / "phases.txt"
    phases.write_text(REF1_LINE)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("step = 0.01\nlambda = 80\n")
    base = ["--config", str(cfg)]
    code, out, _ = _run(
        capsys,
        base + ["invert", "--phases", str(phases), "--out", str(tmp_path / "p.csv")],
    )
    assert code == 0
    inv = _report(out)
    code, out, _ = _run(capsys, base + ["check", "--ells", "0", "--T", "-0.4"])
    assert code == 0
    chk = _report(out)
    assert inv["chosen_T"] == [pytest.approx(-0.4, abs=1e-12)]
    for key in ("q_origin", "moment_numeric", "moment_closed_form"):
        assert chk[key] == pytest.approx(inv[key], abs=1e-12), key
    for key in ("residual_cos", "residual_sin", "coeff_sum"):
        assert chk["sum_rules"][key] == pytest.approx(inv["sum_rules"][key], abs=1e-12)
    assert chk["sum_rules"]["b_factors"] == pytest.approx(
        inv["sum_rules"]["b_factors"], abs=1e-12
    )
    for key in ("alpha", "beta"):
        assert chk["tail_closed_form"][key] == pytest.approx(
            inv["tail_closed_form"][key], abs=1e-12
        )
    assert chk["tail_fit"] == inv["tail"]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--ells", "0,1", "--T", "-0.3056,0.9295"],
        ["check", "--ells", "-1,0", "--T", "0.5,2"],
        ["map", "--ells", "0,1", "--box", "-0.4,-0.2,0.85,0.95"],
        ["forward", "--ws", "-1,1,0.4", "--ellmax", "2"],
        ["check", "--ells", "0", "--T", "-1e-1"],
    ],
)
def test_list_values_may_start_with_minus(argv):
    # the space form must parse exactly like the --opt=value form
    i = next(k for k, a in enumerate(argv) if a.startswith("-") and a[1:2].isdigit())
    glued = argv[: i - 1] + [f"{argv[i - 1]}={argv[i]}"] + argv[i + 1 :]
    parser = cli.build_parser()
    assert vars(parser.parse_args(argv)) == vars(parser.parse_args(glued))


def test_check_collision_exit_1(capsys):
    code, _, err = _run(capsys, ["check", "--ells", "0", "--T", "0"])
    assert code == 1
    assert "ctinv:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--ells", "0,0", "--T", "0.5,1.5"], "repeated angular momentum ell=0"),
        (["check", "--ells", "-3", "--T", "0.5"], "every ell must be finite and > -1/2"),
        (["map", "--ells", "1,1", "--box=0,1,0,1", "--res", "0.5"], "repeated angular momentum"),
        (["map", "--ells", "0,1", "--box=0,1,0,1", "--res", "0"], "resolution must be finite"),
        (["map", "--ells", "0,1", "--box=0,1,0,1", "--res", "-0.5"], "resolution must be finite"),
        (["map", "--ells", "0,1", "--box=0,1,0,1", "--res", "inf"], "resolution must be finite"),
        (["map", "--ells", "0,1", "--box=0,inf,0,1", "--res", "0.5"], "box must be finite"),
        (["check", "--ells", "0", "--T", "0.5", "--lambda", "nan"], "scan radius r_max must be finite"),
        (["map", "--ells", "0,1", "--box=-0.4,-0.2,0.85,0.95", "--res", "0.1", "--lambda", "0.01"],
         "scan radius r_max must be finite"),
        (["map", "--ells", "0,1", "--box=-0.4,-0.2,0.85,0.95", "--res", "0.1", "--lambda", "nan"],
         "scan radius r_max must be finite"),
        (["forward", "--ws", "1,1,nan", "--ellmax", "2"], "Woods-Saxon parameters must be finite"),
        (["forward", "--ws", "nan,1,0.4", "--ellmax", "2"], "Woods-Saxon parameters must be finite"),
        (["check", "--ells", "0", "--T", "0.5", "--lambda", "0.06"],
         "scan radius 0.06 leaves no scan step in its last 10%"),
        (["check", "--ells", "0", "--T", "0.5", "--lambda", "0.3"],
         "scan radius 0.3 leaves no scan step in its last 10%"),
        (["map", "--ells", "0,1", "--box=0,1,0,1", "--res", "0.2", "--lambda", "0.06"],
         "scan radius 0.06 leaves no scan step in its last 10%"),
        (["map", "--ells", "0,1", "--box=0,1,0,1", "--res", "0.5", "--threads", "0"],
         "threads must be >= 1"),
        (["map", "--ells", "0,1", "--box=0,1,0,1", "--res", "0.5", "--threads", "-3"],
         "threads must be >= 1"),
    ],
)
def test_bad_S_or_resolution_is_one_line_exit_1(argv, message, capsys, tmp_path):
    if argv[0] in ("map", "forward"):
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"ctinv: {message}")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "phases, flags, config, message",
    [
        (REF1_LINE, ["--k-range", "-1"], "", "k_range must be >= 0"),
        ("0 0.4389\n1 0.1246\n", [], "seeds_per_axis = 0\n", "seeds_per_axis must be >= |S| = 2"),
    ],
    ids=["k_range", "seeds_per_axis"],
)
def test_invert_without_seeds_is_one_line_exit_1(phases, flags, config, message, capsys, tmp_path):
    (tmp_path / "phases.txt").write_text(phases)
    (tmp_path / "run.cfg").write_text(config)
    argv = ["--config", str(tmp_path / "run.cfg"), "invert", "--phases", str(tmp_path / "phases.txt")]
    code, out, err = _run(capsys, argv + ["--out", str(tmp_path / "out.csv")] + flags)
    assert (code, out, err) == (1, "", f"ctinv: {message}\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["forward", "--ws", "1,1,0.4", "--ellmax", "-1"], "--ellmax must be >= 0"),
        (["invert", "--phases", "inf.txt"], "phase shifts must be finite"),
        (["roundtrip", "--phases", "nan.txt"], "phase shifts must be finite"),
    ],
)
def test_negative_ellmax_or_infinite_phase_is_usage_error(argv, message, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inf.txt").write_text("0 inf\n")
    (tmp_path / "nan.txt").write_text("0 nan\n")
    code, out, err = _run(capsys, argv + ["--out", "out.csv"])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and message in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "name, text, argv, message",
    [
        ("big.cfg", "scan_resolution = 1000\n",
         ["--config", "big.cfg", "map", "--ells", "0,1", "--box=0.2,0.6,0.2,0.6", "--res", "0.2"],
         "scan resolution must be below the default scan radius 700"),
        ("nan.csv", "r,q\n0.1,-1\n0.2,nan\n0.3,-0.9\n0.4,-0.8\n",
         ["forward", "--potential", "nan.csv", "--ellmax", "1"], "potential samples must be finite"),
        ("inf.csv", "r,q\n0.1,-1\n0.2,-0.95\n0.3,-0.9\ninf,-0.8\n",
         ["forward", "--potential", "inf.csv", "--ellmax", "1"], "potential samples must be finite"),
        ("s400.cfg", "scan_resolution = 400\n",
         ["--config", "s400.cfg", "map", "--ells", "0,1", "--box=0.2,0.6,0.2,0.6", "--res", "0.2"],
         "scan radius 700 leaves no scan step in its last 10%"),
        ("t0.cfg", "threads = 0\n",
         ["--config", "t0.cfg", "map", "--ells", "0,1", "--box=0,1,0,1", "--res", "0.5"],
         "threads must be >= 1"),
    ],
    ids=[
        "map_scan_step_above_default_radius",
        "nan_potential_sample",
        "inf_potential_radius",
        "map_scan_step_near_default_radius",
        "map_zero_threads_in_config",
    ],
)
def test_out_of_range_input_file_is_one_line_exit_1(name, text, argv, message, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    code, out, err = _run(capsys, argv + ["--out", "out.csv"])
    assert (code, out, err) == (1, "", f"ctinv: {message}\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["forward", "--ws", "1,1,0.4", "--ellmax", "2"],
        ["invert", "--phases", "ref1.txt"],
        ["map", "--ells", "0,1", "--box=-0.4,-0.2,0.85,0.95", "--res", "0.1"],
    ],
    ids=["forward", "invert", "map"],
)
@pytest.mark.parametrize(
    "out, reason",
    [("missing/x.csv", "No such file or directory"), (".", "Is a directory")],
    ids=["missing_dir", "directory"],
)
def test_unwritable_out_is_one_line_exit_1(argv, out, reason, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ref1.txt").write_text(REF1_LINE)
    code, stdout, err = _run(capsys, argv + ["--out", out])
    assert (code, stdout, err) == (1, "", f"ctinv: cannot write {out}: {reason}\n")


def test_allocation_beyond_memory_is_one_line_exit_1(capsys, tmp_path):
    # 6e14 grid points ask numpy for 4.26 PiB, which fails before anything is allocated
    argv = ["forward", "--ws", "1,1,0.4", "--ellmax", "2", "--step", "1e-13"]
    code, out, err = _run(capsys, argv + ["--out", str(tmp_path / "out.csv")])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("ctinv: out of memory: Unable to allocate")
    assert not (tmp_path / "out.csv").exists()


# ---------------------------------------------------------------- invert


def test_invert_reference_single_phase(tmp_path, capsys):
    phases = tmp_path / "phases.txt"
    phases.write_text(REF1_LINE)
    out_csv = tmp_path / "pot.csv"
    code, out, _ = _run(
        capsys,
        [
            "invert",
            "--phases",
            str(phases),
            "--lambda",
            "80",
            "--step",
            "0.01",
            "--out",
            str(out_csv),
        ],
    )
    assert code == 0
    rep = _report(out)
    assert rep["command"] == "invert"
    assert rep["zero_potential"] is False
    assert rep["chosen_T"] == [pytest.approx(-0.4, abs=1e-12)]
    assert rep["q_origin"] == pytest.approx(-1.4545, abs=2e-3)
    assert rep["moment_closed_form"] == pytest.approx(-0.8, abs=1e-12)
    assert rep["moment_numeric"] == pytest.approx(-0.8, abs=2e-2)
    assert rep["out"] == str(out_csv)
    # every rejected candidate comes with the zero that killed it
    rejected = [c for c in rep["candidates"] if c["T"] != [pytest.approx(-0.4)]]
    assert rejected and all(c["zeros"] for c in rejected)

    text = out_csv.read_text()
    assert "# q0 = " in text
    assert "# S = 0" in text
    assert "# T = -0.4" in text
    assert "r,q" in text


def test_invert_determinism(tmp_path, capsys):
    phases = tmp_path / "phases.txt"
    phases.write_text(REF1_LINE)
    reports = []
    blobs = []
    for tag in ("a", "b"):
        out_csv = tmp_path / f"pot_{tag}.csv"
        code, out, _ = _run(
            capsys,
            [
                "invert",
                "--phases",
                str(phases),
                "--lambda",
                "80",
                "--step",
                "0.01",
                "--out",
                str(out_csv),
            ],
        )
        assert code == 0
        rep = _report(out)
        rep.pop("timing_seconds")
        rep.pop("out")
        reports.append(rep)
        blobs.append(out_csv.read_bytes())
    assert blobs[0] == blobs[1]
    assert reports[0] == reports[1]


def test_invert_csv_twelve_digits_idempotent(tmp_path, capsys):
    phases = tmp_path / "phases.txt"
    phases.write_text(REF1_LINE)
    out_csv = tmp_path / "pot.csv"
    code, _, _ = _run(
        capsys,
        [
            "invert",
            "--phases",
            str(phases),
            "--lambda",
            "80",
            "--step",
            "0.01",
            "--out",
            str(out_csv),
        ],
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#") and ln != "r,q"]
    assert len(data) == 8000
    for ln in data[:: len(data) // 97]:
        for tok in ln.split(","):
            # parse-serialize round trip leaves every field unchanged
            assert format(float(tok), ".12g") == tok


def test_invert_zero_phases_sentinel(tmp_path, capsys):
    phases = tmp_path / "phases.txt"
    phases.write_text("0 0\n")
    out_csv = tmp_path / "zero.csv"
    code, out, _ = _run(
        capsys,
        [
            "invert",
            "--phases",
            str(phases),
            "--lambda",
            "60",
            "--step",
            "0.01",
            "--out",
            str(out_csv),
        ],
    )
    assert code == 0
    rep = _report(out)
    assert rep["zero_potential"] is True
    assert rep["chosen_T"] is None
    assert rep["moment_closed_form"] == 0.0
    r, q, tail = cli.read_potential_csv(str(out_csv))
    assert float(max(abs(q))) == 0.0
    assert tail is not None and tail.alpha == 0.0


def test_invert_no_admissible_exit_3(tmp_path, capsys):
    # delta0 > pi/4 pushes the k=0 branch below the L > -1/2 floor and every
    # remaining branch has L - ell > 1, which always produces a zero
    phases = tmp_path / "phases.txt"
    phases.write_text("0 1.4\n")
    code, out, _ = _run(capsys, ["invert", "--phases", str(phases)])
    assert code == 3
    rep = _report(out)
    assert rep["chosen_T"] is None
    assert rep["candidates"]
    assert all(not c["admissible"] for c in rep["candidates"])
    assert all(c["zeros"] for c in rep["candidates"])


def test_invert_malformed_file_reports_line(tmp_path, capsys):
    phases = tmp_path / "phases.txt"
    phases.write_text("0 0.3\nnot a pair at all\n")
    code, _, err = _run(capsys, ["invert", "--phases", str(phases)])
    assert code == 2
    assert "line 2" in err


def test_invert_empty_phase_file_is_usage_error(tmp_path, capsys):
    phases = tmp_path / "phases.txt"
    phases.write_text("# only a comment\n")
    code, _, err = _run(capsys, ["roundtrip", "--phases", str(phases)])
    assert code == 2
    assert "no phase shifts" in err


# ---------------------------------------------------------------- forward


def test_forward_woods_saxon_reference(tmp_path, capsys):
    out_csv = tmp_path / "phases.csv"
    code, out, _ = _run(
        capsys,
        ["forward", "--ws", "1,1,0.4", "--ellmax", "1", "--out", str(out_csv)],
    )
    assert code == 0
    rep = _report(out)
    deltas = {row["ell"]: row["delta"] for row in rep["phases"]}
    assert deltas[0] == pytest.approx(0.4389, abs=2e-3)
    assert deltas[1] == pytest.approx(0.1246, abs=2e-3)
    text = out_csv.read_text()
    assert text.splitlines()[0].startswith("# ctinv phases v")
    assert "ell,delta,b_norm,residual" in text
    for ln in text.splitlines():
        if ln.startswith("#") or ln.startswith("ell"):
            continue
        toks = ln.split(",")
        assert len(toks) == 4
        for tok in toks[1:]:
            assert format(float(tok), ".12g") == tok


def test_forward_determinism(tmp_path, capsys):
    blobs = []
    for tag in ("a", "b"):
        out_csv = tmp_path / f"ph_{tag}.csv"
        code, _, _ = _run(
            capsys,
            ["forward", "--ws", "1,1,0.4", "--ellmax", "1", "--out", str(out_csv)],
        )
        assert code == 0
        blobs.append(out_csv.read_bytes())
    assert blobs[0] == blobs[1]


def test_forward_reads_inverted_potential(tmp_path, capsys):
    phases = tmp_path / "phases.txt"
    phases.write_text(REF1_LINE)
    pot_csv = tmp_path / "pot.csv"
    code, _, _ = _run(
        capsys,
        [
            "invert",
            "--phases",
            str(phases),
            "--lambda",
            "80",
            "--step",
            "0.01",
            "--out",
            str(pot_csv),
        ],
    )
    assert code == 0
    out_csv = tmp_path / "ph.csv"
    code, out, _ = _run(
        capsys,
        [
            "forward",
            "--potential",
            str(pot_csv),
            "--ellmax",
            "0",
            "--out",
            str(out_csv),
        ],
    )
    assert code == 0
    rep = _report(out)
    assert rep["phases"][0]["delta"] == pytest.approx(0.2 * math.pi, abs=2e-3)


def test_forward_zero_potential_zero_table(tmp_path, capsys):
    phases = tmp_path / "phases.txt"
    phases.write_text("0 0\n")
    pot_csv = tmp_path / "zero.csv"
    code, _, _ = _run(
        capsys,
        [
            "invert",
            "--phases",
            str(phases),
            "--lambda",
            "60",
            "--step",
            "0.01",
            "--out",
            str(pot_csv),
        ],
    )
    assert code == 0
    out_csv = tmp_path / "ph.csv"
    code, out, _ = _run(
        capsys,
        ["forward", "--potential", str(pot_csv), "--ellmax", "2", "--out", str(out_csv)],
    )
    assert code == 0
    rep = _report(out)
    assert len(rep["phases"]) == 3
    for row in rep["phases"]:
        assert abs(row["delta"]) < 1e-7


def test_forward_bad_ws_descriptor(capsys, tmp_path):
    code, _, err = _run(
        capsys,
        ["forward", "--ws", "1,1", "--ellmax", "0", "--out", str(tmp_path / "x.csv")],
    )
    assert code == 2
    assert "DEPTH,RADIUS,DIFFUSENESS" in err


# ---------------------------------------------------------------- roundtrip


def test_roundtrip_single_phase(tmp_path, capsys):
    phases = tmp_path / "phases.txt"
    phases.write_text(REF1_LINE)
    code, out, _ = _run(
        capsys,
        ["roundtrip", "--phases", str(phases), "--lambda", "80", "--step", "0.01"],
    )
    assert code == 0
    rep = _report(out)
    assert rep["command"] == "roundtrip"
    assert rep["max_phase_discrepancy"] < 2e-3
    # S = {0} is even-parity, so odd channels must stay empty
    leak = rep["parity_leakage"]
    assert leak["ells"] == [1]
    assert leak["max_abs_tan"] < 5e-3
    # the extraction residual of each channel, as forward writes it to its CSV
    for row in rep["phases"] + leak["rows"]:
        assert 0.0 <= row["residual"] < 1e-3


def test_roundtrip_reports_sum_rule_targets_and_extraction_residuals(tmp_path, capsys):
    phases = tmp_path / "phases.txt"
    phases.write_text("0 0.4389\n1 0.1246\n")
    code, out, _ = _run(capsys, ["roundtrip", "--phases", str(phases)])
    assert code == 0
    rep = _report(out)
    rules, tail = rep["sum_rules"], rep["tail_closed_form"]
    # sum_ell (-1)^ell c_ell B_ell {cos, sin} delta_ell = -2 {alpha, beta}
    assert rules["target_cos"] == -2.0 * tail["alpha"]
    assert rules["target_sin"] == -2.0 * tail["beta"]
    for part in ("cos", "sin"):
        assert rules[f"gap_{part}"] == rules[f"residual_{part}"] - rules[f"target_{part}"]
        assert abs(rules[f"gap_{part}"]) < 4e-5
    for row in rep["phases"]:
        assert 0.0 <= row["residual"] < 1e-4


def test_roundtrip_zero_phases(tmp_path, capsys):
    phases = tmp_path / "phases.txt"
    phases.write_text("0 0\n")
    code, out, _ = _run(capsys, ["roundtrip", "--phases", str(phases)])
    assert code == 0
    rep = _report(out)
    assert rep["zero_potential"] is True
    assert rep["max_phase_discrepancy"] == 0.0


def test_roundtrip_failed_channels_give_null_maxima(tmp_path, capsys):
    # a grid to r = 10 is too short to extract any phase
    phases = tmp_path / "phases.txt"
    phases.write_text(REF1_LINE)
    code, out, _ = _run(capsys, ["roundtrip", "--phases", str(phases), "--lambda", "10"])
    assert code == 0
    rep = _report(out)
    leak = rep["parity_leakage"]
    assert rep["max_phase_discrepancy"] is None and leak["max_abs_tan"] is None
    assert all("no phase for ell=" in row["error"] for row in rep["phases"] + leak["rows"])


# ---------------------------------------------------------------- map


def test_map_contains_reference_cell(tmp_path, capsys):
    out_csv = tmp_path / "map.csv"
    code, out, _ = _run(
        capsys,
        [
            "map",
            "--ells",
            "0,1",
            "--box=-0.4,-0.2,0.85,0.95",
            "--res",
            "0.1",
            "--out",
            str(out_csv),
        ],
    )
    assert code == 0
    rep = _report(out)
    assert rep["S"] == [0, 1]
    assert rep["cells"] == 6
    assert rep["admissible_cells"] >= 1
    assert rep["errors"] == []
    # one tile: the two v_ell tables and one u_L table per lattice value (3 + 2)
    assert (rep["tables"]["filled"], rep["tables"]["most_live"]) == (7, 7)
    assert rep["tables"]["bessel_points"] >= 3 * 7 * 14000
    text = out_csv.read_text()
    assert "L1,L2,admissible" in text
    # the two-channel reference solution (-0.3056, 0.9295) lives in this box
    assert "-0.3,0.95,1" in text.splitlines()


def test_map_thread_count_does_not_change_output(tmp_path, capsys):
    blobs = []
    for tag, threads in (("a", "1"), ("b", "2"), ("c", "3")):
        out_csv = tmp_path / f"map_{tag}.csv"
        code, _, _ = _run(
            capsys,
            [
                "map",
                "--ells",
                "0,1",
                "--box=-0.4,-0.2,0.85,0.95",
                "--res",
                "0.1",
                "--threads",
                threads,
                "--out",
                str(out_csv),
            ],
        )
        assert code == 0
        blobs.append(out_csv.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_map_needs_two_ells(capsys, tmp_path):
    code, _, err = _run(
        capsys,
        ["map", "--ells", "0,1,2", "--out", str(tmp_path / "m.csv")],
    )
    assert code == 2
    assert "two angular momenta" in err


# ---------------------------------------------------------------- file formats


def test_phase_csv_keeps_failed_channel_after_header(tmp_path):
    table = PhaseShiftTable(
        "ws(1,1,0.4)",
        [
            PhaseRow(0, 0.1, 2.0, 1e-9),
            PhaseRow(1, None, None, None, "WindowTooSmallError: too short"),
            PhaseRow(2, -0.25, 1.5, 3e-10),
        ],
    )
    path = tmp_path / "phases.csv"
    cli.write_phase_csv(str(path), table, {"potential": table.source, "h": "0.005"})
    assert path.read_text().splitlines() == [
        f"# ctinv phases v{cli.__version__}",
        "# potential = ws(1,1,0.4)",
        "# h = 0.005",
        "ell,delta,b_norm,residual",
        "0,0.1,2,1e-09",
        "# ell 1 failed: WindowTooSmallError: too short",
        "2,-0.25,1.5,3e-10",
    ]


def test_map_csv_names_S_before_box_and_res(tmp_path):
    axis = np.array([0.5, 1.5])
    amap = AdmissibilityMap((0, 1), axis, axis, np.array([[False, True], [True, False]]))
    path = tmp_path / "map.csv"
    cli.write_map_csv(str(path), amap, {"box": "0.5,1.5,0.5,1.5", "res": "1"})
    assert path.read_text().splitlines() == [
        f"# ctinv map v{cli.__version__}",
        "# S = 0,1",
        "# box = 0.5,1.5,0.5,1.5",
        "# res = 1",
        "L1,L2,admissible",
        "0.5,0.5,0",
        "0.5,1.5,1",
        "1.5,0.5,1",
        "1.5,1.5,0",
    ]


def _reference_jsonable(obj):
    """The explicit converter reports went through before json.dumps."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_reference_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _reference_jsonable(v) for k, v in obj.items()}
    return obj


def test_report_numpy_values_serialise_as_before(capsys, monkeypatch):
    report = {
        "flag": np.bool_(True),
        "count": np.int64(-3),
        "small": np.int32(7),
        "x": np.float64(1.0 / 3.0),
        "single": np.float32(0.1),
        "grid": np.array([[1.5, 2.0], [np.inf, -0.0]]),
        "flags": np.array([True, False]),
        "pairs": [(np.float64(0.25), np.int16(2)), {"inner": np.arange(3)}],
        "plain": [1, 2.5, True, None, "text", math.inf],
    }
    monkeypatch.setattr(cli, "cmd_specfun", lambda args: (0, dict(report)))
    # not through _run: this report holds infinities on purpose
    code = cli.main(["specfun", "--nu", "1", "--x", "1"])
    out = capsys.readouterr().out
    assert code == 0
    want = dict(report, command="specfun", timing_seconds=_report(out)["timing_seconds"])
    assert out == json.dumps(_reference_jsonable(want), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------- config


def test_config_file_env_and_flag_precedence(tmp_path, capsys, monkeypatch):
    phases = tmp_path / "phases.txt"
    phases.write_text(REF1_LINE)
    cfg_env = tmp_path / "env.cfg"
    cfg_env.write_text("h = 0.02\nlambda = 100   # alias keys work\n")
    monkeypatch.setenv("CTINV_CONFIG", str(cfg_env))

    code, out, _ = _run(
        capsys,
        ["invert", "--phases", str(phases), "--out", str(tmp_path / "a.csv")],
    )
    assert code == 0
    rep = _report(out)
    assert rep["grid"] == {"h": 0.02, "lambda": 100.0}

    # a flag beats the config file
    code, out, _ = _run(
        capsys,
        [
            "invert",
            "--phases",
            str(phases),
            "--step",
            "0.01",
            "--out",
            str(tmp_path / "b.csv"),
        ],
    )
    assert code == 0
    rep = _report(out)
    assert rep["grid"] == {"h": 0.01, "lambda": 100.0}

    # an explicit --config beats the environment default
    cfg_flag = tmp_path / "flag.cfg"
    cfg_flag.write_text("step = 0.04\n")
    code, out, _ = _run(
        capsys,
        [
            "--config",
            str(cfg_flag),
            "invert",
            "--phases",
            str(phases),
            "--out",
            str(tmp_path / "c.csv"),
        ],
    )
    assert code == 0
    rep = _report(out)
    assert rep["grid"] == {"h": 0.04, "lambda": 400.0}


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    phases = tmp_path / "phases.txt"
    phases.write_text(REF1_LINE)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 3\n")
    code, _, err = _run(
        capsys,
        ["--config", str(cfg), "invert", "--phases", str(phases)],
    )
    assert code == 2
    assert "line 1" in err and "bogus" in err


def test_cli_import_leaves_optimize_and_interpolate_unloaded():
    # brentq loads on the first determinant sign change, CubicSpline with a sampled potential
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = "import sys, ctinv.cli; print([m for m in ('scipy.optimize', 'scipy.interpolate') if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------- specfun


def test_specfun_prints_reference_values(capsys):
    code, out, _ = _run(capsys, ["specfun", "--nu", "1.7", "--x", "5.0"])
    assert code == 0
    want = {
        "J": -0.085089767345250387,
        "Y": 0.35626412768764787,
        "J'": -0.32870939576268643,
        "Y'": -0.12006835425857174,
    }
    lines = {ln.split("(")[0]: ln.split("=")[1].strip() for ln in out.splitlines()}
    for key, ref in want.items():
        assert lines[key] == format(ref, ".12g")
