import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bosondos import cli
from bosondos.cli import build_parser, compare_curves, emit_csv, main, parse_csv
from bosondos.cpa import BranchError, SolverError, solve_p
from bosondos.linalg import NotPsdError
from bosondos.model import ModelParams

MODES = ("cpa-dos", "mc-dos", "compare")


def test_help_enumerates_all_modes(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "|".join(MODES) in out


@pytest.mark.parametrize(
    "mode,flag",
    [
        ("cpa-dos", "--kgrid"),
        ("cpa-dos", "--omega-max"),
        ("mc-dos", "--seed"),
        ("compare", "--threshold"),
    ],
)
def test_mode_help_documents_flags(mode, flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([mode, "--help"])
    assert exit_info.value.code == 0
    assert flag in capsys.readouterr().out


def test_unknown_mode_is_usage_error():
    with pytest.raises(SystemExit) as exit_info:
        main(["frobnicate"])
    assert exit_info.value.code == 2


def test_rmt_dos_mode_is_gone(tmp_path, capsys):
    # the flat-band curve is cpa-dos --nu 0, which writes the same data lines
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["rmt-dos", "--a", "1", "--b", "1", "--omega-steps", "3", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "invalid choice: 'rmt-dos'" in capsys.readouterr().err
    assert not out.exists()


def test_solve_p_mode_is_gone(tmp_path, capsys):
    # one point z = E + iW is cpa-dos --eps E --omega-max W --omega-steps 1
    out = tmp_path / "p.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["solve-p", "--a", "2", "--b", "1", "--nu", "0", "--z-re", "0.1",
              "--z-im", "1", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "invalid choice: 'solve-p'" in capsys.readouterr().err
    assert not out.exists()


def test_bad_flag_value_is_usage_error(tmp_path, capsys):
    for bad in (["--omega-min", "-1.0"], ["--omega-steps", "-5"]):
        rc = main([
            "cpa-dos", "--nu", "0", "--a", "1.0", "--b", "1.0", *bad,
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,name",
    [
        (["cpa-dos", "--a", "nan", "--b", "1", "--nu", "0"], "a"),
        (["cpa-dos", "--a", "0.75", "--b", "nan", "--nu", "1"], "b"),
        (["cpa-dos", "--a", "0.75", "--b", "0.63", "--nu", "nan"], "nu"),
        (["mc-dos", "--N", "2", "--M", "4", "--b", "inf", "--nu", "0",
          "--samples", "1"], "b"),
    ],
)
def test_nonfinite_model_scale_is_usage_error(argv, name, tmp_path, capsys):
    rc = main([*argv, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert f"{name} must be finite" in capsys.readouterr().err


def test_mc_dos_without_band_counts_is_usage_error(tmp_path, capsys):
    # a is enough for the mean field, but sampling needs N and M
    out = tmp_path / "x.csv"
    rc = main(["mc-dos", "--a", "0.75", "--b", "1", "--nu", "0", "--samples", "2",
               "--out", str(out)])
    assert rc == 2
    assert "sampling requires both M and N" in capsys.readouterr().err
    assert not out.exists()


FREQUENCY_MODES = {
    "cpa-dos": ["cpa-dos", "--a", "0.75", "--b", "0.63", "--nu", "1",
                "--omega-steps", "3"],
    "mc-dos": ["mc-dos", "--N", "2", "--M", "3", "--b", "1", "--nu", "0",
               "--samples", "2", "--bins", "3", "--seed", "0"],
}


@pytest.mark.parametrize(
    "mode,flag,value",
    [
        ("cpa-dos", "--eps", "nan"),
        ("cpa-dos", "--eps", "inf"),
        ("cpa-dos", "--omega-max", "nan"),
        ("cpa-dos", "--omega-max", "inf"),
        ("cpa-dos", "--omega-min", "nan"),
        ("mc-dos", "--omega-max", "nan"),
        ("mc-dos", "--omega-max", "inf"),
    ],
)
def test_nonfinite_frequency_is_usage_error_naming_the_flag(
    mode, flag, value, tmp_path, capsys
):
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([*FREQUENCY_MODES[mode], flag, value, "--out", str(out)])
    assert rc == 2
    assert f"usage error: {flag} must be finite" in capsys.readouterr().err
    assert not out.exists()
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("value", ["0", "-1"])
def test_mc_dos_nonpositive_omega_max_is_usage_error(value, tmp_path, capsys):
    # np.histogram widens a zero-width range to [-0.5, 0.5] and books every
    # eigenvalue as overflow; a negative one is numpy's own error
    out = tmp_path / "hist.csv"
    rc = main([*FREQUENCY_MODES["mc-dos"], f"--omega-max={value}", "--out", str(out)])
    assert rc == 2
    assert "usage error: --omega-max must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_cpa_dos_nonpositive_omega_max_is_usage_error_naming_it(value, tmp_path, capsys):
    # without --omega-min the grid starts at omega_max / steps, so a flag
    # the user never gave would be blamed
    out = tmp_path / "dos.csv"
    rc = main([*FREQUENCY_MODES["cpa-dos"], f"--omega-max={value}", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "usage error: --omega-max must be positive" in err and "omega-min" not in err
    assert not out.exists()


def test_cpa_dos_repeated_omega(tmp_path):
    out = tmp_path / "dos.csv"
    assert main(["cpa-dos", "--a", "0.75", "--b", "0.63", "--nu", "1",
                 "--omega-min", "3", "--omega-max", "3", "--omega-steps", "4",
                 "--out", str(out)]) == 0
    _, cols = parse_csv(str(out))
    assert np.array_equal(cols["omega"], [3.0] * 4)
    assert np.all(cols["rho"] == cols["rho"][0])


@pytest.mark.parametrize("value", ["0", "-1"])
def test_cpa_dos_nonpositive_omega_min_is_usage_error_naming_it(value, tmp_path, capsys):
    out = tmp_path / "dos.csv"
    rc = main([*FREQUENCY_MODES["cpa-dos"], f"--omega-min={value}", "--out", str(out)])
    assert rc == 2
    assert (f"usage error: --omega-min must be positive, got {float(value)}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_one_step_grid_is_its_omega_max(tmp_path, capsys):
    # np.linspace(lo, hi, 1) is [lo]: a lone point below --omega-max would be
    # written under a preamble that records omega_max
    out = tmp_path / "dos.csv"
    argv = ["cpa-dos", "--d", "1", "--a", "0.75", "--b", "0.63", "--nu", "1",
            "--omega-max", "1", "--omega-steps", "1", "--out", str(out)]
    assert main([*argv, "--omega-min", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "usage error: " in err and "--omega-min 0.5" in err and "--omega-max 1.0" in err
    assert not out.exists()
    for lo in ([], ["--omega-min", "1"]):
        assert main([*argv, *lo]) == 0
        assert np.array_equal(parse_csv(str(out))[1]["omega"], [1.0])


@pytest.mark.parametrize("mode", ["cpa-dos"])
def test_richardson_flag_is_gone(mode, tmp_path, capsys):
    # a smaller --eps is the one route to the eps -> 0+ density
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exit_info:
        main([*FREQUENCY_MODES[mode], "--richardson", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --richardson" in capsys.readouterr().err
    assert not out.exists()


def test_lattice_above_d3_needs_kgrid(tmp_path, capsys):
    # 16 points per dimension, once the silent default above d = 3, put a
    # d = 4 curve about 1% of max rho off the 32-point one
    out = str(tmp_path / "x.csv")
    lattice = ["--d", "4", "--a", "0.75", "--b", "0.63", "--nu", "1"]
    assert main(["cpa-dos", *lattice, "--omega-steps", "5", "--out", out]) == 2
    assert "--kgrid" in capsys.readouterr().err
    assert main(["cpa-dos", *lattice, "--kgrid", "8", "--omega-steps", "5",
                 "--out", out]) == 0
    assert main(["cpa-dos", "--d", "4", "--a", "1", "--b", "1", "--nu", "0",
                 "--omega-steps", "5", "--out", out]) == 0


@pytest.mark.parametrize(
    "exc,code",
    [
        (SolverError, 1),
        (BranchError, 1),
        (NotPsdError, 1),
        (np.linalg.LinAlgError, 1),
        (OSError, 1),
        (ValueError, 2),
    ],
)
def test_exit_code_per_error_type(exc, code, monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise exc("injected")

    monkeypatch.setattr(cli, "dos_curve", fail)
    rc = main([
        "cpa-dos", "--nu", "0", "--a", "1.0", "--b", "1.0", "--omega-steps", "3",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == code
    assert "injected" in capsys.readouterr().err


def test_lapack_failure_exits_1(monkeypatch, tmp_path, capsys):
    # LinAlgError is a ValueError, but a LAPACK routine that does not
    # converge is a numerical failure, not a usage error
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    out = tmp_path / "x.csv"
    rc = main(["mc-dos", "--N", "8", "--M", "12", "--b", "1", "--nu", "0",
               "--samples", "2", "--out", str(out)])
    assert rc == 1
    assert "error: LinAlgError: SVD did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_unsolvable_row_exits_1_naming_its_omega(fail_at, tmp_path, capsys):
    # the sweep step to the third omega does not converge
    fail_at(np.linspace(0.25, 2.0, 8)[2])
    out = tmp_path / "x.csv"
    rc = main(["cpa-dos", "--a", "0.75", "--b", "0.63", "--nu", "1", "--kgrid", "512",
               "--omega-min", "0.25", "--omega-max", "2", "--omega-steps", "8",
               "--out", str(out)])
    assert rc == 1
    assert "error: SolverError: omega=0.75: injected" in capsys.readouterr().err
    assert not out.exists()


def test_small_a_curve_with_re_p_below_zero_is_solved(tmp_path):
    # at small a with disorder above nu the physical branch crosses into
    # Re p < 0 (down to about -0.015 here) while Re(p + nu) stays positive
    out = tmp_path / "x.csv"
    assert main(["cpa-dos", "--d", "1", "--a", "0.25", "--b", "1.5", "--nu", "0.078",
                 "--omega-max", "6", "--omega-steps", "3000", "--out", str(out)]) == 0
    meta, cols = parse_csv(str(out))
    assert cols["p_re"].min() < 0 < (cols["p_re"] + 0.078).min()
    assert cols["rho"].min() > 0
    assert abs(float(meta["normalization"]) - 1.0) <= 1e-2


@pytest.mark.parametrize("argv", [
    ["cpa-dos", "--d", "1", "--a", "0.75", "--b", "0.63", "--nu", "1"],
    ["cpa-dos", "--d", "3", "--a", "0.75", "--b", "0.63", "--nu", "1"],
    ["cpa-dos", "--nu", "0", "--a", "0.75", "--b", "1"],
])
def test_frequency_below_the_overflow_is_solved(argv, tmp_path):
    # alpha^2 overflows past |omega| ~ 1e77, z^2 only past 1e154: the
    # derivatives stay finite between, and rho is the tail eps/(pi omega^2)
    # of the unit mass, less the zero-mode mass at nu = 0
    out = tmp_path / "x.csv"
    assert main([*argv, "--omega-steps", "3", "--omega-max", "1e140",
                 "--out", str(out)]) == 0
    meta, cols = parse_csv(str(out))
    eps, dirac = float(meta["eps"]), float(meta["dirac_mass_at_zero"])
    want = (1 - dirac) * eps / np.pi / cols["omega"] ** 2
    assert np.abs(cols["rho"] - want).max() <= 1e-12 * want.min()


@pytest.mark.parametrize("argv", [
    ["cpa-dos", "--d", "1", "--a", "0.75", "--b", "0.63", "--nu", "1",
     "--eps", "1", "--omega-max", "1e200", "--omega-steps", "1"],
    ["cpa-dos", "--nu", "0", "--a", "0.75", "--b", "1", "--omega-steps", "5",
     "--omega-max", "1e300"],
    ["cpa-dos", "--d", "1", "--a", "0.75", "--b", "0.63", "--nu", "1",
     "--omega-steps", "3", "--omega-max", "1e160"],
])
def test_overflowing_frequency_exits_1_without_a_file(argv, tmp_path, capsys):
    # z^2 overflows past |omega| ~ 1e154: a numerical failure, not a row or a
    # solution with residual nan
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert "error: SolverError: " in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_path_is_io_error(capsys):
    rc = main([
        "cpa-dos", "--nu", "0", "--a", "1.0", "--b", "1.0", "--omega-steps", "3",
        "--out", "/nonexistent-dir/x.csv",
    ])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_csv_round_trip_bit_exact(tmp_path):
    path = str(tmp_path / "t.csv")
    cols = {
        "omega": [0.1, 1.0 / 3.0, np.pi],
        "rho": [1e-300, 0.1 + 2e-17, 123456.789012345678],
    }
    emit_csv(path, {"version": "x", "seed": 7, "eps": 1e-3}, cols)
    meta, back = parse_csv(path)
    assert meta["seed"] == "7"
    for name in cols:
        assert list(back[name]) == [float(v) for v in cols[name]]


def test_array_columns_write_what_scalar_entries_write(tmp_path):
    # float and integer arrays are formatted column by column; the bytes
    # must be those of the same entries formatted one numpy scalar at a time
    rng = np.random.default_rng(5)
    arrays = {
        "x": np.concatenate([rng.standard_normal(20), [np.nan, np.inf, -0.0, 5e-324]]),
        "x32": rng.standard_normal(24).astype(np.float32),
        "count": rng.integers(-10**15, 10**15, 24),
        "bins": rng.integers(0, 99, 24).astype(np.uint16),
    }
    meta = {"eps": 1e-3, "seed": 7}
    emit_csv(str(tmp_path / "arrays.csv"), meta, arrays)
    emit_csv(str(tmp_path / "scalars.csv"), meta, {k: list(v) for k, v in arrays.items()})
    assert (tmp_path / "arrays.csv").read_bytes() == (tmp_path / "scalars.csv").read_bytes()


def test_cpa_dos_empty_grid_is_usage_error(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    rc = main([
        "cpa-dos", "--a", "0.75", "--b", "0.5", "--nu", "1.0",
        "--omega-steps", "0", "--out", str(out),
    ])
    assert rc == 2
    assert "--omega-steps must be at least 1" in capsys.readouterr().err
    assert not out.exists()
    # emit_csv itself still writes a header-only file for zero rows
    emit_csv(str(out), {"eps": 1e-3}, {"omega": [], "rho": []})
    assert out.read_text() == "# eps = 0.001\nomega,rho\n"


def test_flat_band_curve_reports_point_mass(tmp_path):
    out = tmp_path / "rmt.csv"
    rc = main([
        "cpa-dos", "--nu", "0", "--a", "0.75", "--b", "1.0",
        "--omega-steps", "20", "--out", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    assert "# dirac_mass_at_zero = 0.25" in text
    meta, cols = parse_csv(str(out))
    assert set(cols) == {"omega", "rho", "p_re", "p_im", "residual"}
    assert len(cols["omega"]) == 20


def test_mc_dos_columns_and_determinism(tmp_path):
    args = [
        "mc-dos", "--a", "0.75", "--N", "4", "--M", "6", "--b", "1.0",
        "--nu", "0", "--samples", "5", "--bins", "12", "--seed", "3",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    # identical configuration -> byte-identical data section (and here the
    # whole file except the out-path metadata line)
    strip = lambda b: b"\n".join(
        ln for ln in b.splitlines() if not ln.startswith(b"# out")
    )
    assert strip(b1) == strip(b2)
    meta, cols = parse_csv(str(out1))
    assert set(cols) == {"bin_left", "bin_right", "density", "count"}
    assert meta["zero_mode_fraction"] == "0.25"


@pytest.mark.parametrize("argv", [
    ["--a", "0.5", "--N", "1", "--M", "1", "--b", "1", "--nu", "0",
     "--samples", "50"],
    ["--d", "1", "--extents", "4", "--N", "1", "--M", "1", "--b", "1",
     "--nu", "1", "--samples", "5"],
], ids=["flat", "lattice"])
def test_mc_dos_reports_each_warning_once(argv, tmp_path, capsys):
    # every sampled site warns about M = 1; the preamble keeps one line
    out = tmp_path / "hist.csv"
    assert main(["mc-dos", *argv, "--bins", "4", "--out", str(out)]) == 0
    meta, _ = parse_csv(str(out))
    warnings_kept = [key for key in meta if key.startswith("warning")]
    assert warnings_kept == ["warning_0"]
    assert "M >= 2" in meta["warning_0"]
    assert capsys.readouterr().err.count("warning:") == 1


def test_small_p_row_stays_on_the_band_root(tmp_path):
    # box draw (1, 37) at eps = 1e-5: near omega = 0.0956 a gap root with
    # p = -0.124 passes every test but the jump test, whose bound there is
    # half of |p| = 0.02 away; with an absolute floor of 1 it read
    # rho = 3.3e-4, between neighbours of 1.85
    out = tmp_path / "x.csv"
    assert main(["cpa-dos", "--d", "1", "--a", "0.1627250342688202",
                 "--b", "1.587710742419931", "--nu", "0.13525719320603743",
                 "--omega-max", "3.9819515124454283", "--omega-steps", "3000",
                 "--eps", "1e-5", "--out", str(out)]) == 0
    _, cols = parse_csv(str(out))
    i = int(np.argmin(np.abs(cols["omega"] - 0.0955668)))
    assert cols["omega"][i] == pytest.approx(0.0955668, abs=1e-6)
    assert cols["rho"][i] == pytest.approx(1.85953, abs=1e-5)
    assert cols["rho"][i - 1] < cols["rho"][i] < cols["rho"][i + 1]


def test_check_quadrature_notes_without_touching_the_data(tmp_path, capsys):
    # the doubled grid of the 16-site chain is another lattice, which
    # differs from it at most points: the check says so in one note, after
    # the flags, and every data line is the unchecked run's
    argv = ["cpa-dos", "--d", "1", "--a", "0.75", "--b", "0.15", "--nu", "1",
            "--kgrid", "16", "--omega-max", "2.2", "--omega-steps", "120"]
    plain, checked = tmp_path / "plain.csv", tmp_path / "checked.csv"
    assert main([*argv, "--out", str(plain)]) == 0
    assert main([*argv, "--check-quadrature", "--out", str(checked)]) == 0

    def data_lines(path):
        return [line for line in path.read_text().splitlines() if not line.startswith("#")]

    assert data_lines(checked) == data_lines(plain)
    meta, _ = parse_csv(str(checked))
    kept = [key for key in meta if key.startswith("warning")]
    assert kept == ["warning_0"]
    assert meta["warning_0"].startswith("grid-doubling check failed at ")
    assert " of 120 points with n=16, d=1: " in meta["warning_0"]
    assert list(meta).index("warning_0") == list(meta).index("out") + 1
    assert capsys.readouterr().err.count("warning:") == 1
    assert not any(key.startswith("warning") for key in parse_csv(str(plain))[0])


@pytest.mark.parametrize("extents", ["4,", "4,x", "4.5", ""])
def test_malformed_extents_name_the_flag(extents, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["mc-dos", "--d", "1", "--extents", extents, "--N", "2", "--M", "3",
                 "--b", "1", "--nu", "1", "--samples", "1", "--out", str(out)]) == 2
    assert (f"usage error: --extents must be comma-separated integers, got {extents!r}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cpa_dos_determinism(tmp_path):
    args = [
        "cpa-dos", "--d", "1", "--a", "0.75", "--b", "0.63", "--nu", "1",
        "--omega-max", "2.0", "--omega-steps", "12", "--kgrid", "512",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    data1 = [ln for ln in out1.read_text().splitlines() if not ln.startswith("#")]
    data2 = [ln for ln in out2.read_text().splitlines() if not ln.startswith("#")]
    assert data1 == data2


@pytest.mark.parametrize("model,eps,omega,extents", [
    (dict(d=1, a=0.75, b=0.63, nu=1.0), 1e-3, 1.0, (4096,)),
    (dict(d=1, a=0.75, b=0.0, nu=1.0), 1e-3, 1.0, (4096,)),
    (dict(d=2, a=2.0, b=0.3, nu=0.7), 0.01, 1.3, (256, 256)),
    (dict(d=3, a=2.0, b=0.3, nu=0.7), 0.01, 1.3, (64, 64, 64)),
    (dict(d=1, a=2.0, b=1.0, nu=0.0), 0.1, 1.0, None),
], ids=["d1", "d1-pure", "d2", "d3", "flat"])
def test_one_step_cpa_dos_is_solve_p(model, eps, omega, extents, tmp_path):
    # the one point z = eps + i omega, solved on the default zone grid, which
    # the preamble records once, as the lattice in the model block (the flat
    # band reads no grid)
    out = tmp_path / "p.csv"
    assert main(["cpa-dos", *(f"--{k}={v!r}" for k, v in model.items()),
                 f"--eps={eps!r}", f"--omega-max={omega!r}", "--omega-steps", "1",
                 "--out", str(out)]) == 0
    meta, cols = parse_csv(str(out))
    assert meta.get("extents", "None") == repr(extents) and "kgrid" not in meta
    assert list(meta)[2:4] == ["d", "extents" if extents else "a"]
    assert list(meta)[-1] == "branch_tag"
    cp = solve_p(complex(eps, omega), ModelParams(**model, extents=extents))
    assert cols["omega"].tolist() == [omega]
    assert cols["p_re"].tolist() == [cp.p.real] and cols["p_im"].tolist() == [cp.p.imag]
    assert cols["residual"].tolist() == [cp.residual]


def test_compare_round_trip(tmp_path):
    rmt = tmp_path / "rmt.csv"
    mc = tmp_path / "mc.csv"
    assert main([
        "cpa-dos", "--nu", "0", "--a", "1.0", "--b", "1.0", "--omega-max", "2.8",
        "--omega-steps", "250", "--out", str(rmt),
    ]) == 0
    assert main([
        "mc-dos", "--a", "1.0", "--N", "16", "--M", "32", "--b", "1.0",
        "--nu", "0", "--samples", "60", "--bins", "40", "--seed", "7",
        "--out", str(mc),
    ]) == 0
    assert main(["compare", "--cpa", str(rmt), "--mc", str(mc),
                 "--threshold", "0.5"]) == 0
    assert main(["compare", "--cpa", str(rmt), "--mc", str(mc),
                 "--threshold", "1e-9"]) == 1
    # l1 <= threshold is false for every l1 at these, whatever the curves
    for bad in ("nan", "-1"):
        assert main(["compare", "--cpa", str(rmt), "--mc", str(mc),
                     f"--threshold={bad}"]) == 2


def test_compare_rejects_mismatched_inputs(tmp_path, capsys):
    mc = tmp_path / "mc.csv"
    assert main([
        "mc-dos", "--N", "16", "--M", "32", "--b", "1.0", "--nu", "0",
        "--samples", "5", "--bins", "40", "--seed", "7", "--out", str(mc),
    ]) == 0
    curves = {}
    for name, a, omega_min, omega_max in (("other_a", "0.75", "0.01", "3.0"),
                                          ("short", "1.0", "0.01", "1.0"),
                                          ("late", "1.0", "1.0", "3.0"),
                                          ("match", "1.0", "0.01", "3.0")):
        curves[name] = tmp_path / f"{name}.csv"
        assert main([
            "cpa-dos", "--nu", "0", "--a", a, "--b", "1.0", "--omega-min", omega_min,
            "--omega-max", omega_max, "--omega-steps", "50",
            "--out", str(curves[name]),
        ]) == 0
    capsys.readouterr()
    # the histogram's a = M/(2N) = 1 disagrees with the curve's a = 0.75
    assert main(["compare", "--cpa", str(curves["other_a"]), "--mc", str(mc)]) == 2
    assert "a" in capsys.readouterr().err
    # bin centers beyond the curve's last omega would be clamped
    assert main(["compare", "--cpa", str(curves["short"]), "--mc", str(mc)]) == 2
    assert "omega" in capsys.readouterr().err
    # bin centers below the curve's first omega would be clamped too
    assert main(["compare", "--cpa", str(curves["late"]), "--mc", str(mc)]) == 2
    assert "omega" in capsys.readouterr().err
    assert main(["compare", "--cpa", str(curves["match"]), "--mc", str(mc)]) == 0


@pytest.fixture(scope="module")
def flat_band_pair(tmp_path_factory):
    """A matched flat-band curve and histogram, as the CLI writes them."""
    root = tmp_path_factory.mktemp("pair")
    cpa, mc = root / "cpa.csv", root / "mc.csv"
    assert main(["cpa-dos", "--nu", "0", "--a", "1", "--b", "1", "--omega-max", "3",
                 "--omega-steps", "100", "--out", str(cpa)]) == 0
    assert main(["mc-dos", "--a", "1", "--N", "8", "--M", "16", "--b", "1", "--nu", "0",
                 "--samples", "3", "--bins", "20", "--seed", "0", "--out", str(mc)]) == 0
    return {"cpa": cpa, "mc": mc}


@pytest.mark.parametrize("side", ["cpa", "mc"])
@pytest.mark.parametrize("key", ["d", "nu", "b", "a"])
def test_compare_requires_the_model_in_both_files(key, side, flat_band_pair, tmp_path,
                                                  capsys):
    # a file that does not record the model could hold another one; for a
    # histogram without a, M/(2N) is not read in its place
    paths = dict(flat_band_pair)
    lines = paths[side].read_text().splitlines(keepends=True)
    paths[side] = tmp_path / f"no-{key}.csv"
    paths[side].write_text("".join(line for line in lines
                                   if not line.startswith(f"# {key} = ")))
    capsys.readouterr()
    assert main(["compare", "--cpa", str(paths["cpa"]), "--mc", str(paths["mc"]),
                 "--threshold", "10"]) == 2
    assert f"{paths[side]} records no {key};" in capsys.readouterr().err


def test_script_outputs_pass_compare_and_refuse_other_models(tmp_path, monkeypatch, capsys):
    # the example scripts write through the CLI modes, so every file records
    # the model and compare tells two models apart
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    for name, flags in (("lattice_cpa_vs_mc.py", ["--sites", "6", "--N", "2"]),
                        ("rmt_dos_curves.py", ["--N", "4"])):
        out = tmp_path / name.split("_")[0]
        monkeypatch.setattr(sys, "argv", [name, *flags, "--samples", "3",
                                          "--out-dir", str(out)])
        runpy.run_path(str(scripts / name), run_name="__main__")
    assert capsys.readouterr().out.count("L1 = ") == 5
    rmt, lattice = tmp_path / "rmt", tmp_path / "lattice"
    # the a = 1 curve against the a = 0.75 histogram
    assert main(["compare", "--cpa", str(rmt / "cpa_a1.0.csv"),
                 "--mc", str(rmt / "mc_a0.75.csv")]) == 2
    assert "a differs" in capsys.readouterr().err
    # a flat-band curve against a chain's histogram
    assert main(["compare", "--cpa", str(rmt / "cpa_a2.0.csv"),
                 "--mc", str(lattice / "mc_b0.15.csv")]) == 2
    assert "nu differs" in capsys.readouterr().err


def test_compare_names_a_lattice_mismatch(tmp_path, capsys):
    curve = tmp_path / "chain16.csv"
    assert main(["cpa-dos", "--d", "1", "--a", "0.75", "--b", "0.15", "--nu", "1",
                 "--kgrid", "16", "--omega-max", "2.2", "--omega-steps", "100",
                 "--out", str(curve)]) == 0
    hists = {}
    for L in ("16", "12"):
        hists[L] = tmp_path / f"mc{L}.csv"
        assert main(["mc-dos", "--d", "1", "--extents", L, "--N", "4", "--M", "6",
                     "--b", "0.15", "--nu", "1", "--samples", "3", "--bins", "20",
                     "--seed", "0", "--out", str(hists[L])]) == 0
    capsys.readouterr()
    assert main(["compare", "--cpa", str(curve), "--mc", str(hists["16"]),
                 "--threshold", "10"]) == 0
    matched = capsys.readouterr()
    assert "warning" not in matched.err
    # another lattice still compares, to the same exit code, with one line
    # naming both
    assert main(["compare", "--cpa", str(curve), "--mc", str(hists["12"]),
                 "--threshold", "10"]) == 0
    mismatched = capsys.readouterr()
    warnings = [line for line in mismatched.err.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 1
    assert "(16,)" in warnings[0] and "(12,)" in warnings[0]
    assert "finite-lattice mismatch" in warnings[0]
    assert mismatched.out.startswith("L1 = ")
    # the flat band records no extents on either side
    rmt, flat = tmp_path / "rmt.csv", tmp_path / "flat.csv"
    assert main(["cpa-dos", "--nu", "0", "--a", "1", "--b", "1", "--omega-max", "3",
                 "--omega-steps", "100", "--out", str(rmt)]) == 0
    assert main(["mc-dos", "--a", "1", "--N", "8", "--M", "16", "--b", "1",
                 "--nu", "0", "--samples", "3", "--bins", "20", "--seed", "0",
                 "--out", str(flat)]) == 0
    capsys.readouterr()
    assert main(["compare", "--cpa", str(rmt), "--mc", str(flat),
                 "--threshold", "10"]) == 0
    assert "warning" not in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--samples", "--bins"])
def test_mc_dos_needs_a_sample_and_a_bin(flag, tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["mc-dos", "--N", "2", "--M", "3", "--b", "1", "--nu", "0",
               flag, "0", "--out", str(out)])
    assert rc == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_compare_downward_curve(tmp_path, capsys):
    mc = tmp_path / "mc.csv"
    assert main([
        "mc-dos", "--N", "16", "--M", "32", "--b", "1", "--nu", "0",
        "--samples", "20", "--bins", "40", "--seed", "7", "--out", str(mc),
    ]) == 0
    l1, norm = {}, {}
    for name, lo, hi in (("up", "0.01", "3"), ("down", "3", "0.01")):
        curve = tmp_path / f"{name}.csv"
        assert main([
            "cpa-dos", "--nu", "0", "--a", "1", "--b", "1", "--omega-min", lo,
            "--omega-max", hi, "--omega-steps", "300", "--out", str(curve),
        ]) == 0
        norm[name] = float(parse_csv(str(curve))[0]["normalization"])
        capsys.readouterr()
        assert main(["compare", "--cpa", str(curve), "--mc", str(mc)]) == 0
        out = capsys.readouterr().out
        l1[name] = float(out.split("L1 = ")[1].split()[0])
    assert norm["down"] == pytest.approx(norm["up"], rel=1e-12)
    assert l1["down"] == pytest.approx(l1["up"], rel=1e-12)


def test_preamble_records_what_the_run_used(tmp_path, capsys):
    runs = {
        "cpa": (["cpa-dos", "--a", "0.75", "--b", "0.63", "--nu", "1",
                 "--omega-max", "2", "--omega-steps", "12", "--kgrid", "64"],
                ["version", "mode", "d", "extents", "a", "b", "nu", "omega_max",
                 "omega_steps", "check_quadrature", "out", "eps",
                 "dirac_mass_at_zero", "normalization", "branch_tag"]),
        "rmt": (["cpa-dos", "--nu", "0", "--a", "1", "--b", "1", "--omega-steps", "12"],
                ["version", "mode", "d", "a", "b", "nu", "omega_max",
                 "omega_steps", "check_quadrature", "out", "eps",
                 "dirac_mass_at_zero", "normalization", "branch_tag"]),
        "mc": (["mc-dos", "--N", "16", "--M", "32", "--b", "1", "--nu", "0",
                "--samples", "2", "--bins", "10"],
               ["version", "mode", "d", "N", "M", "a", "b", "nu", "samples",
                "bins", "seed", "out", "blas_threads", "total_eigenvalues",
                "zero_mode_count", "zero_mode_fraction", "zero_tol", "overflow_count"]),
    }
    meta = {}
    for name, (argv, keys) in runs.items():
        out = tmp_path / f"{name}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        meta[name] = parse_csv(str(out))[0]
        assert list(meta[name]) == keys, name
    assert meta["mc"]["a"] == "1.0"
    assert meta["cpa"]["extents"] == "(64,)"
    assert meta["cpa"]["branch_tag"].endswith(" lane fallbacks")
    assert meta["rmt"]["d"] == "1" and meta["rmt"]["nu"] == "0.0"
    # the flat-band curve still refuses a lattice histogram on nu
    lattice = tmp_path / "lattice.csv"
    assert main([
        "mc-dos", "--d", "1", "--extents", "4", "--N", "2", "--M", "4",
        "--b", "1", "--nu", "1", "--samples", "2", "--bins", "10",
        "--out", str(lattice),
    ]) == 0
    capsys.readouterr()
    assert main(["compare", "--cpa", str(tmp_path / "rmt.csv"),
                 "--mc", str(lattice)]) == 2
    assert "nu differs" in capsys.readouterr().err


def test_mc_preamble_records_the_blas_thread_count(tmp_path, monkeypatch):
    # the count the loaded OpenBLAS reports, read in a fresh interpreter
    # pinned to one thread, and "unknown" where no OpenBLAS is found
    out = tmp_path / "mc.csv"
    argv = ["mc-dos", "--N", "2", "--M", "3", "--b", "1", "--nu", "0",
            "--samples", "2", "--bins", "4", "--out", str(out)]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    subprocess.run([sys.executable, "-m", "bosondos.cli", *argv], env=env,
                   check=True, capture_output=True)
    pinned = parse_csv(str(out))[0]["blas_threads"]
    assert pinned == ("unknown" if cli._blas_threads() == "unknown" else "1")

    def unloadable(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(cli.ctypes, "CDLL", unloadable)
    assert main(argv) == 0
    assert parse_csv(str(out))[0]["blas_threads"] == "unknown"


def test_nu_zero_reads_no_grid(tmp_path, capsys):
    out = tmp_path / "dos.csv"
    assert main(["cpa-dos", "--a", "1", "--b", "1", "--nu", "0",
                 "--omega-steps", "5", "--out", str(out)]) == 0
    assert not {"kgrid", "extents"} & parse_csv(str(out))[0].keys()
    assert main(["cpa-dos", "--a", "1", "--b", "1", "--nu", "0", "--kgrid", "3",
                 "--omega-steps", "5", "--out", str(tmp_path / "x.csv")]) == 2
    assert "no zone grid is used at nu = 0" in capsys.readouterr().err


def test_nu_zero_checks_no_quadrature(tmp_path, capsys):
    # no grid is read at nu = 0, so there is nothing to check against a
    # doubled one; the flag would be recorded without effect
    out = tmp_path / "x.csv"
    assert main(["cpa-dos", "--a", "1", "--b", "1", "--nu", "0",
                 "--check-quadrature", "--omega-steps", "5", "--out", str(out)]) == 2
    assert "--check-quadrature given, but no zone grid is used at nu = 0" \
        in capsys.readouterr().err
    assert not out.exists()


def test_compare_curves_metric():
    omegas = np.linspace(0.0, 1.0, 101)
    rho = np.ones_like(omegas)
    centers = np.array([0.25, 0.75])
    widths = np.array([0.5, 0.5])
    l1, mx = compare_curves(omegas, rho, centers, widths, np.array([1.0, 0.5]))
    assert l1 == pytest.approx(0.25)
    assert mx == pytest.approx(0.5)


def test_compare_curves_takes_integer_inputs():
    # np.min of an integer array cannot start from initial=inf
    assert compare_curves([1, 2, 3], [1, 1, 1], [1.5, 2.5], [1, 1], [1, 1]) == (0.0, 0.0)
    assert compare_curves(np.arange(1, 4), np.ones(3, dtype=int), np.array([2]),
                          np.array([1]), np.array([3])) == (2.0, 2.0)


def test_compare_curves_takes_a_descending_curve():
    # np.interp needs ascending abscissae and does not check them; a curve
    # swept downward must give the L1 of the same curve swept upward
    omegas = np.linspace(0.1, 1.0, 200)
    centers = np.linspace(0.125, 0.975, 18)
    widths = np.full(18, 0.05)
    up = compare_curves(omegas, omegas**2, centers, widths, centers**2)
    down = compare_curves(omegas[::-1], omegas[::-1] ** 2, centers, widths, centers**2)
    assert down == up
    assert up[0] <= 1e-5


@pytest.mark.parametrize("center", [0.05, 1.05], ids=["below", "above"])
def test_compare_curves_refuses_to_extrapolate(center):
    # np.interp would hold the curve's end value flat beyond its omegas
    omegas = np.linspace(0.1, 1.0, 10)
    with pytest.raises(ValueError, match="extrapolated"):
        compare_curves(omegas, np.ones_like(omegas), np.array([0.5, center]),
                       np.array([0.1, 0.1]), np.array([1.0, 1.0]))


def test_compare_missing_columns_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    emit_csv(str(bad), {}, {"x": [1.0]})
    rc = main(["compare", "--cpa", str(bad), "--mc", str(bad)])
    assert rc == 2


def test_parser_defaults_cover_every_flag():
    parser = build_parser()
    # all subparsers expose defaults through parse_args of minimal argv
    args = parser.parse_args(["cpa-dos", "--nu", "0", "--a", "1.0", "--b", "1.0"])
    assert args.omega_steps == 600 and args.omega_max == 3.0
    args = parser.parse_args([
        "mc-dos", "--a", "1.0", "--N", "2", "--M", "4", "--b", "1.0",
    ])
    assert args.samples == 100 and args.bins == 100 and args.seed == 0
