"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_harness.py -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import PER_LAYER_UNITS, HookError, Tracer  # noqa: E402
from workloads import CHECK_SEED, DEFAULT_SEED, WORKLOADS, check_output  # noqa: E402

cli = run.import_package()
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _with(wl, **flags):
    out = list(wl.flags)
    for name, value in flags.items():
        name = "--" + name
        if name in out:
            out[out.index(name) + 1] = value
        else:
            out += [name, value]
    return tuple(out)


TINY = {
    "cpa-d3": replace(WORKLOADS["cpa-d3"], flags=_with(WORKLOADS["cpa-d3"], kgrid="8")),
    "cpa-d1": replace(WORKLOADS["cpa-d1"], size=20, flags=_with(WORKLOADS["cpa-d1"], kgrid="256")),
    "mc-lattice": replace(WORKLOADS["mc-lattice"], size=2, eigs_per_unit=2 * 8 * 4,
                          flags=_with(WORKLOADS["mc-lattice"], extents="4")),
    "mc-flat": replace(WORKLOADS["mc-flat"], size=20),
}
# One metric per layer that is nonzero exactly when the layer ran.
LAYER_SIGNAL = {
    "bzquad": "bzquad.calls",
    "cpa": "cpa.sweep_s",
    "linalg": "linalg.cholesky_calls",
    "ensemble": "ensemble.samples",
    "model": "model.assemble_K_s",
    "cli": "cli.self_s",
}


@pytest.fixture(autouse=True)
def _scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER_UNITS)
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER_UNITS.values())
    records = [{"wall_s": 1.0, "kernel_s": 0.02, "failed": 0}]
    names = run.end_to_end(TINY["mc-flat"], records, [(0.1, 0.02)], 40.0, 20, 0)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(names)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_loop_checks_outputs_and_covers_layers(name):
    wl = TINY[name]
    records, spans = run.run_loop(cli, wl, CHECK_SEED, 0.0, trace=True)
    assert [r["traced"] for r in records] == [i % 2 == 1 for i in range(run.MIN_TIMED)]
    assert all(r["kernel_s"] > 0 for r in records)
    assert all(r["failed"] == 0 and not r["problems"] for r in records)
    assert len(spans) == sum(r["traced"] for r in records)
    assert all(parent < index for inv in spans for index, (_, _, _, parent) in enumerate(inv))
    metrics = run.per_layer(records)
    assert set(metrics) == set(PER_LAYER_UNITS)
    for layer, metric in LAYER_SIGNAL.items():
        ran = layer in wl.layers
        assert (metrics[metric] > 0) == ran, (layer, metrics[metric])
    if wl.mode == "cpa-dos":
        assert metrics["cpa.calls_per_point"] == metrics["bzquad.calls"] / wl.size
    else:
        assert metrics["ensemble.samples"] == wl.size
        # flat-band H is singular, lattice H is definite
        assert (metrics["linalg.shifted_ratio"] > 0) == (name == "mc-flat")


def test_missing_hook_target_fails_loudly(monkeypatch):
    import bosondos.cli
    import bosondos.ensemble

    original = bosondos.ensemble.cholesky_psd
    monkeypatch.delattr(bosondos.cli, "dos_curve")
    with pytest.raises(HookError, match="bosondos.cli.dos_curve"):
        Tracer().install()
    assert bosondos.ensemble.cholesky_psd is original


def test_layer_without_calls_fails_loudly():
    wl = replace(TINY["cpa-d1"], layers=("cli", "cpa", "bzquad", "linalg"))
    with pytest.raises(run.BenchError, match="linalg"):
        run.run_loop(cli, wl, CHECK_SEED, 0.0, trace=True)


def _rewrite(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def test_checks_fail_bad_outputs(tmp_path):
    wl = TINY["cpa-d1"]
    out = tmp_path / "cpa.csv"
    assert cli.main(wl.argv(CHECK_SEED, str(out))) == 0
    assert check_output(wl, CHECK_SEED, out) == (0, [])

    def unconverge_last(lines):
        *fields, _ = lines[-1].split(",")
        return lines[:-1] + [",".join(fields + ["inf"])]

    _rewrite(out, unconverge_last)
    assert check_output(wl, CHECK_SEED, out) == (1, [])

    def double_rho(lines):
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        rows = [line.split(",") for line in lines[header + 1:]]
        return lines[:header + 1] + [
            ",".join([r[0], repr(2 * float(r[1]))] + r[2:]) for r in rows
        ]

    _rewrite(out, double_rho)
    failed, problems = check_output(wl, CHECK_SEED, out)
    assert failed == wl.size and "normalization" in problems[0]

    wl = TINY["mc-flat"]
    out = tmp_path / "mc.csv"
    assert cli.main(wl.argv(CHECK_SEED, str(out))) == 0
    assert check_output(wl, CHECK_SEED, out) == (0, [])
    _rewrite(out, lambda lines: [
        line.replace("zero_mode_count = ", "zero_mode_count = 1") for line in lines
    ])
    failed, problems = check_output(wl, CHECK_SEED, out)
    assert failed == wl.size and problems


@pytest.mark.parametrize("name", ["cpa-d1", "mc-flat"])
def test_default_seed_matches_reference(name, tmp_path):
    record = run.invoke(cli, WORKLOADS[name], DEFAULT_SEED, tmp_path / "out.csv")
    assert record["failed"] == 0 and record["problems"] == []


def test_fresh_process_probes():
    rss_mb, setup = run.probe_fresh(WORKLOADS["mc-flat"], CHECK_SEED)
    assert 10 < rss_mb < 1000
    assert len(setup) == run.SETUP_REPEATS
    assert all(0 < seconds < 60 and kernel > 0 for seconds, kernel in setup)


def test_reference_seconds_follow_host_speed():
    ref = run.calibration.REFERENCE_S
    assert run.reference_s(2.0, ref) == 2.0
    assert run.reference_s(2.0, 2 * ref) == 1.0  # a host at half speed


def test_seeded_inputs():
    wl = WORKLOADS["cpa-d1"]
    assert wl.argv(5, "x") == wl.argv(5, "x")
    assert wl.argv(5, "x") != wl.argv(6, "x")
    lo = float(wl.argv(DEFAULT_SEED, "x")[wl.argv(DEFAULT_SEED, "x").index("--omega-min") + 1])
    assert lo == 3.0 / wl.size
    grid = wl.omega_grid(CHECK_SEED)
    assert 3.0 / wl.size < grid[0] < 2 * 3.0 / wl.size and grid[-1] == 3.0
    assert WORKLOADS["mc-flat"].argv(7, "x")[-3:] == ["7", "--out", "x"]


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cpa-d1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert "no bosondos sources" in done.stderr
