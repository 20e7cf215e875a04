"""End-to-end command-line behavior, run in-process."""

import argparse
import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import logging
import os
import select
import signal
import socket
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llab import _num, cli, core, synth
from llab.classify import auprc_from_grid, dsa_eval, fit_grid
from llab.cli import (
    build_parser,
    main,
    parse_duration_ms,
    parse_fpr_caps,
    parse_windows,
    read_trace_file,
    write_trace_file,
)
from llab.core import (
    ABSENT,
    COLUMNS,
    DEFAULT_DT_NS,
    DEGRADED,
    DIRECTIONS,
    GOOD,
    Trace,
    parse_trace,
)
from llab.probe import (
    FLAG_SERVER_ECHO,
    ProbeConfig,
    ProbePacket,
    ProbeServer,
    decode_packet,
    encode_packet,
)
from llab.segment import Segmentation, SegmentationConfig, period_bins, period_matrix
from llab.synth import (
    GaussianNoise,
    GroundTruth,
    MixtureNoise,
    ParetoTailNoise,
    PeriodMeanModel,
    SpikeTemplate,
    SynthConfig,
)


def run_pipeline(tmp_path, seed="1"):
    """Small synthetic end to end; returns the artifact directory."""
    p = lambda n: str(tmp_path / n)
    steps = [
        ["synth", "--seed", seed, "--periods", "30", "--T-ms", "1000",
         "--dt-ms", "2", "--phase", "40", "--noise-sigma", "1.5",
         "--out", p("t.csv"), "--truth", p("g.json")],
        ["validate", "--trace", p("t.csv"), "--out", p("v.json")],
        ["segment", "--trace", p("t.csv"), "--S", "500", "--out", p("seg.json")],
        ["profile", "--trace", p("t.csv"), "--seg", p("seg.json"),
         "--out", p("prof.csv")],
        ["fit", "--trace", p("t.csv"), "--seg", p("seg.json"),
         "--model", "gaussian", "--period", "0", "--out", p("m.json")],
        ["evaluate", "--trace", p("t.csv"), "--seg", p("seg.json"),
         "--models", "uniform,gaussian,empirical", "--windows", "100,300",
         "--out", p("report.json")],
        ["dsa", "--trace", p("t.csv"), "--seg", p("seg.json"),
         "--model", "gaussian", "--window", "300", "--out", p("dsa.csv")],
        ["dsa", "--trace", p("t.csv"), "--seg", p("seg.json"),
         "--model", "gaussian", "--window", "300", "--out", p("dsa.json")],
    ]
    for s in steps:
        assert main(s) == 0, s
    return tmp_path


class TestArgumentHelpers:
    def test_durations(self):
        assert parse_duration_ms("2ms") == 2.0
        assert parse_duration_ms("5s") == 5000.0
        assert parse_duration_ms("3.5") == 3.5
        assert parse_duration_ms("1.6S") == 1600.0
        with pytest.raises(argparse.ArgumentTypeError):
            parse_duration_ms("fast")

    @pytest.mark.parametrize("text", ["inf", "nan", "-infms", "infs", "1e308s"])
    def test_non_finite_durations_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="not finite"):
            parse_duration_ms(text)

    def test_window_lists(self):
        assert parse_windows("100,500,1s") == [100.0, 500.0, 1000.0]
        with pytest.raises(argparse.ArgumentTypeError, match="is empty"):
            parse_windows(",")
        for text in ("-5,100", "0,100", "100,0ms"):
            with pytest.raises(argparse.ArgumentTypeError, match="must be > 0"):
                parse_windows(text)

    def test_fpr_caps(self):
        assert parse_fpr_caps("0.05,0.10") == [0.05, 0.10]
        assert parse_fpr_caps("0, 1,") == [0.0, 1.0]
        args = build_parser().parse_args(["dsa", "--trace", "t.csv", "--out", "d.csv"])
        assert args.max_fpr == [0.05, 0.10]

    @pytest.mark.parametrize("caps", ["abc", "nan", ",", "", "inf", "1.5", "-0.01", "0.05,x"])
    def test_bad_fpr_caps_are_usage_errors(self, tmp_path, caps):
        # refused while the options are read, before the (absent) trace is
        with pytest.raises(SystemExit) as e:
            main(["dsa", "--trace", str(tmp_path / "absent.csv"), "--max-fpr", caps,
                  "--out", str(tmp_path / "d.json")])
        assert e.value.code == 1
        assert not (tmp_path / "d.json").exists()

    def test_evaluate_default_models_are_closed_form(self):
        args = build_parser().parse_args(["evaluate", "--trace", "t.csv", "--out", "r.json"])
        assert args.models == ["gaussian", "empirical"]

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--models", ","],
        ["evaluate", "--models", ""],
        ["evaluate", "--q", "0.99"],  # gone: evaluate always scores p99
        ["evaluate", "--lt-ms", "nan"],
        ["evaluate", "--windows", "100,nan"],
        ["fit", "--model", "gaussian", "--window", "-5"],
        ["dsa", "--window", "0"],
        ["evaluate", "--lt-ms", "-5"],
        ["evaluate", "--lt-ms", "0"],
        ["dsa", "--lt-ms", "-5"],
        ["synth", "--lt-ms", "-5"],
        ["evaluate", "--windows=-5,100"],
        ["evaluate", "--windows", "0,100"],
        ["evaluate", "--windows", "0:1s:500ms"],
        ["fit", "--model", "gaussian", "--window", "0"],
        ["dsa", "--window=-5"],
    ])
    def test_bad_analysis_options_are_usage_errors(self, tmp_path, argv):
        # refused while the options are read, before the (absent) trace is
        io = ["--out", str(tmp_path / "out.json")]
        if argv[0] != "synth":
            io += ["--trace", str(tmp_path / "absent.csv")]
        with pytest.raises(SystemExit) as e:
            main(argv + io)
        assert e.value.code == 1
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("argv", [["synth"], ["fit", "--model", "gaussian"], ["evaluate"],
                                      ["dsa"]])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, argv):
        # refused while the options are read, before the (absent) trace is
        io = ["--out", str(tmp_path / "out.json")]
        if argv[0] != "synth":
            io += ["--trace", str(tmp_path / "absent.csv")]
        with pytest.raises(SystemExit) as e:
            main([*argv, "--seed", "-1", *io])
        assert e.value.code == 1
        assert "argument --seed:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unparsable_seed_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            main(["synth", "--seed", "x", "--out", str(tmp_path / "t.csv")])
        assert e.value.code == 1
        assert "cannot parse seed 'x'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["synth", "--out", str(tmp_path / "t.csv"), "--bogus"])
        assert e.value.code == 1

    def test_threads_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["--threads", "2", "evaluate", "--trace", str(tmp_path / "t.csv"),
                  "--out", str(tmp_path / "r.json")])
        assert e.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["validate", "--in", "t.csv", "--out", "v.json"],
        ["figure", "--kind", "profile", "--in", "t.csv", "--out", "f.csv"],
        ["synth", "--out", "t.csv", "--truth-out", "g.json"],
        ["fit", "--trace", "t.csv", "--model", "gaussian", "--window-ms", "100",
         "--out", "m.json"],
        ["dsa", "--trace", "t.csv", "--window-ms", "100", "--out", "d.csv"],
        ["evaluate", "--trace", "t.csv", "--lt", "50ms", "--out", "r.json"],
        ["fit", "--trace", "t.csv", "--model", "gmm", "--k", "3", "--out", "m.json"],
        ["synth", "--out", "t.csv", "--format", "csv"],
        ["validate", "--trace", "t.csv", "--format", "csv", "--out", "v.json"],
        ["probe-client", "--port", "9000", "--out", "p.csv", "--format", "csv"],
        ["fit", "--trace", "t.csv", "--model", "gpd", "--gpd-k", "30", "--out", "m.json"],
        ["segment", "--trace", "t.csv", "--c", "4", "--out", "s.json"],
        ["--seed", "1", "synth", "--out", "t.csv"],
        ["validate", "--trace", "t.csv", "--seed", "1", "--out", "v.json"],
        ["evaluate", "--trace", "t.csv", "--windows", "0.5s:2s:500ms", "--out", "r.json"],
    ])
    def test_second_spellings_are_gone(self, argv):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 1

    def test_option_inventory(self):
        # every option of every command, in order; a new knob edits this on purpose
        common = ["--log-level", "--trace", "--column", "--seg"]
        expected = {
            "synth": ["--log-level", "--out", "--truth", "--periods", "--T-ms", "--dt-ms",
                      "--phase", "--noise-kind", "--noise-sigma", "--loss-rate", "--seed"],
            "validate": ["--log-level", "--trace", "--out"],
            "segment": ["--log-level", "--trace", "--column", "--S", "--out"],
            "profile": common + ["--out"],
            "fit": common + ["--model", "--period", "--window", "--seed", "--out"],
            "evaluate": common + ["--truth", "--models", "--windows", "--lt-ms", "--seed",
                                  "--out"],
            "dsa": common + ["--truth", "--model", "--window", "--max-fpr", "--lt-ms",
                             "--seed", "--out"],
            "probe-server": ["--log-level", "--host", "--port"],
            "probe-client": ["--log-level", "--host", "--port", "--duration", "--interval",
                             "--payload-size", "--receive-timeout", "--out"],
            "figure": ["--log-level", "--kind", "--trace", "--column", "--seg", "--report",
                       "--model", "--out"],
        }

        def options(parser):
            return [s for a in parser._actions if not isinstance(a, argparse._HelpAction)
                    for s in a.option_strings]

        top = build_parser()
        (sub,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
        assert options(top) == []
        assert {name: options(p) for name, p in sub.choices.items()} == expected
        assert sum(map(len, expected.values())) == 73

    def test_config_field_inventory(self):
        # every settable field of a config class; a new knob edits this on purpose
        expected = {
            SegmentationConfig: ["S"],
            SynthConfig: ["n_periods", "T_ms", "dt_ms", "phase_offset", "period_mean",
                          "noise", "spike", "loss_rate", "seed"],
            PeriodMeanModel: ["mean_ms", "sigma_ms"],
            GaussianNoise: ["sigma_ms"],
            MixtureNoise: ["weights", "offsets_ms", "sigmas_ms"],
            ParetoTailNoise: ["body_sigma_ms"],
            SpikeTemplate: ["head_duration_ms", "tail_duration_ms", "head_peak_ms",
                            "tail_peak_ms"],
            ProbeConfig: ["host", "port", "interval_ns", "duration_s", "payload_size",
                          "receive_timeout_ms"],
        }
        assert {cls: [f.name for f in dataclasses.fields(cls)] for cls in expected} == expected

    def test_every_default_interval_is_the_probe_schedule(self):
        dt_ms = DEFAULT_DT_NS / 1e6
        assert dt_ms == 2.0
        assert SynthConfig().dt_ms == dt_ms and SynthConfig().dt_ns == DEFAULT_DT_NS
        assert ProbeConfig().interval_ns == DEFAULT_DT_NS
        assert SegmentationConfig().S == period_bins(DEFAULT_DT_NS) == SynthConfig().S == 7500
        top = build_parser()
        (sub,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
        assert sub.choices["synth"].get_default("dt_ms") == dt_ms
        assert sub.choices["probe-client"].get_default("interval") == dt_ms

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 1

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        rc = main(["validate", "--trace", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "v.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_no_partial_output_on_failure(self, tmp_path):
        out = tmp_path / "v.json"
        rc = main(["validate", "--trace", str(tmp_path / "absent.csv"),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert not list(tmp_path.glob(".llab-*"))  # no temp litter either

    def test_a_temp_file_gone_before_its_cleanup_leaves_no_file(self, tmp_path, capsys,
                                                                 monkeypatch):
        def replace(src, dst):  # the rename fails after something removed the temp file
            os.unlink(src)
            raise OSError(errno.EIO, "rename failed", dst)

        monkeypatch.setattr(os, "replace", replace)
        assert main(["synth", "--periods", "2", "--dt-ms", "2",
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert "rename failed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["validate", "--trace", "t.csv"],
                                      ["synth", "--periods", "2", "--dt-ms", "2"]])
    def test_unwritable_output_names_the_output(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--periods", "2", "--dt-ms", "2", "--out", "t.csv"]) == 0
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        assert main([*argv, "--out", "nodir/out.csv"]) == 2
        err = capsys.readouterr().err
        assert err == "llab: error: [Errno 2] No such file or directory: 'nodir/out.csv'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 112. GiB for an array with shape (15000000000,) and data type "
         "float64", "Unable to allocate 112. GiB"),
        ("", "out of memory"),
    ])
    def test_out_of_memory_is_a_runtime_error(self, tmp_path, capsys, monkeypatch, message,
                                              shown):
        # as `synth --dt-ms 0.0001` meets it, asking for 15e9 samples
        def no_room(config):
            raise MemoryError(message)

        monkeypatch.setattr(synth, "generate", no_room)
        rc = main(["synth", "--out", str(tmp_path / "x.csv"), "--dt-ms", "0.0001"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"llab: error: {shown}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_jsonl_trace_is_a_runtime_error(self, tmp_path, capsys):
        src = tmp_path / "t.jsonl"
        src.write_text('{"seq":0,"t_send_ns":100,"ul_ns":30,"lost":false}\n')
        out = tmp_path / "v.json"
        assert main(["validate", "--trace", str(src), "--out", str(out)]) == 2
        assert "line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_artifact_mode_follows_umask(self, tmp_path):
        out = tmp_path / "t.csv"
        old = os.umask(0o022)
        try:
            assert main(["synth", "--seed", "0", "--periods", "2", "--T-ms", "1000",
                         "--dt-ms", "2", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o644


class TestSynth:
    def test_writes_trace_and_truth(self, tmp_path):
        # T must hold the default 140 + 75 ms boundary spikes
        t, g = str(tmp_path / "t.csv"), str(tmp_path / "g.json")
        rc = main(["synth", "--seed", "1", "--periods", "3", "--T-ms", "1000",
                   "--dt-ms", "2", "--out", t, "--truth", g])
        assert rc == 0
        with open(t, "rb") as f:
            trace = parse_trace(f.read())
        assert len(trace) == 1500
        with open(g) as f:
            truth = GroundTruth.from_json(f.read())
        assert len(truth.p99_ms) == 3

    def test_spike_too_wide_for_period_is_an_error(self, tmp_path):
        rc = main(["synth", "--seed", "1", "--periods", "3", "--T-ms", "200",
                   "--dt-ms", "2", "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        # 140 + 75 ms spikes fill a 215-bin period: no stable core is left,
        # so synth refuses the trace that segment would refuse
        rc = main(["synth", "--T-ms", "215", "--dt-ms", "1",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("kind", ["gaussian", "mixture", "pareto"])
    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_noise_sigma_is_a_config_error(self, tmp_path, capsys, kind, sigma):
        t = tmp_path / "t.csv"
        rc = main(["synth", "--noise-kind", kind, "--noise-sigma", sigma, "--out", str(t)])
        assert rc == 2
        assert "sigma" in capsys.readouterr().err
        assert not t.exists()

    def test_subnormal_noise_sigma_warns_nothing(self, tmp_path, capsys):
        # under warnings-as-errors an overflow in the mixture's CDF would raise
        t = tmp_path / "t.csv"
        assert main(["synth", "--noise-kind", "mixture", "--noise-sigma", "1e-308",
                     "--T-ms", "1000", "--periods", "2", "--out", str(t)]) == 0
        assert capsys.readouterr().err == ""
        assert t.exists()

    @pytest.mark.parametrize("kind", ["gaussian", "mixture", "pareto"])
    def test_delay_past_int64_ns_is_a_config_error(self, tmp_path, capsys, kind):
        # refused before the int64 cast, which would warn and wrap
        t, g = tmp_path / "t.csv", tmp_path / "g.json"
        rc = main(["synth", "--noise-kind", kind, "--noise-sigma", "1e300", "--T-ms", "1000",
                   "--periods", "2", "--out", str(t), "--truth", str(g)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("llab: error: uplink delay ") and err.count("\n") == 1, err
        assert "int64" in err
        assert list(tmp_path.iterdir()) == []

    def test_period_mean_with_no_mass_above_the_floor_is_a_config_error(self, tmp_path,
                                                                          capsys):
        # its means are drawn as inf; the CLI has no mean option, so the
        # config is patched in
        t = tmp_path / "t.csv"
        bad = PeriodMeanModel(mean_ms=-100.0, sigma_ms=1.0)
        with mock.patch.object(synth, "SynthConfig",
                               lambda **kw: SynthConfig(period_mean=bad, **kw)):
            rc = main(["synth", "--T-ms", "1000", "--periods", "2", "--out", str(t)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "llab: error: uplink delay inf ms plus the 20.0 ms downlink " \
                      "does not fit int64 ns\n"
        assert list(tmp_path.iterdir()) == []

    def test_shortest_period_synth_writes_segments(self, tmp_path):
        t = str(tmp_path / "t.csv")
        assert main(["synth", "--T-ms", "216", "--dt-ms", "1", "--out", t]) == 0
        assert main(["segment", "--trace", t, "--S", "216",
                     "--out", str(tmp_path / "seg.json")]) == 0


class TestPipeline:
    def test_full_flow_artifacts(self, tmp_path):
        d = run_pipeline(tmp_path)

        seg = json.loads((d / "seg.json").read_text())
        assert seg["s_star"] == 40.0
        kept = [q for q in seg["periods"] if not q["excluded"]]
        assert len(kept) == 29

        report = json.loads((d / "report.json").read_text())
        assert set(report["per_model"]) == {"uniform", "gaussian", "empirical"}
        for name, curves in report["per_model"].items():
            assert len(curves["mse_curve"]) == 2
            assert len(curves["auprc_curve"]) == 2
            assert all(r["mse_ms2"] is not None for r in curves["mse_curve"])
            assert all(r["n_unconverged"] == 0 for r in curves["mse_curve"])

        # dsa writes its JSON report whatever --out's suffix
        assert (d / "dsa.csv").read_bytes() == (d / "dsa.json").read_bytes()

        dsa = json.loads((d / "dsa.json").read_text())
        for pt in dsa["points"]:
            assert pt["dsa"] <= pt["sa"] + 1e-12

        model = json.loads((d / "m.json").read_text())
        assert model["type"] == "gaussian"

        prof = (d / "prof.csv").read_text().splitlines()
        assert prof[0] == "s,ms"
        assert len(prof) == 1 + 500

    def test_figures_from_pipeline(self, tmp_path):
        d = run_pipeline(tmp_path)
        p = lambda n: str(d / n)
        assert main(["figure", "--kind", "profile", "--trace", p("t.csv"),
                     "--seg", p("seg.json"), "--out", p("f1.csv")]) == 0
        assert main(["figure", "--kind", "mse", "--report", p("report.json"),
                     "--model", "gaussian", "--out", p("f2.csv")]) == 0
        assert main(["figure", "--kind", "auprc", "--report", p("report.json"),
                     "--model", "empirical", "--out", p("f3.csv")]) == 0
        assert main(["figure", "--kind", "dsa", "--report", p("dsa.json"),
                     "--out", p("f4.csv")]) == 0

        f1 = (d / "f1.csv").read_text().splitlines()
        assert f1[0] == "s_ms,centered_ms"
        assert len(f1) == 1 + 500
        f2 = (d / "f2.csv").read_text().splitlines()
        assert f2[0] == "w_ms,mse_ms2"
        assert [float(r.split(",")[0]) for r in f2[1:]] == [100.0, 300.0]
        f3 = (d / "f3.csv").read_text().splitlines()
        assert f3[0] == "w_ms,auprc"
        f4 = (d / "f4.csv").read_text().splitlines()
        assert f4[0] == "max_fpr,threshold,w_ms,sa,tpr,fpr,dsa"
        assert len(f4) == 3

    def test_figure_errors(self, tmp_path):
        d = run_pipeline(tmp_path)
        p = lambda n: str(d / n)
        # series that is not in the report
        assert main(["figure", "--kind", "mse", "--report", p("report.json"),
                     "--model", "gpd", "--out", p("x.csv")]) == 2
        # profile without a trace
        assert main(["figure", "--kind", "profile", "--out", p("x.csv")]) == 2
        # dsa against a report that has no points
        assert main(["figure", "--kind", "dsa", "--report", p("report.json"),
                     "--out", p("x.csv")]) == 2
        assert not (d / "x.csv").exists()

    def test_curve_figure_needs_a_report(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert main(["figure", "--kind", "mse", "--model", "gaussian", "--out", str(out)]) == 2
        assert "figure mse needs --report" in capsys.readouterr().err
        assert not out.exists()

    def test_an_empty_curve_has_no_figure(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        report.write_text('{"per_model": {"gaussian": {"mse_curve": []}}}')
        out = tmp_path / "f.csv"
        assert main(["figure", "--kind", "mse", "--report", str(report), "--model", "gaussian",
                     "--out", str(out)]) == 2
        assert "report holds no mse_curve for 'gaussian'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["mse", "auprc"])
    def test_curve_figure_needs_a_model(self, tmp_path, capsys, kind):
        report = tmp_path / "r.json"
        report.write_text('{"per_model": {}}')
        out = tmp_path / "f.csv"
        assert main(["figure", "--kind", kind, "--report", str(report), "--out", str(out)]) == 2
        assert f"figure {kind} needs --model" in capsys.readouterr().err
        assert not out.exists()

    def test_truth_labels_can_replace_realized_ones(self, tmp_path):
        d = run_pipeline(tmp_path)
        p = lambda n: str(d / n)
        assert main(["evaluate", "--trace", p("t.csv"), "--seg", p("seg.json"),
                     "--truth", p("g.json"), "--models", "gaussian",
                     "--windows", "100", "--out", p("r2.json")]) == 0
        r2 = json.loads((d / "r2.json").read_text())
        assert r2["per_model"]["gaussian"]["auprc_curve"][0]["n_scored"] == 29

    def test_truth_shorter_than_the_segmentation_is_a_runtime_error(self, tmp_path, capsys):
        d = run_pipeline(tmp_path)
        truth = json.loads((d / "g.json").read_text())
        short = {k: truth[k][:5] for k in ("p99_ms", "period_means_ms")}
        (d / "short.json").write_text(json.dumps({**truth, **short}))
        capsys.readouterr()
        assert main(["evaluate", "--trace", str(d / "t.csv"), "--seg", str(d / "seg.json"),
                     "--truth", str(d / "short.json"), "--out", str(d / "r2.json")]) == 2
        assert "ground truth has fewer periods than the segmentation" in capsys.readouterr().err
        assert not (d / "r2.json").exists()

    def test_truth_labels_follow_the_commands_target(self, tmp_path):
        # synth takes no target: evaluate and dsa label the truth's periods
        # at their own --lt-ms, also from a truth file that still stores the
        # labels synth once wrote at 50 ms
        d = run_pipeline(tmp_path)
        p = lambda n: str(d / n)
        truth = json.loads((d / "g.json").read_text())
        seg = Segmentation.from_json((d / "seg.json").read_text())
        at = lambda lt, ps: [GOOD if truth["p99_ms"][k] <= lt else DEGRADED for k in ps]
        kept = list(seg.kept)
        labels = at(40.0, kept)
        assert labels != at(50.0, kept)
        (d / "old.json").write_text(json.dumps(
            {**truth, "labels": at(50.0, range(len(truth["p99_ms"])))}))

        lo, hi = seg.core_bins
        core = period_matrix(read_trace_file(p("t.csv")).delay_ms("ul"), seg)[:, lo:hi]
        grid = fit_grid(core, 2.0, [100.0, 300.0], ["gaussian"], 40.0)
        want_auprc = [a.auprc for a in auprc_from_grid(grid, labels)["gaussian"]]
        want_dsa = [dataclasses.asdict(x) for x in
                    dsa_eval(core, labels, 2.0, 300.0, "gaussian", 40.0, [0.05, 0.10], 1000.0)]
        assert want_auprc != [a.auprc for a in
                              auprc_from_grid(grid, at(50.0, kept))["gaussian"]]
        for name in ("g.json", "old.json"):
            common = ["--trace", p("t.csv"), "--seg", p("seg.json"), "--truth", p(name),
                      "--lt-ms", "40"]
            assert main(["evaluate", *common, "--models", "gaussian", "--windows", "100,300",
                         "--out", p("r.json")]) == 0
            r = json.loads((d / "r.json").read_text())["per_model"]["gaussian"]
            assert [a["auprc"] for a in r["auprc_curve"]] == want_auprc
            assert main(["dsa", *common, "--model", "gaussian", "--window", "300",
                         "--out", p("d.json")]) == 0
            assert json.loads((d / "d.json").read_text())["points"] == want_dsa

    def test_reruns_are_byte_identical(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = run_pipeline(tmp_path / "a")
        b = run_pipeline(tmp_path / "b")
        for name in ("t.csv", "g.json", "seg.json", "prof.csv", "m.json",
                     "report.json", "dsa.csv", "dsa.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


@st.composite
def traces(draw):
    """Traces that write_trace accepts: one row or more, lost rows, directions
    absent throughout or on some rows, and seq gaps."""
    carried = [draw(st.booleans()) for _ in DIRECTIONS]
    seq, t = draw(st.integers(0, 10)), draw(st.integers(0, 10**15))
    rows = []
    for _ in range(draw(st.integers(1, 30))):
        lost = draw(st.booleans())
        delays = [draw(st.one_of(st.just(ABSENT), st.integers(0, 10**12)))
                  if c and not lost else ABSENT for c in carried]
        rows.append((seq, t, *delays, lost))
        seq += draw(st.integers(1, 1000))
        t += draw(st.integers(0, 10**7))
    seq, t, ul, dl, rtt, lost = (np.array(c) for c in zip(*rows))
    return Trace(seq.astype(np.uint64), t, ul, dl, rtt, lost.astype(bool), 2_000_000)


def spanning_trace():
    """Two sends 2**63 - 1 ns apart, the widest gap of a trace."""
    return Trace(np.arange(2, dtype=np.uint64), np.array([0, 2**63 - 1]),
                 np.ones(2, np.int64), np.ones(2, np.int64), np.full(2, 2), np.zeros(2, bool), 1)


def side_file_log(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if "side file" in r.getMessage()]


def side_file(trace_path: Path) -> Path:
    return trace_path.parent / (trace_path.name + cli.SIDE_SUFFIX)


def read_records(side: Path) -> list[np.ndarray]:
    """A side file's records: the CSV's digest, then the columns."""
    with open(side, "rb") as f:
        return [np.load(f) for _ in range(1 + len(COLUMNS))]


def write_records(side: Path, records) -> None:
    with open(side, "wb") as f:
        for a in records:
            np.save(f, a)


class TestSideFile:
    """`<trace>.npy` beside a trace file: the CSV's digest, then the columns."""

    @pytest.fixture
    def t(self, tmp_path):
        t = tmp_path / "t.csv"
        assert main(["synth", "--seed", "0", "--periods", "2", "--T-ms", "1000",
                     "--dt-ms", "2", "--loss-rate", "0.01", "--out", str(t)]) == 0
        return t

    @settings(max_examples=60, deadline=None)
    @given(traces())
    @example(spanning_trace())
    def test_loaded_trace_equals_parsed_csv(self, trace):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.csv")
            write_trace_file(path, trace)
            with open(path, "rb") as f:
                parsed = parse_trace(f.read())
            with mock.patch.object(core, "parse_trace", side_effect=AssertionError("parsed")):
                loaded = read_trace_file(path)
        assert loaded == parsed  # dt_nominal included

    def test_synth_writes_side_file_and_commands_load_it(self, t, caplog):
        caplog.set_level(logging.INFO, logger="llab")
        assert side_file(t).is_file()
        assert main(["validate", "--trace", str(t), "--out", str(t.parent / "v.json"),
                     "--log-level", "info"]) == 0
        assert side_file_log(caplog) == [f"loaded {t} from its side file"]
        assert sorted(p.name for p in t.parent.iterdir()) == ["t.csv", side_file(t).name,
                                                              "v.json"]

    def test_each_main_call_logs_at_its_own_level(self, t):
        # in one process, as an embedding program calls main: the first call
        # logs nothing at the default level, each later one once at its own
        code = ("import sys\nfrom llab.cli import main\n"
                "args = ['validate', '--trace', sys.argv[1], '--out', sys.argv[2]]\n"
                "sys.exit(main(args) or main([*args, '--log-level', 'info'])\n"
                "         or main([*args, '--log-level', 'info']))\n")
        done = subprocess.run([sys.executable, "-c", code, str(t), str(t.parent / "v.json")],
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == f"INFO llab: loaded {t} from its side file\n" * 2

    def test_missing_side_file_parses(self, t, caplog):
        caplog.set_level(logging.INFO, logger="llab")
        side_file(t).unlink()
        assert read_trace_file(str(t)) == parse_trace(t.read_bytes())
        assert side_file_log(caplog) == [f"parsed {t}: side file missing"]
        assert not side_file(t).exists()  # reading writes no side file

    def test_an_old_npz_side_file_is_neither_read_nor_deleted(self, t, caplog):
        caplog.set_level(logging.INFO, logger="llab")
        digest, *cols = read_records(side_file(t))
        old = t.parent / "t.csv.npz"  # the zip that held the side file before
        with open(old, "wb") as f:
            np.savez(f, sha256=digest, **dict(zip(COLUMNS, cols)))
        before = old.read_bytes()
        side_file(t).unlink()
        assert read_trace_file(str(t)) == parse_trace(t.read_bytes())
        assert side_file_log(caplog) == [f"parsed {t}: side file missing"]
        assert old.read_bytes() == before
        assert sorted(p.name for p in t.parent.iterdir()) == ["t.csv", "t.csv.npz"]

    @pytest.mark.parametrize("piece", [None, 4096])
    def test_a_whole_csv_sha256_is_stale(self, t, piece, monkeypatch, caplog):
        # side files written before the piecewise digest record the CSV's sha256;
        # the CSV is one 1 MiB piece, or 14 pieces of 4 KiB hashed on every CPU
        if piece:
            monkeypatch.setattr(cli, "_DIGEST_PIECE", piece)
        caplog.set_level(logging.INFO, logger="llab")
        side = side_file(t)
        _, *cols = read_records(side)
        write_records(side, [np.array(hashlib.sha256(t.read_bytes()).hexdigest()), *cols])
        before = side.read_bytes()
        assert read_trace_file(str(t)) == parse_trace(t.read_bytes())
        assert side_file_log(caplog) == [f"parsed {t}: side file stale"]
        assert side.read_bytes() == before  # a read rewrites no side file
        assert sorted(p.name for p in t.parent.iterdir()) == ["t.csv", side.name]

    def test_side_file_of_an_earlier_trace_is_stale(self, t, caplog):
        caplog.set_level(logging.INFO, logger="llab")
        old = read_trace_file(str(t))
        lines = t.read_bytes().split(b"\n")
        lines[1] = b"0,0,1,2,4,0"  # the first row, rewritten by hand
        t.write_bytes(b"\n".join(lines))
        new = read_trace_file(str(t))
        assert new == parse_trace(t.read_bytes()) and new != old
        assert side_file_log(caplog)[-1] == f"parsed {t}: side file stale"

    @pytest.mark.parametrize("kind", ["truncated", "garbage", "bare npy", "pickled",
                                      "missing key", "wrong length", "wrong dtype",
                                      "seq decreasing", "digest alone", "extra record",
                                      "digest not unicode", "zip archive", "directory",
                                      "impossible shape", "negative t_send"])
    def test_unusable_side_file_parses(self, t, kind, caplog):
        caplog.set_level(logging.INFO, logger="llab")
        side = side_file(t)
        # the digest still matches: only the damage can be at fault
        digest, *columns = read_records(side)
        cols = dict(zip(COLUMNS, columns))
        if kind == "truncated":
            side.write_bytes(side.read_bytes()[:side.stat().st_size // 2])
        elif kind == "garbage":
            side.write_bytes(b"not a numpy record\n" * 64)
        elif kind == "bare npy":  # one column record alone
            write_records(side, [cols["seq"]])
        elif kind == "digest alone":
            write_records(side, [digest])
        elif kind == "extra record":
            write_records(side, [digest, *cols.values(), cols["seq"]])
        elif kind == "digest not unicode":  # as bytes, str() of it would read as stale
            write_records(side, [np.array(str(digest).encode()), *cols.values()])
        elif kind == "zip archive":  # np.load would open it as an .npz
            with open(side, "wb") as f:
                np.savez(f, sha256=digest, **cols)
        elif kind == "directory":
            side.unlink()
            side.mkdir()
        elif kind == "impossible shape":  # the seq record claims 8 TiB
            with open(side, "wb") as f:
                np.save(f, digest)
                np.lib.format.write_array_header_1_0(
                    f, {"descr": "<u8", "fortran_order": False, "shape": (2**40,)})
                f.write(cols.pop("seq").tobytes())
                for a in cols.values():
                    np.save(f, a)
        else:
            if kind == "pickled":
                cols["lost"] = cols["lost"].astype(object)
            elif kind == "missing key":  # the rtt record left out
                del cols["rtt"]
            elif kind == "wrong length":
                cols["ul"] = cols["ul"][:-1]
            elif kind == "wrong dtype":
                cols["ul"] = cols["ul"].astype(np.int32)
            elif kind == "negative t_send":  # still non-decreasing
                cols["t_send"] = cols["t_send"] - cols["t_send"][0] - 1
            else:  # right dtypes and lengths, but no Trace
                cols["seq"] = cols["seq"][::-1].copy()
            write_records(side, [digest, *cols.values()])
        assert read_trace_file(str(t)) == parse_trace(t.read_bytes())
        assert side_file_log(caplog) == [f"parsed {t}: side file unreadable"]
        assert main(["validate", "--trace", str(t), "--out", str(t.parent / "v.json")]) == 0
        intact = t.parent / "intact"
        intact.mkdir()
        (intact / t.name).write_bytes(t.read_bytes())  # with no side file beside it
        assert main(["validate", "--trace", str(intact / t.name),
                     "--out", str(intact / "v.json")]) == 0
        assert (t.parent / "v.json").read_bytes() == (intact / "v.json").read_bytes()

    def test_side_file_read_does_not_hold_the_csv(self, tmp_path):
        t = tmp_path / "t.csv"
        assert main(["synth", "--seed", "0", "--periods", "60", "--T-ms", "1000",
                     "--dt-ms", "1", "--out", str(t)]) == 0
        with mock.patch.object(core, "parse_trace", side_effect=AssertionError("parsed")):
            tracemalloc.start()
            try:
                trace = read_trace_file(str(t))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        columns = sum(getattr(trace, k).nbytes for k in COLUMNS)
        assert peak < t.stat().st_size + columns

    def test_stdout_gets_no_side_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--seed", "0", "--periods", "2", "--T-ms", "1000",
                     "--dt-ms", "2", "--out", "-"]) == 0
        assert capsys.readouterr().out.startswith("seq,")
        assert list(tmp_path.iterdir()) == []

    def test_failed_side_file_write_leaves_no_temp_file(self, tmp_path):
        def disk_full(f, a):
            f.write(b"\x93NUMPY")
            raise OSError(errno.ENOSPC, "No space left on device")

        t = tmp_path / "t.csv"
        with mock.patch.object(np, "save", side_effect=disk_full):
            rc = main(["synth", "--seed", "0", "--periods", "2", "--T-ms", "1000",
                       "--dt-ms", "2", "--out", str(t)])
        assert rc == 2
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_failed_csv_write_leaves_the_earlier_pair(self, t, monkeypatch):
        class DiskFull:
            """Passes the header and the first chunk on, then runs out of room."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def write(self, data):
                if self.writes == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.writes += 1
                return self.f.write(data)

        before = {p.name: p.read_bytes() for p in t.parent.iterdir()}
        real = core.write_trace
        monkeypatch.setattr(core, "_WRITE_CHUNK_ROWS", 100)
        monkeypatch.setattr(core, "write_trace", lambda trace, f: real(trace, DiskFull(f)))
        for out in (t, t.parent / "u.csv"):  # over the earlier pair, and to a new name
            assert main(["synth", "--seed", "1", "--periods", "2", "--T-ms", "1000",
                         "--dt-ms", "2", "--out", str(out)]) == 2
            assert {p.name: p.read_bytes() for p in t.parent.iterdir()} == before

    def test_synth_and_a_csv_parse_go_through_the_core_names(self, tmp_path):
        # the names perfbench wraps for its core.write and core.parse spans
        t = tmp_path / "t.csv"
        with mock.patch.object(core, "write_trace", wraps=core.write_trace) as write, \
                mock.patch.object(core, "parse_trace", wraps=core.parse_trace) as parse:
            assert main(["synth", "--seed", "0", "--periods", "2", "--T-ms", "1000",
                         "--dt-ms", "2", "--out", str(t)]) == 0
            assert (write.call_count, parse.call_count) == (1, 0)
            side_file(t).unlink()
            assert main(["validate", "--trace", str(t), "--out", str(tmp_path / "v.json")]) == 0
            assert (write.call_count, parse.call_count) == (1, 1)

    def test_trace_from_a_pipe_on_stdin(self, t, monkeypatch):
        r, w = os.pipe()
        os.write(w, t.read_bytes())  # 30 KB: fits the pipe's buffer
        os.close(w)
        with open(r, "rb") as stdin:
            monkeypatch.setattr(sys, "stdin", mock.Mock(buffer=stdin))
            assert read_trace_file("-") == parse_trace(t.read_bytes())

    def test_trace_from_a_named_pipe(self, tmp_path):
        # larger than a pipe's buffer, so written while it is read; a side file
        # beside the pipe is not looked up, as its digest cannot be read from a pipe
        t = tmp_path / "t.csv"
        assert main(["synth", "--seed", "0", "--periods", "8", "--T-ms", "1000",
                     "--dt-ms", "2", "--loss-rate", "0.01", "--out", str(t)]) == 0
        data = t.read_bytes()
        assert len(data) > 1 << 17
        fifo = tmp_path / "p.csv"
        os.mkfifo(fifo)
        side_file(fifo).write_bytes(side_file(t).read_bytes())
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            assert main(["validate", "--trace", str(fifo), "--out", str(tmp_path / "p.json")]) == 0
        finally:
            if writer.is_alive():  # the pipe was never read to its end: let the writer go
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join()
        assert main(["validate", "--trace", str(t), "--out", str(tmp_path / "t.json")]) == 0
        assert (tmp_path / "p.json").read_bytes() == (tmp_path / "t.json").read_bytes()

    def test_outputs_do_not_depend_on_the_side_file(self, tmp_path):
        d = run_pipeline(tmp_path)
        p = lambda n: str(d / n)
        steps = [
            ["evaluate", "--trace", p("t.csv"), "--seg", p("seg.json"),
             "--models", "gaussian,gmm3,empirical", "--windows", "100,300",
             "--out", p("eval.json")],
            ["dsa", "--trace", p("t.csv"), "--seg", p("seg.json"), "--model", "gmm3",
             "--window", "300", "--out", p("dsa.csv")],
        ]

        def outputs():
            for s in steps:
                assert main(s) == 0, s
            return [(d / n).read_bytes() for n in ("eval.json", "dsa.csv")]

        loaded = outputs()
        side_file(d / "t.csv").unlink()
        assert outputs() == loaded


def piece_digest(data: bytes, piece: int) -> str:
    """The digest a side file records for the CSV bytes ``data``, taken in one
    pass: the sha256 of the sha256 digests of its ``piece``-byte pieces."""
    return hashlib.sha256(b"".join(hashlib.sha256(data[i:i + piece]).digest()
                                   for i in range(0, len(data), piece))).hexdigest()


@contextlib.contextmanager
def spied_spans():
    """Records, for each ``map_workers`` call (the writer's chunks and the
    digests), its number of items and the set of threads that ran them."""
    calls = []
    run = _num.map_workers

    def spy(fn, items, *args, **kwargs):
        threads = set()
        calls.append((len(items), threads))
        return run(lambda *a: (threads.add(threading.get_ident()), fn(*a))[1], items,
                   *args, **kwargs)

    with mock.patch.object(_num, "map_workers", spy), mock.patch.object(core, "map_workers", spy):
        yield calls


class TestPiecewiseDigest:
    """A trace file's bytes, and the digest its side file records, are the same
    at any CPU count, written chunk by chunk and read piece by piece."""

    @pytest.fixture(scope="class")
    def trace(self):
        return synth.generate(SynthConfig(n_periods=1, T_ms=1000.0, loss_rate=0.05, seed=2))[0]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("pieces", ["one", "dividing", "ragged"])
    def test_same_bytes_and_digest_at_any_cpu_count(self, trace, tmp_path, monkeypatch,
                                                     caplog, workers, pieces):
        ref = tmp_path / "ref.csv"
        with mock.patch.object(_num, "WORKERS", 1):
            write_trace_file(str(ref), trace)
        data = ref.read_bytes()
        dividing = [d for d in range(64, len(data) // 3 + 1) if len(data) % d == 0]
        piece = {"one": cli._DIGEST_PIECE, "dividing": dividing[0], "ragged": 1000}[pieces]
        assert (len(data) < piece) == (pieces == "one") and (len(data) % piece == 0) == (
            pieces == "dividing")
        monkeypatch.setattr(cli, "_DIGEST_PIECE", piece)
        monkeypatch.setattr(core, "_WRITE_CHUNK_ROWS", 7)
        monkeypatch.setattr(_num, "WORKERS", workers)
        t = tmp_path / "t.csv"
        with spied_spans() as calls:
            write_trace_file(str(t), trace)
            caplog.set_level(logging.INFO, logger="llab")
            assert read_trace_file(str(t)) == trace
        assert t.read_bytes() == data
        assert side_file_log(caplog) == [f"loaded {t} from its side file"]
        with open(t, "rb") as f:
            assert str(read_records(side_file(t))[0]) == piece_digest(data, piece) \
                == cli._csv_digest(f)
        # the write's chunks, then the digest on writing and on reading, one piece an
        # item; a pass of more than one item on more than one worker runs off the
        # calling thread
        pieces = -(-len(data) // piece)
        assert [n for n, _ in calls] == [-(-len(trace) // 7), pieces, pieces]
        assert [threading.get_ident() in threads for _, threads in calls] == [
            workers == 1] + [workers == 1 or pieces == 1] * 2

    def test_more_workers_than_cpus_share_no_buffer(self, trace, monkeypatch):
        # each chunk in flight formats into buffers of its own; with threads switched
        # as often as the interpreter allows, one shared by two chunks would garble them
        data = io.BytesIO()
        core.write_trace(trace, data)
        monkeypatch.setattr(core, "_WRITE_CHUNK_ROWS", 5)
        monkeypatch.setattr(_num, "WORKERS", 2 * os.cpu_count() + 1)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                out = io.BytesIO()
                core.write_trace(trace, out)
                assert out.getvalue() == data.getvalue()
        finally:
            sys.setswitchinterval(switch)

    def test_a_failing_worker_leaves_no_file_and_no_thread(self, trace, tmp_path, monkeypatch):
        class Failed(Exception):
            pass

        line_matrix = core._line_matrix

        def fail_third(tr, s, matrix):
            if s.start == 2 * core._WRITE_CHUNK_ROWS:
                raise Failed("third chunk")
            return line_matrix(tr, s, matrix)

        monkeypatch.setattr(core, "_WRITE_CHUNK_ROWS", 50)
        monkeypatch.setattr(core, "_line_matrix", fail_third)
        monkeypatch.setattr(_num, "WORKERS", 2)
        before = threading.active_count()
        with pytest.raises(Failed, match="third chunk"):
            write_trace_file(str(tmp_path / "t.csv"), trace)
        assert list(tmp_path.iterdir()) == []  # no .llab-*.tmp, CSV or side file
        assert threading.active_count() == before


#: Run as ``python -c``, starts the command in its arguments with stdout
#: discarded and prints that child's peak RSS in KiB. A child's peak RSS is
#: at least that of the process that started it, so a child of the test
#: process itself would read the test's own peak whenever that is higher.
_PEAK_RSS_OF_CHILD = (
    "import resource, subprocess, sys\n"
    "code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, timeout=120).returncode\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    "sys.exit(code)\n")


def child_peak_mib(args: list[str], cwd: Path, stdin: Path | None = None) -> float:
    """The peak RSS in MiB of a ``python -m llab ARGS`` child that exits 0,
    started from a small Python process of its own. The file ``stdin``, if
    given, reaches the child's stdin through a pipe from ``cat``."""
    src = Path(cli.__file__).resolve().parents[1]
    feed = subprocess.Popen(["cat", str(stdin)], stdout=subprocess.PIPE) if stdin else None
    proc = subprocess.Popen(
        [sys.executable, "-c", _PEAK_RSS_OF_CHILD, sys.executable, "-m", "llab", *args],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
        stdin=feed.stdout if feed else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if feed:
        feed.stdout.close()  # the child holds the read end now
    out, err = proc.communicate(timeout=180)
    if feed:
        feed.wait(timeout=10)
    assert proc.returncode == 0, err.decode()
    return int(out) / 1024


def synth_child(periods: int, d: Path) -> tuple[Path, float]:
    """A trace of ``periods`` written by a ``python -m llab synth`` child,
    with no side file, and the child's peak RSS in MiB."""
    t = d / f"t{periods}.csv"
    peak = child_peak_mib(["synth", "--periods", str(periods), "--noise-kind", "pareto",
                           "--loss-rate", "0.001", "--phase", "1234", "--out", str(t)], d)
    side_file(t).unlink()
    return t, peak


def column_mib(periods: int) -> float:
    """The MiB of the six columns of ``periods`` periods at 2 ms."""
    row_bytes = sum(np.dtype(d).itemsize for d in COLUMNS.values())
    return periods * period_bins(DEFAULT_DT_NS) * row_bytes / 2**20


class TestChildMemory:
    """A trace file costs a `python -m llab` child its columns, not its CSV text."""

    def test_peak_grows_by_at_most_twice_the_columns(self, tmp_path):
        peaks = {}
        for periods in (40, 160):
            t, synth = synth_child(periods, tmp_path)
            validate = child_peak_mib(["validate", "--trace", str(t),
                                       "--out", str(tmp_path / "v.json")], tmp_path)
            peaks[periods] = {"synth": synth, "validate": validate}
        for step in ("synth", "validate"):
            growth = peaks[160][step] - peaks[40][step]
            assert growth <= 2 * column_mib(160 - 40), (step, peaks)

    def test_spare_rows_past_a_capacity_doubling_cost_nothing(self, tmp_path):
        # the reader's columns start at the first 1 MB read's rows and double;
        # 165 periods lie just past a doubling, so before the columns are cut
        # they hold about as many spare rows as rows (40 and 160 periods lie
        # about 3% under one), and spare rows that numpy zero-filled would be
        # resident. validate grows by about 1.2x the columns without them.
        peaks = {}
        for periods in (40, 165):
            t, _ = synth_child(periods, tmp_path)
            peaks[periods] = child_peak_mib(["validate", "--trace", str(t), "--out",
                                             str(tmp_path / "v.json")], tmp_path)
        rows = 165 * period_bins(DEFAULT_DT_NS)
        with open(t, "rb") as f:
            f.readline()
            capacity = f.read(core._PARSE_CHUNK_BYTES).count(b"\n")
        while capacity < rows:
            capacity *= 2
        assert capacity - rows > 0.9 * rows, capacity
        assert peaks[165] - peaks[40] <= 1.5 * column_mib(165 - 40), peaks

    def test_a_trace_on_a_pipe_costs_its_columns(self, tmp_path):
        peaks = {}
        for periods in (40, 160):
            t, _ = synth_child(periods, tmp_path)
            peaks[periods] = child_peak_mib(["validate", "--trace", "-", "--out",
                                             str(tmp_path / "v.json")], tmp_path, stdin=t)
        assert peaks[160] - peaks[40] <= 2 * column_mib(160 - 40), peaks

    def test_a_crlf_trace_costs_its_columns(self, tmp_path):
        # CRLF reads take the loadtxt decoder too; fewer periods keep the test short
        peaks = {}
        for periods in (10, 40):
            t, _ = synth_child(periods, tmp_path)
            crlf = tmp_path / f"c{periods}.csv"
            with open(t, "rb") as lf, open(crlf, "wb") as out:
                out.writelines(line[:-1] + b"\r\n" for line in lf)
            peaks[periods] = child_peak_mib(["validate", "--trace", str(crlf), "--out",
                                             str(tmp_path / "v.json")], tmp_path)
        assert peaks[40] - peaks[10] <= 2 * column_mib(40 - 10), peaks


class TestPeriodLength:
    """Without --S a command segments at 15 s over the trace's own interval."""

    def test_one_ms_trace_gets_15000_bins(self, tmp_path):
        t, g, s = (str(tmp_path / n) for n in ("t.csv", "g.json", "seg.json"))
        assert main(["synth", "--dt-ms", "1", "--periods", "4", "--phase", "500",
                     "--seed", "3", "--out", t, "--truth", g]) == 0
        assert main(["segment", "--trace", t, "--out", s]) == 0
        seg = json.loads(Path(s).read_text())
        assert seg["S"] == 15000 and len(seg["periods"]) == 3
        assert main(["evaluate", "--trace", t, "--truth", g, "--models", "gaussian",
                     "--out", str(tmp_path / "e.json")]) == 0

    def test_period_off_the_bin_grid_needs_S(self, tmp_path, capsys):
        t, s = str(tmp_path / "t.csv"), str(tmp_path / "seg.json")
        assert main(["synth", "--T-ms", "14000", "--dt-ms", "7", "--periods", "4",
                     "--out", t]) == 0
        assert main(["segment", "--trace", t, "--out", s]) == 2
        assert "--S" in capsys.readouterr().err
        assert main(["profile", "--trace", t, "--out", s]) == 2
        assert main(["segment", "--trace", t, "--S", "2000", "--out", s]) == 0
        assert json.loads(Path(s).read_text())["S"] == 2000

    def test_a_period_longer_than_the_trace_fails_before_it_allocates(self, tmp_path, capsys):
        # an S-bin phase histogram of 10**7 bins would take 80 MB, and a copy of it 80 more
        t, s = str(tmp_path / "t.csv"), str(tmp_path / "seg.json")
        assert main(["synth", "--periods", "3", "--out", t]) == 0
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(["segment", "--trace", t, "--S", str(10**7), "--out", s])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 8 << 20
        assert capsys.readouterr().err == (
            "llab: error: 22500 bins hold no complete period of 10000000\n")
        assert not Path(s).exists()


class TestCoreFromSegmentation:
    """Every command slices the stable core at the bins the segmentation recorded."""

    @pytest.fixture(scope="class")
    def d(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("core")
        t = str(d / "t.csv")
        assert main(["synth", "--seed", "1", "--periods", "30", "--T-ms", "1000",
                     "--dt-ms", "2", "--phase", "40", "--out", t]) == 0
        assert main(["segment", "--trace", t, "--S", "500", "--out", str(d / "seg.json")]) == 0
        # a 300 ms head leaves 500 - 150 - 38 = 312 core bins, against 392 by default
        obj = json.loads((d / "seg.json").read_text())
        assert obj["core_bins"] == [70, 462]
        (d / "wide.json").write_text(json.dumps({**obj, "core_bins": [150, 462]}))
        del obj["core_bins"]
        (d / "old.json").write_text(json.dumps(obj))
        return d

    def run(self, d, cmd, seg, *extra):
        return main([cmd, "--trace", str(d / "t.csv"), "--seg", str(d / seg), *extra,
                     "--out", str(d / "out.json")])

    def test_fit_uses_the_recorded_core(self, d):
        for seg, n in (("seg.json", 392), ("wide.json", 312)):
            assert self.run(d, "fit", seg, "--model", "gaussian") == 0
            assert json.loads((d / "out.json").read_text())["fit_meta"]["n"] == n

    def test_evaluate_and_dsa_use_the_recorded_core(self, d):
        # 312 bins hold 624 ms; one more bin no longer fits the window
        for cmd, flags in (("evaluate", ("--models", "gaussian", "--windows")),
                           ("dsa", ("--model", "gaussian", "--window"))):
            assert self.run(d, cmd, "wide.json", *flags, "624") == 0
            assert self.run(d, cmd, "wide.json", *flags, "626") == 2
            assert self.run(d, cmd, "seg.json", *flags, "626") == 0

    def test_segmentation_without_core_bins_is_an_error(self, d):
        assert self.run(d, "fit", "old.json", "--model", "gaussian") == 2
        assert self.run(d, "evaluate", "old.json") == 2
        assert self.run(d, "dsa", "old.json") == 2
        assert self.run(d, "profile", "old.json") == 2

    def test_bare_gmm_is_an_unknown_model(self, d, capsys):
        assert self.run(d, "fit", "seg.json", "--model", "gmm") == 2
        assert "unknown model" in capsys.readouterr().err
        assert self.run(d, "fit", "seg.json", "--model", "gmm3") == 0

    def test_fit_window_longer_than_the_core_is_an_error(self, d, capsys):
        assert self.run(d, "fit", "seg.json", "--model", "gaussian", "--window", "5s") == 2
        assert "window" in capsys.readouterr().err
        assert self.run(d, "fit", "seg.json", "--model", "gaussian", "--window", "100ms") == 0
        assert json.loads((d / "out.json").read_text())["fit_meta"]["n"] == 50


class TestSegmentationWithTruth:
    def test_negative_period_index_is_a_config_error(self, tmp_path, capsys):
        # read as an index, p = -1 would label the period from the last one's truth
        t, g, s = (str(tmp_path / n) for n in ("t.csv", "truth.json", "seg.json"))
        assert main(["synth", "--periods", "6", "--T-ms", "1000", "--phase", "40",
                     "--out", t, "--truth", g]) == 0
        assert main(["segment", "--trace", t, "--S", "500", "--out", s]) == 0
        obj = json.loads(Path(s).read_text())
        obj["periods"][0]["p"] = -1
        bad = tmp_path / "seg_bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        for cmd, flags in (("dsa", ["--model", "gaussian", "--window", "300"]),
                           ("evaluate", ["--models", "gaussian", "--windows", "100,300"])):
            out = tmp_path / f"{cmd}.json"
            assert main([cmd, "--trace", t, "--seg", str(bad), "--truth", g, "--lt-ms", "40",
                         *flags, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("llab: error: ") and err.count("\n") == 1, err
            assert not out.exists()


    def test_repeated_period_index_is_a_config_error(self, tmp_path, capsys):
        # read as an index, a second p = 0 would label that period from the first one's truth
        t, g, s = (str(tmp_path / n) for n in ("t.csv", "truth.json", "seg.json"))
        assert main(["synth", "--periods", "6", "--T-ms", "1000", "--phase", "40",
                     "--out", t, "--truth", g]) == 0
        assert main(["segment", "--trace", t, "--S", "500", "--out", s]) == 0
        obj = json.loads(Path(s).read_text())
        obj["periods"][1]["p"] = 0
        bad = tmp_path / "seg_bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--trace", t, "--seg", str(bad), "--truth", g, "--lt-ms", "40",
                     "--models", "gaussian", "--windows", "100,300", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("llab: error: ") and err.count("\n") == 1, err
        assert not out.exists()


class TestSegmentationGrid:
    """Commands read a seg.json as the grid `segment` wrote: a period is
    named by its number p, and only an edit of its `excluded` flag drops it."""

    @pytest.fixture(scope="class")
    def d(self, tmp_path_factory):
        # 4 periods of 500 bins at phase 40 hold 3 complete ones; p = 0 is then excluded
        d = tmp_path_factory.mktemp("grid")
        t = str(d / "t.csv")
        assert main(["synth", "--periods", "4", "--T-ms", "1000", "--phase", "40",
                     "--out", t]) == 0
        assert main(["segment", "--trace", t, "--S", "500", "--out", str(d / "seg.json")]) == 0
        obj = json.loads((d / "seg.json").read_text())
        assert [p["excluded"] for p in obj["periods"]] == [False, False, False]
        obj["periods"][0]["excluded"] = True
        (d / "drop0.json").write_text(json.dumps(obj))
        return d

    def fit(self, d, seg, period, out):
        return main(["fit", "--trace", str(d / "t.csv"), "--seg", str(d / seg),
                     "--model", "gaussian", "--period", str(period), "--out", str(d / out)])

    def test_fit_period_is_the_segmentations_p(self, d):
        for p in (1, 2):
            assert self.fit(d, "seg.json", p, f"all{p}.json") == 0
            assert self.fit(d, "drop0.json", p, f"drop{p}.json") == 0
            assert (d / f"all{p}.json").read_bytes() == (d / f"drop{p}.json").read_bytes()
        assert (d / "all1.json").read_bytes() != (d / "all2.json").read_bytes()

    @pytest.mark.parametrize("seg,period", [("drop0.json", 0), ("seg.json", 3),
                                            ("seg.json", -1)])
    def test_fit_refuses_an_excluded_or_absent_period(self, d, capsys, seg, period):
        out = f"refused_{period}_{seg}"
        capsys.readouterr()
        assert self.fit(d, seg, period, out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"llab: error: period {period} ") and err.count("\n") == 1, err
        assert not (d / out).exists()

    @pytest.mark.parametrize("counts", [{"9999": 1}, {"-1": 1}, {"500": 2}, {"40": -3},
                                        {"40": 2**70}])
    def test_histogram_bin_off_the_period_or_negative_is_a_config_error(self, d, capsys,
                                                                       counts):
        obj = json.loads((d / "seg.json").read_text())
        bad = d / "hist_bad.json"
        bad.write_text(json.dumps({**obj, "histogram_nonzero": counts}))
        out = d / "prof_bad.csv"
        capsys.readouterr()
        assert main(["profile", "--trace", str(d / "t.csv"), "--seg", str(bad),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("llab: error: histogram bin ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, kind", [
        ("excluded", "false", "boolean"),
        ("excluded", 0, "boolean"),
        ("S", 500.9, "integer"),
        ("S", True, "integer"),
        ("core_bins", [70.0, 462], "integer"),
        ("core_bins", [70, "462"], "integer"),
        ("s_star", "40.0", "number"),
        ("s_star", False, "number"),
        ("histogram_nonzero", {"40": 2.7}, "integer"),
        ("p", True, "integer"),
        ("start_bin", 540.0, "integer"),
    ])
    def test_values_must_have_their_json_types(self, d, capsys, key, value, kind):
        # read loosely, "false" would exclude period 0, 500.9 would read as 500,
        # and true and 540.0 would equal period 1's number and first bin
        obj = json.loads((d / "seg.json").read_text())
        if key == "excluded":
            obj["periods"][0]["excluded"] = value
        elif key in ("p", "start_bin"):
            obj["periods"][1][key] = value
        else:
            obj[key] = value
        bad = d / "typed_bad.json"
        bad.write_text(json.dumps(obj))
        out = d / "prof_typed.csv"
        capsys.readouterr()
        assert main(["profile", "--trace", str(d / "t.csv"), "--seg", str(bad),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("llab: error: ") and err.count("\n") == 1, err
        assert f" must be a JSON {kind}, got " in err, err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["4_0", "\u0664\u0660", " 40", "+40"])
    def test_histogram_bins_are_ascii_digits(self, d, capsys, key):
        # int() reads each of these keys as bin 40
        obj = json.loads((d / "seg.json").read_text())
        bad = d / "hist_key_bad.json"
        bad.write_text(json.dumps({**obj, "histogram_nonzero": {key: 2}}))
        out = d / "prof_key_bad.csv"
        capsys.readouterr()
        assert main(["profile", "--trace", str(d / "t.csv"), "--seg", str(bad),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"llab: error: histogram bin {key!r} ") and err.count("\n") == 1, err
        assert not out.exists()


class TestSegmentationOfAnotherTrace:
    """A seg.json holds the whole grid of the trace it was made from."""

    @pytest.fixture(scope="class")
    def d(self, tmp_path_factory):
        # 12 periods of 500 bins at phase 40 hold 11 complete ones; dsa needs both classes
        d = tmp_path_factory.mktemp("short")
        t = str(d / "t.csv")
        assert main(["synth", "--periods", "12", "--T-ms", "1000", "--phase", "40",
                     "--out", t, "--truth", str(d / "truth.json")]) == 0
        assert main(["segment", "--trace", t, "--S", "500", "--out", str(d / "seg.json")]) == 0
        obj = json.loads((d / "seg.json").read_text())
        assert len(obj["periods"]) == 11
        del obj["periods"][-1]  # a shorter grid, as a hand edit or a shorter trace leaves it
        (d / "short.json").write_text(json.dumps(obj))
        return d

    @pytest.mark.parametrize("cmd,flags", [
        ("profile", []),
        ("fit", ["--model", "gaussian"]),
        ("evaluate", ["--models", "gaussian", "--windows", "100,300"]),
        ("dsa", ["--model", "gaussian", "--window", "300"]),
    ])
    def test_grid_short_of_the_trace_is_a_config_error(self, d, capsys, cmd, flags):
        if cmd in ("evaluate", "dsa"):
            flags = [*flags, "--truth", str(d / "truth.json"), "--lt-ms", "40"]
        out = d / f"{cmd}.out"
        assert main([cmd, "--trace", str(d / "t.csv"), "--seg", str(d / "seg.json"), *flags,
                     "--out", str(out)]) == 0
        out.unlink()
        capsys.readouterr()
        assert main([cmd, "--trace", str(d / "t.csv"), "--seg", str(d / "short.json"), *flags,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("llab: error: segmentation holds 10 periods of 500 bins from "
                              "bin 40, but the series of 6000 bins holds 11: it was not made "
                              "from this trace") and err.count("\n") == 1, err
        assert not out.exists()


class TestRefusals:
    """What a user can type that the library refuses exits 2 and says why,
    on a 6-period trace."""

    @pytest.fixture(scope="class")
    def d(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("refusals")
        assert main(["synth", "--seed", "3", "--periods", "6", "--out", str(d / "t.csv"),
                     "--truth", str(d / "g.json")]) == 0
        assert main(["segment", "--trace", str(d / "t.csv"), "--out", str(d / "seg.json")]) == 0
        truth = json.loads((d / "g.json").read_text())
        (d / "short.json").write_text(json.dumps({**truth, "p99_ms": truth["p99_ms"][:-1]}))
        return d

    @pytest.mark.parametrize("argv, code, message", [
        (["synth", "--periods", "0"], 2, "n_periods must be >= 1"),
        (["synth", "--T-ms", "0"], 2, "T_ms and dt_ms must be > 0"),
        (["synth", "--dt-ms", "0"], 2, "T_ms and dt_ms must be > 0"),
        (["fit", "--model", "gmm0"], 2, "n_components must be >= 1"),
        # 50 ms is 25 bins, and a mixture of 3 needs 30
        (["dsa", "--model", "gmm3", "--window", "50ms"], 2,
         "every fit failed in one of the halves"),
        (["evaluate", "--truth", "short.json"], 2, "ground truth lengths differ"),
        # no period is scored, so there is no error and no AUPRC to report
        (["evaluate", "--models", "gmm3", "--windows", "50ms"], 0, None),
    ], ids=["synth periods", "synth T", "synth dt", "fit gmm0", "dsa gmm3", "short truth",
            "evaluate gmm3"])
    def test_exit_code_and_message(self, d, tmp_path, capsys, argv, code, message):
        out = tmp_path / "out.json"
        cmd, *flags = [str(d / a) if a.endswith(".json") else a for a in argv]  # the fixture's
        inputs = [] if cmd == "synth" else ["--trace", str(d / "t.csv"),
                                            "--seg", str(d / "seg.json")]
        capsys.readouterr()
        assert main([cmd, *inputs, *flags, "--out", str(out)]) == code
        if code:
            assert f"llab: error: {message}\n" in capsys.readouterr().err
            assert not out.exists()
            return
        per_model = strict_json(out.read_text())["per_model"]["gmm3"]
        assert per_model["mse_curve"] == [{"w_ms": 50.0, "mse_ms2": None, "n_fitted": 0,
                                           "n_skipped": 6, "n_unconverged": 0}]
        assert per_model["auprc_curve"] == [{"w_ms": 50.0, "auprc": None, "n_scored": 0}]


class TestProbeCommands:
    def test_client_needs_a_port(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["probe-client", "--out", str(tmp_path / "p.csv")])
        assert e.value.code == 1

    def test_client_against_local_server(self, tmp_path):
        out = str(tmp_path / "p.csv")
        with ProbeServer() as srv:
            rc = main(["probe-client", "--host", "127.0.0.1", "--port", str(srv.port),
                       "--duration", "100ms", "--interval", "2ms",
                       "--receive-timeout", "300", "--out", out])
        assert rc == 0
        with open(out, "rb") as f:
            trace = parse_trace(f.read())
        assert len(trace) == 50
        assert trace.n_lost < 50  # loopback: at least something came back
        with mock.patch.object(core, "parse_trace", side_effect=AssertionError("parsed")):
            assert read_trace_file(out) == trace  # from the side file

    def test_an_echo_past_int64_is_no_reply(self, tmp_path):
        # a reflector that stamps probe 3 received at 2**64 - 1 ns: that uplink
        # fits no int64, so only that row is lost and the capture is written
        n = 20
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        sock.settimeout(2.0)

        def reflect():
            seq = -1
            while seq != n - 1:
                try:
                    data, addr = sock.recvfrom(65535)
                except socket.timeout:
                    return
                pkt = decode_packet(data)
                seq, t = pkt.seq, time.time_ns()
                sock.sendto(encode_packet(dataclasses.replace(
                    pkt, flags=FLAG_SERVER_ECHO, t_server_recv=2**64 - 1 if seq == 3 else t,
                    t_server_send=t), len(data)), addr)

        rx = threading.Thread(target=reflect, daemon=True)
        rx.start()
        out = str(tmp_path / "p.csv")
        try:
            rc = main(["probe-client", "--host", "127.0.0.1", "--port", str(sock.getsockname()[1]),
                       "--duration", "40ms", "--interval", "2ms", "--receive-timeout", "1000",
                       "--out", out])
        finally:
            rx.join(timeout=5.0)
            sock.close()
        assert rc == 0
        with open(out, "rb") as f:
            trace = parse_trace(f.read())
        assert np.flatnonzero(trace.lost).tolist() == [3]
        assert trace.ul[3] == ABSENT and bool(np.all(trace.ul[~trace.lost] >= 0))

    @pytest.mark.parametrize("argv", [
        ["probe-client", "--port", "70000"],
        ["probe-client", "--port", "-1"],
        ["probe-client", "--port", "9000", "--payload-size", "70000"],
        ["probe-server", "--port", "70000"],
        ["probe-client", "--port", "9000", "--receive-timeout", "-1000"],
    ])
    def test_out_of_range_port_or_payload_is_a_runtime_error(self, argv, tmp_path, capsys):
        out = tmp_path / "p.csv"
        if argv[0] == "probe-client":
            argv = [*argv, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("llab: error: ") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["probe-client", "--server", "127.0.0.1:9000", "--out", "p.csv"],
        ["probe-server", "--bind", "127.0.0.1:0"],
    ])
    def test_host_port_flags_are_gone(self, argv):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 1

    def test_server_runs_in_the_foreground_until_interrupted(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        srv = subprocess.Popen([sys.executable, "-m", "llab", "probe-server", "--port", "0"],
                               env=env, stdout=subprocess.PIPE, text=True)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(5.0)
        try:
            ready, _, _ = select.select([srv.stdout], [], [], 30.0)
            line = srv.stdout.readline() if ready else ""
            assert line.startswith("listening on 127.0.0.1:"), line
            sock.sendto(encode_packet(ProbePacket(seq=3, t_client_send=1)),
                        ("127.0.0.1", int(line.rsplit(":", 1)[1])))
            echo = decode_packet(sock.recvfrom(65535)[0])
            assert echo.seq == 3 and echo.server_echoed
            srv.send_signal(signal.SIGINT)
            assert srv.wait(timeout=10) == 0
        finally:
            sock.close()
            if srv.poll() is None:
                srv.kill()
                srv.wait()
            srv.stdout.close()

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM], ids=["sigint", "sigterm"])
    @pytest.mark.parametrize("sigint", [signal.SIG_DFL, signal.SIG_IGN],
                             ids=["sigint-default", "sigint-ignored"])
    def test_server_stops_cleanly_on_sigint_or_sigterm(self, sigint, sig):
        # a background job starts with SIGINT ignored; either signal must
        # still end serve() and run stop()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        start = lambda: signal.signal(signal.SIGINT, sigint)  # noqa: E731
        srv = subprocess.Popen([sys.executable, "-m", "llab", "probe-server", "--port", "0"],
                               env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, preexec_fn=start)
        try:
            ready, _, _ = select.select([srv.stdout], [], [], 30.0)
            line = srv.stdout.readline() if ready else ""
            assert line.startswith("listening on 127.0.0.1:"), line
            srv.send_signal(sig)
            assert srv.wait(timeout=5) == 0
            assert srv.stderr.read() == ""
        finally:
            if srv.poll() is None:
                srv.kill()
                srv.wait()
            srv.stdout.close()
            srv.stderr.close()

    def test_server_restores_the_callers_signal_handlers(self):
        before = signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)
        with mock.patch.object(ProbeServer, "serve", side_effect=KeyboardInterrupt):
            assert main(["probe-server", "--port", "0"]) == 0
        assert (signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)) == before

    def test_stdout_target(self, tmp_path, capsys):
        t = str(tmp_path / "t.csv")
        assert main(["synth", "--seed", "0", "--periods", "2", "--T-ms", "1000",
                     "--dt-ms", "2", "--out", t]) == 0
        assert main(["validate", "--trace", t, "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["n_samples"] == 1000


def strict_json(text: str):
    """``text`` read as RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


#: A valid availability point of a ``dsa`` report.
DSA_POINT = {"max_fpr": 0.1, "threshold": None, "w_ms": 1000.0, "sa": 0.9, "tpr": 0.5,
             "fpr": 0.0, "dsa": 0.4}
MSE_FIGURE = ["figure", "--kind", "mse", "--model", "gaussian", "--report"]
DSA_FIGURE = ["figure", "--kind", "dsa", "--report"]


class TestStrictJson:
    """Artifacts are RFC 8259 JSON, and JSON inputs of the wrong shape exit 2."""

    def test_infeasible_dsa_threshold_is_null(self, tmp_path):
        t, g, d, f = (str(tmp_path / n) for n in ("s.csv", "s.json", "d.json", "f.csv"))
        assert main(["synth", "--out", t, "--truth", g, "--periods", "13", "--noise-kind",
                     "pareto", "--seed", "2", "--phase", "50"]) == 0
        assert main(["dsa", "--trace", t, "--truth", g, "--model", "uniform", "--window", "0.1s",
                     "--max-fpr", "0", "--lt-ms", "52", "--out", d]) == 0
        (point,) = strict_json(Path(d).read_text())["points"]
        assert point["threshold"] is None and point["tpr"] == 0.0
        assert main(["figure", "--kind", "dsa", "--report", d, "--out", f]) == 0
        assert Path(f).read_text().splitlines()[1].split(",")[:2] == ["0.0", ""]

    @pytest.fixture(scope="class")
    def d(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("strict")
        assert main(["synth", "--out", str(d / "t.csv"), "--truth", str(d / "g.json"),
                     "--periods", "8", "--noise-kind", "pareto", "--seed", "7",
                     "--phase", "100"]) == 0
        assert main(["segment", "--trace", str(d / "t.csv"), "--out", str(d / "seg.json")]) == 0
        return d

    @pytest.mark.parametrize("doc, edit, argv, field", [
        ("seg.json", lambda o: [], ["profile", "--seg"], "a segmentation"),
        ("seg.json", lambda o: {**o, "core_bins": 5}, ["profile", "--seg"], "core_bins"),
        ("seg.json", lambda o: {**o, "periods": [5]}, ["profile", "--seg"], "a period"),
        ("g.json", lambda o: [], ["evaluate", "--truth"], "a truth file"),
        ("g.json", lambda o: {**o, "p99_ms": [None] * len(o["p99_ms"])}, ["evaluate", "--truth"],
         "p99_ms"),
        ("g.json", lambda o: {**o, "p99_ms": [str(v) for v in o["p99_ms"]]},
         ["evaluate", "--truth"], "p99_ms"),
        ("g.json", lambda o: {**o, "period_means_ms": "40"}, ["evaluate", "--truth"],
         "period_means_ms"),
        ("g.json", lambda o: {**o, "s_star": 100.0}, ["evaluate", "--truth"], "s_star"),
        ("seg.json", lambda o: [], MSE_FIGURE, "report"),
        ("seg.json", lambda o: {**o, "core_bins": [1]}, ["profile", "--seg"], "core_bins"),
        ("seg.json", lambda o: {**o, "core_bins": [1, 2, 3]}, ["profile", "--seg"], "core_bins"),
        ("seg.json", lambda o: {"points": [5]}, DSA_FIGURE, "a row of points"),
        ("seg.json", lambda o: {"points": [{**DSA_POINT, "w_ms": "1000"}]}, DSA_FIGURE,
         "points w_ms"),
        ("seg.json", lambda o: {"points": [{**DSA_POINT, "sa": None}]}, DSA_FIGURE, "points sa"),
        ("seg.json", lambda o: {"per_model": 5}, MSE_FIGURE, "per_model"),
        ("seg.json", lambda o: {"per_model": {"gaussian": 5}}, MSE_FIGURE,
         "per_model 'gaussian'"),
        ("seg.json", lambda o: {"per_model": {"gaussian": {"mse_curve": [
            {"w_ms": True, "mse_ms2": "7"}]}}}, MSE_FIGURE, "mse_curve w_ms"),
        ("seg.json", lambda o: {"per_model": {"gaussian": {"mse_curve": [
            {"w_ms": 250.0, "mse_ms2": "7"}]}}}, MSE_FIGURE, "mse_curve mse_ms2"),
    ], ids=["seg-list", "seg-core-bins-int", "seg-period-int", "truth-list", "truth-p99-null",
            "truth-p99-strings", "truth-means-string", "truth-s-star-float", "report-list",
            "seg-core-bins-one", "seg-core-bins-three", "report-point-int",
            "report-point-w-string", "report-point-sa-null", "report-models-int",
            "report-model-int", "report-w-bool", "report-mse-string"])
    def test_a_document_of_the_wrong_shape_exits_2(self, d, capsys, doc, edit, argv, field):
        bad = d / "bad.json"
        bad.write_text(json.dumps(edit(json.loads((d / doc).read_text()))))
        out = d / "out"
        trace = [] if argv[0] == "figure" else ["--trace", str(d / "t.csv")]
        capsys.readouterr()
        assert main([*argv, str(bad), *trace, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"llab: error: {field} must ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_a_valid_report_keeps_its_figure(self, tmp_path):
        (tmp_path / "r.json").write_text(json.dumps({"points": [DSA_POINT], "per_model": {
            "gaussian": {"mse_curve": [{"w_ms": 250, "mse_ms2": None},
                                       {"w_ms": 500.0, "mse_ms2": 7}]}}}))
        out = tmp_path / "f.csv"
        for kind, rows in [("mse", "w_ms,mse_ms2\n250,\n500.0,7.0\n"),
                           ("dsa", "max_fpr,threshold,w_ms,sa,tpr,fpr,dsa\n"
                                   "0.1,,1000.0,0.9,0.5,0.0,0.4\n")]:
            assert main(["figure", "--kind", kind, "--model", "gaussian", "--report",
                         str(tmp_path / "r.json"), "--out", str(out)]) == 0
            assert out.read_text() == rows
