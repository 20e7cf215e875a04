"""End-to-end command-line behavior, run in-process."""

import argparse
import dataclasses
import json
import os
import select
import signal
import socket
import stat
import subprocess
import sys

import numpy as np
import pytest

from llab.cli import build_parser, main, parse_duration_ms, parse_windows
from llab.core import parse_trace
from llab.probe import ProbePacket, ProbeServer, decode_packet, encode_packet
from llab.segment import SegmentationConfig
from llab.synth import GroundTruth


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

    def test_window_lists(self):
        assert parse_windows("100,500,1s") == [100.0, 500.0, 1000.0]
        assert parse_windows("0.5s:2s:500ms") == [500.0, 1000.0, 1500.0, 2000.0]
        with pytest.raises(argparse.ArgumentTypeError):
            parse_windows("100:50:10")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_windows("1:2:0")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_windows("1:2:3:4")


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
                      "--phase", "--noise-kind", "--noise-sigma", "--loss-rate", "--lt-ms",
                      "--seed"],
            "validate": ["--log-level", "--trace", "--out"],
            "segment": ["--log-level", "--trace", "--column", "--S", "--out"],
            "profile": common + ["--out"],
            "fit": common + ["--model", "--period", "--window", "--seed", "--out"],
            "evaluate": common + ["--truth", "--models", "--windows", "--q", "--lt-ms",
                                  "--seed", "--out"],
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
        assert sum(map(len, expected.values())) == 75
        assert [f.name for f in dataclasses.fields(SegmentationConfig)] == ["S"]

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
        assert len(truth.labels) == 3

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

        flat = (d / "dsa.csv").read_text().splitlines()
        assert flat[0] == "model,max_fpr,sampling_ms,threshold,tpr,dsa"
        assert len(flat) == 3  # header + one row per cap

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

    def test_truth_labels_can_replace_realized_ones(self, tmp_path):
        d = run_pipeline(tmp_path)
        p = lambda n: str(d / n)
        assert main(["evaluate", "--trace", p("t.csv"), "--seg", p("seg.json"),
                     "--truth", p("g.json"), "--models", "gaussian",
                     "--windows", "100", "--out", p("r2.json")]) == 0
        r2 = json.loads((d / "r2.json").read_text())
        assert r2["per_model"]["gaussian"]["auprc_curve"][0]["n_scored"] == 29

    def test_reruns_are_byte_identical(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = run_pipeline(tmp_path / "a")
        b = run_pipeline(tmp_path / "b")
        for name in ("t.csv", "g.json", "seg.json", "prof.csv", "m.json",
                     "report.json", "dsa.csv", "dsa.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


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


class TestProbeCommands:
    def test_client_needs_a_port(self, tmp_path):
        rc = main(["probe-client", "--out", str(tmp_path / "p.csv")])
        assert rc == 2

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

    def test_stdout_target(self, tmp_path, capsys):
        t = str(tmp_path / "t.csv")
        assert main(["synth", "--seed", "0", "--periods", "2", "--T-ms", "1000",
                     "--dt-ms", "2", "--out", t]) == 0
        assert main(["validate", "--trace", t, "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["n_samples"] == 1000
