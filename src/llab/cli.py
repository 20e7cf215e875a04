"""Command-line front end.

Subcommands mirror the analysis flow: generate or capture a trace, detect
the period phase, average the within-period profile, fit latency models,
score them over growing measurement windows, and turn any result into a
plot-ready CSV. Outputs are written atomically (temp file then rename) so
a crash never leaves a half-written artifact.

A trace file ``x.csv`` written by ``synth`` or ``probe-client`` gets a side
file ``x.csv.npy``: the CSV's digest, then its columns, as ``.npy`` records.
The digest is the sha256 of the sha256 digests of the CSV's 1 MiB pieces,
so that writing and reading a long trace hash it on every CPU. Later
commands load the columns from it instead of parsing the CSV, and parse
whenever it is missing, unreadable or stale (as a side file that records
the whole CSV's sha256, from before the pieces, is).

Each command imports the analysis modules it runs when it runs, so that
``--help``, a usage error, the reflector and the JSON figures load no numpy.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import logging
import math
import os
import signal
import stat
import sys
import tempfile
from typing import TYPE_CHECKING

from .defaults import DEFAULT_DT_NS, DIRECTIONS, PERIOD_MS
from .errors import LlabError, MissingSeries, NoCompletePeriod, _json_value

if TYPE_CHECKING:
    import numpy as np
    from .core import Trace
    from .segment import Segmentation

log = logging.getLogger("llab")
#: The llab logger's one handler; each ``main`` call points it at sys.stderr.
_STDERR = logging.StreamHandler()
_STDERR.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


class _Parser(argparse.ArgumentParser):
    # every option has one spelling: argparse's prefix matching would keep
    # e.g. `--lt` alive as `--lt-ms`, so abbreviations are usage errors too
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # usage problems are exit code 1, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@contextlib.contextmanager
def _atomic_file(path: str):
    """A binary file that replaces ``path`` when the block ends without error;
    written as a sibling temp file and renamed, so readers never see a torn file."""
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".llab-", suffix=".tmp")
    except OSError as e:  # name the output, not the temp file no one asked for
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        # mkstemp creates 0600; give the artifact the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically, or to stdout for ``-``."""
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    with _atomic_file(path) as f:
        f.write(data)


def _write_json(path: str, obj) -> None:
    """``obj`` as RFC 8259 JSON, which has no NaN or Infinity, by ``atomic_write``."""
    atomic_write(path, (json.dumps(obj, indent=2, allow_nan=False) + "\n").encode("utf-8"))


def parse_duration_ms(text: str) -> float:
    """Finite duration like '100ms', '5s', or a bare number of milliseconds."""
    t = text.strip().lower()
    try:
        if t.endswith("ms"):
            ms = float(t[:-2])
        elif t.endswith("s"):
            ms = float(t[:-1]) * 1000.0
        else:
            ms = float(t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse duration {text!r}") from None
    if not math.isfinite(ms):
        raise argparse.ArgumentTypeError(f"duration {text!r} is not finite")
    return ms


def parse_positive_duration_ms(text: str) -> float:
    """A duration as :func:`parse_duration_ms` reads it, which must be > 0."""
    ms = parse_duration_ms(text)
    if ms <= 0:
        raise argparse.ArgumentTypeError(f"duration {text!r} must be > 0")
    return ms


def parse_seed(text: str) -> int:
    """A random seed: a non-negative integer, as numpy's generators take."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse seed {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed {text!r} must be >= 0")
    return seed


def parse_models(text: str) -> list[str]:
    """Model names: a non-empty comma list."""
    models = [m.strip() for m in text.split(",") if m.strip()]
    if not models:
        raise argparse.ArgumentTypeError(f"model list {text!r} is empty")
    return models


def parse_windows(text: str) -> list[float]:
    """Window list: a non-empty comma list of positive durations, 'a,b,c'."""
    windows = [parse_positive_duration_ms(p) for p in text.split(",") if p.strip()]
    if not windows:
        raise argparse.ArgumentTypeError(f"window list {text!r} is empty")
    return windows


def parse_fpr_caps(text: str) -> list[float]:
    """False-positive caps: a non-empty comma list of finite values in [0, 1]."""
    try:
        caps = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse false-positive caps {text!r}") from None
    if not caps or not all(0.0 <= c <= 1.0 for c in caps):  # nan fails the range too
        raise argparse.ArgumentTypeError(
            f"false-positive caps {text!r} must be one or more values in [0, 1]")
    return caps


#: Appended to a trace file's name to name its side file.
SIDE_SUFFIX = ".npy"

#: What a side file that cannot be used as a trace raises on loading: a
#: record that is missing, truncated, not a record, or a pickled object
#: array (ValueError), a record header whose shape cannot be allocated
#: (MemoryError; where the allocation succeeds, the short read is a
#: ValueError), or a path that cannot be read as a file (OSError).
_SIDE_FILE_ERRORS = (OSError, ValueError, MemoryError)


#: Bytes of a trace file digested as one piece: a side file records the
#: sha256 of its CSV's pieces' sha256 digests, so that the pieces of a long
#: CSV are hashed on every CPU. The README's 17.1 MB trace on 2 CPUs took
#: 9.2 ms (fastest of 25) in 1 MiB pieces, 16.6 ms in 8 MiB ones and 14.7 ms
#: as one sha256; at 64 MiB it would be one piece.
_DIGEST_PIECE = 1 << 20


def write_trace_file(path: str, trace: Trace) -> None:
    """Write a trace as CSV to ``path`` (``-`` for stdout), then its side file.

    The CSV goes to a temp file chunk by chunk and is digested by
    :func:`_csv_digest` before the rename. The side file ``path +
    SIDE_SUFFIX`` holds that digest and the six columns, one ``.npy`` record
    each. :func:`read_trace_file` uses it only while the digest matches the
    CSV, so it is always safe to use and to delete.
    """
    import numpy as np
    from .core import COLUMNS, write_trace
    if path == "-":
        write_trace(trace, sys.stdout.buffer)
        sys.stdout.buffer.flush()
        return
    with _atomic_file(path) as f:
        write_trace(trace, f)
        f.flush()
        digest = _csv_digest(f)
    with _atomic_file(path + SIDE_SUFFIX) as f:
        np.save(f, np.array(digest))
        for k in COLUMNS:
            np.save(f, getattr(trace, k))


def read_trace_file(path: str) -> Trace:
    """The trace in the CSV file ``path`` (``-`` for stdin): loaded from its
    side file when that was written with these CSV bytes, parsed otherwise.
    A path that is not a regular file, such as a named pipe, is parsed as
    a stream, as stdin is, with no side file looked up."""
    from .core import parse_trace
    if path == "-":
        return parse_trace(sys.stdin.buffer)
    with open(path, "rb") as csv:
        if not stat.S_ISREG(os.fstat(csv.fileno()).st_mode):
            return parse_trace(csv)
        trace, why = _load_side_file(path + SIDE_SUFFIX, csv)
        if trace is not None:
            log.info("loaded %s from its side file", path)
            return trace
        log.info("parsed %s: side file %s", path, why)
        csv.seek(0)
        return parse_trace(csv)


def _csv_digest(csv) -> str:
    """The digest of the open CSV file ``csv`` that its side file records: the
    sha256 of the sha256 digests of its ``_DIGEST_PIECE``-byte pieces, one
    piece an item of ``map_workers``, each read with ``os.preadv`` into its
    worker's piece buffer; a file of one piece is hashed on the calling
    thread."""
    from ._num import map_workers
    fd = csv.fileno()

    def piece(offset, buf):
        n = 0  # a read may stop short of the piece before the end of the file
        while n < _DIGEST_PIECE and (got := os.preadv(fd, [buf[n:]], offset + n)):
            n += got
        return hashlib.sha256(buf[:n]).digest()

    digests = map_workers(piece, range(0, os.fstat(fd).st_size, _DIGEST_PIECE),
                          scratch=lambda: memoryview(bytearray(_DIGEST_PIECE)))
    return hashlib.sha256(b"".join(digests)).hexdigest()


def _load_side_file(path: str, csv) -> tuple[Trace | None, str]:
    """The trace in side file ``path`` if it was written with the bytes of
    the open CSV file ``csv``; else None and why not: missing, stale or
    unreadable. The CSV is hashed only once the digest record is read."""
    import numpy as np
    from .core import COLUMNS, Trace, nominal_dt_ns
    try:
        with open(path, "rb") as f:  # read_array: np.load would also open a zip
            digest = np.lib.format.read_array(f, allow_pickle=False)
            if digest.shape != () or digest.dtype.kind != "U":
                return None, "unreadable"
            if str(digest) != _csv_digest(csv):
                return None, "stale"
            cols = {k: np.lib.format.read_array(f, allow_pickle=False) for k in COLUMNS}
            if f.read(1):
                return None, "unreadable"
    except FileNotFoundError:
        return None, "missing"
    except _SIDE_FILE_ERRORS:
        return None, "unreadable"
    shape = cols["seq"].shape
    for name, dtype in COLUMNS.items():
        a = cols[name]
        if a.dtype != dtype or a.ndim != 1 or a.shape != shape:
            return None, "unreadable"
        a.flags.writeable = False  # so that Trace keeps it instead of copying
    try:
        return Trace(**cols, dt_nominal=nominal_dt_ns(cols["t_send"])), ""
    except (ValueError, LlabError):
        return None, "unreadable"


def _load_segmentation(args, trace: Trace, series) -> Segmentation:
    from .segment import Segmentation, SegmentationConfig, detect_phase, period_bins, segment_trace
    if getattr(args, "seg", None):
        with open(args.seg, "r", encoding="utf-8") as f:
            return Segmentation.from_json(f.read())
    S = getattr(args, "S", None)
    cfg = SegmentationConfig(period_bins(trace.dt_nominal) if S is None else S)
    if cfg.S > len(series):  # before detect_phase makes an S-bin histogram
        raise NoCompletePeriod(f"{len(series)} bins hold no complete period of {cfg.S}")
    det = detect_phase(series, cfg)
    return segment_trace(trace, det.s_star, cfg, histogram=det.histogram)


def _load_periods(args) -> tuple[np.ndarray, Segmentation, float]:
    """The kept periods of ``args.trace``'s column as a (periods, S) matrix,
    their segmentation (``--seg``, or detected) and the trace's interval in
    ms. The trace is read here and dropped on return, so that a step does
    not hold it while it fits."""
    from .segment import period_matrix
    trace = read_trace_file(args.trace)
    series = trace.delay_ms(args.column)
    seg = _load_segmentation(args, trace, series)
    return period_matrix(series, seg), seg, trace.dt_nominal / 1e6


def _core_and_labels(args) -> tuple[np.ndarray, list[str], Segmentation, float]:
    periods, seg, dt_ms = _load_periods(args)
    core = periods[:, slice(*seg.core_bins)]
    if args.truth:
        from .synth import GroundTruth
        with open(args.truth, "r", encoding="utf-8") as f:
            truth = GroundTruth.from_json(f.read())
        if seg.kept[-1] >= len(truth.p99_ms):
            raise ValueError("ground truth has fewer periods than the segmentation")
        truth_labels = truth.labels_at(args.lt_ms)
        labels = [truth_labels[p] for p in seg.kept]
    else:
        from .classify import label_period
        labels = [label_period(core[i], args.lt_ms).label for i in range(core.shape[0])]
    return core, labels, seg, dt_ms


# -- subcommands ----------------------------------------------------------------


def cmd_synth(args) -> int:
    from .synth import GaussianNoise, MixtureNoise, ParetoTailNoise, SynthConfig, generate
    if args.noise_kind == "gaussian":
        noise = GaussianNoise(sigma_ms=args.noise_sigma)
    elif args.noise_kind == "mixture":
        noise = MixtureNoise(weights=(0.7, 0.3), offsets_ms=(0.0, 6.0),
                             sigmas_ms=(args.noise_sigma, args.noise_sigma))
    else:
        noise = ParetoTailNoise(body_sigma_ms=args.noise_sigma)
    cfg = SynthConfig(
        n_periods=args.periods, T_ms=args.T_ms, dt_ms=args.dt_ms,
        phase_offset=args.phase, noise=noise, loss_rate=args.loss_rate, seed=args.seed,
    )
    trace, truth = generate(cfg)
    write_trace_file(args.out, trace)
    if args.truth:
        atomic_write(args.truth, truth.to_json().encode("utf-8"))
    log.info("wrote %d samples to %s", len(trace), args.out)
    return 0


def cmd_validate(args) -> int:
    from .core import validate_trace
    trace = read_trace_file(args.trace)
    _write_json(args.out, dataclasses.asdict(validate_trace(trace)))
    return 0


def cmd_segment(args) -> int:
    trace = read_trace_file(args.trace)
    seg = _load_segmentation(args, trace, trace.delay_ms(args.column))
    atomic_write(args.out, (seg.to_json() + "\n").encode("utf-8"))
    log.info("phase %.3f bins, %d periods (%d kept)",
             seg.s_star, len(seg.excluded), len(seg.kept))
    return 0


def cmd_profile(args) -> int:
    from .segment import mean_centered_profile
    periods, _, _ = _load_periods(args)
    atomic_write(args.out, mean_centered_profile(periods).to_csv().encode("utf-8"))
    return 0


def cmd_fit(args) -> int:
    import numpy as np
    from .stats import fit_by_name, model_to_json
    periods, seg, dt_ms = _load_periods(args)
    if args.period not in seg.kept:
        raise ValueError(f"period {args.period} is not among the segmentation's "
                         f"{len(seg.excluded)} periods or is excluded")
    row = periods[seg.kept.index(args.period), slice(*seg.core_bins)]
    if args.window is not None:
        from .classify import window_bins
        row = row[:window_bins(args.window, dt_ms, row.size)]
    xs = row[np.isfinite(row)]
    model = fit_by_name(args.model, xs, seed=args.seed)
    atomic_write(args.out, (model_to_json(model) + "\n").encode("utf-8"))
    return 0


def cmd_evaluate(args) -> int:
    from .classify import auprc_from_grid, fit_grid, quantile_mse_from_grid
    from .core import MEET_FRACTION_GOOD
    core, labels, seg, dt_ms = _core_and_labels(args)
    grid = fit_grid(core, dt_ms, args.windows, args.models, args.lt_ms, seed=args.seed)
    mse = quantile_mse_from_grid(grid, core)
    areas = auprc_from_grid(grid, labels)
    report = {
        "q": MEET_FRACTION_GOOD,
        "lt_ms": grid.lt_ms,
        "dt_ms": dt_ms,
        "windows_ms": list(grid.windows_ms),
        "n_periods": grid.n_periods,
        "per_model": {
            name: {
                "mse_curve": [dataclasses.asdict(s) for s in mse[name]],
                "auprc_curve": [dataclasses.asdict(a) for a in areas[name]],
            }
            for name in args.models
        },
    }
    _write_json(args.out, report)
    return 0


def cmd_dsa(args) -> int:
    from .classify import dsa_eval
    core, labels, seg, dt_ms = _core_and_labels(args)
    period_ms = seg.S * dt_ms
    points = dsa_eval(core, labels, dt_ms, args.window, args.model, args.lt_ms,
                      args.max_fpr, period_ms, seed=args.seed)
    report = {
        "model": args.model,
        "w_ms": args.window,
        "period_ms": period_ms,
        "lt_ms": args.lt_ms,
        # no finite threshold keeps the cap: null, predict no period Degraded
        "points": [{**dataclasses.asdict(p), "threshold": p.threshold if p.threshold < math.inf
                    else None} for p in points],
    }
    _write_json(args.out, report)
    return 0


def cmd_probe_server(args) -> int:
    from .probe import ProbeServer
    server = ProbeServer(args.host, args.port)
    previous = {}
    try:
        # SIGTERM, and SIGINT even where it started ignored (a background
        # job), end serve() as Ctrl-C does, so stop() always runs
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, signal.default_int_handler)
        print(f"listening on {args.host}:{server.port}", flush=True)
        server.serve()  # in the foreground until interrupted
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0


def cmd_probe_client(args) -> int:
    from .probe import ProbeConfig, run_client
    cfg = ProbeConfig(
        host=args.host, port=args.port,
        interval_ns=int(round(args.interval * 1e6)),
        duration_s=args.duration / 1000.0,
        payload_size=args.payload_size,
        receive_timeout_ms=args.receive_timeout,
    )
    trace = run_client(cfg)
    write_trace_file(args.out, trace)
    log.info("captured %d probes, %d lost", len(trace), trace.n_lost)
    return 0


def _figure_rows(args) -> str:
    if args.kind == "profile":
        if not args.trace:
            raise MissingSeries("figure profile needs --trace")
        from .segment import mean_centered_profile
        periods, _, dt_ms = _load_periods(args)
        prof = mean_centered_profile(periods)
        lines = ["s_ms,centered_ms"]
        lines += [f"{s * dt_ms!r},{float(v)!r}" for s, v in enumerate(prof.values)]
        return "\n".join(lines) + "\n"

    if not args.report:
        raise MissingSeries(f"figure {args.kind} needs --report")
    if args.kind in ("mse", "auprc") and not args.model:
        raise MissingSeries(f"figure {args.kind} needs --model")
    with open(args.report, "r", encoding="utf-8") as f:
        report = _json_value(json.load(f), "object", "report")

    def number(row, rows: str, key: str, nullable: bool = False):
        """Field ``key`` of a row of the report's ``rows``: a JSON number, or
        null where ``nullable``."""
        v = _json_value(row, "object", f"a row of {rows}")[key]
        return v if v is None and nullable else _json_value(v, "number", f"{rows} {key}")

    def text(v) -> str:
        return "" if v is None else repr(float(v))

    if args.kind in ("mse", "auprc"):
        models = _json_value(report.get("per_model", {}), "object", "per_model")
        if args.model not in models:
            raise MissingSeries(f"report holds no model {args.model!r}")
        key = "mse_curve" if args.kind == "mse" else "auprc_curve"
        curve = _json_value(models[args.model], "object", f"per_model {args.model!r}").get(key)
        if not curve:
            raise MissingSeries(f"report holds no {key} for {args.model!r}")
        field = "mse_ms2" if args.kind == "mse" else "auprc"
        lines = [f"w_ms,{field}"]
        lines += [f"{number(row, key, 'w_ms')!r},{text(number(row, key, field, nullable=True))}"
                  for row in _json_value(curve, "array", key)]
        return "\n".join(lines) + "\n"

    points = report.get("points")
    if not points:
        raise MissingSeries("report holds no availability points")
    lines = ["max_fpr,threshold,w_ms,sa,tpr,fpr,dsa"]
    lines += [",".join(text(number(p, "points", k, nullable=k == "threshold"))
                       for k in ("max_fpr", "threshold", "w_ms", "sa", "tpr", "fpr", "dsa"))
              for p in _json_value(points, "array", "points")]
    return "\n".join(lines) + "\n"


def cmd_figure(args) -> int:
    atomic_write(args.out, _figure_rows(args).encode("utf-8"))
    return 0


# -- parser ----------------------------------------------------------------------


def _add_common_io(p, needs_column=True):
    p.add_argument("--trace", required=True, help="trace file (CSV, - for stdin)")
    if needs_column:
        p.add_argument("--column", choices=DIRECTIONS, default="ul",
                       help="delay column to analyze")


def _add_lt(p):
    p.add_argument("--lt-ms", type=parse_positive_duration_ms, default=50.0,
                   help="latency target (e.g. 50ms)")


def _add_seed(p):
    p.add_argument("--seed", type=parse_seed, default=0, help="RNG seed, >= 0")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="llab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def add_cmd(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--log-level", default="warning",
                       choices=("debug", "info", "warning", "error"))
        return p

    p = add_cmd("synth", "generate a synthetic trace with ground truth")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None, help="also write ground truth JSON")
    p.add_argument("--periods", type=int, default=100)
    p.add_argument("--T-ms", type=parse_duration_ms, default=PERIOD_MS)
    p.add_argument("--dt-ms", type=parse_duration_ms, default=DEFAULT_DT_NS / 1e6)
    p.add_argument("--phase", type=float, default=0.0, help="true phase in bins")
    p.add_argument("--noise-kind", choices=("gaussian", "mixture", "pareto"),
                   default="gaussian")
    p.add_argument("--noise-sigma", type=float, default=1.5)
    p.add_argument("--loss-rate", type=float, default=0.0)
    _add_seed(p)
    p.set_defaults(func=cmd_synth)

    p = add_cmd("validate", "data-quality report for a trace")
    _add_common_io(p, needs_column=False)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_validate)

    p = add_cmd("segment", "detect period phase and slice a trace")
    _add_common_io(p)
    p.add_argument("--S", type=int, default=None,
                   help=f"period length in bins (default: {PERIOD_MS / 1000:g} s at the "
                        "trace's interval)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_segment)

    p = add_cmd("profile", "mean-centered within-period profile")
    _add_common_io(p)
    p.add_argument("--seg", default=None, help="segmentation JSON (default: detect)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = add_cmd("fit", "fit one latency model to one period's core")
    _add_common_io(p)
    p.add_argument("--seg", default=None)
    p.add_argument("--model", required=True,
                   help="uniform, gaussian, gmmK (K components, e.g. gmm3), empirical, or gpd")
    p.add_argument("--period", type=int, default=0,
                   help="period number p, as in the segmentation and the truth")
    p.add_argument("--window", type=parse_positive_duration_ms, default=None,
                   help="fit only the first WINDOW of the core")
    _add_seed(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = add_cmd("evaluate", "quantile error and ranking quality per window")
    _add_common_io(p)
    p.add_argument("--seg", default=None)
    p.add_argument("--truth", default=None, help="ground truth JSON for labels")
    p.add_argument("--models", type=parse_models, default="gaussian,empirical",
                   help="comma list of model names (default gaussian,empirical; "
                        "add a mixture with e.g. --models gmm3,gaussian,empirical)")
    p.add_argument("--windows", type=parse_windows, default=[100.0, 500.0, 1000.0, 5000.0],
                   help="comma list 'a,b,c' of durations like 100ms or 5s")
    _add_lt(p)
    _add_seed(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = add_cmd("dsa", "discounted availability at false-positive caps")
    _add_common_io(p)
    p.add_argument("--seg", default=None)
    p.add_argument("--truth", default=None)
    p.add_argument("--model", default="gaussian")
    p.add_argument("--window", type=parse_positive_duration_ms, default=1000.0)
    p.add_argument("--max-fpr", type=parse_fpr_caps, default=[0.05, 0.10],
                   help="comma list of false-positive caps in [0, 1]")
    _add_lt(p)
    _add_seed(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dsa)

    p = add_cmd("probe-server", "run the UDP echo reflector")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p.set_defaults(func=cmd_probe_server)

    p = add_cmd("probe-client", "send paced probes and record a trace")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--duration", type=parse_duration_ms, default=1000.0,
                   help="total probing time (e.g. 10s)")
    p.add_argument("--interval", type=parse_duration_ms, default=DEFAULT_DT_NS / 1e6,
                   help="send interval (e.g. 2ms)")
    p.add_argument("--payload-size", type=int, default=64)
    p.add_argument("--receive-timeout", type=int, default=1000,
                   help="drain wait after the last probe, ms")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_probe_client)

    p = add_cmd("figure", "emit a plot-ready CSV series")
    p.add_argument("--kind", required=True, choices=("profile", "mse", "auprc", "dsa"))
    p.add_argument("--trace", default=None, help="trace for --kind profile")
    p.add_argument("--column", choices=DIRECTIONS, default="ul")
    p.add_argument("--seg", default=None)
    p.add_argument("--report", default=None, help="report JSON for mse/auprc/dsa")
    p.add_argument("--model", default=None, help="model series for mse/auprc")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_figure)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _STDERR.stream = sys.stderr  # as it is now: a caller may have swapped it
    log.addHandler(_STDERR)  # a no-op after the first call
    log.setLevel(args.log_level.upper())
    try:
        return args.func(args)
    except (LlabError, OSError, ValueError, KeyError) as e:  # JSONDecodeError is a ValueError
        print(f"llab: error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # numpy's says what it could not allocate
        print(f"llab: error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
