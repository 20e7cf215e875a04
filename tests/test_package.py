"""Package layout: what importing a module costs, and how value classes hold arrays."""

import ast
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from llab import core
from llab.cli import main
from llab.core import Trace
from llab.probe import ProbePacket, decode_packet, encode_packet
from llab.segment import MeanCenteredProfile
from llab.stats import Empirical, FitMeta, GpdTail
from llab.synth import GroundTruth

SRC = Path(core.__file__).resolve().parents[1]


def test_importing_core_loads_only_what_it_uses():
    code = ("import sys, llab.core; print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('llab', 'scipy', 'socket')))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout.split()
    assert out == ["llab", "llab._num", "llab.core", "llab.defaults", "llab.errors"]


#: Runs ``python -m llab ARGS`` in-process and, after it exits, prints the
#: top-level packages, and llab's own modules, that it loaded.
_RUN_LLAB = """
import runpy, sys
sys.argv[0] = "llab"
code = 0
try:
    runpy.run_module("llab", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
print("loaded:", *sorted({m if m.startswith("llab.") else m.split(".")[0] for m in sys.modules}))
sys.exit(code)
"""

#: The llab modules every command loads: the parser and what it shows.
LLAB_CLI = {"llab", "llab.cli", "llab.defaults", "llab.errors"}


def llab_child(code: str, *args: str, cwd=None) -> subprocess.Popen:
    """``python -c CODE ARGS`` with this checkout's llab first on its path."""
    return subprocess.Popen([sys.executable, "-c", code, *args], cwd=cwd,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def packages_loaded_by(*args: str, cwd=None, code=0, session=None) -> set[str]:
    """The top-level packages, and llab's own modules, that a ``python -m llab
    ARGS`` child held when it exited with ``code``. ``session``, when given,
    is called with the running child and must make it exit."""
    with llab_child(_RUN_LLAB, *args, cwd=cwd) as child:
        try:
            if session is not None:
                session(child)
            out, err = child.communicate(timeout=300)
        finally:
            child.kill()  # a no-op once it has exited
    assert child.returncode == code, err
    (line,) = [ln for ln in out.splitlines() if ln.startswith("loaded:")]
    return set(line.split()[1:])


def echo_one_probe(server: subprocess.Popen) -> None:
    """Has a ``probe-server`` child echo one probe, then stops it with SIGINT."""
    ready, _, _ = select.select([server.stdout], [], [], 30.0)
    line = server.stdout.readline() if ready else ""
    assert line.startswith("listening on 127.0.0.1:"), line
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(10.0)
        sock.sendto(encode_packet(ProbePacket(seq=7, t_client_send=123), 64),
                    ("127.0.0.1", int(line.rsplit(":", 1)[1])))
        echo = decode_packet(sock.recv(65535))
    assert (echo.seq, echo.t_client_send, echo.server_echoed) == (7, 123, True)
    assert echo.t_server_send >= echo.t_server_recv > 0
    server.send_signal(signal.SIGINT)


def test_importing_cli_loads_no_scipy():
    code = "import sys, llab.cli; print(*[m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout.split()
    assert out == []


@pytest.mark.parametrize("module", ["llab.cli", "llab.probe"])
def test_importing_the_parser_or_the_probe_loads_no_numpy(module):
    code = f"import sys, {module}; print(*sorted(m.split('.')[0] for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout.split()
    assert "llab" in out and "numpy" not in out


def test_help_and_segment_never_load_scipy(tmp_path):
    assert "scipy" not in packages_loaded_by("--help")
    t = str(tmp_path / "t.csv")
    assert main(["synth", "--periods", "4", "--T-ms", "1000", "--phase", "40", "--out", t]) == 0
    assert "scipy" not in packages_loaded_by("segment", "--trace", t, "--S", "500",
                                             "--out", str(tmp_path / "seg.json"))


@pytest.mark.parametrize("args, code", [(["--help"], 0), (["segment", "--S", "500"], 1),
                                        (["validate", "--log-level", "loud"], 1)],
                         ids=["help", "missing-option", "bad-choice"])
def test_help_and_usage_errors_load_no_numpy(args, code):
    assert packages_loaded_by(*args, code=code) & {"numpy", "socket"} == set()


def test_the_reflector_loads_no_numpy():
    loaded = packages_loaded_by("probe-server", "--port", "0", session=echo_one_probe)
    assert {m for m in loaded if m.startswith("llab")} == LLAB_CLI | {"llab.probe"}
    assert "numpy" not in loaded


#: Starts ``probe-server --port 0`` where no numpy can be imported.
_REFLECTOR_WITHOUT_NUMPY = """
import runpy, sys
sys.modules["numpy"] = None  # an import of numpy now raises ImportError
sys.argv = ["llab", "probe-server", "--port", "0"]
runpy.run_module("llab", run_name="__main__", alter_sys=True)
"""


def test_the_reflector_runs_on_the_standard_library_alone():
    with llab_child(_REFLECTOR_WITHOUT_NUMPY) as server:
        try:
            echo_one_probe(server)
            out, err = server.communicate(timeout=30)
        finally:
            server.kill()  # a no-op once it has exited
    assert server.returncode == 0, err
    assert err == ""


@pytest.fixture(scope="module")
def command_imports(tmp_path_factory) -> dict[str, set[str]]:
    """The packages and llab modules each command loads as a child, keyed by
    its first three arguments; the commands run in turn, as the README's do."""
    tmp_path = tmp_path_factory.mktemp("commands")
    t, seg, ev, dsa = "t.csv", "seg.json", "eval.json", "dsa.json"
    on_seg = ["--trace", t, "--seg", seg]
    commands = [
        ["synth", "--periods", "6", "--T-ms", "1000", "--phase", "40", "--noise-kind", "pareto",
         "--out", t, "--truth", "truth.json"],
        ["validate", "--trace", t, "--out", "report.json"],
        ["segment", "--trace", t, "--S", "500", "--out", seg],
        ["profile", *on_seg, "--out", "profile.csv"],
        ["fit", *on_seg, "--model", "gaussian", "--period", "1", "--out", "gaussian.json"],
        ["fit", *on_seg, "--model", "gmm3", "--period", "1", "--out", "gmm3.json"],
        ["evaluate", *on_seg, "--models", "uniform,gaussian,gmm3,empirical,gpd",
         "--windows", "300,600", "--out", ev],
        ["dsa", *on_seg, "--model", "gmm3", "--window", "300", "--lt-ms", "40", "--out", dsa],
        ["figure", "--kind", "profile", *on_seg, "--out", "f_profile.csv"],
        ["figure", "--kind", "mse", "--report", ev, "--model", "gpd", "--out", "f_mse.csv"],
        ["figure", "--kind", "auprc", "--report", ev, "--model", "gmm3", "--out", "f_auprc.csv"],
        ["figure", "--kind", "dsa", "--report", dsa, "--out", "f_dsa.csv"],
        ["probe-client", "--port", "9", "--duration", "10ms", "--receive-timeout", "0",
         "--out", "probes.csv"],
    ]
    loaded = {" ".join(argv[:3]): packages_loaded_by(*argv, cwd=tmp_path) for argv in commands}
    report = json.loads((tmp_path / ev).read_text())["per_model"]
    assert all(c["mse_curve"][-1]["n_fitted"] > 0 for c in report.values())  # gpd fits ran
    return loaded


def test_no_command_loads_scipy(command_imports):
    # numpy is the one runtime dependency; scipy is a test-only oracle
    assert {cmd: "scipy" in mods for cmd, mods in command_imports.items()} == \
        dict.fromkeys(command_imports, False)


def test_each_command_loads_only_what_it_runs(command_imports):
    data = {"llab._num", "llab.core"}
    periods = data | {"llab.segment"}
    expected = {
        "synth --periods 6": periods | {"llab.synth"},
        "validate --trace t.csv": data,
        "segment --trace t.csv": periods,
        "profile --trace t.csv": periods,
        "fit --trace t.csv": periods | {"llab.stats"},
        "evaluate --trace t.csv": periods | {"llab.stats", "llab.classify"},
        "dsa --trace t.csv": periods | {"llab.stats", "llab.classify"},
        "figure --kind profile": periods,
        "figure --kind mse": set(),
        "figure --kind auprc": set(),
        "figure --kind dsa": set(),
        "probe-client --port 9": data | {"llab.probe"},
    }
    llab = {cmd: {m for m in mods if m.startswith("llab")} - LLAB_CLI
            for cmd, mods in command_imports.items()}
    assert llab == expected
    numpy = {cmd for cmd, mods in command_imports.items() if "numpy" in mods}
    assert numpy == {cmd for cmd, mods in expected.items() if mods}
    sockets = {cmd for cmd, mods in command_imports.items() if "socket" in mods}
    assert sockets == {"probe-client --port 9"}


def test_numpy_is_the_one_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", d)[0] for d in project["dependencies"]] == ["numpy"]
    imported = set()
    for path in (SRC / "llab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == {"numpy"}


#: A test module whose Hypothesis test fails, followed by a test that passes.
FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_runs_after():
    pass
"""


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # to print a patch for the failure Hypothesis imports libcst, whose import
    # warns; under the project's warnings-as-errors that ended the session
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    config = str(SRC.parent / "pyproject.toml")
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", config, "--rootdir",
                           str(tmp_path), "-p", "no:cacheprovider", "-q", "test_given.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout[-2000:]
    assert "1 failed, 1 passed" in done.stdout, done.stdout[-2000:]


META = FitMeta(n=3, loglik=None)
VALUE_ARRAYS = {
    "Trace": (lambda a: Trace(np.arange(3, dtype=np.uint64), np.arange(3), a, a, a,
                              np.zeros(3, bool), 1), "ul", np.int64),
    "MeanCenteredProfile": (lambda a: MeanCenteredProfile(a, 1), "values", np.float64),
    "GroundTruth": (lambda a: GroundTruth(0, a, np.zeros(3)),
                    "period_means_ms", np.float64),
    "Empirical": (lambda a: Empirical(a, META), "samples", np.float64),
    "GpdTail": (lambda a: GpdTail(0.0, 1.0, 0.1, 10, 13, a, META), "body", np.float64),
}


@pytest.mark.parametrize("make,attr,dtype", VALUE_ARRAYS.values(), ids=VALUE_ARRAYS)
def test_value_class_leaves_the_callers_array_writable(make, attr, dtype):
    a = np.zeros(3, dtype)
    held = getattr(make(a), attr)
    a[0] = 1  # the caller's array stays the caller's
    assert not held.flags.writeable
    assert held[0] == 0


def public_definitions() -> list[tuple[Path, str, int, int]]:
    """(module, name, first line, last line) of every public top-level
    function and class in the package."""
    out = []
    for path in sorted((SRC / "llab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out.append((path, node.name, node.lineno, node.end_lineno))
    return out


def test_every_public_name_has_a_user():
    # a name that only its tests reach is a second way in; users are the rest of
    # the package, the benchmark, the demos, the README and the project file
    root = SRC.parent
    outside = "\n".join(p.read_text() for p in [*sorted((root / "perfbench").glob("*.py")),
                                                 *sorted((root / "demos").glob("*.py")),
                                                 root / "README.md", root / "pyproject.toml"])
    sources = {p: p.read_text().splitlines() for p in (SRC / "llab").glob("*.py")}
    unused = []
    for path, name, first, last in public_definitions():
        word = re.compile(rf"\b{name}\b")
        rest = ["\n".join(lines if p != path else lines[:first - 1] + lines[last:])
                for p, lines in sources.items()]
        if not any(word.search(text) for text in [outside, *rest]):
            unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_every_error_class_is_raised():
    # an error class outlives its last raise when nothing constructs it any more
    classes = [node.name for node in ast.parse((SRC / "llab" / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef) and node.name != "LlabError"]
    called = set()
    for path in (SRC / "llab").glob("*.py"):
        if path.name != "errors.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    called.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None))
    assert [name for name in classes if name not in called] == []


def test_every_json_writer_is_strict():
    # json.dumps writes NaN and Infinity unless told not to, and RFC 8259 has neither
    lax, writers = [], 0
    for path in (SRC / "llab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps":
                writers += 1
                if not any(k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                           and k.value.value is False for k in node.keywords):
                    lax.append(f"{path.name}:{node.lineno}")
    assert writers and lax == []


def modules_naming(*names) -> list:
    """The modules of src/llab that name one of ``names``: as a name, an
    attribute or an imported name."""
    return sorted({path.name for path in (SRC / "llab").glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if any(getattr(node, field, None) in names
                          for field in ("id", "attr", "name"))})


def test_threads_are_pooled_in_one_place():
    # the series passes and the mixture EM share one worker policy, _num's
    assert modules_naming("ThreadPoolExecutor") == ["_num.py"]


#: Writes and reads a trace of probe-client's 2,500 rows, one write chunk
#: and one digest piece, then writes it in two chunks on two workers; prints
#: after each whether a thread was started and concurrent.futures loaded.
_SMALL_TRACE_IO = """
import os, sys, threading
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: (started.append(self.name), start(self))[1]
from llab import _num, cli, core
from llab.synth import SynthConfig, generate
trace, _ = generate(SynthConfig(n_periods=1, T_ms=5000.0))
path = sys.argv[1]
cli.write_trace_file(path, trace)
core.parse_trace = None  # the read must take the side file
assert cli.read_trace_file(path) == trace
assert len(trace) <= core._WRITE_CHUNK_ROWS and os.path.getsize(path) <= cli._DIGEST_PIECE
print(len(trace), bool(started), "concurrent.futures" in sys.modules)
_num.WORKERS, core._WRITE_CHUNK_ROWS = 2, len(trace) // 2
cli.write_trace_file(path, trace)
print(len(trace), bool(started), "concurrent.futures" in sys.modules)
"""


def test_small_trace_files_start_no_thread(tmp_path):
    # probe-client's files stay on the calling thread, and with them probe_loopback
    with llab_child(_SMALL_TRACE_IO, str(tmp_path / "t.csv")) as child:
        out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    assert out.splitlines() == ["2500 False False", "2500 True True"]


def test_blocks_and_spans_are_cut_in_one_place():
    # every series pass is a function of one block that _num.map_blocks runs
    assert modules_naming("SELECT_BLOCK", "SPLIT_MIN") == ["_num.py"]


def test_the_trace_digest_names_no_cpu_count():
    # the trace digest hands its pieces to _num.map_workers and never counts CPUs itself
    assert modules_naming("WORKERS") == ["_num.py", "core.py", "stats.py"]
