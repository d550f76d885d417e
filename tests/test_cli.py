import errno
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hdse import coarsen, distance, graph
from hdse.cli import main
from hdse.coarsen import girvan_newman, hierarchy_from_json
from hdse.distance import read_tensor
from hdse.graph import load_edge_list
from hdse.refine import desargues_graph, dodecahedron_graph


SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"


def cli_env():
    """The environment for a CLI subprocess that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(*args, cwd, max_bytes=None):
    """Run the CLI in a fresh process, so an uncaught error shows as a traceback.

    ``max_bytes`` caps the process's address space: past it, an allocation
    raises MemoryError instead of filling the machine's memory.
    """
    cap = None if max_bytes is None else (lambda: resource.setrlimit(
        resource.RLIMIT_AS, (max_bytes, max_bytes)))
    return subprocess.run([sys.executable, "-m", "hdse.cli", *args], cwd=cwd,
                          env=cli_env(), capture_output=True, text=True,
                          timeout=120, preexec_fn=cap)


@pytest.fixture
def p3_file(tmp_path):
    f = tmp_path / "p3.txt"
    f.write_text("0 1\n1 2\n")
    return str(f)


@pytest.fixture
def dodeca_file(tmp_path):
    f = tmp_path / "dodeca.txt"
    rc = main(["named-graph", "dodecahedron", "-o", str(f)])
    assert rc == 0
    return str(f)


class TestGlobalOptions:
    def test_threads_option_is_gone(self, monkeypatch, tmp_path):
        # HDSE_THREADS is not read: a non-integer value changes nothing
        monkeypatch.setenv("HDSE_THREADS", "many")
        f = tmp_path / "c.txt"
        assert main(["named-graph", "cycle(5)", "-o", str(f)]) == 0
        with pytest.raises(SystemExit):
            main(["--threads", "2", "named-graph", "cycle(5)"])


class TestNamedGraph:
    def test_emits_valid_edge_list(self, dodeca_file):
        g = load_edge_list(open(dodeca_file).read())
        assert g.num_nodes == 20
        assert np.all(g.degrees() == 3)

    def test_unknown_name_config_error(self, capsys):
        assert main(["named-graph", "petersen"]) == 3

    @pytest.mark.parametrize("name", [
        "cycle", "cycle(x)", "community_pair(1,2)",
        "community_pair(5,nan,0.05,0)", "community_pair(5,-1,0.05,0)",
        "community_pair(5,0.3,inf,0)", "community_pair(5,2,0.5,0)"])
    def test_malformed_arguments_exit_3(self, name, tmp_path):
        proc = run_cli("named-graph", name, cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("name", [
        "cycle(100000000000)", "cycle(4294967296)", "barbell(2147483648)",
        "community_pair(2147483648,0.3,0.05,0)", "barbell(100000)",
        "community_pair(100000,0.3,0.05,0)", "cycle(8000001)",
        "barbell(2829)", "community_pair(2001,1,1,0)"])
    def test_too_many_nodes_exit_3_before_building(self, name, tmp_path):
        # the generator refuses the count itself, the last three one step
        # past MAX_CANDIDATE_EDGES; building the edges would run out of the
        # 1 GiB cap (exit 2) or run for minutes
        start = time.perf_counter()
        proc = run_cli("named-graph", name, cwd=tmp_path, max_bytes=2**30)
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {name[:name.index('(')]} needs")


class TestMalformedJson:
    """Malformed JSON inputs are parse errors (exit 2), never tracebacks."""

    def run(self, tmp_path, command, name, payload):
        f = tmp_path / name
        f.write_text(payload if isinstance(payload, str)
                     else json.dumps(payload))
        proc = run_cli(command, str(f), "-o", str(tmp_path / "out"),
                       cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    def test_encode_levels_not_a_list(self, tmp_path):
        self.run(tmp_path, "encode", "h.json",
                 {"levels": 3, "maps": [], "ratios": []})

    def test_encode_old_format_names_new_keys(self, p3_file, tmp_path):
        out = tmp_path / "full.json"
        assert main(["coarsen", p3_file, "-K", "1", "-o", str(out)]) == 0
        h = hierarchy_from_json(out.read_text())
        old = {"levels": [g.to_json_dict() for g in h.levels],
               "maps": [p.assign.tolist() for p in h.maps],
               "ratios": h.coarsening_ratios, "algo": h.algo, "seed": h.seed}
        f = tmp_path / "old.json"
        f.write_text(json.dumps(old))
        proc = run_cli("encode", str(f), "-o", str(tmp_path / "t.bin"),
                       cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        for key in ("'graph'", "'maps'", "'algo'", "'seed'"):
            assert key in proc.stderr

    def test_encode_top_level_array(self, tmp_path):
        self.run(tmp_path, "encode", "h.json", [1, 2])

    def test_encode_map_shorter_than_level(self, p3_file, tmp_path):
        out = tmp_path / "full.json"
        assert main(["coarsen", p3_file, "-K", "1", "-o", str(out)]) == 0
        obj = json.loads(out.read_text())
        obj["maps"][0] = obj["maps"][0][:-1]
        self.run(tmp_path, "encode", "h.json", obj)

    def test_encode_map_entry_beyond_int64(self, p3_file, tmp_path):
        out = tmp_path / "full.json"
        assert main(["coarsen", p3_file, "-K", "1", "-o", str(out)]) == 0
        obj = json.loads(out.read_text())
        obj["maps"][0][0] = 2**70
        self.run(tmp_path, "encode", "h.json", obj)

    def test_coarsen_three_column_edges(self, tmp_path):
        self.run(tmp_path, "coarsen", "g.json",
                 {"num_nodes": 3, "edges": [[0, 1, 2], [1, 2, 0]]})

    @pytest.mark.parametrize("num_nodes, edges", [(2.5, [[0, 1]]), (-1, [])])
    def test_coarsen_bad_num_nodes(self, num_nodes, edges, tmp_path):
        self.run(tmp_path, "coarsen", "g.json",
                 {"num_nodes": num_nodes, "edges": edges})

    @pytest.mark.parametrize("extra", [
        {"features": "abc"},
        {"features": [[1, 2], [3]]},            # ragged rows
        {"features": [[1, "x"], [3, 4]]},
        {"labels": [0.5, 1.7]},                 # not truncated to integers
        {"labels": [0, 1, 2]},
        {"features": [[1, True], [3, 4]]},      # booleans are not numbers
        {"features": [[1, float("nan")], [3, 4]]},       # written as NaN
        {"features": [[1, float("inf")], [3, 4]]},       # written as Infinity
        {"labels": [0, True]},
        {"edges": [[0, True]]},
    ])
    def test_coarsen_bad_features_or_labels(self, extra, tmp_path):
        self.run(tmp_path, "coarsen", "g.json",
                 {"num_nodes": 2, "edges": [[0, 1]], **extra})

    def test_valid_features_and_labels_load(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text(json.dumps({"num_nodes": 2, "edges": [[0, 1]],
                                 "features": [[1, 2.5], [3, 4]],
                                 "labels": [0, 1]}))
        out = tmp_path / "h.json"
        assert main(["coarsen", str(f), "-o", str(out)]) == 0
        g0 = hierarchy_from_json(out.read_text()).levels[0]
        np.testing.assert_array_equal(g0.features, [[1, 2.5], [3, 4]])
        np.testing.assert_array_equal(g0.node_labels, [0, 1])


class TestUnreadableInput:
    """Undecodable text and node counts too large to allocate exit 2.

    Only fixed counts far beyond any machine's memory are used, so the
    inputs are rejected before anything is allocated.
    """

    def run(self, tmp_path, command, name, payload: bytes):
        f = tmp_path / name
        f.write_bytes(payload)
        proc = run_cli(command, str(f), "-o", str(tmp_path / "out"),
                       cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("command, name", [
        ("coarsen", "g.txt"), ("coarsen", "g.json"), ("encode", "h.json")])
    def test_not_utf8(self, command, name, tmp_path):
        self.run(tmp_path, command, name, b"\xff\xfe0 1\n")

    @pytest.mark.parametrize("name, payload", [
        ("id.txt", b"0 99999999999999999999999\n"),
        ("n.txt", b"n 1000000000000000\n0 1\n"),
        ("n.json", b'{"num_nodes": 1000000000000000, "edges": []}'),
    ])
    def test_node_count_too_large(self, name, payload, tmp_path):
        self.run(tmp_path, "coarsen", name, payload)

    def test_out_of_memory_exit_2(self, p3_file, tmp_path, monkeypatch,
                                  capsys):
        from hdse import distance

        def no_memory(*args, **kwargs):
            raise MemoryError

        h = tmp_path / "h.json"
        assert main(["coarsen", p3_file, "-o", str(h)]) == 0
        monkeypatch.setattr(distance, "hdse", no_memory)
        capsys.readouterr()
        assert main(["encode", str(h), "-o", str(tmp_path / "t.bin")]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestUnwritableOutput:
    """An -o path that cannot be opened exits 2, a negative verdict's 1
    included, and creates no file."""

    def args(self, command, p3_file, tmp_path):
        if command == "encode":
            h = tmp_path / "h.json"
            assert main(["coarsen", p3_file, "-K", "0", "-o", str(h)]) == 0
            return ["encode", str(h)]
        return {"coarsen": ["coarsen", p3_file],
                # p3 against itself (verdict 1) and against an edge (0)
                "gdwl": ["gdwl", p3_file, p3_file],
                "gdwl distinguished": ["gdwl", p3_file, str(tmp_path / "e")],
                # the default 300 epochs: the path is refused before training
                "demo": ["demo", "--seeds", "1"],
                "named-graph": ["named-graph", "dodecahedron"]}[command]

    @pytest.mark.parametrize("command", ["coarsen", "encode", "gdwl",
                                         "gdwl distinguished", "demo",
                                         "named-graph"])
    @pytest.mark.parametrize("where", ["missing dir", "directory"])
    def test_exit_2_and_no_file(self, command, where, p3_file, tmp_path,
                                capsys):
        (tmp_path / "e").write_text("0 1\n")
        args = self.args(command, p3_file, tmp_path)
        out = tmp_path / "missing" / "out" if where == "missing dir" \
            else tmp_path
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        start = time.perf_counter()
        assert main([*args, "-o", str(out)]) == 2
        if command == "demo":
            assert time.perf_counter() - start < 1.0
        assert sorted(tmp_path.rglob("*")) == before
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_no_traceback(self, tmp_path):
        proc = run_cli("named-graph", "dodecahedron", "-o", "missing/x.txt",
                       cwd=tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot write missing/x.txt: ")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["named-graph", "encode"])
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_stdout_full_exit_2(self, command, unbuffered, p3_file, tmp_path):
        # text and binary payloads; a block-buffered stdout keeps the
        # unwritten bytes and flushes them again when the interpreter exits
        args = self.args(command, p3_file, tmp_path)
        env = cli_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "hdse.cli", *args],
                                  cwd=tmp_path, env=env, stdout=full,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert re.fullmatch(r"error: cannot write stdout: \[Errno 28\] .*\n",
                            proc.stderr), proc.stderr

    @pytest.mark.parametrize("command", ["named-graph", "encode"])
    def test_short_raw_writes_deliver_every_byte(self, command, p3_file,
                                                 tmp_path, monkeypatch):
        # text and binary payloads through an unbuffered stdout, whose raw
        # write takes a few bytes per call: all of them arrive, in order
        args = self.args(command, p3_file, tmp_path)
        want = tmp_path / "want"
        assert main([*args, "-o", str(want)]) == 0
        raw = ShortWrites()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
            raw, encoding="utf-8", write_through=True))
        assert main(args) == 0
        assert bytes(raw.data) == want.read_bytes()

    def test_short_raw_writes_then_full_exit_2(self, tmp_path, monkeypatch,
                                               capsys):
        # the stream fails part way through: one error line and exit 2;
        # a spare file stands in for stdout's descriptor, which the CLI
        # points at os.devnull after a failed write
        with open(tmp_path / "fd", "wb") as spare:
            raw = ShortWrites(spare.fileno(), room=10)
            monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
                raw, encoding="utf-8", write_through=True))
            capsys.readouterr()
            assert main(["named-graph", "dodecahedron"]) == 2
        assert bytes(raw.data) == graph.write_edge_list(
            dodecahedron_graph()).encode()[:12]
        assert re.fullmatch(r"error: cannot write stdout: \[Errno 28\] .*\n",
                            capsys.readouterr().err)


class ShortWrites(io.RawIOBase):
    """A raw stdout whose ``write`` takes at most 3 bytes per call and fails
    with ENOSPC once ``room`` bytes are in."""

    def __init__(self, fd=-1, room=None):
        self.data, self.fd, self.room = bytearray(), fd, room

    def writable(self):
        return True

    def fileno(self):
        return self.fd

    def write(self, b):
        if self.room is not None and len(self.data) >= self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        chunk = bytes(b[:3])
        self.data += chunk
        return len(chunk)


class TestInterrupt:
    """Ctrl-C exits 130 with one stderr line and no traceback."""

    def test_in_process(self, monkeypatch, capsys):
        from hdse import refine

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(refine, "make_named_graph", interrupted)
        capsys.readouterr()
        assert main(["named-graph", "dodecahedron"]) == 130
        out, err = capsys.readouterr()
        assert out == "" and err == "error: interrupted\n"

    def test_sigint_during_demo(self, tmp_path):
        # 20 seeds of 300 epochs: still training when the signal arrives
        proc = subprocess.Popen(
            [sys.executable, "-m", "hdse.cli", "demo", "--seeds", "20",
             "-o", str(tmp_path / "m.csv")], cwd=tmp_path, env=cli_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            # a child of a shell's background job inherits SIGINT ignored
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            time.sleep(2.0)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 130, err
        assert "Traceback" not in err
        assert err == "error: interrupted\n" and out == ""
        assert not (tmp_path / "m.csv").exists()

    def test_while_importing(self, tmp_path):
        # the console script's module imports hdse inside its own try; a
        # shadow package that raises on import stands in for a Ctrl-C that
        # lands while numpy and the modules load
        (tmp_path / "hdse").mkdir()
        (tmp_path / "hdse" / "__init__.py").write_text(
            "raise KeyboardInterrupt\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tmp_path), str(SRC)]))
        proc = subprocess.run(
            [sys.executable, "-m", "hdse_entry", "named-graph", "petersen"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 130, proc.stderr
        assert proc.stderr == "error: interrupted\n" and proc.stdout == ""


class TestConsoleScript:
    """The ``hdse`` script runs ``hdse_entry.main``, which runs ``cli.main``."""

    def test_pyproject_points_at_the_entry_module(self):
        text = (SRC.parent / "pyproject.toml").read_text()
        assert 'hdse = "hdse_entry:main"' in text.splitlines()

    def test_same_output_and_exit_codes_as_the_cli(self, tmp_path):
        for args in (["named-graph", "dodecahedron"],
                     ["named-graph", "petersen"]):
            got = subprocess.run(
                [sys.executable, "-m", "hdse_entry", *args], cwd=tmp_path,
                env=cli_env(), capture_output=True, text=True, timeout=60)
            want = run_cli(*args, cwd=tmp_path)
            assert (got.returncode, got.stdout, got.stderr) == (
                want.returncode, want.stdout, want.stderr)
        assert want.returncode == 3  # petersen takes no size


class TestPairLimit:
    """All-pairs work past graph.MAX_PAIRS exits 2 before allocating."""

    # 6325**2 is just above MAX_PAIRS = 40,000,000; 6324**2 is below it
    N = 6325

    def assert_refused(self, tmp_path, *args):
        start = time.perf_counter()
        proc = run_cli(*args, "-o", str(tmp_path / "out"), cwd=tmp_path,
                       max_bytes=2**30)
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: input too large: ")
        assert "limit of 40000000 (MAX_PAIRS)" in proc.stderr
        return proc.stderr

    def test_limit_is_documented(self):
        assert graph.MAX_PAIRS == 40_000_000
        assert f"{graph.MAX_PAIRS:,}" in README.read_text()

    def test_gdwl_refused(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(f"n {self.N}\n")
        err = self.assert_refused(tmp_path, "gdwl", str(f), str(f))
        assert "spd_all_pairs needs 40005625 pairs" in err

    @pytest.mark.parametrize("base", ["0", "1"])
    def test_encode_refused(self, tmp_path, base):
        h = coarsen.build_hierarchy(graph.make_graph(self.N, []), "hem", 1)
        f = tmp_path / "h.json"
        f.write_text(coarsen.hierarchy_to_json(h))
        err = self.assert_refused(tmp_path, "encode", str(f),
                                  "--base-level", base)
        assert "hdse needs 40005625 pairs" in err

    # a ring past the limit, and a circulant graph with fewer node pairs
    # than the limit whose n x m edge gathers pass it
    @pytest.mark.parametrize("n, steps", [(N, (1,)), (3000, (1, 2, 3, 4, 5))])
    def test_newman_refused(self, tmp_path, n, steps):
        edges = [(i, (i + k) % n) for k in steps for i in range(n)]
        f = tmp_path / "g.txt"
        f.write_text(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        err = self.assert_refused(tmp_path, "coarsen", str(f), "--algo",
                                  "newman")
        assert f"girvan_newman needs {n * max(n, len(edges))} pairs" in err

    def test_at_the_limit_runs(self, tmp_path, monkeypatch, capsys):
        # the check is on the count alone: one pair under the (lowered)
        # limit runs, one over it exits 2 with the limit in the message
        monkeypatch.setattr(graph, "MAX_PAIRS", 36)
        for n, code in ((6, 1), (7, 2)):
            f = tmp_path / f"c{n}.txt"
            assert main(["named-graph", f"cycle({n})", "-o", str(f)]) == 0
            capsys.readouterr()
            assert main(["gdwl", str(f), str(f)]) == code
            err = capsys.readouterr().err
            assert ("limit of 36" in err) == (code == 2)


class TestGnWorkLimit:
    """Girvan-Newman past graph.MAX_GN_WORK exits 2 before allocating."""

    def test_limit_is_documented(self):
        assert f"{graph.MAX_GN_WORK:,}" in README.read_text()

    def test_ring_just_past_the_limit_refused(self, tmp_path):
        # a ring of n nodes has n * n * (n^2 + 40 n) units: 730 is under
        # the limit, 731 over it
        work = [n * n * (n * n + 40 * n) for n in (730, 731)]
        assert work[0] <= graph.MAX_GN_WORK < work[1]
        f = tmp_path / "c.txt"
        assert main(["named-graph", "cycle(731)", "-o", str(f)]) == 0
        start = time.perf_counter()
        proc = run_cli("coarsen", str(f), "--algo", "newman", "-o",
                       str(tmp_path / "h.json"), cwd=tmp_path)
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (
            f"error: input too large: girvan_newman needs {work[1]} units of "
            f"work on 731 nodes and 731 edges, more than the limit of "
            f"{graph.MAX_GN_WORK} (MAX_GN_WORK)\n")
        assert not (tmp_path / "h.json").exists()


class TestCoarsen:
    def test_p3_louvain(self, p3_file, tmp_path):
        out = tmp_path / "h.json"
        rc = main(["coarsen", p3_file, "--algo", "louvain", "-K", "1",
                   "-o", str(out)])
        assert rc == 0
        h = hierarchy_from_json(out.read_text())
        assert len(h.levels) == 2

    def test_dodecahedron_newman_cluster_count(self, dodeca_file, tmp_path):
        out = tmp_path / "h.json"
        rc = main(["coarsen", dodeca_file, "--algo", "newman", "-K", "1",
                   "-o", str(out)])
        assert rc == 0
        h = hierarchy_from_json(out.read_text())
        oracle = girvan_newman(dodecahedron_graph(), target=None)
        assert h.levels[1].num_nodes == oracle.num_clusters

    def test_huge_features_reach_encode(self, tmp_path):
        # coarse levels carry no features, so no cluster mean can overflow
        g, h = tmp_path / "g.json", tmp_path / "h.json"
        g.write_text(json.dumps({"num_nodes": 2, "edges": [[0, 1]],
                                 "features": [[1e308], [1e308]]}))
        for args in (["coarsen", str(g), "-o", str(h)],
                     ["encode", str(h), "-o", str(tmp_path / "t.bin")]):
            proc = run_cli(*args, cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
            assert "Warning" not in proc.stderr
        assert "Infinity" not in h.read_text()

    def test_negative_seed_exit_3(self, p3_file, capsys):
        capsys.readouterr()
        assert main(["coarsen", p3_file, "--seed", "-1"]) == 3
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and out == ""

    def test_missing_file_exit_2(self, capsys):
        assert main(["coarsen", "/nonexistent/graph.txt"]) == 2
        assert "error" in capsys.readouterr().err


class TestEncode:
    def make_hierarchy(self, p3_file, tmp_path, levels="0"):
        out = tmp_path / "h.json"
        assert main(["coarsen", p3_file, "-K", levels, "-o", str(out)]) == 0
        return str(out)

    def test_k0_payload_is_clipped_spd(self, p3_file, tmp_path):
        h = self.make_hierarchy(p3_file, tmp_path)
        out = tmp_path / "t.bin"
        assert main(["encode", h, "-o", str(out)]) == 0
        entries, clip = read_tensor(out.read_bytes())
        assert clip == 30
        np.testing.assert_array_equal(
            entries[:, :, 0], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_base_level_dims(self, p3_file, tmp_path):
        h = self.make_hierarchy(p3_file, tmp_path, levels="1")
        out = tmp_path / "t.bin"
        assert main(["encode", h, "--base-level", "1", "-o", str(out)]) == 0
        entries, _ = read_tensor(out.read_bytes())
        assert entries.shape[0] == 3
        assert entries.shape[2] == 1

    def test_roundtrip_bytes_identical(self, p3_file, tmp_path):
        h = self.make_hierarchy(p3_file, tmp_path)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert main(["encode", h, "-o", str(a)]) == 0
        assert main(["encode", h, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_base_level_exit_3(self, p3_file, tmp_path):
        h = self.make_hierarchy(p3_file, tmp_path)
        assert main(["encode", h, "--base-level", "5",
                     "-o", str(tmp_path / "t.bin")]) == 3

    def test_json_format(self, p3_file, tmp_path):
        h = self.make_hierarchy(p3_file, tmp_path)
        out = tmp_path / "t.json"
        assert main(["encode", h, "--format", "json", "-o", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["shape"] == [3, 3, 1]

    def test_more_than_255_levels(self, p3_file, tmp_path, capsys):
        h = self.make_hierarchy(p3_file, tmp_path, levels="254")
        assert main(["encode", h, "-o", str(tmp_path / "t.bin")]) == 0
        entries, _ = read_tensor((tmp_path / "t.bin").read_bytes())
        assert entries.shape == (3, 3, 255)
        for levels in ("255", "256"):
            h = self.make_hierarchy(p3_file, tmp_path, levels=levels)
            capsys.readouterr()
            assert main(["encode", h, "-o", str(tmp_path / "t.bin")]) == 3
            assert "--format json" in capsys.readouterr().err
        out = tmp_path / "t.json"
        assert main(["encode", h, "--format", "json", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["shape"] == [3, 3, 257]

    @pytest.mark.parametrize("fmt, bound", [("bin", 7), ("json", 12)])
    def test_peak_per_pair(self, tmp_path, fmt, bound):
        # the 3 B per pair tensor plus its one-copy binary file, or plus
        # the JSON rows, written as parts and never joined; 6.25 and 11.46
        # B per pair measured (9.24 and 19.19 when the file was copied
        # whole and the JSON text joined)
        n, rng = 1000, np.random.default_rng(0)
        e = rng.integers(0, n, size=(3 * n, 2))
        h = coarsen.build_hierarchy(
            graph.make_graph(n, e[e[:, 0] != e[:, 1]]), "louvain", 2)
        hier, out = tmp_path / "h.json", tmp_path / f"t.{fmt}"
        hier.write_text(coarsen.hierarchy_to_json(h))
        tracemalloc.start()
        try:
            rc = main(["encode", str(hier), "--format", fmt, "-o", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        t = distance.hdse(h)
        want = (distance.write_tensor(t.entries, t.clip) if fmt == "bin"
                else (distance.tensor_to_json(t.entries, t.clip)
                      + "\n").encode())
        assert out.read_bytes() == want
        assert peak <= bound * n * n

    @pytest.mark.parametrize("levels, base", [("255", "0"), ("256", "1")])
    def test_too_many_levels_refused_before_encoding(
            self, p3_file, tmp_path, capsys, monkeypatch, levels, base):
        # 256 encoded levels: refused from the hierarchy's level count, with
        # no tensor built, not by write_tensor once the tensor exists
        h = self.make_hierarchy(p3_file, tmp_path, levels=levels)

        def never(*args, **kwargs):
            raise AssertionError("the tensor was encoded")

        monkeypatch.setattr(distance, "hdse", never)
        monkeypatch.setattr(distance, "high_level_hdse", never)
        capsys.readouterr()
        out = tmp_path / "t.bin"
        assert main(["encode", h, "--base-level", base, "-o", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: 256 levels: the binary tensor format holds at most 255; "
            "use --format json\n")
        assert not out.exists()


class TestGdwl:
    def test_counterexample_pair_spd_negative(self, tmp_path, dodeca_file):
        des = tmp_path / "des.txt"
        assert main(["named-graph", "desargues", "-o", str(des)]) == 0
        out = tmp_path / "v.json"
        rc = main(["gdwl", dodeca_file, str(des), "--enc", "spd",
                   "-o", str(out)])
        assert rc == 1
        verdict = json.loads(out.read_text())
        assert verdict["distinguished"] is False

    def test_counterexample_pair_hdse_newman_positive(self, tmp_path,
                                                      dodeca_file):
        des = tmp_path / "des.txt"
        assert main(["named-graph", "desargues", "-o", str(des)]) == 0
        out = tmp_path / "v.json"
        rc = main(["gdwl", dodeca_file, str(des), "--enc", "hdse",
                   "--algo", "newman", "-o", str(out)])
        assert rc == 0
        verdict = json.loads(out.read_text())
        assert verdict["distinguished"] is True
        assert verdict["histogram_g1"] != verdict["histogram_g2"]

    def test_empty_graphs_hdse_verdict_equals_spd(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        payloads = []
        for enc_args in (["--enc", "spd"], ["--enc", "hdse"],
                         ["--enc", "hdse", "--algo", "louvain", "-K", "2"],
                         ["--enc", "hdse", "--algo", "hem", "-K", "2"]):
            capsys.readouterr()
            assert main(["gdwl", str(empty), str(empty), *enc_args]) == 1
            out, err = capsys.readouterr()
            assert "Traceback" not in err
            payloads.append(out)
        assert json.loads(payloads[0]) == {
            "distinguished": False, "iterations": 1,
            "histogram_g1": [], "histogram_g2": []}
        assert payloads[1:] == payloads[:1] * 3

    def test_stability_report_reuses_the_main_verdict(self, tmp_path,
                                                      dodeca_file, capsys,
                                                      monkeypatch):
        # louvain reruns the next two seeds; newman and hem ignore the seed,
        # so their main verdict stands for all three, printed the same way
        from hdse import refine
        des = tmp_path / "des.txt"
        assert main(["named-graph", "desargues", "-o", str(des)]) == 0
        g1, g2 = dodecahedron_graph(), desargues_graph()
        original = refine.refine_pair
        for algo, seeds in (("newman", [0]), ("hem", [0]),
                            ("louvain", [0, 1, 2])):
            cm1, cm2 = original(g1, g2, refine.HdseEncoding(algo=algo))
            verdict = {
                "distinguished": cm1.histogram() != cm2.histogram(),
                "iterations": len(cm1.colors) - 1,
                "histogram_g1": sorted(cm1.histogram().values(), reverse=True),
                "histogram_g2": sorted(cm2.histogram().values(), reverse=True),
            }
            stable = 1 + sum(
                refine.distinguishes(g1, g2,
                                     refine.HdseEncoding(algo=algo, seed=s))
                for s in (1, 2))
            calls = []

            def counting(*args, **kwargs):
                calls.append(args[2])
                return original(*args, **kwargs)

            monkeypatch.setattr(refine, "refine_pair", counting)
            capsys.readouterr()
            assert main(["gdwl", dodeca_file, str(des), "--enc", "hdse",
                         "--algo", algo]) == 0
            monkeypatch.setattr(refine, "refine_pair", original)
            assert [enc.seed for enc in calls] == seeds
            out, err = capsys.readouterr()
            assert out == json.dumps(verdict, sort_keys=True) + "\n"
            assert err == (f"distinguished under {stable}/3 coarsening "
                           "seeds\n")

    @pytest.mark.parametrize("flags", [["--levels", "-1"], ["--clip", "0"],
                                       ["--clip", "300"],
                                       ["--algo", "louvain", "--seed", "-1"]])
    def test_bad_encoding_exit_3(self, flags, p3_file, capsys):
        capsys.readouterr()
        assert main(["gdwl", p3_file, p3_file, "--enc", "hdse", *flags]) == 3
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and out == ""

    @pytest.mark.parametrize("clip", ["0", "255"])
    def test_bad_clip_refused_before_coarsening(self, clip, dodeca_file,
                                                monkeypatch, capsys):
        from hdse import refine

        def coarsened(*args, **kwargs):
            raise AssertionError("build_hierarchy called")

        monkeypatch.setattr(refine, "build_hierarchy", coarsened)
        capsys.readouterr()
        assert main(["gdwl", dodeca_file, dodeca_file, "--enc", "hdse",
                     "-L", clip]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: clip must be in [1, 254], got {clip}\n"

    def test_graph_vs_its_permutation(self, tmp_path, dodeca_file):
        from hdse.graph import NodePermutation, permute, write_edge_list
        g = load_edge_list(open(dodeca_file).read())
        gp = permute(g, NodePermutation.random(20, np.random.default_rng(1)))
        f = tmp_path / "perm.txt"
        f.write_text(write_edge_list(gp))
        assert main(["gdwl", dodeca_file, str(f), "--enc", "spd"]) == 1


class TestDemo:
    def test_quick_run_emits_csv(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["demo", "--seeds", "1", "--epochs", "1", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "encoding,seed0,mean"
        assert len(lines) == 4
        for line in lines[1:]:
            for cell in line.split(",")[1:]:
                assert 0.0 <= float(cell) <= 1.0

    def test_per_seed_lines_on_stderr(self, capsys, tmp_path):
        rc = main(["demo", "--seeds", "1", "--epochs", "2",
                   "-o", str(tmp_path / "m.csv")])
        assert rc == 0
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert out == "" and len(lines) == 4
        for enc, line in zip(("none", "spd", "hdse"), lines):
            assert re.fullmatch(
                rf"{enc:<5} seed=0 train=\d\.\d{{3}} val=\d\.\d{{3}} "
                r"test=\d\.\d{3} best_epoch=[01]", line), line
        assert lines[3].startswith("verdict: hdse ")

    def test_extreme_valid_lr_exit_0(self, capsys):
        # a valid setting runs to the end: no command turns an error raised
        # inside the run into exit 3, so a stray one would fail here
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["demo", "--seeds", "1", "--epochs", "2",
                         "--lr", "1e308"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("encoding,seed0,mean\n")
        assert err.splitlines()[-1].startswith("verdict: hdse ")
        # the first update overflows the weights: training stops at the next
        # epoch's non-finite loss, with no numpy warning, and keeps epoch 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in err
        best = [line.split("best_epoch=")[1] for line in err.splitlines()
                if "best_epoch=" in line]
        assert best == ["0", "0", "0"]

    def test_invalid_hyperparameters_exit_3(self, capsys):
        for flags in (["--epochs", "0"], ["--seeds", "0"], ["--seed", "-1"],
                      ["--lr", "0"], ["--lr", "inf"], ["--lr", "nan"]):
            capsys.readouterr()
            assert main(["demo", "--epochs", "1", *flags]) == 3, flags
            out, err = capsys.readouterr()
            assert err.startswith("error: ") and out == "", flags


class TestDeterminism:
    def test_coarsen_byte_identical(self, tmp_path, dodeca_file):
        outs = []
        for i in range(3):
            f = tmp_path / f"h{i}.json"
            assert main(["coarsen", dodeca_file, "--algo", "louvain",
                         "--seed", "7", "-o", str(f)]) == 0
            outs.append(f.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_gdwl_byte_identical(self, tmp_path, dodeca_file):
        outs = []
        for i in range(3):
            f = tmp_path / f"v{i}.json"
            main(["gdwl", dodeca_file, dodeca_file, "--enc", "hdse",
                  "--seed", "3", "-o", str(f)])
            outs.append(f.read_bytes())
        assert outs[0] == outs[1] == outs[2]
