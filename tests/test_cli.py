"""Tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.noise.lsk import LskTable


def _src_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class TestParser:
    def test_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_tables_defaults(self):
        args = build_parser().parse_args(["tables"])
        assert args.command == "tables"
        assert args.scale == pytest.approx(0.03)
        assert "ibm01" in args.circuits

    def test_compare_arguments(self):
        args = build_parser().parse_args(
            ["compare", "--circuit", "ibm04", "--rate", "0.5", "--scale", "0.02"]
        )
        assert args.circuit == "ibm04"
        assert args.rate == pytest.approx(0.5)
        assert args.workers == 1
        assert args.no_cache is False

    def test_engine_arguments(self):
        args = build_parser().parse_args(["compare", "--workers", "2", "--no-cache"])
        assert args.workers == 2
        assert args.no_cache is True
        args = build_parser().parse_args(["tables", "--workers", "3"])
        assert args.workers == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--workers", "0"])

    @pytest.mark.parametrize("command", ["compare", "flows", "tables", "serve"])
    def test_backend_flag_is_gone(self, command, tmp_path):
        """The worker count picks the backend; --backend is an argparse error."""
        argv = [command, "--backend", "process"]
        if command == "serve":
            argv += ["--root", str(tmp_path / "svc")]
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(argv)
        assert raised.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--root", "x", "--backend", "2"],
            ["compare", "--circ", "ibm01"],
            ["tables", "--sca", "0.01"],
        ],
    )
    def test_options_never_match_by_prefix(self, argv):
        """An abbreviation — or a retired option prefixing a live one, as
        ``--backend`` prefixes ``--backend-workers`` — is an argparse error."""
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(argv)
        assert raised.value.code == 2

    def test_characterize_arguments(self, tmp_path):
        args = build_parser().parse_args(
            ["characterize", "--samples", "16", "--output", str(tmp_path / "t.json")]
        )
        assert args.samples == 16

    def test_store_argument(self, tmp_path):
        args = build_parser().parse_args(["compare", "--store", str(tmp_path / "s")])
        assert args.store == tmp_path / "s"
        args = build_parser().parse_args(["tables", "--store", str(tmp_path / "s")])
        assert args.store == tmp_path / "s"

    def test_service_verbs_parse(self, tmp_path):
        root = str(tmp_path / "svc")
        args = build_parser().parse_args(
            ["serve", "--root", root, "--max-jobs", "2", "--idle-exit", "5", "--poll", "0.1"]
        )
        assert args.command == "serve" and args.max_jobs == 2
        args = build_parser().parse_args(
            ["submit", "--root", root, "--scenario", "smoke",
             "--param", "seed=9", "--priority", "3"]
        )
        assert args.scenario == "smoke" and args.param == ["seed=9"]
        args = build_parser().parse_args(["status", "--root", root, "--json"])
        assert args.json is True
        args = build_parser().parse_args(["cancel", "--root", root, "some-job"])
        assert args.job_id == "some-job"
        args = build_parser().parse_args(["gc", "--root", root, "--max-mb", "8", "--purge-jobs"])
        assert args.purge_jobs is True
        # --root is mandatory for every service verb.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_cluster_verbs_parse(self, tmp_path):
        root = str(tmp_path / "svc")
        args = build_parser().parse_args(
            ["serve", "--root", root, "--workers", "3", "--lease-ttl", "5"]
        )
        assert args.workers == 3 and args.lease_ttl == pytest.approx(5.0)
        assert args.backend_workers == 1
        args = build_parser().parse_args(["status", "--root", root, "--cluster"])
        assert args.cluster is True
        args = build_parser().parse_args(
            ["loadgen", "--root", root, "--scenario", "dense-bus", "--jobs", "6",
             "--param", "panels=2", "--timeout", "30"]
        )
        assert args.jobs == 6 and args.param == ["panels=2"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--root", root, "--jobs", "0"])

    def test_serve_workers_is_cluster_size_not_backend_pool(self, tmp_path):
        """On serve, --workers is the cluster size; the engine pool inside
        each worker is --backend-workers."""
        from repro.cli import main

        root = str(tmp_path / "svc")
        args = build_parser().parse_args(
            ["serve", "--root", root, "--workers", "1", "--backend-workers", "2"]
        )
        assert args.workers == 1 and args.backend_workers == 2
        # A serial-backend cluster of 1 is valid and runs to idle exit.
        assert main(["serve", "--root", root, "--workers", "1", "--poll", "0.05",
                     "--idle-exit", "0.2"]) == 0

    def test_serve_leaves_sigterm_as_it_found_it(self, tmp_path):
        """An in-process serve — lone worker or supervisor — restores the
        caller's SIGTERM handler when it returns."""
        import signal

        from repro.cli import main

        before = signal.getsignal(signal.SIGTERM)
        root = str(tmp_path / "svc")
        assert main(["serve", "--root", root, "--idle-exit", "0.1", "--poll", "0.05"]) == 0
        assert signal.getsignal(signal.SIGTERM) is before
        assert main(["serve", "--root", root, "--workers", "1", "--poll", "0.05",
                     "--idle-exit", "0.2"]) == 0
        assert signal.getsignal(signal.SIGTERM) is before

    def test_serve_fleet_that_gives_up_exits_1(self, tmp_path, monkeypatch, capsys):
        """A crash-looping fleet must not look like a clean exit to scripts."""
        import repro.service.cluster as cluster_module

        def crash(config, max_jobs=None, idle_exit=None):
            raise SystemExit(3)

        monkeypatch.setattr(cluster_module, "serve_worker", crash)
        root = str(tmp_path / "svc")
        assert main(["serve", "--root", root, "--workers", "1", "--poll", "0.02",
                     "--idle-exit", "60"]) == 1
        captured = capsys.readouterr()
        assert "(10 restart(s))" in captured.out
        assert "restart budget of 10 restart(s) is spent" in captured.err


#: Modules the compare start-up probe (``perfbench``'s set-up import) and a
#: whole compare must never load: none of them runs in a compare.
_NOT_IN_COMPARE = (
    "networkx",
    "scipy",
    "asyncio",
    "http.client",
    "concurrent.futures",
    "multiprocessing",
    "repro.service.gateway",
    "repro.service.cluster",
    "repro.service.scheduler",
    "repro.obs.health",
    "repro.obs.snapshot",
)
_COMPARE_PROBE = "import repro.flow.flows, repro.service.store"
_RUN_COMPARE = """
import tempfile
from repro.bench.ibm import generate_circuit
from repro.engine.cache import SolutionCache
from repro.engine.panels import Engine
from repro.flow.flows import build_context, run_compare
from repro.gsino.config import GsinoConfig
from repro.service.store import ResultStore

circuit = generate_circuit("ibm01", sensitivity_rate=0.3, scale=0.01, seed=3)
config = GsinoConfig(length_scale=1.0 / 0.01 ** 0.5)
with tempfile.TemporaryDirectory() as directory:
    store = ResultStore(directory)
    engine = Engine(cache=SolutionCache(store=store))
    with engine:
        context = build_context(circuit.grid, circuit.netlist, config, engine)
        run_compare(context, store=store)
"""
#: The solver stack: only a process that solves may load any of it.
_SOLVER_STACK = ("numpy", "repro.engine.panels", "repro.sino.anneal", "repro.flow.flows")
#: The control plane at work on a spool: submit a panel job and a flow job
#: (and see a bad parameter refused), then read a snapshot and fleet health.
_SPOOL_RUNTIME = """
import tempfile
from repro.obs.health import collect_fleet_health
from repro.obs.snapshot import ServiceSnapshot
from repro.service.spool import SubmitRequest, submit_jobs

with tempfile.TemporaryDirectory() as root:
    jobs = submit_jobs(root, [
        SubmitRequest("smoke", {"seed": 3}),
        SubmitRequest("flow-compare", {"scale": 0.01}),
    ])
    assert len(jobs) == 2
    try:
        submit_jobs(root, [SubmitRequest("smoke", {"effort": "exhaustive"})])
    except ValueError:
        pass
    else:
        raise AssertionError("a bad effort was admitted")
    snapshot = ServiceSnapshot.collect(root, with_health=True)
    assert snapshot.job_counts == {"queued": 2}, snapshot.job_counts
    collect_fleet_health(root)
"""
_BUILD_WORKER = """
import tempfile
from repro.service.cluster import ClusterWorker, WorkerConfig

with tempfile.TemporaryDirectory() as root:
    ClusterWorker(WorkerConfig(root=root))
"""
#: ``repro serve --workers K`` up to its first fork.  fork() copies only the
#: calling thread, so the supervisor must run no other (``import numpy``
#: alone starts OpenBLAS threads), and each child loads the solver stack
#: itself.
_BUILD_SUPERVISOR = """
import tempfile, threading
import repro.cli
from repro.service.cluster import ClusterConfig, ClusterSupervisor, WorkerConfig

with tempfile.TemporaryDirectory() as root:
    ClusterSupervisor(ClusterConfig(WorkerConfig(root=root), workers=2))
    assert threading.active_count() == 1, threading.enumerate()
"""
#: case -> (code run in a fresh interpreter, modules it must leave unloaded,
#: modules it must load)
_IMPORT_CASES = {
    "probe": (_COMPARE_PROBE, _NOT_IN_COMPARE, ()),
    "compare": (_COMPARE_PROBE + "\n" + _RUN_COMPARE, _NOT_IN_COMPARE, ()),
    "cli": (
        "import repro.cli",
        ("networkx", "scipy", "asyncio", "repro.service.gateway.server") + _SOLVER_STACK,
        (),
    ),
    "gateway": ("import repro.cli, repro.service.gateway.server", _SOLVER_STACK, ()),
    "serve": (
        "import repro.cli, repro.service.cluster",
        ("asyncio", "http.client", "repro.service.gateway") + _SOLVER_STACK,
        (),
    ),
    "spool": (
        "import repro.service.spool, repro.obs.snapshot, repro.obs.health",
        _SOLVER_STACK,
        (),
    ),
    "spool-runtime": (_SPOOL_RUNTIME, _SOLVER_STACK, ()),
    "supervisor": (_BUILD_SUPERVISOR, _SOLVER_STACK, ()),
    "worker": (_BUILD_WORKER, ("asyncio", "repro.service.gateway"), ("repro.engine.panels",)),
}


class TestImportCost:
    @pytest.mark.parametrize("case", sorted(_IMPORT_CASES))
    def test_entry_point_loads_only_what_it_runs(self, case):
        """Each entry point imports only the layers it executes (a module
        set, not a timing: start-up seconds are too noisy to gate)."""
        code, absent, present = _IMPORT_CASES[case]
        probe = (
            f"{code}\nimport json, sys\n"
            f"print(json.dumps([name for name in {absent!r} if name in sys.modules]))\n"
            f"print(json.dumps([name for name in {present!r} if name not in sys.modules]))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=_src_env(), check=True, capture_output=True, text=True, timeout=120,
        )
        loaded, missing = (json.loads(line) for line in result.stdout.splitlines()[-2:])
        assert loaded == [] and missing == []


class TestDeterminism:
    def test_gsino_output_does_not_follow_the_hash_seed(self):
        """Phase III breaks density ties by each net's panel-key order; that
        order must not follow ``PYTHONHASHSEED`` (this instance has a tie)."""
        command = [
            sys.executable, "-m", "repro.cli", "flows", "--run", "gsino",
            "--circuit", "ibm01", "--rate", "0.3", "--scale", "0.02", "--seed", "177458",
        ]
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(_src_env(), PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                command, env=env, check=True, capture_output=True, text=True, timeout=120
            )
            outputs.append(re.sub(r"\d+\.\d+s\b", "<t>", result.stdout))
        assert "shields=" in outputs[0]
        assert outputs[0] == outputs[1]


class TestCommands:
    def test_compare_command_runs(self, capsys):
        exit_code = main(
            ["compare", "--circuit", "ibm01", "--rate", "0.3", "--scale", "0.01", "--seed", "3"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "gsino" in output
        assert "violations=" in output
        # Per-flow runtime and cache hit-rate are surfaced.
        assert "runtime=" in output
        assert "cache_hits=" in output
        assert "panel cache:" in output

    def test_compare_command_with_workers_and_no_cache(self, capsys):
        exit_code = main(
            [
                "compare", "--circuit", "ibm01", "--rate", "0.3",
                "--scale", "0.01", "--seed", "3", "--workers", "2", "--no-cache",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "backend=process" in output
        assert "cache=off" in output
        assert "cache_hits=" not in output

    def test_tables_command_writes_output_file(self, tmp_path, capsys):
        output = tmp_path / "tables.txt"
        exit_code = main(
            [
                "tables",
                "--circuits", "ibm01",
                "--rates", "0.3",
                "--scale", "0.01",
                "--seed", "3",
                "--output", str(output),
            ]
        )
        assert exit_code == 0
        text = output.read_text()
        assert "Table 1" in text and "Table 3" in text
        assert "ibm01" in capsys.readouterr().out

    def test_characterize_command_saves_table(self, tmp_path, capsys):
        output = tmp_path / "table.json"
        exit_code = main(
            ["characterize", "--samples", "12", "--seed", "4", "--output", str(output)]
        )
        assert exit_code == 0
        data = json.loads(output.read_text())
        table = LskTable.from_dict(data)
        assert table.num_entries == 100
        assert "LSK budget" in capsys.readouterr().out

    def test_compare_command_with_store_warm_starts(self, tmp_path, capsys):
        command = [
            "compare", "--circuit", "ibm01", "--rate", "0.3",
            "--scale", "0.01", "--seed", "3",
            "--store", str(tmp_path / "store"),
        ]
        assert main(command) == 0
        cold = capsys.readouterr().out
        assert "persistent store:" in cold and "cold solves" in cold
        # A fresh engine (new in-memory cache) over the same store directory:
        # whole stage artifacts come from disk, so nothing is re-solved —
        # the panel cache is not even consulted.
        assert main(command) == 0
        warm = capsys.readouterr().out
        assert "zero redundant solves" in warm
        assert "stage graph: 0 executed" in warm

    @pytest.mark.parametrize("verb", ["compare", "tables"])
    def test_store_conflicts_with_no_cache(self, tmp_path, verb):
        with pytest.raises(SystemExit):
            main([verb, "--scale", "0.01", "--no-cache", "--store", str(tmp_path / "s")])


class TestServiceCommands:
    def test_submit_list_needs_no_root(self, capsys):
        exit_code = main(["submit", "--list"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "smoke" in output and "dense-bus" in output

    def test_submit_requires_scenario_and_root(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["submit", "--root", str(tmp_path / "svc")])
        with pytest.raises(SystemExit):
            main(["submit", "--scenario", "smoke"])

    def test_submit_operator_errors_are_clean(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        with pytest.raises(SystemExit):
            main(["submit", "--root", root, "--scenario", "smoke", "--param", "not-a-pair"])
        with pytest.raises(SystemExit, match="submit rejected"):
            main(["submit", "--root", root, "--scenario", "no-such-scenario"])
        with pytest.raises(SystemExit, match="submit rejected"):
            main(["submit", "--root", root, "--scenario", "smoke", "--param", "panels=0"])
        with pytest.raises(SystemExit, match="submit rejected"):
            main(["submit", "--root", root, "--scenario", "smoke", "--param", "panels=abc"])
        with pytest.raises(SystemExit, match="submit rejected"):
            main(["submit", "--root", root, "--scenario", "smoke", "--param", "seed=1.5"])

    def test_submit_wait_without_daemon_times_out_cleanly(self, tmp_path, capsys):
        exit_code = main(
            ["submit", "--root", str(tmp_path / "svc"), "--scenario", "smoke",
             "--wait", "0.3"]
        )
        assert exit_code == 1
        assert "is a worker serving" in capsys.readouterr().out

    def test_serve_submit_status_gc_loop(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        assert main(["submit", "--root", root, "--scenario", "smoke", "--param", "seed=5"]) == 0
        submitted = capsys.readouterr().out
        job_id = submitted.split()[1]
        assert main(["serve", "--root", root, "--max-jobs", "1", "--idle-exit", "0.1",
                     "--poll", "0.05"]) == 0
        assert "finished 1 job(s)" in capsys.readouterr().out
        assert main(["status", "--root", root]) == 0
        status = capsys.readouterr().out
        assert job_id in status and "1 done" in status
        assert "cache totals:" in status and "store:" in status
        # A clean exit reads as stopped, despite its fresh heartbeat.
        assert "workers: 0 alive, 1 stopped" in status
        # An in-flight heartbeat (stopped not yet set) reads as a live worker.
        (heartbeat_path,) = (Path(root) / "workers").glob("*.json")
        heartbeat = json.loads(heartbeat_path.read_text())
        heartbeat["stopped"] = False
        heartbeat["updated_at"] = time.time()
        heartbeat_path.write_text(json.dumps(heartbeat))
        assert main(["status", "--root", root]) == 0
        status = capsys.readouterr().out
        assert "workers: 1 alive, 0 stopped" in status
        assert main(["status", "--root", root, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["jobs"]["counts"] == {"done": 1}
        assert main(["gc", "--root", root, "--purge-jobs"]) == 0
        assert "purged 1 job(s)" in capsys.readouterr().out

    def test_lone_worker_serve_drains_a_flat_root(self, tmp_path, capsys):
        """`repro serve` without --workers is one lease-claiming worker."""
        from repro.service.spool import submit_job, wait_for_job

        root = tmp_path / "svc"
        job = submit_job(root, "smoke")  # a flat root with one queued job
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--root", str(root),
             "--max-jobs", "1", "--idle-exit", "30", "--poll", "0.05"],
            env=_src_env(), check=True, capture_output=True, text=True, timeout=120,
        )
        assert wait_for_job(root, job.job_id, timeout=5.0).status == "done"
        # The worker's heartbeat is the only liveness file; none at the top,
        # and a freshly served root carries no layout marker.
        assert len(list((root / "workers").glob("*.json"))) == 1
        assert list(root.glob("*.json")) == []
        assert main(["status", "--root", str(root)]) == 0
        assert "workers: 0 alive, 1 stopped" in capsys.readouterr().out

    def test_sharded_root_is_refused_with_the_migration_hint(self, tmp_path):
        root = tmp_path / "svc"
        (root / "jobs" / "s00").mkdir(parents=True)
        (root / "shards.json").write_text('{"layout_version": 1, "shards": 4}\n')
        for argv in (
            ["serve", "--root", str(root), "--max-jobs", "1", "--idle-exit", "1"],
            ["serve", "--root", str(root), "--workers", "2", "--idle-exit", "1"],
            ["submit", "--root", str(root), "--scenario", "smoke"],
            ["status", "--root", str(root)],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            message = str(excinfo.value.code)
            assert message.startswith(f"repro {argv[0]}: ")
            assert "--shards 1" in message and "drain" in message
        assert not (root / "workers").exists()  # nothing was served
        assert list((root / "jobs").glob("*.json")) == []  # nothing was submitted

    def test_cancel_command(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        main(["submit", "--root", root, "--scenario", "smoke"])
        job_id = capsys.readouterr().out.split()[1]
        assert main(["cancel", "--root", root, job_id]) == 0
        assert "cancellation requested" in capsys.readouterr().out
        assert main(["cancel", "--root", root, "nope"]) == 1

    def test_loadgen_and_cluster_status_loop(self, tmp_path, capsys):
        """loadgen drains through a cluster worker; status --cluster reports it."""
        import threading

        from repro.service.cluster import ClusterWorker, WorkerConfig

        root = tmp_path / "svc"
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.02, lease_ttl=5.0))
        thread = threading.Thread(target=worker.run, kwargs={"idle_exit": 0.5})
        thread.start()
        try:
            exit_code = main(
                ["loadgen", "--root", str(root), "--scenario", "smoke",
                 "--jobs", "3", "--timeout", "30"]
            )
        finally:
            thread.join()
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "3 job(s) submitted" in output
        assert "3 done, 0 failed, 0 cancelled" in output
        assert "throughput" in output and "p50=" in output
        assert main(["status", "--root", str(root), "--cluster"]) == 0
        status = capsys.readouterr().out
        assert "cluster: 1 workers" in status
        assert "done=3" in status and "reclaimed=0" in status
        assert main(["status", "--root", str(root), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cluster"]["workers"][worker.identity.worker_id]["alive"] is False

    def test_loadgen_rejects_unknown_scenario(self, tmp_path):
        with pytest.raises(SystemExit, match="loadgen rejected"):
            main(["loadgen", "--root", str(tmp_path / "svc"), "--scenario", "nope"])

    def test_loadgen_no_wait_submits_and_returns(self, tmp_path, capsys):
        root = tmp_path / "svc"
        assert main(
            ["loadgen", "--root", str(root), "--scenario", "smoke",
             "--jobs", "2", "--no-wait"]
        ) == 0
        output = capsys.readouterr().out
        assert "2 job(s) submitted" in output
        assert len(list((root / "jobs").glob("*.json"))) == 2
