"""CLI (python -m repro) tests."""

import subprocess
import sys

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_args(self):
        args = build_parser().parse_args(
            ["campaign", "--kind", "stack", "-n", "25",
             "--arch", "ppc", "--seed", "3"])
        assert args.kind == "stack"
        assert args.count == 25
        assert args.arch == "ppc"

    def test_bad_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--kind", "bogus"])

    def test_workers_flag_parsed(self):
        args = build_parser().parse_args(
            ["campaign", "--kind", "data", "--workers", "3"])
        assert args.workers == 3
        args = build_parser().parse_args(["study", "--workers", "2"])
        assert args.workers == 2

    def test_workers_defaults_to_serial(self):
        assert build_parser().parse_args(
            ["campaign", "--kind", "data"]).workers == 1
        assert build_parser().parse_args(["study"]).workers == 1

    @pytest.mark.parametrize("bad", ["0", "-2", "1.5", "many"])
    def test_workers_rejects_non_positive(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "--kind", "data", "--workers", bad])

    @pytest.mark.parametrize("command",
                             [["campaign", "--kind", "data"], ["study"]])
    def test_store_flags_parsed(self, command):
        args = build_parser().parse_args(
            command + ["--store", "/tmp/s", "--resume", "--progress"])
        assert args.store == "/tmp/s"
        assert args.resume and args.progress
        defaults = build_parser().parse_args(command)
        assert defaults.store is None
        assert not defaults.resume and not defaults.progress

    def test_resume_requires_store(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--kind", "data", "--resume"])

    @pytest.mark.parametrize("argv,fragment", [
        (["-n", "0"], "count"),
        (["-n", "-3"], "count"),
        (["--ops", "0"], "ops"),
        (["--checkpoints", "-1"], "checkpoints"),
    ])
    def test_campaign_rejects_bad_config(self, argv, fragment):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--kind", "stack"] + argv)
        message = str(excinfo.value.code)
        assert message.startswith("error:") and fragment in message
        assert "\n" not in message

    def test_bad_count_exits_without_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "--kind",
             "stack", "-n", "-3"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip() == "error: count must be >= 1, got -3"

    def test_static_subcommand_parsed(self):
        args = build_parser().parse_args(["static"])
        assert args.arch == "both" and args.validate is None
        args = build_parser().parse_args(
            ["static", "--arch", "ppc", "--validate", "25",
             "--workers", "2"])
        assert args.arch == "ppc"
        assert args.validate == 25
        assert args.workers == 2

    def test_store_subcommand_parsed(self):
        args = build_parser().parse_args(["store", "ls", "/tmp/s"])
        assert args.dir == "/tmp/s"
        args = build_parser().parse_args(
            ["store", "verify", "/tmp/s", "--campaign", "abc"])
        assert args.campaign == "abc"
        args = build_parser().parse_args(
            ["store", "export", "/tmp/s", "abc", "out.jsonl"])
        assert args.output == "out.jsonl"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])


class TestCommands:
    def test_disasm(self, capsys):
        assert main(["disasm", "kupdate", "--arch", "ppc"]) == 0
        out = capsys.readouterr().out
        assert "kupdate [fs]" in out
        assert "stwu r1," in out

    def test_disasm_unknown_function(self, capsys):
        assert main(["disasm", "not_a_fn"]) == 1

    def test_profile(self, capsys):
        assert main(["profile", "--arch", "ppc", "--ops", "8"]) == 0
        out = capsys.readouterr().out
        assert "memcpy" in out

    def test_campaign_with_json(self, tmp_path, capsys):
        out_path = str(tmp_path / "r.jsonl")
        assert main(["campaign", "--kind", "data", "-n", "30",
                     "--arch", "ppc", "--ops", "36",
                     "--json", out_path]) == 0
        out = capsys.readouterr().out
        assert "Data" in out
        from repro.analysis.export import load_results
        assert len(load_results(out_path)) == 30

    def test_campaign_store_roundtrip(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["campaign", "--kind", "data", "-n", "20",
                     "--arch", "x86", "--ops", "36", "--progress",
                     "--store", store_dir]) == 0
        err = capsys.readouterr().err
        assert "/20 injected" in err
        # ls shows the campaign, verify is clean
        assert main(["store", "ls", store_dir]) == 0
        out = capsys.readouterr().out
        assert "data" in out and "x86" in out
        assert main(["store", "verify", store_dir]) == 0
        assert "ok (20 records)" in capsys.readouterr().out
        # resume of the complete campaign is a no-op replay
        assert main(["campaign", "--kind", "data", "-n", "20",
                     "--arch", "x86", "--ops", "36",
                     "--store", store_dir, "--resume"]) == 0
        capsys.readouterr()
        # export round-trips through the shared codec
        out_path = str(tmp_path / "out.jsonl")
        from repro.store import CampaignStore
        campaign_id = CampaignStore(store_dir).campaign_ids()[0]
        assert main(["store", "export", store_dir, campaign_id,
                     out_path]) == 0
        from repro.analysis.export import load_results
        assert len(load_results(out_path)) == 20

    def test_campaign_workers_smoke(self, capsys):
        assert main(["campaign", "--kind", "data", "-n", "16",
                     "--arch", "x86", "--ops", "36",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Data" in out

    def test_subprocess_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "study" in proc.stdout


class TestServiceParser:
    def test_serve_args(self):
        args = build_parser().parse_args(["serve", "--store", "/tmp/s"])
        assert args.store == "/tmp/s"
        assert args.workers == 2
        assert args.host == "127.0.0.1"
        assert args.port == 8321
        args = build_parser().parse_args(
            ["serve", "--store", "/tmp/s", "--workers", "4",
             "--host", "0.0.0.0", "--port", "0"])
        assert args.workers == 4 and args.port == 0

    def test_serve_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_submit_args(self):
        args = build_parser().parse_args(
            ["submit", "--kind", "register", "--arch", "ppc",
             "-n", "10", "--tenant", "team-a", "--priority", "3",
             "--workers", "2", "--wait", "--timeout", "60",
             "--url", "http://127.0.0.1:9999"])
        assert args.kind == "register" and args.count == 10
        assert args.tenant == "team-a" and args.priority == 3
        assert args.wait and args.timeout == 60.0
        assert args.url == "http://127.0.0.1:9999"
        defaults = build_parser().parse_args(
            ["submit", "--kind", "stack"])
        assert defaults.tenant == "default"
        assert defaults.priority == 0
        assert not defaults.wait

    def test_jobs_and_cancel_args(self):
        args = build_parser().parse_args(
            ["jobs", "--tenant", "t", "--state", "done"])
        assert args.tenant == "t" and args.state == "done"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["jobs", "--state", "bogus"])
        args = build_parser().parse_args(["cancel", "job-000001"])
        assert args.job == "job-000001"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cancel"])


class TestStoreErrorPaths:
    """Satellite: store subcommands fail cleanly — exit 1 and a
    one-line stderr message, never a traceback."""

    def test_ls_missing_store(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["store", "ls", missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no store directory" in err

    def test_export_missing_store(self, tmp_path, capsys):
        assert main(["store", "export", str(tmp_path / "nope"),
                     "some-campaign", str(tmp_path / "o.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_export_unknown_campaign(self, tmp_path, capsys):
        from repro.store import CampaignStore
        CampaignStore(tmp_path / "s")      # create an empty store
        assert main(["store", "export", str(tmp_path / "s"),
                     "no-such-campaign", str(tmp_path / "o.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_ls_corrupt_manifest(self, tmp_path, capsys):
        import json as json_mod
        from repro.store import CampaignStore
        from repro.injection.campaign import CampaignConfig
        from repro.injection.outcomes import CampaignKind
        store = CampaignStore(tmp_path / "s")
        opened = store.open(CampaignConfig(
            arch="x86", kind=CampaignKind.DATA, count=4, seed=0,
            ops=36))
        opened.close()
        manifest_path = (store.campaign_dir(opened.manifest.campaign_id)
                         / "manifest.json")
        payload = json_mod.loads(manifest_path.read_text())
        payload["count"] = 999             # breaks the manifest hash
        manifest_path.write_text(json_mod.dumps(payload))
        assert main(["store", "ls", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "hash mismatch" in err

    def test_ls_missing_store_subprocess_no_traceback(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "store", "ls",
             str(tmp_path / "nope")],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")


class TestServiceCommands:
    def test_client_commands_against_dead_daemon(self, capsys):
        import socket
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        url = f"http://127.0.0.1:{port}"    # nothing listens here
        assert main(["submit", "--kind", "stack", "-n", "5",
                     "--url", url]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["jobs", "--url", url]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["cancel", "job-000000", "--url", url]) == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_missing_parent_is_created(self, tmp_path):
        # `repro serve --store` on a fresh dir must not fail before
        # binding: run_daemon validates by creating the store
        from repro.store import CampaignStore
        CampaignStore(tmp_path / "fresh")
        assert (tmp_path / "fresh").is_dir()
