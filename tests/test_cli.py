"""The command-line interface, driven through temp JSON files."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def workspace(tmp_path):
    """Schema/sigma/view files for the Example 1.1 UK branch."""
    attrs = ["AC", "phn", "name", "street", "city", "zip"]
    schema = {
        "relations": [
            {"name": f"R{i}", "attributes": attrs} for i in (1, 2, 3)
        ]
    }
    sigma = [
        {"kind": "fd", "relation": "R1", "lhs": ["zip"], "rhs": ["street"]},
        {"kind": "fd", "relation": "R1", "lhs": ["AC"], "rhs": ["city"]},
        {
            "kind": "cfd",
            "relation": "R1",
            "lhs": {"AC": "20"},
            "rhs": {"city": "ldn"},
        },
    ]
    view = {
        "name": "R",
        "branches": [
            {
                "atoms": [{"source": "R1", "prefix": ""}],
                "projection": attrs + ["CC"],
                "constants": {"CC": "44"},
            },
            {
                "atoms": [{"source": "R2", "prefix": ""}],
                "projection": attrs + ["CC"],
                "constants": {"CC": "01"},
            },
        ],
    }
    paths = {}
    for name, doc in [("schema", schema), ("sigma", sigma), ("view", view)]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheck:
    def test_propagated_exit_zero(self, workspace, capsys):
        phi = _write(
            workspace["dir"],
            "phi.json",
            {
                "kind": "cfd",
                "relation": "R",
                "lhs": {"CC": "44", "zip": "_"},
                "rhs": {"street": "_"},
            },
        )
        code = main(
            ["check", "--schema", workspace["schema"], "--sigma",
             workspace["sigma"], "--view", workspace["view"], "--phi", phi]
        )
        assert code == 0
        assert "PROPAGATED" in capsys.readouterr().out

    def test_not_propagated_exit_one_with_witness(self, workspace, capsys):
        phi = _write(
            workspace["dir"],
            "phi.json",
            {
                "kind": "cfd",
                "relation": "R",
                "lhs": {"zip": "_"},
                "rhs": {"street": "_"},
            },
        )
        code = main(
            ["check", "--schema", workspace["schema"], "--sigma",
             workspace["sigma"], "--view", workspace["view"], "--phi", phi,
             "--witness"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "not propagated" in out
        assert "R2" in out  # the witness database is printed

    def test_list_of_targets(self, workspace, capsys):
        phi = _write(
            workspace["dir"],
            "phis.json",
            [
                {
                    "kind": "cfd",
                    "relation": "R",
                    "lhs": {"CC": "44", "zip": "_"},
                    "rhs": {"street": "_"},
                },
                {
                    "kind": "cfd",
                    "relation": "R",
                    "lhs": {"zip": "_"},
                    "rhs": {"street": "_"},
                },
            ],
        )
        code = main(
            ["check", "--schema", workspace["schema"], "--sigma",
             workspace["sigma"], "--view", workspace["view"], "--phi", phi]
        )
        assert code == 1  # one of the two fails


class TestPropagateBatch:
    TARGETS = [
        {
            "kind": "cfd",
            "relation": "R",
            "lhs": {"CC": "44", "zip": "_"},
            "rhs": {"street": "_"},
        },
        {
            "kind": "cfd",
            "relation": "R",
            "lhs": {"zip": "_"},
            "rhs": {"street": "_"},
        },
        {
            "kind": "cfd",
            "relation": "R",
            "lhs": {"CC": "44", "AC": "_"},
            "rhs": {"city": "_"},
        },
    ]

    def _run(self, workspace, phi_doc, *extra):
        phi = _write(workspace["dir"], "batch.json", phi_doc)
        return main(
            ["propagate-batch", "--schema", workspace["schema"], "--sigma",
             workspace["sigma"], "--view", workspace["view"], "--phi", phi,
             *extra]
        )

    def test_batch_verdicts_and_exit_code(self, workspace, capsys):
        code = self._run(workspace, self.TARGETS)
        assert code == 1  # the unconditioned FD fails
        out, err = capsys.readouterr()
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 3
        assert lines[0].startswith("PROPAGATED")
        assert lines[1].startswith("not propagated")
        assert lines[2].startswith("PROPAGATED")
        assert "2/3 propagated" in err

    def test_all_propagated_exit_zero_with_stats(self, workspace, capsys):
        code = self._run(workspace, [self.TARGETS[0]], "--stats")
        assert code == 0
        assert "EngineStats" in capsys.readouterr().err

    def test_no_cache_matches_cached(self, workspace, capsys):
        cached = self._run(workspace, self.TARGETS)
        out_cached = capsys.readouterr().out
        uncached = self._run(workspace, self.TARGETS, "--no-cache")
        out_uncached = capsys.readouterr().out
        assert cached == uncached
        assert out_cached == out_uncached

    def test_out_file_keeps_propagated_targets(self, workspace, capsys):
        out_path = workspace["dir"] / "survivors.json"
        self._run(workspace, self.TARGETS, "--out", str(out_path))
        survivors = json.loads(out_path.read_text())
        assert len(survivors) == 2


class TestCover:
    def test_cover_written_to_file(self, workspace, capsys):
        out_path = workspace["dir"] / "cover.json"
        code = main(
            ["cover", "--schema", workspace["schema"], "--sigma",
             workspace["sigma"], "--view", workspace["view"],
             "--out", str(out_path)]
        )
        assert code == 0
        cover = json.loads(out_path.read_text())
        assert cover  # nonempty list of dependency documents
        assert all("kind" in doc for doc in cover)


class TestEmpty:
    def test_nonempty_view(self, workspace, capsys):
        code = main(
            ["empty", "--schema", workspace["schema"], "--sigma",
             workspace["sigma"], "--view", workspace["view"]]
        )
        assert code == 0
        assert "NONEMPTY" in capsys.readouterr().out


class TestValidateAndRepair:
    @pytest.fixture
    def data_files(self, workspace):
        rules = [
            {"kind": "fd", "relation": "R1", "lhs": ["zip"], "rhs": ["street"]},
        ]
        dirty_row = {
            "AC": "20", "phn": "1", "name": "a", "street": "S1",
            "city": "LDN", "zip": "Z",
        }
        dirty_row2 = dict(dirty_row, phn="2", name="b", street="S2")
        data = {"R1": [dirty_row, dirty_row2], "R2": [], "R3": []}
        return (
            _write(workspace["dir"], "rules.json", rules),
            _write(workspace["dir"], "data.json", data),
        )

    def test_validate_reports_violations(self, workspace, data_files, capsys):
        rules, data = data_files
        code = main(
            ["validate", "--schema", workspace["schema"], "--rules", rules,
             "--data", data]
        )
        assert code == 1
        assert "violation" in capsys.readouterr().out

    def test_repair_fixes_and_writes(self, workspace, data_files, capsys):
        rules, data = data_files
        out_path = workspace["dir"] / "fixed.json"
        code = main(
            ["repair", "--schema", workspace["schema"], "--rules", rules,
             "--data", data, "--out", str(out_path)]
        )
        assert code == 0
        fixed = json.loads(out_path.read_text())
        streets = {row["street"] for row in fixed["R1"]}
        assert len(streets) == 1  # the conflict was repaired

        code = main(
            ["validate", "--schema", workspace["schema"], "--rules", rules,
             "--data", str(out_path)]
        )
        assert code == 0


class TestErrors:
    """Exit codes follow the stable ApiError taxonomy (docs/api.md)."""

    def test_missing_file_exit_two(self, workspace, capsys):
        code = main(
            ["empty", "--schema", "/nonexistent.json", "--sigma",
             workspace["sigma"], "--view", workspace["view"]]
        )
        assert code == 2
        assert "error[not-found]" in capsys.readouterr().err

    def test_malformed_document_exit_two_with_format_kind(
        self, workspace, capsys
    ):
        bad_sigma = _write(
            workspace["dir"], "bad.json", [{"kind": "who-knows"}]
        )
        code = main(
            ["empty", "--schema", workspace["schema"], "--sigma", bad_sigma,
             "--view", workspace["view"]]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error[format]" in err
        assert len(err.strip().splitlines()) == 1  # one-line message

    def test_unprojected_target_exit_two_with_bad_request_kind(
        self, workspace, capsys
    ):
        phi = _write(
            workspace["dir"],
            "phi.json",
            {"kind": "cfd", "relation": "R", "lhs": {"zip": "_"},
             "rhs": {"nonexistent": "_"}},
        )
        code = main(
            ["check", "--schema", workspace["schema"], "--sigma",
             workspace["sigma"], "--view", workspace["view"], "--phi", phi]
        )
        assert code == 2
        assert "error[bad-request]" in capsys.readouterr().err

    def test_every_analysis_subcommand_reports_one_line_errors(
        self, workspace, capsys
    ):
        for command, extra in [
            ("check", ["--phi", workspace["sigma"]]),
            ("propagate-batch", ["--phi", workspace["sigma"]]),
            ("cover", []),
            ("empty", []),
        ]:
            code = main(
                [command, "--schema", "/nonexistent.json", "--sigma",
                 workspace["sigma"], "--view", workspace["view"], *extra]
            )
            assert code == 2, command
            err = capsys.readouterr().err
            assert err.startswith("error[not-found]"), (command, err)
            assert len(err.strip().splitlines()) == 1, command


class TestEndpoints:
    """--endpoint / REPRO_ENDPOINT: any invocation can target a fleet."""

    def _phi(self, workspace):
        return _write(
            workspace["dir"],
            "phi.json",
            {
                "kind": "cfd",
                "relation": "R",
                "lhs": {"CC": "44", "zip": "_"},
                "rhs": {"street": "_"},
            },
        )

    def test_check_against_a_live_endpoint_shares_its_warm_cache(
        self, workspace, capsys
    ):
        from repro.api import PropagationService, background_server

        phi = self._phi(workspace)
        base = [
            "--schema", workspace["schema"], "--sigma", workspace["sigma"],
            "--view", workspace["view"], "--phi", phi,
        ]
        with PropagationService() as service:
            with background_server(service, "tcp") as url:
                first = main(["check", *base, "--endpoint", url])
                second = main(["check", *base, "--endpoint", url])
            assert first == second == 0
            out = capsys.readouterr().out
            assert out.count("PROPAGATED") == 2
            # Both invocations hit one warm server: the second a memo hit.
            assert service.stats.check_queries == 2
            assert service.stats.verdict_hits == 1

    def test_endpoint_env_var_is_honored(self, workspace, capsys, monkeypatch):
        from repro.api import PropagationService, background_server

        phi = self._phi(workspace)
        with PropagationService() as service:
            with background_server(service, "http") as url:
                monkeypatch.setenv("REPRO_ENDPOINT", url)
                code = main(
                    ["check", "--schema", workspace["schema"], "--sigma",
                     workspace["sigma"], "--view", workspace["view"],
                     "--phi", phi]
                )
            assert code == 0
            assert service.stats.check_queries == 1  # really went over HTTP

    def test_invocations_register_under_unique_scopes(self, workspace, capsys):
        """Two invocations on one shared server must not clobber each
        other's registrations (names are per-invocation unique; warmth
        is shared through structural cache keys, not names)."""
        from repro.api import PropagationService, background_server

        phi = self._phi(workspace)
        base = [
            "--schema", workspace["schema"], "--sigma", workspace["sigma"],
            "--view", workspace["view"], "--phi", phi,
        ]
        with PropagationService() as service:
            with background_server(service, "tcp") as url:
                assert main(["check", *base, "--endpoint", url]) == 0
                assert main(["check", *base, "--endpoint", url]) == 0
            names = service.workspace.names()
            assert "default" not in names["sigmas"]
            assert len(names["sigmas"]) == 2  # one scope per invocation
            assert all(name.startswith("cli-") for name in names["sigmas"])
            assert service.stats.verdict_hits == 1  # warmth still shared

    def test_env_endpoint_does_not_break_validate(
        self, workspace, capsys, monkeypatch
    ):
        """An ambient REPRO_ENDPOINT (set for check/cover) must not fail
        the purely-local data commands."""
        rules = _write(
            workspace["dir"],
            "rules.json",
            [{"kind": "fd", "relation": "R1", "lhs": ["zip"], "rhs": ["street"]}],
        )
        data = _write(workspace["dir"], "data.json", {"R1": [], "R2": [], "R3": []})
        monkeypatch.setenv("REPRO_ENDPOINT", "tcp://warm-server:9999")
        code = main(
            ["validate", "--schema", workspace["schema"], "--rules", rules,
             "--data", data]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_unreachable_endpoint_exits_five(self, workspace, capsys):
        import socket

        phi = self._phi(workspace)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        code = main(
            ["check", "--schema", workspace["schema"], "--sigma",
             workspace["sigma"], "--view", workspace["view"], "--phi", phi,
             "--endpoint", f"tcp://127.0.0.1:{port}"]
        )
        assert code == 5
        assert "error[unavailable]" in capsys.readouterr().err

    def test_unknown_scheme_exits_two(self, workspace, capsys):
        phi = self._phi(workspace)
        code = main(
            ["check", "--schema", workspace["schema"], "--sigma",
             workspace["sigma"], "--view", workspace["view"], "--phi", phi,
             "--endpoint", "gopher://nope:1"]
        )
        assert code == 2
        assert "error[bad-request]" in capsys.readouterr().err

    def test_validate_rejects_remote_endpoints(self, workspace, capsys):
        rules = _write(
            workspace["dir"],
            "rules.json",
            [{"kind": "fd", "relation": "R1", "lhs": ["zip"], "rhs": ["street"]}],
        )
        data = _write(workspace["dir"], "data.json", {"R1": [], "R2": [], "R3": []})
        code = main(
            ["validate", "--schema", workspace["schema"], "--rules", rules,
             "--data", data, "--endpoint", "tcp://127.0.0.1:9"]
        )
        assert code == 2
        assert "error[bad-request]" in capsys.readouterr().err


class TestStoreUrl:
    """--store-url / REPRO_STORE_URL: the shared persistent tier."""

    def _phi(self, workspace):
        return _write(
            workspace["dir"],
            "phi.json",
            {
                "kind": "cfd",
                "relation": "R",
                "lhs": {"CC": "44", "zip": "_"},
                "rhs": {"street": "_"},
            },
        )

    def _base(self, workspace):
        return [
            "--schema", workspace["schema"], "--sigma", workspace["sigma"],
            "--view", workspace["view"], "--phi", self._phi(workspace),
        ]

    def test_unknown_scheme_exits_two_with_format_kind(self, workspace, capsys):
        code = main(
            ["propagate-batch", *self._base(workspace),
             "--store-url", "bogus://somewhere"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error[format]" in err
        assert "bogus" in err
        assert "Traceback" not in err

    def test_malformed_url_exits_two_with_format_kind(self, workspace, capsys):
        code = main(
            ["propagate-batch", *self._base(workspace),
             "--store-url", "not-a-url"]
        )
        assert code == 2
        assert "error[format]" in capsys.readouterr().err

    def test_env_var_is_honored_and_equally_typed(
        self, workspace, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE_URL", "bogus://somewhere")
        code = main(["propagate-batch", *self._base(workspace)])
        assert code == 2
        assert "error[format]" in capsys.readouterr().err

    def test_two_invocations_share_warmth_through_store(
        self, workspace, capsys, tmp_path
    ):
        url = f"sqlite://{tmp_path / 'shared'}"
        base = self._base(workspace)
        assert main(
            ["propagate-batch", *base, "--stats", "--store-url", url]
        ) == 0
        cold = capsys.readouterr().err
        assert main(
            ["propagate-batch", *base, "--stats", "--store-url", url]
        ) == 0
        warm = capsys.readouterr().err
        assert "chase_invocations=0" not in cold
        assert "chase_invocations=0" in warm  # answered from the shared store


class TestServeParser:
    def test_serve_subcommand_exists_with_optional_files(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.command == "serve"
        assert args.schema is None and args.port == 0
        assert args.transport == "ndjson"

    def test_serve_http_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--transport", "http"])
        assert args.transport == "http"

    def test_no_direct_procedure_imports_left_in_cli(self):
        """cli.py is a thin client: every query routes via repro.api."""
        import inspect

        import repro.cli as cli

        source = inspect.getsource(cli)
        assert "from .propagation" not in source
        assert "propagates(" not in source
        assert "find_counterexample" not in source
        assert "view_is_empty" not in source
        assert "PropagationEngine" not in source
