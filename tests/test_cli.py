"""The command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _parse_device_counts, _parse_resize, build_parser, main


class TestParsing:
    def test_device_counts(self):
        assert _parse_device_counts("V100=2,P100=4") == {"V100": 2, "P100": 4}

    def test_device_counts_bad(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_device_counts("V100")
        for bad in ("V100=x", "V100=0", "H100=2", "V100=1,V100=2"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_device_counts(bad)

    def test_resize(self):
        assert _parse_resize("2:4") == (2, 4)
        import argparse

        for bad in ("2-4", "0:0", "-1:2", "x:2"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_resize(bad)

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--workload", "nope",
                                       "--batch", "8", "--virtual-nodes", "2"])


# Minimal valid argv per subcommand, for cross-command parse coverage.
VALID_ARGS = {
    "train": ["train", "--workload", "mlp_synthetic", "--batch", "32",
              "--virtual-nodes", "4"],
    "infer": ["infer", "--workload", "mlp_synthetic", "--batch", "32",
              "--virtual-nodes", "4"],
    "serve": ["serve", "--workload", "mlp_synthetic",
              "--arrival-rate", "100"],
    "cosched": ["cosched", "--workload", "mlp_synthetic",
                "--arrival-rate", "100"],
    "chaos": ["chaos", "--workload", "mlp_synthetic",
              "--arrival-rate", "100"],
    "plan": ["plan", "--workload", "mlp_synthetic", "--batch", "32",
             "--virtual-nodes", "4"],
    "profile": ["profile", "--workload", "mlp_synthetic"],
    "solve": ["solve", "--workload", "mlp_synthetic", "--batch", "64",
              "--pool", "V100=2"],
    "simulate": ["simulate"],
    "gavel": ["gavel"],
}


class TestSubcommandParsing:
    """Every subcommand parses its minimal argv and rejects bad flags."""

    @pytest.mark.parametrize("command", sorted(VALID_ARGS))
    def test_minimal_argv_parses(self, command):
        args = build_parser().parse_args(VALID_ARGS[command])
        assert args.command == command

    @pytest.mark.parametrize("command", ["train"])
    def test_backend_flag_accepts_registered_names(self, command):
        """``train --backend fused`` still parses: older command lines
        spell the one backend."""
        args = build_parser().parse_args(VALID_ARGS[command] + ["--backend", "fused"])
        assert args.backend == "fused"

    @pytest.mark.parametrize("command", ["train", "infer", "serve", "cosched",
                                         "simulate"])
    def test_unknown_backend_rejected(self, command):
        for backend in ("bogus", "reference"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    VALID_ARGS[command] + ["--backend", backend])

    def test_arena_flag_is_train_only(self):
        """The flat tensor arena is training's alone and always installed,
        so no subcommand — train included — takes ``--no-arena``."""
        from repro.core import TrainerConfig, VirtualFlowTrainer

        for command in sorted(VALID_ARGS):
            with pytest.raises(SystemExit):
                build_parser().parse_args(VALID_ARGS[command] + ["--no-arena"])
        trainer = VirtualFlowTrainer(TrainerConfig(
            workload="mlp_synthetic", global_batch_size=8, num_virtual_nodes=2,
            dataset_size=32))
        assert trainer.executor.arena is not None

    @pytest.mark.parametrize("command", ["serve", "cosched", "chaos",
                                         "simulate"])
    def test_trace_out_accepted_on_runtime_commands(self, command):
        args = build_parser().parse_args(
            VALID_ARGS[command] + ["--trace-out", "timeline.jsonl"])
        assert args.trace_out == "timeline.jsonl"
        for other in ("train", "infer", "plan", "gavel"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    VALID_ARGS[other] + ["--trace-out", "x.jsonl"])

    @pytest.mark.parametrize("command,missing", [
        ("train", ["train", "--workload", "mlp_synthetic", "--batch", "32"]),
        ("train", ["train", "--batch", "32", "--virtual-nodes", "4"]),
        ("infer", ["infer", "--workload", "mlp_synthetic", "--batch", "32"]),
        ("serve", ["serve", "--workload", "mlp_synthetic"]),
        ("serve", ["serve", "--arrival-rate", "100"]),
        ("cosched", ["cosched", "--workload", "mlp_synthetic"]),
        ("cosched", ["cosched", "--arrival-rate", "100"]),
        ("solve", ["solve", "--workload", "mlp_synthetic", "--batch", "64"]),
    ])
    def test_missing_required_arguments_rejected(self, command, missing):
        with pytest.raises(SystemExit):
            build_parser().parse_args(missing)

    @pytest.mark.parametrize("argv", [
        ["train", "--workload", "mlp_synthetic", "--batch", "x",
         "--virtual-nodes", "4"],
        ["serve", "--workload", "mlp_synthetic", "--arrival-rate", "fast"],
        ["serve", "--workload", "mlp_synthetic", "--arrival-rate", "100",
         "--max-batch", "many"],
        ["simulate", "--rate", "fast"],
    ])
    def test_non_numeric_values_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize("extra", [
        ["--arrival-rate", "0"],
        ["--arrival-rate", "-5"],
        ["--duration", "0"],
        ["--spike-duration", "-1"],
        ["--spike-factor", "0.5"],
        ["--max-wait", "-2"],
        ["--max-batch", "0"],
        ["--devices", "0"],
        ["--initial-devices", "-1"],
        ["--virtual-nodes", "0"],
        ["--requests", "0"],
        ["--slo-p99", "0"],
    ])
    def test_serve_out_of_range_values_rejected(self, extra):
        argv = ["serve", "--workload", "mlp_synthetic"]
        if "--arrival-rate" not in extra:
            argv += ["--arrival-rate", "100"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + extra)

    @pytest.mark.parametrize("extra", [
        ["--arrival-rate", "0"],
        ["--spike-factor", "0.5"],
        ["--devices", "0"],
        ["--initial-serving", "0"],
        ["--train-jobs", "0"],
        ["--train-demand", "0"],
        ["--train-floor", "-1"],
        ["--resize-delay", "-1"],
        ["--slo-p99", "0"],
    ])
    def test_cosched_out_of_range_values_rejected(self, extra):
        argv = ["cosched", "--workload", "mlp_synthetic"]
        if "--arrival-rate" not in extra:
            argv += ["--arrival-rate", "100"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + extra)

    def test_serve_zero_max_wait_allowed(self):
        args = build_parser().parse_args(
            VALID_ARGS["serve"] + ["--max-wait", "0"])
        assert args.max_wait == 0.0

    def test_serve_defaults(self):
        args = build_parser().parse_args(VALID_ARGS["serve"])
        assert args.autoscale is False
        assert args.max_batch >= 1
        assert args.slo_p99 > 0
        assert "backend" not in vars(args)

    def test_cosched_defaults(self):
        args = build_parser().parse_args(VALID_ARGS["cosched"])
        assert args.static is False
        assert args.devices == 8
        assert args.train_jobs >= 1
        assert args.slo_p99 > 0
        assert args.trace_out is None
        assert args.train_workload in ("resnet56_cifar10",)

    def test_chaos_defaults(self):
        args = build_parser().parse_args(VALID_ARGS["chaos"])
        assert args.crash_rate > 0          # chaos injects by default
        assert args.mttr > 0
        assert args.recovery == "migrate"
        assert args.chaos_seed is None      # falls back to --seed
        assert args.devices == 8            # shares the cosched flag set

    @pytest.mark.parametrize("extra", [
        ["--crash-rate", "-1"],
        ["--mttr", "0"],
        ["--straggler-rate", "-0.5"],
        ["--straggler-factor", "1.5"],
        ["--straggler-factor", "0"],
        ["--network-factor", "1"],
        ["--network-rate", "-1"],
        ["--retry-delay", "-0.1"],
        ["--recovery", "reboot"],
    ])
    def test_chaos_out_of_range_values_rejected(self, extra):
        with pytest.raises(SystemExit):
            build_parser().parse_args(VALID_ARGS["chaos"] + extra)

    def test_chaos_topology_flags_parse(self):
        args = build_parser().parse_args(VALID_ARGS["chaos"] + [
            "--topology", "racks=4x2,switches=2", "--correlated",
            "--wipe-level", "switch", "--derate-rate", "0.2",
            "--derate-floor", "0.6", "--derate-duration", "1.5"])
        assert args.topology == "racks=4x2,switches=2"
        assert args.correlated and args.wipe_level == "switch"
        assert args.wipe_rate is None       # implied 0.15 by --correlated
        assert args.derate_rate == 0.2

    @pytest.mark.parametrize("extra", [
        ["--wipe-rate", "-0.1"],
        ["--wipe-level", "pod"],
        ["--derate-rate", "-1"],
        ["--derate-floor", "0"],
        ["--derate-floor", "1.5"],
        ["--derate-duration", "0"],
    ])
    def test_chaos_topology_out_of_range_rejected(self, extra):
        with pytest.raises(SystemExit):
            build_parser().parse_args(VALID_ARGS["chaos"] + extra)

    @pytest.mark.parametrize("command", ["cosched", "chaos"])
    def test_admission_flags_parse(self, command):
        args = build_parser().parse_args(VALID_ARGS[command] + [
            "--shed-queue-depth", "32", "--shed-wait", "25", "--brownout"])
        assert args.shed_queue_depth == 32
        assert args.shed_wait == 25.0       # milliseconds on the CLI
        assert args.brownout

    @pytest.mark.parametrize("extra", [
        ["--shed-queue-depth", "0"],
        ["--shed-wait", "0"],
    ])
    def test_admission_out_of_range_rejected(self, extra):
        with pytest.raises(SystemExit):
            build_parser().parse_args(VALID_ARGS["cosched"] + extra)


def _bounded_flags():
    """(subcommand, flag) for every option whose type ``_bounded`` built."""
    import argparse

    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0])
            for command, sub in subcommands.choices.items()
            for action in sub._actions
            if getattr(action.type, "__qualname__", "").startswith("_bounded.")]


def _subcommands(parser):
    import argparse

    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _flags(subparser):
    return {flag for action in subparser._actions for flag in action.option_strings}


COMMANDS = list(_subcommands(build_parser()))


class TestParserForOneCommand:
    """``main`` builds the flags of the invoked subcommand only; every
    subcommand stays registered, so no help output can tell."""

    def test_eleven_subcommands_are_registered_whatever_runs(self):
        assert len(COMMANDS) == 11
        for command in COMMANDS:
            assert list(_subcommands(build_parser(command))) == COMMANDS

    @pytest.mark.parametrize("command", COMMANDS)
    def test_only_the_named_subcommand_gets_its_flags(self, command):
        full, one = _subcommands(build_parser()), _subcommands(build_parser(command))
        assert _flags(one[command]) == _flags(full[command])
        for other in COMMANDS:
            if other != command:
                assert _flags(one[other]) == set()

    def test_top_level_help_names_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(command in out for command in COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_subcommand_help_lists_its_own_flags(self, command, capsys):
        import argparse

        shown = {flag for action in _subcommands(build_parser())[command]._actions
                 if action.help != argparse.SUPPRESS for flag in action.option_strings}
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: repro {command}")
        assert len(shown) > 1 and all(flag in out for flag in shown)


class TestBoundedNumbers:
    """A number flag takes a finite value inside its range or the command
    ends as a usage error — never an empty report, a hang or a traceback
    from inside the simulator (``nan`` passes every ``<`` test)."""

    def test_simulate_and_gavel_sizes_are_bounded(self):
        assert {("simulate", "--jobs"), ("simulate", "--rate"),
                ("simulate", "--gpus"), ("gavel", "--jobs"),
                ("gavel", "--rate"), ("serve", "--arrival-rate"),
                ("chaos", "--max-wait")} <= set(_bounded_flags())

    @pytest.mark.parametrize("command,flag", _bounded_flags(),
                             ids=lambda value: value.lstrip("-"))
    def test_non_finite_and_out_of_range_are_usage_errors(
            self, command, flag, capsys):
        parser = build_parser()
        for bad in ("nan", "inf", "-inf", "-1", "1e999", "many"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(VALID_ARGS[command] + [flag, bad])
            assert exc.value.code == 2, (flag, bad)
            assert f"argument {flag}" in capsys.readouterr().err


_JOB = "--workload mlp_synthetic --batch 32 --virtual-nodes 4"
_SERVING = "--workload mlp_synthetic --arrival-rate 100"


class TestUsageErrors:
    """Values that used to end in a traceback, a 100,000-round spin or an
    empty report exit 2 at parse time, naming the flag."""

    @pytest.mark.parametrize("argv", [
        *(f"{command} --seed -1" for command in (
            f"train {_JOB}", f"infer {_JOB}", f"serve {_SERVING}",
            f"cosched {_SERVING}", f"chaos {_SERVING}",
            "profile --workload mlp_synthetic",
            "solve --workload mlp_synthetic --batch 64 --pool V100=2",
            "simulate", "gavel")),
        f"chaos {_SERVING} --chaos-seed -1",
        *(f"{command} {_JOB} {flag} 0" for command in ("train", "infer", "plan")
          for flag in ("--devices", "--virtual-nodes", "--batch")),
        f"train {_JOB} --dataset-size 0",
        f"train {_JOB} --epochs -1",
        f"infer {_JOB} --requests -2",
        f"train {_JOB} --lr nan",
        *(f"{command} --device-type H100" for command in (
            f"train {_JOB}", f"infer {_JOB}", f"plan {_JOB}",
            f"serve {_SERVING}", f"cosched {_SERVING}", f"chaos {_SERVING}")),
        "profile --workload mlp_synthetic --device-types ,,",
        "profile --workload mlp_synthetic --device-types V100,H100",
        "gavel --pool V100=-1",
        "gavel --pool V100=2,V100=0",
        "solve --workload mlp_synthetic --batch 64 --pool V100=0",
        "solve --workload mlp_synthetic --batch 64 --pool H100=2",
        f"train {_JOB} --resize 0:0",
        # Values each valid alone, but not with the others (default pools:
        # serve 4 devices, cosched 8; resident jobs batch 64 over 2 virtual
        # nodes per GPU; the default trace has a 4-GPU job).
        f"serve {_SERVING} --virtual-nodes 2",
        f"serve {_SERVING} --initial-devices 9",
        f"cosched {_SERVING} --train-floor 8",
        f"cosched {_SERVING} --train-demand 3",
        f"chaos {_SERVING} --train-demand 3",
        "simulate --gpus 2",
    ])
    def test_bad_value_is_a_usage_error(self, argv, capsys):
        argv = argv.split()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        flag = argv[-2] if argv[-2].startswith("--") else argv[-1]
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_each_flag_is_defined_once(self):
        """One definition per flag meaning; ``--requests`` (a batch count
        on ``infer``, an admission cap when serving) and ``--journal`` (read
        by ``audit``, written when serving) have two meanings each."""
        import ast
        import collections
        import inspect

        from repro import cli

        flags = list(cli._SHARED) + [
            node.args[0].value for node in ast.walk(ast.parse(inspect.getsource(cli)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument" and node.args
            and isinstance(node.args[0], ast.Constant)]
        repeated = {f: n for f, n in collections.Counter(flags).items() if n > 1}
        assert repeated == {"--requests": 2, "--journal": 2}


class TestCommands:
    def test_plan(self, capsys):
        rc = main(["plan", "--workload", "mlp_synthetic", "--batch", "32",
                   "--virtual-nodes", "4", "--devices", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ExecutionPlan" in out and "predicted step" in out

    def test_train_with_resize(self, capsys):
        rc = main(["train", "--workload", "mlp_synthetic", "--batch", "32",
                   "--virtual-nodes", "4", "--devices", "2", "--epochs", "2",
                   "--dataset-size", "256", "--resize", "0:1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resized to 1 device(s)" in out
        assert "val acc" in out

    def test_serve_fixed(self, capsys):
        rc = main(["serve", "--workload", "mlp_synthetic",
                   "--arrival-rate", "200", "--duration", "1",
                   "--devices", "2", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "requests served" in out and "latency p50 / p99" in out
        assert "fixed mapping" in out

    def test_serve_autoscaled_spike(self, capsys):
        rc = main(["serve", "--workload", "mlp_synthetic",
                   "--arrival-rate", "400", "--duration", "4",
                   "--spike-factor", "6", "--spike-duration", "1",
                   "--devices", "8", "--autoscale", "--slo-p99", "30",
                   "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "autoscaled" in out
        assert "remapped" in out  # the spike must move the mapping

    def test_cosched(self, capsys):
        rc = main(["cosched", "--workload", "mlp_synthetic",
                   "--arrival-rate", "400", "--duration", "4",
                   "--spike-factor", "5", "--spike-duration", "1",
                   "--devices", "8", "--initial-serving", "2",
                   "--resize-delay", "0.25", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "co-scheduled" in out and "training goodput" in out
        assert "harvested training budget" in out

    def test_cosched_static_partition(self, capsys):
        rc = main(["cosched", "--workload", "mlp_synthetic",
                   "--arrival-rate", "200", "--duration", "2",
                   "--spike-factor", "2", "--spike-duration", "0.5",
                   "--devices", "4", "--initial-serving", "2", "--static",
                   "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "static partition" in out
        assert "harvested" not in out

    def test_chaos(self, capsys):
        rc = main(["chaos", "--workload", "mlp_synthetic",
                   "--arrival-rate", "300", "--duration", "2",
                   "--spike-factor", "2", "--spike-duration", "0.5",
                   "--devices", "8", "--initial-serving", "2",
                   "--resize-delay", "0.25", "--seed", "1",
                   "--crash-rate", "1.0", "--mttr", "1.0",
                   "--chaos-seed", "9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "random plan (seed 9" in out        # the plan is printed
        assert "chaos crashes / revives" in out    # the report gained rows
        assert "chaos crash" in out                # the timeline names events
        assert "+ chaos" in out                    # mode line is tagged

    def test_chaos_correlated_topology(self, capsys):
        rc = main(["chaos", "--workload", "mlp_synthetic",
                   "--arrival-rate", "300", "--duration", "2",
                   "--devices", "8", "--initial-serving", "2",
                   "--resize-delay", "0.25", "--seed", "1",
                   "--crash-rate", "0.2", "--mttr", "0.8",
                   "--topology", "racks=4x2", "--correlated",
                   "--derate-rate", "0.5", "--chaos-seed", "3",
                   "--shed-queue-depth", "32", "--shed-wait", "25",
                   "--brownout"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 rack(s) x 2" in out              # topology in the plan
        assert "x speed" in out                    # a derate step is drawn
        assert "restored" in out                   # ... and self-clears
        assert "chaos derate events" in out        # the report gained a row
        assert "requests shed" in out              # admission row appears

    def test_chaos_correlated_needs_topology(self, capsys):
        rc = main(["chaos", "--workload", "mlp_synthetic",
                   "--arrival-rate", "100", "--correlated"])
        assert rc == 2
        assert "--topology" in capsys.readouterr().err

    def test_chaos_topology_must_cover_devices(self, capsys):
        rc = main(["chaos", "--workload", "mlp_synthetic",
                   "--arrival-rate", "100", "--devices", "8",
                   "--topology", "racks=2x2"])
        assert rc == 2
        assert "devices" in capsys.readouterr().err

    def test_serve_trace_out_writes_timeline(self, capsys, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        rc = main(["serve", "--workload", "mlp_synthetic",
                   "--arrival-rate", "200", "--duration", "1",
                   "--devices", "2", "--seed", "1", "--trace-out", path])
        assert rc == 0
        from repro.runtime import read_trace

        events = read_trace(path)
        assert events and {"admit", "dispatch", "complete"} <= {
            e["kind"] for e in events}
        assert "event timeline written" in capsys.readouterr().out

    def test_simulate_trace_out_writes_timeline(self, capsys, tmp_path):
        path = str(tmp_path / "sim.jsonl")
        rc = main(["simulate", "--jobs", "4", "--rate", "12", "--gpus", "4",
                   "--seed", "1", "--trace-out", path])
        assert rc == 0
        from repro.runtime import read_trace

        events = read_trace(path)
        assert events and "arrival" in {e["kind"] for e in events}

    def test_profile(self, capsys):
        rc = main(["profile", "--workload", "resnet50_imagenet",
                   "--device-types", "V100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resnet50_imagenet on V100" in out
        assert "256" in out  # the V100 max batch appears on the grid

    def test_solve(self, capsys):
        rc = main(["solve", "--workload", "resnet50_imagenet", "--batch", "8192",
                   "--pool", "V100=2,P100=2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "B=8192" in out

    def test_simulate(self, capsys):
        rc = main(["simulate", "--jobs", "4", "--rate", "12", "--gpus", "4",
                   "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "virtualflow-wfs" in out and "static-priority" in out

    def test_gavel(self, capsys):
        rc = main(["gavel", "--jobs", "4", "--rate", "6", "--seed", "1",
                   "--pool", "V100=2,P100=4,K80=8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Gavel+HT" in out


class TestEntryPointBindings:
    """Each run hands off through a binding on ``repro.cli`` that is read
    when the handler calls it.  The end-to-end benchmark rebinds these three
    names to capture each run's report and requires exactly one call
    through each; a handler that imported its entry point itself would
    bypass the capture."""

    @pytest.mark.parametrize("name, argv", [
        ("VirtualFlowTrainer", ["train", "--workload", "mlp_synthetic",
                                "--batch", "32", "--virtual-nodes", "4",
                                "--epochs", "1", "--dataset-size", "128",
                                "--backend", "fused"]),
        ("serve_workload", ["serve", "--workload", "mlp_synthetic",
                            "--arrival-rate", "200", "--duration", "0.2"]),
        ("run_cosched", ["cosched", "--workload", "mlp_synthetic",
                         "--arrival-rate", "200", "--duration", "0.5",
                         "--spike-duration", "0.2", "--devices", "4"]),
    ])
    def test_one_call_through_the_module_binding(self, monkeypatch, capsys,
                                                 name, argv):
        from repro import cli

        original, calls = getattr(cli, name), []

        def recording(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, recording)
        assert main(argv) == 0
        assert calls == [name]


TENANT_SPEC = "prem:class=premium,weight=4,quota=250;batch:share=2"


class TestTenancyFlags:
    @pytest.mark.parametrize("command", ["serve", "cosched", "chaos"])
    def test_tenancy_flags_parse(self, command):
        args = build_parser().parse_args(VALID_ARGS[command] + [
            "--tenants", TENANT_SPEC, "--journal", "j.jsonl",
            "--dispatcher", "fifo"])
        assert args.tenants == TENANT_SPEC
        assert args.journal == "j.jsonl"
        assert args.dispatcher == "fifo"

    @pytest.mark.parametrize("command", ["serve", "cosched", "chaos"])
    def test_tenancy_defaults(self, command):
        args = build_parser().parse_args(VALID_ARGS[command])
        assert args.tenants is None
        assert args.journal is None
        assert args.dispatcher == "wfq"

    def test_unknown_dispatcher_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                VALID_ARGS["serve"] + ["--dispatcher", "lifo"])

    def test_audit_requires_journal(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit"])
        args = build_parser().parse_args(
            ["audit", "--journal", "j.jsonl", "--json"])
        assert args.journal == "j.jsonl" and args.json

    def test_journal_without_tenants_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(VALID_ARGS["serve"] + ["--journal", "j.jsonl"])
        assert exc.value.code == 2
        assert "--tenants" in capsys.readouterr().err

    def test_dispatcher_without_tenants_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(VALID_ARGS["serve"] + ["--dispatcher", "fifo"])
        assert exc.value.code == 2
        assert "--tenants" in capsys.readouterr().err

    def test_bad_tenant_spec_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(VALID_ARGS["serve"] + ["--tenants", "prem:speed=4"])
        assert exc.value.code == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["share", "weight", "quota", "burst",
                                     "p99"])
    def test_an_infinite_tenant_number_is_a_usage_error(self, key, capsys):
        spec = f"a:quota=10,{key}=inf;b" if key == "burst" else f"a:{key}=inf;b"
        with pytest.raises(SystemExit) as exc:
            main(VALID_ARGS["serve"] + ["--tenants", spec])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "bad --tenants" in err and "must be finite" in err


class TestTenancyCommands:
    def test_serve_with_tenants_prints_tenant_table(self, capsys, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        rc = main(["serve", "--workload", "mlp_synthetic",
                   "--arrival-rate", "300", "--duration", "1",
                   "--devices", "2", "--seed", "5",
                   "--tenants", TENANT_SPEC, "--journal", journal])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-tenant SLO attainment" in out
        assert "prem" in out and "batch" in out
        assert "request journal written to" in out

    def test_audit_reproduces_the_serve_numbers(self, capsys, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        assert main(["serve", "--workload", "mlp_synthetic",
                     "--arrival-rate", "300", "--duration", "1",
                     "--devices", "2", "--seed", "5",
                     "--tenants", TENANT_SPEC, "--journal", journal]) == 0
        serve_out = capsys.readouterr().out
        assert main(["audit", "--journal", journal]) == 0
        audit_out = capsys.readouterr().out
        assert "journal audit:" in audit_out and "wfq dispatcher" in audit_out
        # The audit table carries the exact attainment rows the live run
        # printed (row order may differ; the numbers may not).
        for line in serve_out.splitlines():
            if line.startswith(("prem ", "batch ")):
                assert line in audit_out

    def test_audit_json_mode(self, capsys, tmp_path):
        import json

        journal = str(tmp_path / "journal.jsonl")
        assert main(["serve", "--workload", "mlp_synthetic",
                     "--arrival-rate", "300", "--duration", "1",
                     "--devices", "2", "--seed", "5",
                     "--tenants", TENANT_SPEC, "--journal", journal]) == 0
        capsys.readouterr()
        assert main(["audit", "--journal", journal, "--json"]) == 0
        audit = json.loads(capsys.readouterr().out)
        assert audit["dispatcher"] == "wfq"
        assert set(audit["tenants"]) == {"prem", "batch"}

    def test_audit_missing_journal_fails_cleanly(self, capsys, tmp_path):
        rc = main(["audit", "--journal", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        assert "cannot read journal" in capsys.readouterr().err

    def test_audit_rejects_a_non_journal_trace(self, capsys, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert main(["serve", "--workload", "mlp_synthetic",
                     "--arrival-rate", "200", "--duration", "1",
                     "--devices", "2", "--seed", "1",
                     "--trace-out", path]) == 0
        capsys.readouterr()
        rc = main(["audit", "--journal", path])
        assert rc == 2
        assert "malformed journal" in capsys.readouterr().err

    def test_cosched_with_tenants_journals_the_shared_runtime(
            self, capsys, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        rc = main(["cosched", "--workload", "mlp_synthetic",
                   "--arrival-rate", "300", "--duration", "2",
                   "--spike-factor", "2", "--spike-duration", "0.5",
                   "--devices", "4", "--initial-serving", "2",
                   "--seed", "1", "--tenants", TENANT_SPEC,
                   "--journal", journal])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-tenant SLO attainment" in out
        assert "request journal written to" in out
        capsys.readouterr()
        assert main(["audit", "--journal", journal]) == 0
        assert "journal audit:" in capsys.readouterr().out
