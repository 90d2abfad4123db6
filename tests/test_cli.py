import json
import os
import shlex
import struct
import subprocess
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hdrdeghost
from hdrdeghost import cli, gradcheck, model, training
from hdrdeghost.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main)
from hdrdeghost.codecs import read_pfm
from hdrdeghost.config import parse_config
from hdrdeghost.model import (ConfigError, ModelConfig, full_preset,
                              init_params, param_manifest, save_checkpoint,
                              tiny_preset)
from hdrdeghost.training import TrainConfig, synth_dataset, training_step

from test_codecs import write_sample
from test_model import MALFORMED_MANIFESTS, _saved_with_manifest

TINY_CONF = "\n".join([
    "preset = tiny",
    "patch = 16",
    "stride = 16",
    "batch_size = 2",
    "epochs = 2",
    "max_steps = 4",
    "seed = 3",
]) + "\n"


CONFIG_KEYS = ["preset"] + [f.name for f in fields(ModelConfig) + fields(TrainConfig)]


def _run_cli(argv):
    """``python -m hdrdeghost.cli argv`` in a fresh process."""
    src = str(Path(hdrdeghost.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "hdrdeghost.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture()
def checkpoint(tmp_path):
    cfg = tiny_preset()
    path = tmp_path / "model.hdck"
    save_checkpoint(path, init_params(cfg, seed=1), cfg)
    return path


class TestParseConfig:
    def test_empty_gives_full_scale_defaults(self):
        mcfg, tcfg = parse_config(text="")
        assert (mcfg.channels, mcfg.embed_dim, mcfg.window) == (60, 60, 8)
        assert (tcfg.batch_size, tcfg.epochs, tcfg.patch) == (16, 100, 128)

    def test_nonstandard_window_accepted(self):
        mcfg, _ = parse_config(text="window = 7\n")
        assert mcfg.window == 7

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            parse_config(text="heads = 7\n")

    def test_inspect_zero_heads_exits_2_without_traceback(self, tmp_path):
        conf = tmp_path / "conf.txt"
        conf.write_text("heads = 0\n")
        proc = _run_cli(["inspect", "--config", str(conf)])
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == "error: all structural sizes must be >= 1\n"

    def test_inspect_oversized_window_exits_2_without_traceback(self, tmp_path):
        # one window's probabilities would take 7.28 TiB at the tiny preset
        conf = tmp_path / "conf.txt"
        conf.write_text("preset = tiny\nwindow = 1000\n")
        proc = _run_cli(["inspect", "--config", str(conf)])
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("error: window 1000: ")
        assert "above 64 MB" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("preset,dtype,largest", [
        ("full", "f32", 40), ("full", "f64", 34), ("tiny", "f32", 53)])
    def test_window_bound_is_the_one_window_map(self, preset, dtype, largest):
        def parse(window):
            return parse_config(
                text=f"preset = {preset}\ndtype = {dtype}\nwindow = {window}\n")

        assert parse(largest)[0].window == largest
        with pytest.raises(ConfigError, match="attention map"):
            parse(largest + 1)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(CONFIG_KEYS) | st.text(max_size=8),
        st.one_of(st.integers(-2, 2000).map(str), st.integers().map(str),
                  st.floats(allow_nan=True, allow_infinity=True).map(str),
                  st.sampled_from(["true", "no", "f32", "f64", "f16", "tiny",
                                   "full", "", "1e999", "-0", "0x10"]),
                  st.text(max_size=8))), max_size=6))
    def test_any_config_text_parses_or_raises_config_error(self, pairs):
        text = "".join(f"{k} = {v}\n" for k, v in pairs)
        try:
            mcfg, tcfg = parse_config(text=text)
        except ConfigError:
            return
        assert isinstance(mcfg, ModelConfig) and isinstance(tcfg, TrainConfig)

    def test_each_key_names_one_class_and_its_defaults_type(self):
        # parse_config looks a key's class and type up in one table
        both = fields(ModelConfig) + fields(TrainConfig)
        assert len({f.name for f in both}) == len(both)
        assert all(type(f.default).__name__ == f.type for f in both)

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(text="window = 8\nwibble = 1\n")

    def test_type_error_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(text="window = eight\n")

    def test_comments_and_preset(self):
        mcfg, tcfg = parse_config(
            text="# comment\npreset = tiny  # inline\nlr = 0.001\n")
        assert mcfg.embed_dim == 16
        assert tcfg.lr == 0.001

    @pytest.mark.parametrize("key", ["mu", "gamma", "beta1", "beta2", "eps",
                                     "checkpoint_every", "mlp_ratio",
                                     "dilation", "leaky_slope"])
    def test_fixed_constant_key_rejected(self, key):
        # fixed constants are not settable, so train, fuse and eval agree
        with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
            parse_config(text=f"preset = tiny\n{key} = 1\n")


class TestFuse:
    def test_writes_valid_hdr_output(self, tmp_path, checkpoint):
        sample = write_sample(tmp_path / "data", "s0", h=16, w=16)
        out = tmp_path / "out.pfm"
        tm = tmp_path / "out.ppm"
        rc = main(["fuse", "--input", str(sample), "--checkpoint",
                   str(checkpoint), "--output", str(out),
                   "--tonemapped", str(tm)])
        assert rc == EXIT_OK
        img = read_pfm(out).pixels
        assert img.shape == (16, 16, 3)
        assert img.min() > 0.0 and img.max() < 1.0
        assert tm.exists()

    def test_corrupt_checkpoint_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "bad.hdck"
        bad.write_bytes(b"NOTACKPT" + bytes(32))
        sample = write_sample(tmp_path / "data", "s0", h=16, w=16)
        out = tmp_path / "out.pfm"
        rc = main(["fuse", "--input", str(sample), "--checkpoint", str(bad),
                   "--output", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_wrong_shape_checkpoint_exits_2(self, tmp_path, capsys):
        cfg = tiny_preset()
        params = dict(init_params(cfg, seed=1), **{"embed.b": np.zeros(7)})
        bad = tmp_path / "bad.hdck"
        save_checkpoint(bad, params, cfg)
        sample = write_sample(tmp_path / "data", "s0", h=16, w=16)
        out = tmp_path / "out.pfm"
        assert main(["fuse", "--input", str(sample), "--checkpoint", str(bad),
                     "--output", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert main(["inspect", "--checkpoint", str(bad)]) == EXIT_CONFIG
        assert "embed.b" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", sorted(MALFORMED_MANIFESTS))
    def test_malformed_checkpoint_exits_2(self, tmp_path, edit, capsys):
        bad = _saved_with_manifest(tmp_path / "bad.hdck",
                                   MALFORMED_MANIFESTS[edit])
        sample = write_sample(tmp_path / "data", "s0", h=16, w=16)
        out = tmp_path / "out.pfm"
        assert main(["fuse", "--input", str(sample), "--checkpoint", str(bad),
                     "--output", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert main(["inspect", "--checkpoint", str(bad)]) == EXIT_CONFIG
        assert "error: malformed checkpoint" in capsys.readouterr().err

    def test_config_mismatch_exits_2(self, tmp_path, checkpoint):
        conf = tmp_path / "conf.txt"
        conf.write_text("preset = tiny\nwindow = 8\n")
        sample = write_sample(tmp_path / "data", "s0", h=16, w=16)
        out = tmp_path / "out.pfm"
        rc = main(["fuse", "--input", str(sample), "--checkpoint",
                   str(checkpoint), "--output", str(out),
                   "--config", str(conf)])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_output_bytes_reproducible(self, tmp_path, checkpoint):
        sample = write_sample(tmp_path / "data", "s0", h=16, w=16)
        outs = []
        for i in range(2):
            out = tmp_path / f"out{i}.pfm"
            assert main(["fuse", "--input", str(sample), "--checkpoint",
                         str(checkpoint), "--output", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_sample_exits_1(self, tmp_path, checkpoint):
        rc = main(["fuse", "--input", str(tmp_path / "nope"), "--checkpoint",
                   str(checkpoint), "--output", str(tmp_path / "o.pfm")])
        assert rc == EXIT_IO


class TestTrain:
    def test_synthetic_run_produces_log_and_checkpoint(self, tmp_path, capsys):
        conf = tmp_path / "conf.txt"
        conf.write_text(TINY_CONF)
        out = tmp_path / "run"
        rc = main(["train", "--synthetic", "3", "--config", str(conf),
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "checkpoint.hdck").exists()
        recs = [json.loads(ln) for ln in
                (out / "metrics.jsonl").read_text().splitlines()]
        assert recs and all(np.isfinite(r["loss"]) for r in recs)
        assert "loss" in capsys.readouterr().out

    def test_ablation_flags_recorded_in_checkpoint(self, tmp_path):
        conf = tmp_path / "conf.txt"
        conf.write_text(TINY_CONF + "sar = false\ndeformable = false\n")
        out = tmp_path / "run"
        rc = main(["train", "--synthetic", "2", "--config", str(conf),
                   "--out", str(out)])
        assert rc == EXIT_OK
        from hdrdeghost.model import load_checkpoint
        _, cfg = load_checkpoint(out / "checkpoint.hdck")
        assert cfg.sar is False and cfg.deformable is False

    def test_missing_data_root_exits_1(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "run")])
        assert rc == EXIT_IO

    def test_scenes_smaller_than_patch_exit_1(self, tmp_path, capsys):
        write_sample(tmp_path / "data", "s0", h=16, w=16)
        conf = tmp_path / "conf.txt"
        conf.write_text("preset = tiny\npatch = 32\nstride = 32\n")
        rc = main(["train", "--data", str(tmp_path / "data"),
                   "--config", str(conf), "--out", str(tmp_path / "run")])
        assert rc == EXIT_IO
        assert "s0: image 16x16 smaller than patch 32" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path):
        conf = tmp_path / "conf.txt"
        conf.write_text("nonsense = 1\n")
        rc = main(["train", "--synthetic", "1", "--config", str(conf),
                   "--out", str(tmp_path / "run")])
        assert rc == EXIT_CONFIG

    def test_gamma_key_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "conf.txt"
        conf.write_text(TINY_CONF + "gamma = 1.0\n")
        rc = main(["train", "--synthetic", "1", "--config", str(conf),
                   "--out", str(tmp_path / "run")])
        assert rc == EXIT_CONFIG
        assert "line 8: unknown key 'gamma'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line", ["lr = nan", "lr = inf", "lr = -1",
                                      "max_steps = -5", "heads = 0",
                                      "stride = 0", "window = 1000",
                                      "seed = -1"])
    def test_bad_value_exits_2_without_traceback(self, tmp_path, line):
        conf = tmp_path / "conf.txt"
        conf.write_text(TINY_CONF + line + "\n")
        proc = _run_cli(["train", "--synthetic", "2", "--config", str(conf),
                         "--out", str(tmp_path / "run")])
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "run" / "checkpoint.hdck").exists()

    def test_failed_step_exits_3_and_says_where_it_saved(self, tmp_path,
                                                         monkeypatch, capsys):
        step, calls = training.training_step, []

        def third_step_fails(batch, params, *args):
            calls.append(params)
            if len(calls) == 3:
                raise FloatingPointError("non-finite values in conv2d output")
            return step(batch, params, *args)

        monkeypatch.setattr(training, "training_step", third_step_fails)
        conf = tmp_path / "conf.txt"
        conf.write_text(TINY_CONF)
        out = tmp_path / "run"
        rc = main(["train", "--synthetic", "3", "--config", str(conf),
                   "--out", str(out)])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite values in conv2d output; ")
        assert f"saved to {out / 'checkpoint.hdck'}" in err
        assert (out / "checkpoint.hdck").exists()


class TestEval:
    def test_json_and_table_agree(self, tmp_path, checkpoint, capsys):
        for i in range(2):
            write_sample(tmp_path / "data", f"s{i}", h=16, w=16, seed=i)
        rc = main(["eval", "--data", str(tmp_path / "data"),
                   "--checkpoint", str(checkpoint), "--json"])
        assert rc == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in rows] == ["s0", "s1", "mean"]

        rc = main(["eval", "--data", str(tmp_path / "data"),
                   "--checkpoint", str(checkpoint)])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # header + 2 samples + mean
        for line, row in zip(lines[1:], rows):
            vals = line.split("\t")
            assert vals[0] == row["name"]
            assert float(vals[1]) == pytest.approx(row["psnr_mu"], abs=1e-6)

    def test_sample_without_gt_skipped_with_a_note(self, tmp_path, checkpoint):
        write_sample(tmp_path / "data", "s0", h=16, w=16)
        write_sample(tmp_path / "data", "s1", h=16, w=16, with_gt=False)
        proc = _run_cli(["eval", "--data", str(tmp_path / "data"),
                         "--checkpoint", str(checkpoint), "--json"])
        assert proc.returncode == EXIT_OK
        assert [r["name"] for r in json.loads(proc.stdout)] == ["s0", "mean"]
        assert proc.stderr == "note: no ground truth, skipped: s1\n"

    def test_dataset_without_gt_exits_1(self, tmp_path, checkpoint):
        write_sample(tmp_path / "data", "s0", h=16, w=16, with_gt=False)
        rc = main(["eval", "--data", str(tmp_path / "data"),
                   "--checkpoint", str(checkpoint)])
        assert rc == EXIT_IO

    def test_train_on_dataset_without_gt_exits_1(self, tmp_path):
        write_sample(tmp_path / "data", "s0", h=16, w=16, with_gt=False)
        conf = tmp_path / "conf.txt"
        conf.write_text(TINY_CONF)
        proc = _run_cli(["train", "--data", str(tmp_path / "data"),
                         "--config", str(conf), "--out", str(tmp_path / "run")])
        assert proc.returncode == EXIT_IO
        assert proc.stderr.startswith("error: ") and "ground truth" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_overflowing_exposure_stop_exits_1(self, tmp_path, checkpoint):
        write_sample(tmp_path / "data", "s0", h=16, w=16, stops=(0, 2000, 2))
        proc = _run_cli(["eval", "--data", str(tmp_path / "data"),
                         "--checkpoint", str(checkpoint)])
        assert proc.returncode == EXIT_IO
        assert "error: " in proc.stderr and "'2000'" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_memory_error_exits_1_without_traceback(tmp_path, monkeypatch, capsys):
    def exhausted(cfg, seed=0):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "init_params", exhausted)
    rc = main(["train", "--synthetic", "1", "--out", str(tmp_path / "run")])
    assert rc == EXIT_IO
    assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB\n"


class TestDataErrorNamesItsFile:
    """A sample file that does not decode exits 1, with no warning, and the
    message names the file."""

    def test_eval_signalling_nan_in_gt(self, tmp_path, checkpoint, monkeypatch):
        gt = write_sample(tmp_path / "data", "s0") / "gt.pfm"  # 12-byte header
        blob = gt.read_bytes()
        gt.write_bytes(blob[:12] + struct.pack("<I", 0x7F800001) + blob[16:])
        monkeypatch.setenv("PYTHONWARNINGS", "error")
        proc = _run_cli(["eval", "--data", str(tmp_path / "data"),
                         "--checkpoint", str(checkpoint)])
        assert proc.returncode == EXIT_IO
        assert proc.stderr == (f"error: {gt}: HDR pixels must be finite and "
                               f"non-negative (byte offset 12)\n")

    def run(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        return rc, capsys.readouterr().err

    def test_fuse_truncated_ldr(self, tmp_path, checkpoint, capsys):
        d = write_sample(tmp_path / "data", "s0", h=16, w=16)
        ldr = d / "ldr_1.ppm"
        ldr.write_bytes(ldr.read_bytes()[:-1])
        rc, err = self.run(["fuse", "--input", str(d), "--checkpoint",
                            str(checkpoint), "--output", str(tmp_path / "o.pfm")],
                           capsys)
        assert rc == EXIT_IO
        assert err.startswith(f"error: {ldr}: truncated payload: ")

    def test_train_unrecognized_magic(self, tmp_path, capsys):
        ldr = write_sample(tmp_path / "data", "s0", h=16, w=16) / "ldr_2.ppm"
        ldr.write_bytes(b"P3" + ldr.read_bytes()[2:])
        conf = tmp_path / "conf.txt"
        conf.write_text(TINY_CONF)
        rc, err = self.run(["train", "--data", str(tmp_path / "data"), "--config",
                            str(conf), "--out", str(tmp_path / "run")], capsys)
        assert rc == EXIT_IO
        assert err.startswith(f"error: {ldr}: unrecognized magic b'P3' ")


class TestNonFinite:
    """A NaN parameter is caught at the first kernel whose output it reaches,
    and the message names the kernel and the parameter."""

    MESSAGE = "non-finite values in conv2d output (embed.w)"

    @pytest.fixture()
    def nan_checkpoint(self, tmp_path):
        cfg = tiny_preset()
        params = init_params(cfg, seed=1)
        params["embed.w"] = np.full_like(params["embed.w"], np.nan)
        path = tmp_path / "nan.hdck"
        save_checkpoint(path, params, cfg)
        write_sample(tmp_path / "data", "s0", h=16, w=16)
        return path

    def test_fuse_exits_3(self, tmp_path, nan_checkpoint, capsys):
        out = tmp_path / "out.pfm"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["fuse", "--input", str(tmp_path / "data" / "s0"),
                       "--checkpoint", str(nan_checkpoint), "--output", str(out)])
        assert rc == EXIT_NUMERIC
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"

    def test_taped_step_names_the_parameter(self):
        cfg = tiny_preset()
        params = init_params(cfg, seed=1)
        params["embed.w"] = np.full_like(params["embed.w"], np.nan)
        batch = synth_dataset(1, seed=1, size=8)
        with pytest.raises(FloatingPointError, match=r"non-finite values in "
                           r"conv2d output \(embed\.w\)$"):
            training_step(batch, params, cfg, TrainConfig(patch=8, stride=8))

    def test_eval_exits_3(self, tmp_path, nan_checkpoint, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["eval", "--data", str(tmp_path / "data"),
                       "--checkpoint", str(nan_checkpoint)])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"


class TestGradcheckCommand:
    def test_single_op_passes(self, capsys):
        rc = main(["gradcheck", "--ops", "conv2d"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "conv2d" in out and "PASS" in out and "FAIL" not in out

    def test_unknown_op_exits_2(self, capsys):
        rc = main(["gradcheck", "--ops", "wibble"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [["--seed", "-1"],
                                      ["--seed", "-1", "--ops", "take"],
                                      ["--seed", "-100", "--ops", "sigmoid"]])
    def test_negative_seed_exits_2_without_traceback(self, argv):
        proc = _run_cli(["gradcheck", *argv])
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == f"error: seed must be >= 0, got {argv[1]}\n"
        assert proc.stdout == ""

    def test_seed_selects_the_kernel_draws(self, capsys):
        outs = []
        for seed in ("0", "5"):
            assert main(["gradcheck", "--ops", "sigmoid", "--seed", seed]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] != outs[1]
        # seed 0 draws RNG seeds 1000-1019, as before --seed reached the kernels
        want = max(gradcheck.check_function(
            *gradcheck._op_checks(np.random.default_rng(1000 + i))["sigmoid"])
            for i in range(20))
        assert f"max rel err {want:.3e}" in outs[0]


class TestInspect:
    def test_default_manifest_total(self, capsys):
        rc = main(["inspect"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "total parameters: 1432647" in out

    def test_default_manifest_draws_no_weights(self, capsys, monkeypatch):
        cfg = full_preset()
        rows, total = param_manifest(init_params(cfg))
        want = ("config:\n"
                + "".join(f"  {k} = {v}\n" for k, v in asdict(cfg).items())
                + "parameters:\n"
                + "".join(f"  {n:40s} {str(s):24s} {c}\n" for n, s, c in rows)
                + f"total parameters: {total}\n")

        def no_draws(*args, **kwargs):
            raise AssertionError("inspect drew weights")

        for mod, name in ((cli, "init_params"), (model, "init_params"),
                          (np.random, "default_rng")):
            monkeypatch.setattr(mod, name, no_draws)
        assert main(["inspect"]) == EXIT_OK
        assert capsys.readouterr().out == want

    def test_checkpoint_inspection(self, tmp_path, checkpoint, capsys):
        rc = main(["inspect", "--checkpoint", str(checkpoint)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "embed_dim = 16" in out


def test_module_entry_point_exits_2_without_traceback(tmp_path):
    bad = _saved_with_manifest(tmp_path / "bad.hdck",
                               MALFORMED_MANIFESTS["extra_config_key"])
    proc = _run_cli(["inspect", "--checkpoint", str(bad)])
    assert proc.returncode == EXIT_CONFIG
    assert "error: malformed checkpoint" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_deeply_nested_manifest_exits_2_without_traceback(tmp_path):
    text = b"[" * 100_000 + b"]" * 100_000
    bad = tmp_path / "bad.hdck"
    bad.write_bytes(model.CHECKPOINT_MAGIC + struct.pack("<I", len(text)) + text)
    proc = _run_cli(["inspect", "--checkpoint", str(bad)])
    assert proc.returncode == EXIT_CONFIG
    assert "error: malformed checkpoint: RecursionError" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_float_window_checkpoint_exits_2_without_traceback(tmp_path):
    # the manifest's JSON keeps 4.0 a float, which the window layout's
    # np.pad rejects with a TypeError if the config lets it through
    bad = _saved_with_manifest(tmp_path / "bad.hdck",
                               MALFORMED_MANIFESTS["float_window"])
    sample = write_sample(tmp_path / "data", "s0", h=16, w=16)
    out = tmp_path / "out.pfm"
    for argv in (["fuse", "--input", str(sample), "--checkpoint", str(bad),
                  "--output", str(out)],
                 ["inspect", "--checkpoint", str(bad)]):
        proc = _run_cli(argv)
        assert proc.returncode == EXIT_CONFIG
        assert "error: malformed checkpoint" in proc.stderr
        assert "Traceback" not in proc.stderr
    assert not out.exists()


def _readme_commands():
    """Each ``hdrdeghost ...`` line of README's CLI block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines if ln.startswith("hdrdeghost ")]


def test_readme_cli_examples_parse():
    argvs = _readme_commands()
    assert {a[0] for a in argvs} == {"fuse", "train", "eval", "gradcheck", "inspect"}
    parser = cli.build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: hdrdeghost {' '.join(argv)}")


class TestAllocator:
    """``main`` pins glibc's malloc thresholds; importing the package does not."""

    @staticmethod
    def argvs(tmp_path):  # one command per exit code: 0, 2 and 1
        return [["inspect"], ["gradcheck", "--ops", "wibble"],
                ["eval", "--data", str(tmp_path / "none"),
                 "--checkpoint", str(tmp_path / "none.hdck")]]

    def test_main_calls_mallopt_once_per_threshold_per_call(self, tmp_path,
                                                            monkeypatch, capsys):
        calls = []
        libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        for argv in self.argvs(tmp_path):
            calls.clear()
            main(argv)
            assert calls == [(cli.M_MMAP_THRESHOLD, cli.MMAP_THRESHOLD),
                             (cli.M_TRIM_THRESHOLD, cli.TRIM_THRESHOLD)]

    @pytest.mark.parametrize("libc", ["missing", "no mallopt"])
    def test_main_runs_without_mallopt(self, tmp_path, monkeypatch, capsys, libc):
        def cdll(name):
            if libc == "missing":
                raise OSError(f"{name}: cannot open shared object file")
            return SimpleNamespace()

        argvs = self.argvs(tmp_path)
        want = [main(argv) for argv in argvs]
        assert want == [EXIT_OK, EXIT_CONFIG, EXIT_IO]
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert [main(argv) for argv in argvs] == want

    def test_import_calls_nothing(self):
        code = ("import ctypes\n"
                "calls = []\n"
                "ctypes.CDLL = lambda *a, **k: calls.append(a)\n"
                "import hdrdeghost, hdrdeghost.cli\n"
                "assert calls == [], calls\n")
        src = str(Path(hdrdeghost.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=120)


class TestThreadEnvDeterminism:
    def test_fuse_identical_across_thread_counts(self, tmp_path, checkpoint,
                                                 monkeypatch):
        for i in range(3):
            write_sample(tmp_path / "data", f"s{i}", h=16, w=16, seed=i)
        blobs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("HDT_THREADS", threads)
            out = tmp_path / f"out{threads}.pfm"
            assert main(["fuse", "--input", str(tmp_path / "data" / "s0"),
                         "--checkpoint", str(checkpoint),
                         "--output", str(out)]) == EXIT_OK
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_full_preset_fuse_agrees_across_blas_threads_to_rounding(
            self, tmp_path, monkeypatch):
        # conv2d's GEMMs (K = 9 * Cin, up to 2160) may sum in another order
        # at 1 and 2 BLAS threads, so the fused pixels may differ by rounding
        cfg = full_preset()
        params = init_params(cfg, seed=1)
        rng = np.random.default_rng(2)
        for k in params:
            if ".off." in k:  # offsets off zero, so every sample interpolates
                params[k] = rng.normal(0, 0.05, params[k].shape).astype(np.float32)
        save_checkpoint(tmp_path / "full.hdck", params, cfg)
        d = write_sample(tmp_path, "s0", h=32, w=32, seed=3)
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            out = tmp_path / f"out{threads}.pfm"
            proc = _run_cli(["fuse", "--input", str(d), "--checkpoint",
                             str(tmp_path / "full.hdck"), "--output", str(out)])
            assert proc.returncode == EXIT_OK, proc.stderr
            outs.append(read_pfm(out).pixels)
        # perfbench's FUSE_ATOL; 4.1e-5 measured with OpenBLAS 0.3.31
        np.testing.assert_allclose(outs[0], outs[1], rtol=0, atol=3e-4)
