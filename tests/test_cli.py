"""CLI subcommands: exit codes, artifacts, and wiring."""

import os

import numpy as np
import pytest
from conftest import TINY_MODEL

import vindet.cli as cli
import vindet.train as train_mod
from vindet.cli import main
from vindet.config import ExperimentConfig, dump_config, load_config
from vindet.data import generate_dataset, load_dataset
from vindet.model import InpaintingDetector
from vindet.serialize import MAGIC, load_container, save_container
from vindet.tokenizer import VideoClip, save_clip
from vindet.train import NumericalError, save_checkpoint


TINY = TINY_MODEL + """\
train.iters = 2
train.eval_every = 1
"""


def _gen_one_clip(tmp_path, cfg_file):
    assert main(["gen-data", "--n", "1", "--seed", "0", "--out", str(tmp_path / "data"),
                 "--config", cfg_file]) == 0


def _tiny_ckpt(tmp_path, cfg_file):
    """A freshly initialised model's checkpoint."""
    ckpt = tmp_path / "ck.mpci"
    save_checkpoint(str(ckpt), InpaintingDetector(load_config(cfg_file)), {}, 0)
    return ckpt


@pytest.fixture
def tiny_cfg_file(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY + f"data.dir = {tmp_path / 'data'}\n")
    return str(p)


class TestGenData:
    def test_writes_clips(self, tmp_path):
        out = tmp_path / "ds"
        rc = main(["gen-data", "--n", "2", "--seed", "3", "--out", str(out)])
        assert rc == 0
        dirs = sorted(os.listdir(out))
        assert dirs == ["clip_0000", "clip_0001"]
        assert (out / "clip_0000" / "manifest.txt").exists()
        assert (out / "clip_0000" / "gt.pgm").exists()

    def test_rejects_a_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["gen-data", "--n", "1", "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"
        assert not out.exists()

    def test_refuses_a_directory_that_holds_clips(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["gen-data", "--n", "2", "--seed", "1", "--out", str(out)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(["gen-data", "--n", "1", "--seed", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {out}: already holds a subdirectory\n"
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_refuses_a_held_authentic_directory_before_writing(self, tmp_path, capsys):
        out = tmp_path / "ds"
        auth = tmp_path / "ds_authentic"
        assert main(["gen-data", "--n", "1", "--seed", "0", "--out", str(auth)]) == 0
        assert main(["gen-data", "--n", "1", "--seed", "1", "--out", str(out),
                     "--with-authentic"]) == 1
        assert capsys.readouterr().err.endswith(f"error: {auth}: already holds a subdirectory\n")
        assert not out.exists()

    def test_authentic_clips_are_twins_of_the_scenes(self, tmp_path):
        out = str(tmp_path / "ds")
        assert main(["gen-data", "--n", "2", "--seed", "3", "--out", out,
                     "--with-authentic"]) == 0
        twins = generate_dataset(2, 3, ExperimentConfig(), inpainted=False)
        written = load_dataset(out + "_authentic")
        assert [name for name, _, _ in written] == ["clip_0000", "clip_0001"]
        for (_, clip, mask), twin in zip(written, twins):
            # the 8-bit P6 round trip
            want = np.clip(np.round(twin.clip.frames * 255.0), 0, 255) / 255.0
            np.testing.assert_array_equal(clip.frames, want)
            assert not mask.any()


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, tiny_cfg_file, capsys):
        data_dir = str(tmp_path / "data")
        assert main(["gen-data", "--n", "2", "--seed", "0", "--out", data_dir,
                     "--config", tiny_cfg_file]) == 0
        out_dir = str(tmp_path / "run")
        assert main(["train", "--config", tiny_cfg_file, "--out", out_dir]) == 0
        ckpt = os.path.join(out_dir, "checkpoint.mpci")
        assert os.path.exists(ckpt)
        assert main(["eval", "--config", tiny_cfg_file, "--ckpt", ckpt]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1].startswith("summary ")

    def test_resume_past_the_budget_reports_no_scores(self, tmp_path, tiny_cfg_file,
                                                      capsys):
        assert main(["gen-data", "--n", "2", "--seed", "0", "--out",
                     str(tmp_path / "data"), "--config", tiny_cfg_file]) == 0
        capsys.readouterr()
        run = str(tmp_path / "run")
        assert main(["train", "--config", tiny_cfg_file, "--out", run]) == 0
        first = capsys.readouterr().out.splitlines()
        assert first[0].startswith("finished at iteration 2: miou=")
        again = str(tmp_path / "again")
        assert main(["train", "--config", tiny_cfg_file, "--out", again,
                     "--resume", os.path.join(run, "checkpoint.mpci")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "finished at iteration 2: no evaluation ran"
        with open(os.path.join(again, "metrics.log")) as fh:
            assert fh.read() == ""

    def test_eval_with_jpeg_flag(self, tmp_path, tiny_cfg_file, capsys):
        data_dir = str(tmp_path / "data")
        main(["gen-data", "--n", "2", "--seed", "0", "--out", data_dir,
              "--config", tiny_cfg_file])
        out_dir = str(tmp_path / "run")
        main(["train", "--config", tiny_cfg_file, "--out", out_dir])
        ckpt = os.path.join(out_dir, "checkpoint.mpci")
        assert main(["eval", "--config", tiny_cfg_file, "--ckpt", ckpt,
                     "--jpeg", "70"]) == 0
        assert main(["eval", "--config", tiny_cfg_file, "--ckpt", ckpt,
                     "--jpeg", "70", "--snr", "25"]) == 1  # mutually exclusive

    def test_eval_dump_writes_maps(self, tmp_path, tiny_cfg_file):
        _gen_one_clip(tmp_path, tiny_cfg_file)
        out_dir = str(tmp_path / "run")
        main(["train", "--config", tiny_cfg_file, "--out", out_dir])
        dump = tmp_path / "dump"
        assert main(["eval", "--config", tiny_cfg_file,
                     "--ckpt", os.path.join(out_dir, "checkpoint.mpci"),
                     "--dump", str(dump)]) == 0
        assert sorted(os.listdir(dump)) == ["clip_0000_mask.pgm", "clip_0000_pred.pgm"]

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("geometry.patch = 5\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_numerical_failure_exit_code(self, tmp_path, tiny_cfg_file, monkeypatch):
        def boom(*a, **k):
            raise NumericalError("non-finite loss at iteration 0")

        monkeypatch.setattr(train_mod, "train", boom)
        assert main(["train", "--config", tiny_cfg_file,
                     "--out", str(tmp_path / "o")]) == 2

    def test_zero_eval_every_exit_code(self, tmp_path, tiny_cfg_file):
        with open(tiny_cfg_file, "a") as fh:
            fh.write("train.eval_every = 0\n")
        assert main(["train", "--config", tiny_cfg_file, "--out", str(tmp_path / "o")]) == 1

    def test_unknown_tensor_dtype_exit_code(self, tmp_path, tiny_cfg_file):
        ckpt = _tiny_ckpt(tmp_path, tiny_cfg_file)
        buf = bytearray(ckpt.read_bytes())
        first = buf.index(MAGIC)
        buf[first + 4] = 7  # dtype code byte of the first blob
        ckpt.write_bytes(bytes(buf))
        assert main(["eval", "--config", tiny_cfg_file, "--ckpt", str(ckpt)]) == 1

    @pytest.mark.parametrize("cut", [6, "blob+5"])
    def test_truncated_checkpoint_exit_code(self, tmp_path, tiny_cfg_file, capsys, cut):
        ckpt = _tiny_ckpt(tmp_path, tiny_cfg_file)
        buf = ckpt.read_bytes()
        end = cut if isinstance(cut, int) else buf.index(MAGIC) + 5
        ckpt.write_bytes(buf[:end])
        assert main(["eval", "--config", tiny_cfg_file, "--ckpt", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "truncated" in err

    def test_bad_momentum_buffer_exit_code(self, tmp_path, tiny_cfg_file, capsys):
        model = InpaintingDetector(load_config(tiny_cfg_file))
        name, p = next(iter(model.registry().items()))
        ckpt = tmp_path / "ck.mpci"
        save_checkpoint(str(ckpt), model, {name: np.zeros(p.data.size + 2)}, 1)
        _gen_one_clip(tmp_path, tiny_cfg_file)
        assert main(["train", "--config", tiny_cfg_file, "--out", str(tmp_path / "o"),
                     "--resume", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and f"opt/momentum/{name}" in err

    def test_other_models_checkpoint_exit_code(self, tmp_path, tiny_cfg_file, capsys):
        # a full-model checkpoint holds DWTI parameters the DWTI-off model lacks
        ckpt = _tiny_ckpt(tmp_path, tiny_cfg_file)
        off = tmp_path / "off.cfg"
        off.write_text((tmp_path / "tiny.cfg").read_text() + "dwti.enabled = false\n")
        assert main(["gen-data", "--n", "1", "--seed", "0", "--out",
                     str(tmp_path / "data"), "--config", str(off)]) == 0
        assert main(["eval", "--config", str(off), "--ckpt", str(ckpt)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {ckpt}: param/interaction.")
        assert captured.err.endswith(": no such parameter\n")
        assert "summary" not in captured.out

    def test_non_finite_checkpoint_exit_code(self, tmp_path, tiny_cfg_file, capsys):
        model = InpaintingDetector(load_config(tiny_cfg_file))
        model.decoder.head_conv.w.data[0] = np.nan
        ckpt = tmp_path / "ck.mpci"
        save_checkpoint(str(ckpt), model, {}, 0)
        _gen_one_clip(tmp_path, tiny_cfg_file)
        assert main(["eval", "--config", tiny_cfg_file, "--ckpt", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "param/decoder.head_conv.w: non-finite" in err

    def test_checkpoint_beyond_float32_exit_code(self, tmp_path, tiny_cfg_file, capsys):
        # a float64 checkpoint entry that is finite but overflows float32
        ckpt = _tiny_ckpt(tmp_path, tiny_cfg_file)
        blobs = load_container(str(ckpt))
        entry = "param/branches.0.merges.0.ln.b"
        blobs[entry] = np.full(blobs[entry].shape, 1e39)
        save_container(str(ckpt), blobs)
        _gen_one_clip(tmp_path, tiny_cfg_file)
        assert main(["eval", "--config", tiny_cfg_file, "--ckpt", str(ckpt)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {ckpt}: {entry}: values overflow float32\n"
        assert "summary" not in captured.out

    def test_overflowing_forward_exit_code(self, tmp_path, tiny_cfg_file, capsys):
        # a value finite in float32 whose square overflows in the layer norm
        model = InpaintingDetector(load_config(tiny_cfg_file))
        model.registry()["branches.0.merges.0.ln.b"].data[...] = 1e30
        ckpt = tmp_path / "ck.mpci"
        save_checkpoint(str(ckpt), model, {}, 0)
        _gen_one_clip(tmp_path, tiny_cfg_file)
        assert main(["eval", "--config", tiny_cfg_file, "--ckpt", str(ckpt)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "numerical failure: overflow encountered in multiply\n"
        assert "summary" not in captured.out

    def test_overflowing_snr_exit_code(self, tmp_path, tiny_cfg_file, capsys):
        # 10 ** 400 overflows a Python float, which numpy's errstate does not see
        ckpt = _tiny_ckpt(tmp_path, tiny_cfg_file)
        _gen_one_clip(tmp_path, tiny_cfg_file)
        assert main(["eval", "--config", tiny_cfg_file, "--ckpt", str(ckpt),
                     "--snr", "-4000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure:")
        assert "Traceback" not in captured.err and "summary" not in captured.out

    def test_truncated_frame_exit_code(self, tmp_path, tiny_cfg_file, capsys):
        ckpt = _tiny_ckpt(tmp_path, tiny_cfg_file)
        _gen_one_clip(tmp_path, tiny_cfg_file)
        frame = tmp_path / "data" / "clip_0000" / "frame_001.ppm"
        buf = frame.read_bytes()
        frame.write_bytes(buf[:len(buf) // 2])
        assert main(["eval", "--config", tiny_cfg_file, "--ckpt", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert str(frame) in err and "truncated" in err

    @pytest.mark.parametrize("manifest", ["", "frame_000.ppm\nsub\n",
                                          "../clip_0000/frame_000.ppm\n", None,
                                          b"frame_000.ppm\n\xff\xfe\n"],
                             ids=["empty", "subdir", "outside", "manifest_is_dir", "not_utf8"])
    def test_bad_manifest_exit_code(self, tmp_path, tiny_cfg_file, capsys, manifest):
        # an empty manifest, an entry that is a directory or lies outside the
        # clip, a manifest that is itself a directory, and one not UTF-8
        _gen_one_clip(tmp_path, tiny_cfg_file)
        clip = tmp_path / "data" / "clip_0000"
        (clip / "sub").mkdir()
        path = clip / "manifest.txt"
        if manifest is None:
            path.unlink()
            path.mkdir()
        elif isinstance(manifest, bytes):
            path.write_bytes(manifest)
        else:
            path.write_text(manifest)
        capsys.readouterr()
        assert main(["freq-dump", "--clip", str(clip), "--out", str(tmp_path / "bands"),
                     "--config", tiny_cfg_file]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize("content, named", [
        (b"P6\n8 8\n255\n" + bytes(8 * 8 * 3), "manifest.txt"),
        (b"P6\n0 16\n255\n", "frame_001.ppm"),
    ], ids=["other_size", "zero_width"])
    def test_bad_frame_exit_code(self, tmp_path, tiny_cfg_file, capsys, content, named):
        # a frame of another size than the first is named by its manifest
        # entry, an empty P6 header by the frame's path
        _gen_one_clip(tmp_path, tiny_cfg_file)
        clip = tmp_path / "data" / "clip_0000"
        (clip / "frame_001.ppm").write_bytes(content)
        capsys.readouterr()
        assert main(["freq-dump", "--clip", str(clip), "--out", str(tmp_path / "bands"),
                     "--config", tiny_cfg_file]) == 1
        err = capsys.readouterr().err
        assert str(clip / named) in err and "Traceback" not in err, err

    def test_config_not_utf8_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"seed = 1\n# \xff\n")
        assert main(["show-config", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "not UTF-8" in err and "Traceback" not in err

    @pytest.mark.parametrize("frames_hw, mask_hw", [((24, 24), (24, 24)), ((16, 16), (8, 8))])
    def test_mismatched_clip_shape_exit_code(self, tmp_path, tiny_cfg_file, capsys,
                                             frames_hw, mask_hw):
        # frames off the config geometry, or a mask off its frames, must be
        # reported with the clip directory before any clip reaches the model
        ckpt = _tiny_ckpt(tmp_path, tiny_cfg_file)
        rng = np.random.default_rng(0)
        save_clip(tmp_path / "data" / "clip_0000",
                  VideoClip(rng.uniform(size=(3, 16, 16, 3))), np.zeros((16, 16)))
        bad = tmp_path / "data" / "clip_0001"
        save_clip(bad, VideoClip(rng.uniform(size=(3, *frames_hw, 3))), np.zeros(mask_hw))
        assert main(["eval", "--config", tiny_cfg_file, "--ckpt", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    @pytest.mark.parametrize("line", [
        "optim.momentum = 1.0",
        "optim.momentum = -0.1",
        "optim.min_lr = -0.00001",
        "optim.min_lr = 0.002",
        "dwti.max_offset = 0",
        "dwti.max_offset = -1.0",
        "dwti.common_dim = 0",
        "geometry.patch = 0",
        "geometry.channels = 0",
        "encoder.window = 0",
        "encoder.dims = 0,8",
        "encoder.heads = 0,2",
        "global.patch = 0",
        "global.dim = 0",
        "global.heads = 0",
        "dwti.window = 0",
        "decoder.channels = 0,8",
    ])
    def test_out_of_range_optim_and_dwti_exit_code(self, tmp_path, tiny_cfg_file, capsys, line):
        with open(tiny_cfg_file, "a") as fh:
            fh.write(line + "\n")
        assert main(["train", "--config", tiny_cfg_file, "--out", str(tmp_path / "o")]) == 1
        assert line.split(" =")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "optim.lr_decoder = nan",
        "optim.lr_decoder = inf",
        "optim.weight_decay = -5",
        "optim.poly_power = -3",
        "perturb.snr_db = nan",
        "loss.gamma = nan",
        "dwti.max_offset = inf",
        "seed = -1",
        "encoder.depths = -1,2",
        "encoder.stages = 0\nencoder.depths =\nencoder.heads =\ndecoder.channels =",
        "geometry.channels = 1",
        "geometry.channels = 4",
    ])
    def test_show_config_rejects_out_of_range(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "\n")
        assert main(["show-config", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}: {text.split(' =')[0]}" in err and "Traceback" not in err

    def test_config_error_names_the_file_once(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("x = 1\n")
        assert main(["show-config", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: line 1: unknown key 'x'\n"

    def test_flag_error_names_no_file(self, tiny_cfg_file, capsys):
        assert main(["eval", "--config", tiny_cfg_file, "--ckpt", "ck.mpci", "--jpeg", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: perturb.jpeg_quality") and tiny_cfg_file not in err

    @pytest.mark.parametrize("argv", [["train", "--out", "out"], ["eval", "--ckpt", "ck.mpci"],
                                      ["show-config"]], ids=["train", "eval", "show-config"])
    def test_empty_config_path_fails_like_a_missing_file(self, tmp_path, capsys, argv):
        absent = str(tmp_path / "absent.cfg")
        assert main([*argv, "--config", absent]) == 1
        missing = capsys.readouterr().err
        assert main([*argv, "--config", ""]) == 1
        assert capsys.readouterr().err == missing.replace(repr(absent), "''")
        assert missing.startswith("error: ") and missing.count("\n") == 1

    @pytest.mark.parametrize("snr", ["-1e-3", "-1e+308"])
    def test_negative_snr_with_an_exponent_parses(self, monkeypatch, snr):
        seen = []
        monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.snr) or 0)
        assert main(["eval", "--config", "c.cfg", "--ckpt", "ck.mpci", "--snr", snr]) == 0
        assert seen == [float(snr)] and isinstance(seen[0], float)

    def test_unknown_key_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("geometry.depht = 4\n")
        assert main(["complexity", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("argv, says", [
        (["gen-data", "--n", "abc", "--seed", "0", "--out", "x"], "invalid int value: 'abc'"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["gen-data", "--seed", "0", "--out", "x"], "arguments are required: --n"),
    ])
    def test_usage_error_exit_code(self, capsys, argv, says):
        # exit 1 like any other validation error: argparse's 2 reads as a
        # numerical failure
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: vindet") and "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            line for line in err.splitlines() if says in line]

    def test_unallocatable_model_exit_code(self, tmp_path, capsys):
        # numpy refuses the 13.6 PiB weight before allocating any of it
        big = tmp_path / "big.cfg"
        big.write_text("global.dim = 10000000000000\n")
        assert main(["eval", "--config", str(big), "--ckpt", str(tmp_path / "ck.mpci")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --config {big}: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestOtherCommands:
    def test_complexity(self, tiny_cfg_file, capsys):
        assert main(["complexity", "--config", tiny_cfg_file]) == 0
        out = capsys.readouterr().out
        assert "params:" in out and "flops_per_clip:" in out

    def test_gradcheck_smoke(self, tiny_cfg_file, capsys):
        # the desk model's full-model check is criterion 2's
        assert main(["gradcheck", "--seeds", "1", "--full-model",
                     "--config", tiny_cfg_file]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        # the zero-initialised head would leave the sampled gradients all zero
        line = [ln for ln in out.splitlines() if ln.startswith("full-model:")]
        assert len(line) == 1 and line[0].endswith("over 100 coords")
        assert float(line[0].split("max_rel_err=")[1].split()[0]) > 0.0

    @pytest.mark.parametrize("text", [None, "geometry.patch = 5\n"],
                             ids=["missing", "invalid"])
    def test_gradcheck_reads_its_config_first(self, tmp_path, capsys, text):
        # a missing or invalid file, with or without --full-model
        cfg = tmp_path / "gc.cfg"
        if text is not None:
            cfg.write_text(text)
        assert main(["gradcheck", "--seeds", "1", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert str(cfg) in captured.err and captured.out == ""

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_gradcheck_rejects_seeds_below_one(self, capsys, seeds):
        assert main(["gradcheck", "--seeds", seeds]) == 1
        err = capsys.readouterr().err
        assert "--seeds" in err and "Traceback" not in err

    @pytest.mark.parametrize("h, w", [(33, 33), (31, 40)])
    def test_freq_dump_any_clip_size(self, tmp_path, h, w):
        # the maps are full resolution, so no side needs to halve
        clip = tmp_path / "clip"
        frames = np.random.default_rng(0).uniform(size=(3, h, w, 3))
        save_clip(clip, VideoClip(frames), np.zeros((h, w)))
        out = tmp_path / "bands"
        assert main(["freq-dump", "--clip", str(clip), "--out", str(out)]) == 0
        assert len(os.listdir(out)) == 9

    def test_freq_dump(self, tmp_path, tiny_cfg_file, capsys):
        data_dir = str(tmp_path / "data")
        main(["gen-data", "--n", "1", "--seed", "5", "--out", data_dir,
              "--config", tiny_cfg_file])
        out = tmp_path / "bands"
        assert main(["freq-dump", "--clip", os.path.join(data_dir, "clip_0000"),
                     "--out", str(out), "--config", tiny_cfg_file]) == 0
        files = sorted(os.listdir(out))
        assert len(files) == 9  # 3 bands x 3 channels
        assert "band_low_c0.pgm" in files

    def test_show_config_roundtrips(self, capsys):
        assert main(["show-config"]) == 0
        text = capsys.readouterr().out
        assert text == dump_config(ExperimentConfig())
