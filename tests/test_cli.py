"""CLI subcommands: exit codes, artifacts, and wiring."""

import os

import numpy as np
import pytest

from vindet.cli import main
from vindet.config import ExperimentConfig, dump_config


TINY = """
seed = 0
geometry.height = 16
geometry.width = 16
geometry.views = 1,2
encoder.dims = 8,8
encoder.depths = 1,1
encoder.heads = 2,2
encoder.window = 2
global.patch = 8
global.dim = 8
global.depth = 1
dwti.common_dim = 8
dwti.window = 2
decoder.channels = 8,8
train.iters = 2
train.batch = 2
train.eval_every = 1
"""


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
        data_dir = str(tmp_path / "data")
        main(["gen-data", "--n", "1", "--seed", "0", "--out", data_dir,
              "--config", tiny_cfg_file])
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
        import vindet.train as train_mod
        from vindet.train import NumericalError

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
        from vindet.config import load_config
        from vindet.model import InpaintingDetector
        from vindet.serialize import MAGIC
        from vindet.train import save_checkpoint

        ckpt = tmp_path / "ck.mpci"
        save_checkpoint(str(ckpt), InpaintingDetector(load_config(tiny_cfg_file)), {}, 0)
        buf = bytearray(ckpt.read_bytes())
        first = buf.index(MAGIC)
        buf[first + 4] = 7  # dtype code byte of the first blob
        ckpt.write_bytes(bytes(buf))
        assert main(["eval", "--config", tiny_cfg_file, "--ckpt", str(ckpt)]) == 1

    @pytest.mark.parametrize("cut", [6, "blob+5"])
    def test_truncated_checkpoint_exit_code(self, tmp_path, tiny_cfg_file, capsys, cut):
        from vindet.config import load_config
        from vindet.model import InpaintingDetector
        from vindet.serialize import MAGIC
        from vindet.train import save_checkpoint

        ckpt = tmp_path / "ck.mpci"
        save_checkpoint(str(ckpt), InpaintingDetector(load_config(tiny_cfg_file)), {}, 0)
        buf = ckpt.read_bytes()
        end = cut if isinstance(cut, int) else buf.index(MAGIC) + 5
        ckpt.write_bytes(buf[:end])
        assert main(["eval", "--config", tiny_cfg_file, "--ckpt", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "truncated" in err

    def test_bad_momentum_buffer_exit_code(self, tmp_path, tiny_cfg_file, capsys):
        from vindet.config import load_config
        from vindet.model import InpaintingDetector
        from vindet.train import save_checkpoint

        model = InpaintingDetector(load_config(tiny_cfg_file))
        name, p = next(iter(model.registry().items()))
        ckpt = tmp_path / "ck.mpci"
        save_checkpoint(str(ckpt), model, {name: np.zeros(p.data.size + 2)}, 1)
        assert main(["gen-data", "--n", "1", "--seed", "0", "--out",
                     str(tmp_path / "data"), "--config", tiny_cfg_file]) == 0
        assert main(["train", "--config", tiny_cfg_file, "--out", str(tmp_path / "o"),
                     "--resume", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and f"opt/momentum/{name}" in err

    def test_non_finite_checkpoint_exit_code(self, tmp_path, tiny_cfg_file, capsys):
        from vindet.config import load_config
        from vindet.model import InpaintingDetector
        from vindet.train import save_checkpoint

        model = InpaintingDetector(load_config(tiny_cfg_file))
        model.decoder.head_conv.w.data[0] = np.nan
        ckpt = tmp_path / "ck.mpci"
        save_checkpoint(str(ckpt), model, {}, 0)
        assert main(["gen-data", "--n", "1", "--seed", "0", "--out",
                     str(tmp_path / "data"), "--config", tiny_cfg_file]) == 0
        assert main(["eval", "--config", tiny_cfg_file, "--ckpt", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "param/decoder.head_conv.w: non-finite" in err

    def test_overflowing_forward_exit_code(self, tmp_path, tiny_cfg_file, capsys):
        # a finite checkpoint value whose square overflows in the layer norm
        from vindet.config import load_config
        from vindet.model import InpaintingDetector
        from vindet.train import save_checkpoint

        model = InpaintingDetector(load_config(tiny_cfg_file))
        model.registry()["branches.0.merges.0.ln.b"].data[...] = 1e300
        ckpt = tmp_path / "ck.mpci"
        save_checkpoint(str(ckpt), model, {}, 0)
        assert main(["gen-data", "--n", "1", "--seed", "0", "--out",
                     str(tmp_path / "data"), "--config", tiny_cfg_file]) == 0
        assert main(["eval", "--config", tiny_cfg_file, "--ckpt", str(ckpt)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "numerical failure: overflow encountered in multiply\n"
        assert "summary" not in captured.out

    def test_truncated_frame_exit_code(self, tmp_path, tiny_cfg_file, capsys):
        from vindet.config import load_config
        from vindet.model import InpaintingDetector
        from vindet.train import save_checkpoint

        ckpt = tmp_path / "ck.mpci"
        save_checkpoint(str(ckpt), InpaintingDetector(load_config(tiny_cfg_file)), {}, 0)
        assert main(["gen-data", "--n", "1", "--seed", "0", "--out",
                     str(tmp_path / "data"), "--config", tiny_cfg_file]) == 0
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
        assert main(["gen-data", "--n", "1", "--seed", "0", "--out",
                     str(tmp_path / "data"), "--config", tiny_cfg_file]) == 0
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
        assert main(["gen-data", "--n", "1", "--seed", "0", "--out",
                     str(tmp_path / "data"), "--config", tiny_cfg_file]) == 0
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
        from vindet.config import load_config
        from vindet.model import InpaintingDetector
        from vindet.tokenizer import VideoClip, save_clip
        from vindet.train import save_checkpoint

        ckpt = tmp_path / "ck.mpci"
        save_checkpoint(str(ckpt), InpaintingDetector(load_config(tiny_cfg_file)), {}, 0)
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

    def test_unknown_key_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("geometry.depht = 4\n")
        assert main(["complexity", "--config", str(bad)]) == 1


class TestOtherCommands:
    def test_complexity(self, tiny_cfg_file, capsys):
        assert main(["complexity", "--config", tiny_cfg_file]) == 0
        out = capsys.readouterr().out
        assert "params:" in out and "flops_per_clip:" in out

    def test_gradcheck_smoke(self, capsys):
        assert main(["gradcheck", "--seeds", "1", "--full-model"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        # the zero-initialised head would leave the sampled gradients all zero
        line = [ln for ln in out.splitlines() if ln.startswith("full-model:")]
        assert len(line) == 1 and line[0].endswith("over 100 coords")
        assert float(line[0].split("max_rel_err=")[1].split()[0]) > 0.0

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
