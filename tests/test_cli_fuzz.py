"""Fuzzing ``vindet.cli.main`` with corrupted input files.

A tiny 16x16 model's checkpoint and one clip directory are corrupted by
drawn byte flips, cuts, replacements, dropped or repeated lines and changed
numbers, and config files hold drawn text. Every run must exit 0, 1 or 2
with no exception escaping ``main`` (the CLI would print a traceback) and
no numpy warning (an overflow is a numerical failure, exit 2), and an
exit 1 must name the corrupted checkpoint, clip or config file.
"""

import contextlib
import io
import os
import re
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vindet.cli import main
from vindet.config import ExperimentConfig, leaves, parse_config
from vindet.data import generate_dataset, save_dataset
from vindet.model import InpaintingDetector
from vindet.train import save_checkpoint

TINY = """
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
train.batch = 2
"""
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")
CLIP_FILES = ("frame_000.ppm", "frame_001.ppm", "frame_002.ppm", "gt.pgm", "manifest.txt")
KEYS = [key for key, _, _ in leaves(ExperimentConfig())]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A config file, a checkpoint and a one-clip data directory, written once."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg_path = str(root / "tiny.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(TINY)
    cfg = parse_config(TINY)
    ckpt = str(root / "ck.mpci")
    save_checkpoint(ckpt, InpaintingDetector(cfg), {}, 0)
    save_dataset(str(root / "data"), generate_dataset(1, 0, cfg))
    return {"root": str(root), "cfg": cfg_path, "ckpt": ckpt, "data": str(root / "data")}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@st.composite
def corrupted(draw, buf: bytes) -> bytes:
    """``buf`` with bytes flipped, cut at an offset, a span replaced, one
    line dropped or repeated, or one run of ASCII digits (a header size, a
    frame number) replaced by another number."""
    kind = draw(st.sampled_from(["flip", "cut", "replace", "line", "number"]))
    at = draw(st.integers(0, max(len(buf) - 1, 0)))
    if kind == "cut":
        return buf[:at]
    if kind == "number":
        run = draw(st.sampled_from(list(re.finditer(rb"\d+", buf)) or [None]))
        if run is None:
            return buf
        return buf[:run.start()] + b"%d" % draw(st.integers(0, 40)) + buf[run.end():]
    if kind == "line":
        lines = buf.split(b"\n")
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = draw(st.sampled_from([[], [lines[i]] * 2]))
        return b"\n".join(lines)
    if kind == "flip":
        out = bytearray(buf)
        for off in draw(st.lists(st.integers(0, len(buf) - 1), min_size=1, max_size=4)):
            out[off] ^= draw(st.integers(1, 255))
        return bytes(out)
    span = draw(st.integers(1, 16))
    return buf[:at] + draw(st.binary(max_size=16)) + buf[at + span:]


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _check(code, err, *namings):
    """Exit 0, 1 or 2 without a traceback; an exit 1 shows every part of
    one of ``namings`` on stderr, when any are given."""
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err, err
    if code == 1 and namings:
        assert any(all(part in err for part in parts) for parts in namings), err


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_eval_with_corrupted_checkpoint(pristine, data):
    ckpt = os.path.join(pristine["root"], "fuzz.mpci")
    with open(ckpt, "wb") as fh:
        fh.write(data.draw(corrupted(_read(pristine["ckpt"]))))
    code, err = _run(["eval", "--config", pristine["cfg"], "--ckpt", ckpt,
                      "--data", pristine["data"]])
    _check(code, err, (ckpt,))


@settings(max_examples=600, deadline=None)
@given(command=st.sampled_from(["eval", "freq-dump"]), name=st.sampled_from(CLIP_FILES),
       data=st.data())
def test_corrupted_clip_file(pristine, command, name, data):
    source = os.path.join(pristine["data"], "clip_0000")
    mutated = data.draw(corrupted(_read(os.path.join(source, name))))
    case = tempfile.mkdtemp(dir=pristine["root"])
    clip = os.path.join(case, "clip_0000")
    shutil.copytree(source, clip)
    target = os.path.join(clip, name)
    with open(target, "wb") as fh:
        fh.write(mutated)
    if command == "eval":
        argv = ["eval", "--config", pristine["cfg"], "--ckpt", pristine["ckpt"], "--data", case]
    else:
        argv = ["freq-dump", "--clip", clip, "--out", os.path.join(case, "bands"),
                "--config", pristine["cfg"]]
    code, err = _run(argv)
    # a frame may also be named as its manifest's entry
    _check(code, err, (target,), (os.path.join(clip, "manifest.txt"), repr(name)))
    shutil.rmtree(case)


config_lines = st.one_of(
    st.text(max_size=60),
    st.builds("{} = {}".format, st.sampled_from(KEYS), st.text(max_size=20)))


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(config_lines, max_size=6))
def test_show_config_with_arbitrary_text(pristine, lines):
    path = os.path.join(pristine["root"], "fuzz.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    code, err = _run(["show-config", "--config", path])
    _check(code, err, (path,))
