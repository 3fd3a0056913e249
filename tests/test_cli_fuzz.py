"""Fuzzing ``vindet.cli.main`` with corrupted input files and drawn argv.

A tiny 16x16 model's checkpoint and one clip directory are corrupted by
drawn byte flips, cuts, replacements, dropped or repeated lines and changed
numbers, and config files hold drawn text. Every run must exit 0, 1 or 2
with no exception escaping ``main`` (the CLI would print a traceback) and
no numpy warning (an overflow is a numerical failure, exit 2), and an
exit 1 must name the corrupted checkpoint, clip or config file. Drawn
command lines (every subcommand, with flags dropped, shuffled, left without
a value, given bad values or joined by unknown ones) must exit 0, 1 or 2
as well, an exit 1 with exactly one ``error:`` line.
"""

import contextlib
import io
import os
import re
import shutil
import tempfile

import pytest
from conftest import TINY_MODEL
from hypothesis import given, settings
from hypothesis import strategies as st

from vindet.cli import main
from vindet.config import ExperimentConfig, leaves, parse_config
from vindet.data import generate_dataset, save_datasets
from vindet.model import InpaintingDetector
from vindet.train import save_checkpoint

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")
CLIP_FILES = ("frame_000.ppm", "frame_001.ppm", "frame_002.ppm", "gt.pgm", "manifest.txt")
KEYS = [key for key, _, _ in leaves(ExperimentConfig())]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A config file, a checkpoint and a one-clip data directory, written once."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg_path = str(root / "tiny.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(TINY_MODEL)
    cfg = parse_config(TINY_MODEL)
    ckpt = str(root / "ck.mpci")
    save_checkpoint(ckpt, InpaintingDetector(cfg), {}, 0)
    save_datasets({str(root / "data"): generate_dataset(1, 0, cfg)})
    return {"root": str(root), "cfg": cfg_path, "ckpt": ckpt, "data": str(root / "data")}


@pytest.fixture(scope="module")
def one_iter(pristine):
    """The tiny config, training one step on the pristine data."""
    path = os.path.join(pristine["root"], "one_iter.cfg")
    with open(path, "w") as fh:
        fh.write(f"{TINY_MODEL}train.iters = 1\ndata.dir = {pristine['data']}\n")
    return path


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors, and --help
            code = 0 if exc.code is None else exc.code
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


def _flags(p, one_iter):
    """Each subcommand's flags, each with a strategy for values that work
    (None leaves an optional flag out) and one for values the command must
    reject; a switch maps to None. No value does more than one unit of work
    (a clip, a training step, a gradient-check seed) or fails slower than
    that. Outputs go to ``out`` in the run's working directory, or onto an
    existing file."""
    absent = os.path.join(p["root"], "absent")
    clip = os.path.join(p["data"], "clip_0000")
    pick = st.sampled_from
    bad_path = pick([p["ckpt"], p["root"], absent, ""])
    config = (pick([p["cfg"], one_iter]), bad_path)
    out = (st.just("out"), st.just(p["ckpt"]))
    junk = pick(["", "x", "1e999", "nan", "0x10"])
    return {
        "gen-data": {"--n": (pick(["0", "1", "2"]), pick(["-1"]) | junk),
                     "--seed": (st.integers(0, 9).map(str), pick(["-1"]) | junk),
                     "--out": out, "--config": config, "--with-authentic": None},
        "train": {"--config": (st.just(one_iter), bad_path), "--out": out,
                  "--resume": (pick([None, p["ckpt"]]), pick([p["cfg"], p["root"], absent]))},
        "eval": {"--config": config,
                 "--ckpt": (st.just(p["ckpt"]), pick([p["cfg"], p["root"], absent])),
                 "--data": (st.just(p["data"]), pick([p["root"], clip, absent])),
                 "--jpeg": (st.none() | st.integers(1, 100).map(str),
                            pick(["0", "101", "-5"]) | junk),
                 "--snr": (st.none() | st.floats(-10, 60).map(repr),
                           st.floats().map(repr) | junk),
                 "--dump": (pick([None, "out"]), st.just(p["ckpt"]))},
        # never dropped: without a tiny --config, --full-model checks the desk model
        "gradcheck": {"--config": (pick([p["cfg"], one_iter]), bad_path),
                      "--seeds": (st.just("1"), pick(["0", "-2"]) | junk),
                      "--full-model": None},
        "complexity": {"--config": config, "--verbose": None},
        "freq-dump": {"--clip": (st.just(clip), pick([p["data"], p["ckpt"], absent])),
                      "--out": out, "--config": config},
        "show-config": {"--config": config},
    }


EDITS = ("drop", "bare", "bad", "switch", "stray", "command")


@st.composite
def command_lines(draw, flags):
    """A subcommand with each flag given a working value, in a drawn order,
    after up to two edits: a flag dropped, left without its value or given a
    bad one, a switch turned on, an unknown token put in, or the subcommand
    made bad or left out."""
    command = draw(st.sampled_from(sorted(flags)))
    own = flags[command]
    given = {}                              # flag -> the tokens after it
    for flag, values in own.items():
        value = None if values is None else draw(values[0])
        if value is not None:
            given[flag] = [value]
    head, stray = [command], []
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=2)):
        if edit == "switch":
            switches = [f for f, v in own.items() if v is None]
            if switches:
                given[draw(st.sampled_from(switches))] = []
        elif edit == "stray":
            stray = [draw(st.sampled_from(["--bogus", "-q", "--", "stray", "-", "-h"]))]
        elif edit == "command":
            head = draw(st.sampled_from([["bogus"], []]))
        elif given:
            flag = draw(st.sampled_from(sorted(given)))
            if edit == "drop":
                if (command, flag) != ("gradcheck", "--config"):
                    del given[flag]
            elif own[flag] is not None:
                given[flag] = [] if edit == "bare" else [draw(own[flag][1])]
    argv = head + [t for flag in draw(st.permutations(sorted(given)))
                   for t in (flag, *given[flag])]
    at = draw(st.integers(0, len(argv)))
    return argv[:at] + stray + argv[at:]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_drawn_command_line(pristine, one_iter, data):
    argv = data.draw(command_lines(_flags(pristine, one_iter)))
    case, home = tempfile.mkdtemp(dir=pristine["root"]), os.getcwd()
    os.chdir(case)           # relative paths, the default data dir among them
    try:
        code, err = _run(argv)
    finally:
        os.chdir(home)
        shutil.rmtree(case)
    _check(code, err)
    if code == 1:
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1, err
