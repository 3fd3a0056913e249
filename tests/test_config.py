"""Config file parsing, dumping, and validation."""

import contextlib
import io
import math
import os
import string
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from vindet.cli import main
from vindet.config import ExperimentConfig, dump_config, leaves, load_config, parse_config
from vindet.model import InpaintingDetector

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestParsing:
    def test_basic_keys(self):
        cfg = parse_config("""
            seed = 7
            geometry.height = 64   # inline comment
            geometry.width = 64
            encoder.dims = 8,12,16
            dwti.enabled = false
            loss.alpha = 0.4
        """)
        assert cfg.seed == 7
        assert cfg.geometry.height == 64
        assert cfg.encoder.dims == (8, 12, 16)
        assert cfg.dwti.enabled is False
        assert cfg.loss.alpha == 0.4

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("geometry.depth = 3")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("nonsense = 1")

    def test_bad_value_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("geometry.height = tall")

    def test_bad_seed_reports_line_and_key(self):
        with pytest.raises(ValueError, match="line 2: bad value for seed"):
            parse_config("geometry.height = 32\nseed = x")

    def test_bad_boolean(self):
        with pytest.raises(ValueError):
            parse_config("dwti.enabled = maybe")

    def test_roundtrip_through_dump(self):
        cfg = ExperimentConfig(seed=3)
        cfg.geometry.views = (1, 3)
        cfg.encoder.dims = (8, 16)
        text = dump_config(cfg)
        back = parse_config(text)
        assert back.seed == 3
        assert back.geometry.views == (1, 3)
        assert back.encoder.dims == (8, 16)
        assert dump_config(back) == text

    def test_defaults_validate(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize("name", ["desk.cfg", "paper.cfg"])
    def test_shipped_configs_validate(self, name):
        load_config(os.path.join(REPO, "configs", name)).validate()


class TestValidation:
    def test_patch_divisibility(self):
        cfg = ExperimentConfig()
        cfg.geometry.patch = 5
        with pytest.raises(ValueError, match="patch"):
            cfg.validate()

    def test_views_must_ascend(self):
        cfg = ExperimentConfig()
        cfg.geometry.views = (2, 2, 3)
        with pytest.raises(ValueError, match="ascending"):
            cfg.validate()

    def test_view_longer_than_clip(self):
        cfg = ExperimentConfig()
        cfg.geometry.views = (1, 2, 4)
        with pytest.raises(ValueError, match="exceeds"):
            cfg.validate()

    def test_window_vs_side(self):
        cfg = ExperimentConfig()
        cfg.encoder.window = 16
        with pytest.raises(ValueError, match="window"):
            cfg.validate()

    def test_dwti_window_vs_side(self):
        cfg = ExperimentConfig()
        cfg.dwti.window = 8
        with pytest.raises(ValueError, match="stage 1: side 4 smaller than dwti window"):
            cfg.validate()

    def test_dwti_window_unchecked_without_a_second_view(self):
        # one view builds no DWTI, so its window meets no stage side
        def one_view(enabled):
            cfg = ExperimentConfig()
            cfg.geometry.views, cfg.encoder.dims = (3,), (16,)
            cfg.dwti.enabled, cfg.dwti.window = enabled, 8
            return InpaintingDetector(cfg.validate()).registry()

        got, want = one_view(True), one_view(False)
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[n].data, want[n].data) for n in want)

    def test_heads_divide_dims(self):
        cfg = ExperimentConfig()
        cfg.encoder.heads = (3, 4)
        with pytest.raises(ValueError, match="heads"):
            cfg.validate()

    def test_frequency_needs_pow2_patch(self):
        cfg = ExperimentConfig()
        cfg.geometry.height = cfg.geometry.width = 36
        cfg.geometry.patch = 6
        cfg.glob.patch = 6
        cfg.encoder.stages = 1
        cfg.encoder.depths = (1,)
        cfg.encoder.heads = (2,)
        cfg.encoder.window = 2
        cfg.dwti.window = 2
        cfg.decoder.channels = (32,)
        with pytest.raises(ValueError, match="power-of-two"):
            cfg.validate()

    def test_fusion_channels_split_into_groups(self):
        cfg = ExperimentConfig()
        cfg.decoder.channels = (32, 46)
        with pytest.raises(ValueError, match="decoder.channels must be multiples of 4, got 32,46"):
            cfg.validate()

    def test_merged_stage_needs_even_side(self):
        cfg = ExperimentConfig()
        cfg.geometry.height = cfg.geometry.width = 36
        cfg.glob.patch = 4
        with pytest.raises(ValueError, match="stage 0: side 9 must be even to merge"):
            cfg.validate()

    def test_perturb_kind(self):
        cfg = ExperimentConfig()
        cfg.perturb.kind = "blur"
        with pytest.raises(ValueError, match="perturbation"):
            cfg.validate()


def _leaves():
    """(file key, default, rule or None) of every config value."""
    for key, owner, f in leaves(ExperimentConfig()):
        yield key, getattr(owner, f.name), f.metadata.get("rule")


RULED = [leaf for leaf in _leaves() if leaf[2] is not None]


def _entries(default, rule, inside: bool):
    """Values for one entry of a field, drawn from its rule's own bounds and
    choices, not from ``rule.admits``: admitted ones when ``inside``, else
    ones below or above a bound, non-finite floats, or strings outside the
    choices."""
    if rule.choices:
        if inside:
            return st.sampled_from(rule.choices)
        return st.text(string.ascii_letters, min_size=1).filter(lambda v: v not in rule.choices)
    lo, hi = (float(s) for s in rule.interval[1:-1].split(","))
    lo_open, hi_open = rule.interval[0] == "(", rule.interval[-1] == ")"
    has_lo, has_hi = math.isfinite(lo), math.isfinite(hi)
    if type(default[0] if isinstance(default, tuple) else default) is int:
        first = (math.floor(lo) + 1 if lo_open else math.ceil(lo)) if has_lo else -10**6
        last = (math.ceil(hi) - 1 if hi_open else math.floor(hi)) if has_hi else 10**6
        if inside:
            return st.integers(first, last)
        return st.one_of([st.integers(max_value=first - 1)] * has_lo
                         + [st.integers(min_value=last + 1)] * has_hi)
    if inside:
        return st.floats(lo if has_lo else None, hi if has_hi else None,
                         allow_nan=False, allow_infinity=False).filter(
            lambda v: (v > lo or not lo_open) and (v < hi or not hi_open))
    return st.one_of([st.floats(max_value=lo).filter(lambda v: lo_open or v < lo)] * has_lo
                     + [st.floats(min_value=hi).filter(lambda v: hi_open or v > hi)] * has_hi
                     + [st.sampled_from([math.nan, math.inf, -math.inf])])


def _value_text(draw, default, rule, inside: bool) -> str:
    """Config-file text for ``default`` with one value, or one tuple entry,
    drawn from the rule."""
    entry = draw(_entries(default, rule, inside))
    text = repr(entry) if isinstance(entry, float) else str(entry)
    if not isinstance(default, tuple):
        return text
    at = draw(st.integers(0, len(default) - 1))
    return ",".join([str(v) for v in default[:at]] + [text] + [str(v) for v in default[at + 1:]])


@pytest.fixture(scope="module")
def fuzz_cfg(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "fuzz.cfg")


def _show_config(path, line):
    with open(path, "w") as fh:
        fh.write(line + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["show-config", "--config", path])
    return code, err.getvalue()


class TestRules:
    def test_every_field_declares_a_rule(self):
        bare = [key for key, default, rule in _leaves()
                if rule is None and not isinstance(default, bool) and key != "data.dir"]
        assert bare == []

    @pytest.mark.parametrize("key, default, rule", RULED, ids=[leaf[0] for leaf in RULED])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_out_of_range_value_names_key(self, fuzz_cfg, key, default, rule, data):
        line = f"{key} = {_value_text(data.draw, default, rule, inside=False)}"
        code, err = _show_config(fuzz_cfg, line)
        assert code == 1, line
        assert f"error: {fuzz_cfg}: {key}" in err and "Traceback" not in err, (line, err)

    @pytest.mark.parametrize("key, default, rule", RULED, ids=[leaf[0] for leaf in RULED])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_in_range_value_passes_its_rule(self, fuzz_cfg, key, default, rule, data):
        # exit 1 is left to the cross-field rules (divisibility, lengths, order)
        line = f"{key} = {_value_text(data.draw, default, rule, inside=True)}"
        code, err = _show_config(fuzz_cfg, line)
        assert code in (0, 1) and "Traceback" not in err, (line, err)
        assert f"must be {rule}," not in err, (line, err)
