"""Every entry of the committed golden digests, recomputed: the program's
maps, losses, gradients, checkpoints and logs stay bit-identical unless a
change regenerates ``golden.json`` on purpose (see ``make_golden.py``)."""

import json

from make_golden import GOLDEN, entries, machine


def test_every_golden_entry_is_reproduced():
    golden = json.loads(GOLDEN.read_text())
    recorded = {key: golden[key] for key in ("numpy", "cpu")}
    now, got = machine(), entries()
    problems = [f"{name}: digest differs; values were {want['values']}, "
                f"now {got[name]['values']}"
                for name, want in golden["entries"].items()
                if name in got and got[name]["sha256"] != want["sha256"]]
    problems += [f"{name}: no longer computed" for name in golden["entries"] if name not in got]
    problems += [f"{name}: not in {GOLDEN.name}" for name in got if name not in golden["entries"]]
    if recorded != now:
        problems.insert(0, f"{GOLDEN.name} was made on numpy {recorded['numpy']}, "
                           f"CPU {recorded['cpu']!r}; this run has numpy {now['numpy']}, "
                           f"CPU {now['cpu']!r}")
    assert not problems, "\n".join(problems)
