"""The in-process A/B timer, run on this checkout against itself."""

from __future__ import annotations

import importlib.util
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "ab_inprocess", os.path.join(ROOT, "scripts", "ab_inprocess.py")
)
ab_inprocess = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_inprocess)


@pytest.mark.parametrize("workload", sorted(ab_inprocess.ROUNDS))
def test_one_checkout_against_itself(workload, capsys):
    """Each workload's rounds give equal bytes on two imports of one
    checkout, and the script prints both medians, the ratio and the wins."""
    argv = ["--workload", workload, "--pairs", "2", f"one={ROOT}", f"two={ROOT}"]
    assert ab_inprocess.main(argv) == 0
    out = capsys.readouterr().out
    assert re.search(r"2 pairs, outputs equal \(\d+ bytes\)", out)
    assert re.search(r"^one: median \d+\.\d{4} s CPU per round$", out, re.M)
    assert re.search(r"^median ratio one/two x\d+\.\d{3}, two wins [012]/2$", out, re.M)


def test_sides_need_checkouts_and_distinct_labels(tmp_path):
    for sides in ([f"one={ROOT}", f"one={ROOT}"], [f"one={ROOT}", f"two={tmp_path}"]):
        with pytest.raises(SystemExit):
            ab_inprocess.main(["--workload", "annealing", *sides])
