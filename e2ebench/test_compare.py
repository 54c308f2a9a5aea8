"""Tests of ``compare.py``'s verdicts: ``python3 -m pytest e2ebench``."""

from __future__ import annotations

from e2ebench.compare import fails_more, judge, verdict

SEEDS = range(1, 11)
#: Ten values with a quartile distance of about 4 % of their median.
BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.03, 0.97, 1.01, 0.99, 1.00]


def by_seed(values: list[float]) -> dict[int, float]:
    return dict(zip(SEEDS, values))


def scaled(factor: float) -> dict[int, float]:
    return by_seed([v * factor for v in BASE])


def test_same_values_are_within_bound():
    for lower in (True, False):
        row = verdict(scaled(1.0), scaled(1.0), 0.25, lower)
        assert row["verdict"] == "within bound"
        assert row["won"] == (0, 10)


def test_lower_is_better():
    assert verdict(scaled(1.0), scaled(0.7), 0.25, True)["verdict"] \
        == "better"
    assert verdict(scaled(1.0), scaled(1.3), 0.25, True)["verdict"] \
        == "worse"


def test_higher_is_better_is_not_reversed():
    # A higher-is-better metric that drops must never read ``better``.
    row = verdict(scaled(1.0), scaled(0.95), 0.25, False)
    assert row["verdict"] == "within bound"
    assert row["worse_by"] > 0
    assert verdict(scaled(1.0), scaled(0.7), 0.25, False)["verdict"] \
        == "worse"
    assert verdict(scaled(1.0), scaled(1.3), 0.25, False)["verdict"] \
        == "better"


def test_better_needs_nine_of_ten_pairs():
    # The median improves by 10 %, well past the parent's spread, but
    # the change loses two of ten seed pairs.
    parent = by_seed([1.0] * 10)
    parent[1] = parent[2] = 0.85
    change = by_seed([0.9] * 10)
    row = verdict(parent, change, 0.25, True)
    assert row["won"] == (8, 10)
    assert -row["worse_by"] > row["spreads"][0]
    assert row["verdict"] == "within bound"
    parent[2] = 1.0
    assert verdict(parent, change, 0.25, True)["verdict"] == "better"


def test_better_needs_more_than_the_parent_spread():
    # Every pair is won, but by less than the parent's own spread.
    row = verdict(scaled(1.0), scaled(0.98), 0.25, True)
    assert row["won"] == (10, 10)
    assert row["verdict"] == "within bound"


def test_wide_spread_is_unresolved():
    wide = by_seed([1.0, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.0])
    assert verdict(scaled(1.0), wide, 0.25, True)["verdict"] \
        == "unresolved"
    # ... unless every change run beats every parent run.
    parent = by_seed([v * 3 for v in wide.values()])
    assert verdict(parent, wide, 0.25, True)["verdict"] == "better"
    assert verdict(wide, parent, 0.25, False)["verdict"] == "better"


def test_fails_more():
    assert fails_more((0, 0, 100), (1, 0, 100))
    assert fails_more((0, 1, 100), (0, 2, 100))
    assert not fails_more((0, 2, 100), (0, 2, 100))
    assert not fails_more((1, 0, 100), (0, 0, 100))


def runs(values: dict[int, float], wall: float = 1.0,
         probe: float = 0.0115) -> list[dict]:
    """Run records as ``sweep.py`` writes them, for metric ``run_s``."""
    return [{"seed": s, "correct": True, "metrics": {"run_s": v},
             "document": {"wall_run_s": v * wall, "wall_setup_s": [v],
                          "host_speed": {"probe_median_s": probe}}}
            for s, v in values.items()]


RUN_S = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}


def test_judge_agrees_with_verdict_on_steady_host():
    row, notes = judge(runs(scaled(1.0)), runs(scaled(0.7)), RUN_S, False)
    assert (row["verdict"], notes) == ("better", [])


def test_judge_probe_drift_is_unresolved():
    row, notes = judge(runs(scaled(1.0)),
                       runs(scaled(0.7), probe=0.0115 * 1.5), RUN_S, False)
    assert row["verdict"] == "unresolved"
    assert "probe" in notes[0]


def test_judge_unscaled_disagreement_is_unresolved():
    # Scaled times hold still while the wall times grow by half: the
    # scaling would hide a regression.
    row, notes = judge(runs(scaled(1.0)), runs(scaled(1.0), wall=1.5),
                       RUN_S, False)
    assert row["verdict"] == "unresolved"
    assert notes == ["unscaled wall times say worse"]


def test_judge_more_failures_block_better():
    row, notes = judge(runs(scaled(1.0)), runs(scaled(0.7)), RUN_S, True)
    assert row["verdict"] == "unresolved"
    assert notes == ["the change fails more"]
