import pytest

from spans import Span, Tracer, covered, freshness, median_with_count, self_times


def _span(i, start, end, parent=None, commit=0, name="x"):
    return Span(i, name, start, end, parent, commit)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5)], 0, 10) == 4  # overlapping: [1, 5]
    assert covered([(1, 3), (3, 4)], 0, 10) == 3  # touching
    assert covered([(-5, 2), (8, 15)], 0, 10) == 4  # clipped to the parent
    assert covered([(2, 3), (1, 6), (4, 5)], 0, 10) == 5  # contained


def test_self_time_nested_and_overlapping_children():
    spans = [
        _span(0, 0, 10),
        _span(1, 1, 3, parent=0),
        _span(2, 2, 5, parent=0),  # overlaps span 1
        _span(3, 8, 12, parent=0),  # runs past its parent's end
        _span(4, 1.5, 2.5, parent=1),  # grandchild: only its parent loses it
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10 - 4 - 2)
    assert own[1] == pytest.approx(2 - 1)
    assert own[2] == pytest.approx(3)
    assert own[3] == pytest.approx(4)
    assert own[4] == pytest.approx(1)


def test_tracer_records_parents_commits_and_busy_time():
    tr = Tracer()
    tr.commit = 7
    with tr.span("root"):
        with tr.span("leaf"):
            pass
        with tr.span("leaf"):
            pass
    tr.count("rows", 3)
    tr.count("rows", 2)
    root, a, b = tr.spans
    assert (root.parent, a.parent, b.parent) == (None, root.id, root.id)
    assert {s.commit for s in tr.spans} == {7}
    busy = tr.busy_by_commit()[7]
    assert busy["leaf"] == pytest.approx((a.end - a.start) + (b.end - b.start))
    assert busy["root"] + busy["leaf"] == pytest.approx(root.end - root.start)
    assert tr.counts[7]["rows"] == 5
    assert len(tr.to_json()["spans"]) == 3


def test_freshness_median_and_sample_count():
    sent = [10.0, 20.0, 30.0, 40.0]
    committed = [11.0, 23.0, 32.0, 44.0]  # lags 1, 3, 2, 4
    assert freshness(sent, committed) == (2.5, 4)
    assert freshness([0.0], [0.5]) == (0.5, 1)
    # a quarter of the second commit's lag was stolen: lags 1, 2.25, 2, 4
    assert freshness(sent, committed, [0.0, 0.25, 0.0, 0.0]) == (2.125, 4)
    with pytest.raises(ValueError):
        freshness([1.0], [])
    with pytest.raises(ValueError):
        freshness(sent, committed, [0.0])
    with pytest.raises(ValueError):
        median_with_count([])
