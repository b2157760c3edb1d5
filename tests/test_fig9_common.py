"""The Fig. 9 runtime panel prints the measurement, not the paper."""

from benchmarks.fig9_common import ALGORITHMS, runtime_lines


def _row(n_nodes, seconds, evaluations=100):
    """A synthetic benchmark row; ``seconds[a] is None`` marks a failed
    cell."""
    row = {"n_nodes": n_nodes, "index": 0}
    for a in ALGORITHMS:
        secs = seconds.get(a, 1.0)
        row[a] = None if secs is None else {
            "cost": 0.0,
            "schedulable": True,
            "evaluations": evaluations,
            "cache_hits": 0,
            "seconds": secs,
        }
    return row


def _ratio_column(lines):
    """Per class: the last cell of each table row."""
    return {
        int(line.split("|")[0]): line.split("|")[-1].strip()
        for line in lines[2:-1]
    }


def test_ratio_column_is_cf_time_over_ee_time_per_class():
    rows = [
        _row(2, {"OBC/CF": 0.78, "OBC/EE": 0.74}),
        # Two systems in one class: the ratio is of the class means.
        _row(3, {"OBC/CF": 1.0, "OBC/EE": 4.0}),
        _row(3, {"OBC/CF": 2.0, "OBC/EE": 2.0}),
    ]
    lines = runtime_lines(rows, "title")
    assert lines[0] == "title"
    assert lines[1].rstrip().endswith("CF/EE s")
    assert _ratio_column(lines) == {2: "1.05", 3: "0.50"}


def test_missing_or_zero_ee_time_prints_n_a():
    rows = [
        _row(2, {"OBC/EE": None}),
        _row(3, {"OBC/CF": None}),
        _row(4, {"OBC/EE": 0.0}),
    ]
    assert _ratio_column(runtime_lines(rows, "title")) == {
        2: "n/a", 3: "n/a", 4: "n/a",
    }


def test_paper_sentence_is_labelled_as_the_papers_claim():
    footer = runtime_lines([_row(2, {})], "title")[-1]
    assert footer.startswith("paper's claim")
    assert "orders of magnitude" in footer
