"""The experiments' summaries: `experiment gap`'s per-delta rows and
`experiment loss`'s loss map and bottoms, on hand-made cells and reports."""

from tempocut.experiments import GapRow, gap_rows, loss_summary
from tempocut.simulate import PacketRecord, SimReport


def test_gap_rows_summarise_each_delta():
    cells = [
        # seed, delta, greedy, exact flow, rounded cut, exact cut, certified
        (0, 2, 0, 1, 0, 0, True),   # no greedy journey: gap over 1; no cut
        (1, 2, 2, 3, 4, 2, False),  # uncertified, cut gap 1.0, ratio 2.0
        (2, 2, 3, 3, 3, 3, True),
        (0, 3, 1, 1, 0, 0, True),   # the delta's only cell has no cut
    ]
    assert gap_rows(cells, (3, 2)) == [
        GapRow(3, 0.0, 0.0, 1, 1, 0.0, 0.0),
        GapRow(2, 0.5, 1.0, 2, 3, 0.5, 2.0)]


def _report(n, delta, delivered):
    return SimReport(n, delta, 5, 0.1, 1, 0, tuple(
        PacketRecord(i, "a", "b", n, ok, 1 if ok else None)
        for i, ok in enumerate(delivered)))


def test_loss_summary_maps_each_point_and_finds_its_bottom():
    reports = [_report(2, 1, (True, False)),
               _report(2, 3, (True, True, True, False))]
    assert loss_summary(reports, [2], [1, 3]) == (
        {(2, 1): 0.5, (2, 3): 0.25}, {2: 3})
    # on a tie the first spacing listed is the bottom
    tie = [_report(2, 1, (True, False)), _report(2, 3, (False, True))]
    assert loss_summary(tie, [2], [1, 3])[1] == {2: 1}
    assert loss_summary(tie, [2], [3, 1])[1] == {2: 3}
