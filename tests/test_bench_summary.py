"""``benchmarks/summarize.py`` tags smoke numbers wherever a BENCH file
records its smoke flag."""

import json

import pytest

from benchmarks import summarize


@pytest.mark.parametrize("data,smoke", [
    ({"workload": {"smoke": True}}, True),
    ({"workload": {"smoke": False}}, False),
    ({"smoke": True}, True),
    ({"mode": "smoke"}, True),
    ({"mode": "full"}, False),
    ({}, False),
])
def test_smoke_flag_is_read_at_every_level(data, smoke):
    assert summarize.is_smoke(data) is smoke


def test_nested_smoke_flag_tags_the_table_row(tmp_path, monkeypatch,
                                              capsys):
    (tmp_path / "BENCH_perf_kernels.json").write_text(json.dumps(
        {"vectorized_speedup": 9.0, "workload": {"smoke": True}}))
    (tmp_path / "BENCH_resilience.json").write_text(json.dumps(
        {"smoke": True, "rows": [
            {"crashes": 0, "availability": 0.9, "mttr_s": 0.0,
             "unrecovered": 0},
            {"crashes": 1, "availability": 0.91, "mttr_s": 1.7,
             "unrecovered": 0}]}))
    monkeypatch.setattr(summarize, "ROOT", tmp_path)
    rows = {row["bench"]: row for row in summarize.collect()}
    assert summarize.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    for bench in ("perf_kernels", "resilience"):
        assert rows[bench]["smoke"] is True
        line = next(line for line in lines if line.startswith(bench))
        assert line.rstrip().endswith("[smoke]")
    assert "1 crashes: availability 0.91" in rows["resilience"]["headline"]
