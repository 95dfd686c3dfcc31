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
    monkeypatch.setattr(summarize, "ROOT", tmp_path)
    rows = {row["bench"]: row for row in summarize.collect()}
    assert rows["perf_kernels"]["smoke"] is True
    assert summarize.main([]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("perf_kernels"))
    assert line.rstrip().endswith("[smoke]")
