"""The A/B protocol's aggregation and rendering, on synthetic runs."""

import json

from benchmarks import ab


def _run(pair, side, workload, **metrics):
    return {"pair": pair, "side": side, "workload": workload,
            "seed": 800 + pair, "first": (pair % 2 == 0) == (side == "base"),
            "correct": True, "failed": 0, "attempted": 10,
            "metrics": metrics}


def _raw():
    base = [3.2, 3.1, 3.0, 3.3]
    change = [2.9, 3.0, 3.1, 2.8]
    runs = []
    for pair, (b, c) in enumerate(zip(base, change)):
        runs.append(_run(pair, "base", "cells", pass_s=b, setup_s=1.0))
        runs.append(_run(pair, "change", "cells", pass_s=c, setup_s=1.0))
    # A change-side run that printed no result drops its pair.
    runs.append(_run(0, "base", "vision", pass_s=1.0))
    runs.append({"pair": 0, "side": "change", "workload": "vision",
                 "seed": 800, "first": False, "error": "boom",
                 "returncode": 1})
    runs.append(_run(1, "base", "vision", pass_s=1.0))
    runs.append(_run(1, "change", "vision", pass_s=1.0))
    return {"workloads": ["cells", "vision"], "runs": runs}


def test_aggregate_reads_medians_quartiles_and_wins_per_metric():
    rows = {(row["workload"], row["metric"]): row
            for row in ab.aggregate(_raw())}
    assert set(rows) == {("cells", "pass_s"), ("cells", "setup_s"),
                         ("vision", "pass_s")}
    cells = rows["cells", "pass_s"]
    assert cells["pairs"] == 4
    assert cells["lower"] == 3  # pair 2 reads 3.1 against 3.0
    assert abs(cells["base_median"] - 3.15) < 1e-12
    assert abs(cells["change_median"] - 2.95) < 1e-12
    # Inclusive quartiles of 3.0, 3.1, 3.2, 3.3: 3.075 and 3.225.
    assert abs(cells["base_iqr"] - 0.15) < 1e-12
    assert abs(cells["ratio"] - 2.95 / 3.15) < 1e-12
    # Ties count for neither side.
    assert rows["cells", "setup_s"]["lower"] == 0
    vision = rows["vision", "pass_s"]
    assert (vision["pairs"], vision["lower"], vision["base_iqr"]) == \
        (1, 0, 0.0)


def test_render_prints_one_row_per_workload_and_metric():
    table = ab.render(ab.aggregate(_raw())).splitlines()
    assert table[0].startswith("| workload | metric | base median |")
    assert len(table) == 2 + 3
    assert table[2] == ("| cells | pass_s | 3.15 | 0.15 | 2.95 | 0.15 | "
                        "0.937 | 3 of 4 |")


def test_render_command_reads_an_earlier_raw_file(tmp_path, capsys):
    raw = tmp_path / "ab.json"
    raw.write_text(json.dumps(_raw()))
    assert ab.main(["--render", str(raw)]) == 0
    assert capsys.readouterr().out.strip() == \
        ab.render(ab.aggregate(_raw()))
