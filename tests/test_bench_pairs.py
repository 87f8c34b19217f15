"""The pair runner of tools/bench_pairs.py: its seeds, summary, run length and path-length check."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _result(points, setup, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"points_per_s": {"value": points, "unit": "points/s"},
                        "setup_s": {"value": setup, "unit": "s"}}}


def test_seeds_are_single_listed_or_ranges():
    assert bench_pairs.seeds("1") == [1]
    assert bench_pairs.seeds("1,4,7") == [1, 4, 7]
    assert bench_pairs.seeds("381-383,9") == [381, 382, 383, 9]


def test_the_summary_gives_medians_quartile_distances_and_pair_wins():
    sides = [(100.0, 0.20, 110.0, 0.20), (102.0, 0.30, 101.0, 0.10), (104.0, 0.10, 120.0, 0.30)]
    runs = []
    for pair, (pp, ps, cp, cs) in enumerate(sides, 1):
        runs.append({"workload": "w", "seed": 1, "pair": pair, "side": "parent", "result": _result(pp, ps)})
        runs.append({"workload": "w", "seed": 1, "pair": pair, "side": "change",
                     "result": _result(cp, cs, failed=pair == 3)})
    out = bench_pairs.summarise(runs, {"points_per_s": "higher", "setup_s": "lower"})["w"]
    points, setup = out["points_per_s"], out["setup_s"]
    assert (points["parent_median"], points["change_median"]) == (102.0, 110.0)
    assert points["parent_iqr"] == pytest.approx(2.0) and points["change_iqr"] == pytest.approx(9.5)
    assert points["change_over_parent"] == pytest.approx(110.0 / 102.0)
    assert (points["pairs"], points["pairs_change_better"]) == (3, 2)
    assert setup["pairs_change_better"] == 1  # a tie counts for neither side; lower is better
    assert out["failed"] == {"parent": 0, "change": 1}
    assert out["correct"] == {"parent": True, "change": False}


def test_an_unpaired_run_is_left_out():
    runs = [{"workload": "w", "seed": 1, "pair": 1, "side": "parent", "result": _result(1.0, 0.1)}]
    assert bench_pairs.summarise(runs, {"points_per_s": "higher"})["w"]["failed"] == {"parent": 0, "change": 0}
    assert "points_per_s" not in bench_pairs.summarise(runs, {"points_per_s": "higher"})["w"]


def test_checkouts_whose_paths_differ_in_length_are_refused(tmp_path, capsys):
    (tmp_path / "base").mkdir()
    (tmp_path / "change").mkdir()
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(tmp_path / "base"), "--change", str(tmp_path / "change"),
                          "--workload", "complete-sweep", "--out", str(tmp_path / "out.json")])
    assert "paths differ in length" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_every_run_lasts_the_run_seconds_of_the_benchmark(tmp_path, monkeypatch):
    for side in ("base", "head"):
        (tmp_path / side).mkdir()
    bench = {"run_seconds": 7, "end_to_end": [{"name": "points_per_s", "better": "higher"}]}
    (tmp_path / "head" / "BENCHMARK.json").write_text(json.dumps(bench), encoding="utf-8")
    calls = []
    monkeypatch.setattr(bench_pairs, "run",
                        lambda root, workload, seed, seconds: calls.append(seconds) or _result(1.0, 0.1))
    out = tmp_path / "out.json"
    bench_pairs.main(["--parent", str(tmp_path / "base"), "--change", str(tmp_path / "head"),
                      "--workload", "w", "--pairs", "2", "--out", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert calls == [7] * 4 and "--seconds 7 " in doc["command"]
    assert doc["summary"]["w"]["points_per_s"]["pairs"] == 2
