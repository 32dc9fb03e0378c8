import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def _report(directory, seed, pass_s, src_lines):
    directory.mkdir(exist_ok=True)
    report = {
        "workload": "exhaustive",
        "seed": seed,
        "trace": 0,
        "environment": {"python": "3.11.7", "nproc": 2, "src_lines": src_lines},
        "figures": {"pass_s": [pass_s, "s"], "fail_share": [0.0, "share"]},
    }
    (directory / f"exhaustive-seed{seed}-trace0.json").write_text(json.dumps(report))


def test_writer_summarises_paired_reports(tmp_path):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "BENCH.json"
    for seed, (p, c) in enumerate([(0.9, 0.6), (0.8, 0.7), (1.0, 1.1)], start=1):
        _report(parent, seed, p, 2371)
        _report(change, seed, c, 2380)
    subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
         "--out", str(out), "--wall", "tier1", "81.0", "60.5",
         "--wall", "enum", "20.0", "17.0", "--wall", "enum", "22.0", "23.0",
         "--wall", "enum", "21.0", "16.0"],
        check=True,
    )
    record = json.loads(out.read_text())
    assert (record["python"], record["cpus"]) == ("3.11.7", 2)
    assert record["src_lines"] == {"parent": 2371, "change": 2380}
    # Each --wall is one pair; pairs under one name are summarised together.
    assert record["wall_s"]["tier1"] == {
        "pairs": 1, "change_wins": 1,
        "parent": {"median": 81.0, "q1": 81.0, "q3": 81.0},
        "change": {"median": 60.5, "q1": 60.5, "q3": 60.5},
    }
    enum = record["wall_s"]["enum"]
    assert enum["pairs"] == 3 and enum["change_wins"] == 2  # the second pair lost
    assert enum["parent"]["median"] == 21.0 and enum["change"]["median"] == 17.0
    assert enum["parent"]["q1"] <= 21.0 <= enum["parent"]["q3"]
    assert record["per_layer"] == {}
    entry = record["end_to_end"]["exhaustive"]
    assert entry["seeds"] == [1, 2, 3]
    pass_s = entry["metrics"]["pass_s"]
    assert pass_s["unit"] == "s" and pass_s["pairs"] == 3
    assert pass_s["parent"]["median"] == 0.9 and pass_s["change"]["median"] == 0.7
    assert pass_s["parent"]["q1"] <= 0.9 <= pass_s["parent"]["q3"]
    assert pass_s["change_wins"] == 2  # lower is better; the third pair lost
    assert "change_wins" not in entry["metrics"]["fail_share"]


def test_writer_rejects_unpaired_reports(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _report(parent, 1, 0.9, 2371)
    _report(change, 2, 0.6, 2371)
    done = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
         "--out", str(tmp_path / "BENCH.json")],
        capture_output=True, text=True,
    )
    assert done.returncode != 0
    assert "parent only" in done.stderr
    assert not (tmp_path / "BENCH.json").exists()
