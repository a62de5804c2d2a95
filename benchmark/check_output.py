"""Checks one result line of da-benchmark against ../BENCHMARK.json.

usage: da-benchmark ... | tail -n 1 | python3 benchmark/check_output.py <0|1>

The line must be a JSON object with exactly the keys `correct`,
`attempted`, `failed` and `metrics`; with `--trace 0` the metrics are
exactly the `end_to_end` list, with `--trace 1` exactly the `per_layer`
list, each with the unit BENCHMARK.json declares.
"""

import json
import pathlib
import sys

spec = json.loads((pathlib.Path(__file__).parent.parent / "BENCHMARK.json").read_text())
declared = spec["per_layer"] if sys.argv[1] == "1" else spec["end_to_end"]
result = json.loads(sys.stdin.read())

assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
assert result["correct"] is True, "an output check failed"
assert result["attempted"] >= 1 and result["failed"] == 0, result
want = {m["name"]: m["unit"] for m in declared}
got = {name: m["unit"] for name, m in result["metrics"].items()}
assert got == want, {
    "missing": sorted(set(want) - set(got)),
    "unexpected": sorted(set(got) - set(want)),
    "unit mismatch": sorted(n for n in set(got) & set(want) if got[n] != want[n]),
}
for name, m in result["metrics"].items():
    assert isinstance(m["value"], (int, float)), (name, m)
