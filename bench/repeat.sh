#!/usr/bin/env bash
# Runs every workload k times on the commit checked out, each time with
# another seed, and prints for each end-to-end metric its median, its
# quartiles, the quartile spread and (max-min) as shares of the median,
# next to the bound BENCHMARK.json fixes for it. A metric whose quartile
# spread exceeds a third of its bound cannot resolve that bound reliably
# and is flagged.
#
#   bench/repeat.sh [k] [first-seed] [workload ...]
#
# k defaults to 10, first-seed to 1, the workloads to all of them. Each
# run's full output (<workload>.<seed>.txt) and the result lines
# (<workload>.jsonl) are kept under .bench_build/repeat/ for pairing with
# another commit's (see README.md).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
k="${1:-10}"
first="${2:-1}"
shift $(( $# < 2 ? $# : 2 ))
out="$root/.bench_build/repeat"
mkdir -p "$out"

read -r seconds all <<<"$(python3 - <<'PY'
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))
PY
)"
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	read -r -a workloads <<<"$all"
fi

for w in "${workloads[@]}"; do
	: >"$out/$w.jsonl"
	for ((i = 0; i < k; i++)); do
		bash bench/run.sh --workload "$w" --seed $((first + i)) --seconds "$seconds" --trace 0 >"$out/$w.$((first + i)).txt"
		tail -n 1 "$out/$w.$((first + i)).txt" >>"$out/$w.jsonl"
	done
done

python3 - "$out" "${workloads[@]}" <<'PY'
import json, statistics, sys
out, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
print(f"{'workload':12} {'metric':10} {'median':>10} {'q1':>10} {'q3':>10} {'iqr/med':>8} {'range/med':>9} {'bound':>6}")
for w in workloads:
    runs = [json.loads(line) for line in open(f"{out}/{w}.jsonl")]
    bad = [r for r in runs if not r["correct"]]
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        iqr, rng = (q3 - q1) / med, (max(vals) - min(vals)) / med
        flag = ""
        if m["name"] != "setup_s" and iqr > m["bound"] / 3:
            flag = "  <-- spread above a third of the bound"
        print(f"{w:12} {m['name']:10} {med:10.4g} {q1:10.4g} {q3:10.4g} {iqr:8.3f} {rng:9.3f} {m['bound']:6.2f}{flag}")
    if bad:
        print(f"{w:12} {len(bad)} of {len(runs)} runs failed their output checks")
PY
