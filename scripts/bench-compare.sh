#!/usr/bin/env bash
# bench-compare.sh — throughput regression gate.
#
# Reruns a quick subset of the figure suite in -bench mode and compares
# per-experiment simulation throughput (sim_instructions_per_sec)
# against the committed BENCH_sim.json. Exits nonzero if any compared
# experiment slows down by more than the threshold.
#
# The committed numbers are machine-dependent: the gate is meaningful
# on hardware comparable to the machine that wrote BENCH_sim.json, so
# it is opt-in (BENCH_COMPARE=1 ./scripts/verify.sh) rather than part
# of the default verify run. The rerun copies the instruction windows
# and worker count from the committed report so the comparison is
# like-for-like.
#
# Environment:
#   BENCH_COMPARE_FIGS       experiments to rerun (default fig05)
#   BENCH_COMPARE_THRESHOLD  allowed slowdown in percent (default 10)
#   BENCH_COMPARE_FILE       committed baseline (default BENCH_sim.json)
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=${BENCH_COMPARE_FILE:-BENCH_sim.json}
figs=${BENCH_COMPARE_FIGS:-fig05}
threshold=${BENCH_COMPARE_THRESHOLD:-10}

if [ ! -f "$baseline" ]; then
    echo "bench-compare: no baseline $baseline" >&2
    exit 2
fi

fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT

# Pull the run configuration out of the committed total row so the
# fresh run measures the same thing.
read -r warmup measure mwarmup mmeasure workers < <(python3 - "$baseline" <<'PY'
import json, sys
rows = json.load(open(sys.argv[1])).get("experiments", [])
total = next((r for r in rows if r.get("experiment") == "total"), None)
if total is None:
    sys.exit("bench-compare: baseline has no 'total' row")
def u(k, dflt):
    v = total.get(k, 0) or 0
    return v if v else dflt
print(u("warmup_instructions", 1000000), u("measure_instructions", 1000000),
      u("multi_warmup_instructions", 500000), u("multi_measure_instructions", 400000),
      u("workers", 1))
PY
)

echo "bench-compare: rerunning $figs (warmup=$warmup measure=$measure, -j $workers)..."
go run ./cmd/experiments -bench "$fresh" -fig "$figs" \
    -warmup "$warmup" -measure "$measure" \
    -mwarmup "$mwarmup" -mmeasure "$mmeasure" \
    -j "$workers" >/dev/null

python3 - "$baseline" "$fresh" "$threshold" <<'PY'
import json, sys

def rows(path):
    return {r["experiment"]: r for r in json.load(open(path)).get("experiments", [])}

base, fresh, threshold = rows(sys.argv[1]), rows(sys.argv[2]), float(sys.argv[3])
failed = False
for name, row in fresh.items():
    if name == "total" or name not in base:
        continue
    b, n = base[name]["sim_instructions_per_sec"], row["sim_instructions_per_sec"]
    drop = (b - n) / b * 100 if b > 0 else 0.0
    status = "ok"
    if drop > threshold:
        status, failed = "REGRESSION", True
    print(f"bench-compare: {name}: baseline {b/1e6:.2f}M instr/s, "
          f"now {n/1e6:.2f}M instr/s ({-drop:+.1f}%) {status}")
if failed:
    sys.exit(f"bench-compare: throughput dropped more than {threshold:.0f}%")
PY

# Service-level p99 gate: replay every virtual-clock scenario of the
# committed BENCH_service.json (the row carries its full run config)
# and compare submit-to-result p99. Virtual rows are deterministic, so
# any drift beyond the threshold means the admission pipeline's
# modeled behavior changed, not the machine.
service_baseline=${BENCH_COMPARE_SERVICE_FILE:-BENCH_service.json}
if [ -f "$service_baseline" ]; then
    svc_fresh=$(mktemp -d)
    trap 'rm -f "$fresh"; rm -rf "$svc_fresh"' EXIT
    go build -o "$svc_fresh/triageload" ./cmd/triageload
    while read -r scenario process rate jobs seed dedup workers queue fafter ffor cworkers p99; do
        "$svc_fresh/triageload" -scenario "$scenario" -process "$process" \
            -rate "$rate" -jobs "$jobs" -seed "$seed" -dedup "$dedup" \
            -workers "$workers" -queue "$queue" -clock virtual -validate 0 \
            -faultafter "$fafter" -faultfor "$ffor" -cluster-workers "$cworkers" \
            -o "$svc_fresh/$scenario.json" 2>/dev/null
        now=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['service'][0]['p99_ms'])" \
            "$svc_fresh/$scenario.json")
        python3 - "$scenario" "$p99" "$now" "$threshold" <<'PY'
import sys
scenario, base, now, threshold = sys.argv[1], float(sys.argv[2]), float(sys.argv[3]), float(sys.argv[4])
drift = abs(now - base) / base * 100 if base > 0 else 0.0
status = "ok" if drift <= threshold else "REGRESSION"
print(f"bench-compare: service {scenario}: baseline p99 {base:.3f}ms, now {now:.3f}ms ({drift:.1f}% drift) {status}")
if status != "ok":
    sys.exit(f"bench-compare: service p99 drifted more than {threshold:.0f}%")
PY
    done < <(python3 - "$service_baseline" <<'PY'
import json, sys
f = json.load(open(sys.argv[1]))
for r in f.get("service", []):
    if r.get("clock") != "virtual":
        continue
    print(r["scenario"], r["process"], r["rate_per_sec"], r["jobs"], r["seed"],
          r["dedup_frac"], r["workers"], r["queue_cap"],
          r.get("fault_after", 0), r.get("fault_for", 0),
          r.get("cluster_workers", 0), r["p99_ms"])
PY
)
else
    echo "bench-compare: no $service_baseline; skipping the service p99 gate"
fi
echo "bench-compare: ok"
