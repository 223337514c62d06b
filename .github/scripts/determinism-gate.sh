#!/usr/bin/env bash
# Determinism gate for the no-trace experiment sweeps.
#
# For each experiment, the canonical BENCH_<exp>.json of a serial smoke
# run must be byte-identical to the same run with scenarios sharded
# across OS threads (--threads 4), with each run's dataflow sharded
# across frontier workers (--sim-threads N), and, for exp_modes, with
# the POD sketch pipelined onto a worker thread (--sketch-pipeline).
# The serial record must also carry the schema version and the
# descriptors listed below. The serial records are left in
# <out>/<exp>/serial/ for upload.
#
# Usage: .github/scripts/determinism-gate.sh [out-dir]   (default: gate)
set -euo pipefail

out=${1:-gate}

# run <exp> <leg> <flags...>: one canonical smoke run of <exp> into
# <out>/<exp>/<leg>/.
run() {
  local exp=$1 leg=$2
  shift 2
  cargo run --release -q -p trix-bench --bin gradient-trix-experiments -- \
    --smoke --no-trace --canonical --only "$exp" "$@" \
    --out "$out/$exp/$leg" --json "$out/$exp/$leg/all.json" > /dev/null
}

# gate <exp> <sim-threads list> <extra leg: pipeline|-> <pattern...>
gate() {
  local exp=$1 sim_threads=$2 extra=$3
  shift 3
  local serial="$out/$exp/serial/BENCH_$exp.json" legs=(sharded) n leg pattern
  run "$exp" serial --threads 1
  run "$exp" sharded --threads 4
  for n in $sim_threads; do
    run "$exp" "simthreads-$n" --threads 1 --sim-threads "$n"
    legs+=("simthreads-$n")
  done
  if [[ $extra == pipeline ]]; then
    run "$exp" pipelined --threads 1 --sketch-pipeline
    legs+=(pipelined)
  fi
  for leg in "${legs[@]}"; do
    cmp "$serial" "$out/$exp/$leg/BENCH_$exp.json"
  done
  for pattern in '"schema_version": 8' "$@"; do
    grep -qF "$pattern" "$serial" || { echo "$serial lacks $pattern" >&2; exit 1; }
  done
  echo "BENCH_$exp.json byte-identical across: ${legs[*]}"
}

gate exp_scale "2 4" - \
  '"parallelism": {"workers": 0, "detection_failed": false}' \
  '"skew": {"max_intra"'
gate exp_fault_sweep "4" - \
  '"campaign": "iid c=1.00 silent' \
  '"campaign": "wave '
gate exp_topology "4" - \
  '"topology": "v1 torus ' \
  '"topology": "v1 hypercube ' \
  '"topology": "v1 supernode '
gate exp_modes "2 4" pipeline \
  '"sketch": {"rank"'
gate exp_churn "2 4" - \
  '"churn": "resident r=0.00 grid ' \
  '"churn": "flicker r=0.10 grid ' \
  '"churn": "mix r=0.10 torus '
