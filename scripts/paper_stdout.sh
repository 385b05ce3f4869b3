#!/usr/bin/env bash
# Capture the stdout of the eight paper benches for byte-for-byte
# comparison between two builds:
#   scripts/paper_stdout.sh build /tmp/a
#   scripts/paper_stdout.sh other-build /tmp/b
#   diff -r /tmp/a /tmp/b        # empty: identical simulated results
# Each bench's stdout goes to <out-dir>/<bench>.txt with the host wall
# clock footer removed (the only line that varies run to run), and its
# exit code to <out-dir>/<bench>.exit. A failing bench does not stop the
# script: fig8/fig9 fail their sigma checks at XEMEM_BENCH_RUNS=1 by
# construction, and the exit code is part of what gets compared.
# XEMEM_BENCH_RUNS is passed through unchanged.
# Usage: scripts/paper_stdout.sh <build-dir> <out-dir>
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
build="$1"
out="$2"
mkdir -p "$out"

for b in fig5_attach_vs_rdma fig6_enclave_scaling fig7_noise_profile \
         fig8_single_node_insitu fig9_multi_node_insitu table2_vm_throughput \
         ablation_ipi_routing ablation_memory_map; do
  bin="$build/bench/$b"
  if [[ ! -x "$bin" ]]; then
    echo "missing $bin" >&2
    exit 1
  fi
  "$bin" | grep -Ev 'host wall clock: [0-9]+ ms$' > "$out/$b.txt"
  code=${PIPESTATUS[0]}
  echo "$code" > "$out/$b.exit"
  echo "$b: exit $code"
done
