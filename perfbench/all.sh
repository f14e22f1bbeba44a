#!/usr/bin/env bash
# Runs every workload once end to end and once traced, printing each
# run's report and result line.
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
seconds="${2:-25}"
for w in eval-matmul8 graph-n8 coldstart-matmul16 batch64-matmul8; do
	for trace in 0 1; do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
	done
done
