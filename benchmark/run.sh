#!/usr/bin/env bash
# Runs the whole benchmark: the untraced pass (end-to-end metrics, about
# 2 minutes), then the traced pass (per-layer metrics and spans, about
# 1 min 40 s). Leaves result.json, trace-result.json and trace.json in the
# directory it is called from.
#
#   benchmark/run.sh [seed]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"

bash "$here/driver.sh" -workload all -seed "$seed" -commit "$commit" -out "$PWD/result.json"
bash "$here/driver.sh" -workload all -seed "$seed" -commit "$commit" -trace "$PWD/trace.json" -out "$PWD/trace-result.json"
