#!/usr/bin/env bash
# Regenerate the golden observability reports in tests/golden/data/
# after an intentional cost-model change, then re-run the golden
# tier to confirm the refreshed files pass.  Review the resulting
# git diff like code: every changed line is a cost-model behaviour
# change.
#
# It never touches tests/integration/data/legacy_core_digests.txt:
# that file is an oracle capture of the deleted Legacy simulation
# core, not a golden.  No build can regenerate it, and an event-core
# change that breaks it is a bug to fix, not a file to refresh.
#
# Usage: scripts/update_golden.sh
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)

cmake -B build -S .
cmake --build build -j "$jobs" --target tf_golden_test

mkdir -p tests/golden/data
echo "== regenerating golden reports =="
TRANSFUSION_UPDATE_GOLDEN=1 ./build/tests/golden/tf_golden_test

# Every pinned layer must actually have written its file — a
# renamed or filtered-out TEST would otherwise silently drop a
# golden from the regeneration set.
for g in cloud_llama3_fault_chiploss cloud_llama3_fleet4_p2c \
    cloud_llama3_slowdown_breaker cloud_llama3_tp2pp2 \
    cloud_llama3_transfusion cloud_llama3_unfused \
    edge_llama3_transfusion edge_llama3_unfused \
    edge_t5small_plan; do
    if [ ! -s "tests/golden/data/$g.txt" ]; then
        echo "update_golden.sh: missing regenerated golden" \
            "tests/golden/data/$g.txt" >&2
        exit 1
    fi
done

echo "== verifying regenerated goldens =="
ctest --test-dir build --output-on-failure -j "$jobs" -L golden

echo "update_golden.sh: goldens regenerated and verified"
git status --short tests/golden/data || true
