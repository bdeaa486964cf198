#!/usr/bin/env bash
# Regenerates perfbench/WHERE_TIME_GOES.md: one traced run per workload,
# each sample of its CPU profile charged to the innermost
# rlsched/internal/* frame of its stack.
#
#   bash perfbench/where.sh [seed] > perfbench/WHERE_TIME_GOES.md
#
# Run it from the repository root on an otherwise idle machine.
set -euo pipefail

seed=${1:-1}
out=.bench_build/shares
export XDG_CONFIG_HOME="$PWD/.bench_build/config" # the go command's telemetry
mkdir -p "$out"
for w in paper-figures scale-greedy daemon-cluster; do
	bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds 20 --trace 1 \
		--shares-out "$out/$w.md" >"$out/$w.log"
done

cat <<EOF
# Where the time goes

CPU shares per package from the traced run of each workload
(\`bash perfbench/where.sh $seed\`, Go $(go env GOVERSION), $(nproc) CPUs,
GOMAXPROCS 2). Each profile sample is charged to the innermost
\`rlsched/internal/*\` frame of its stack, read with \`go tool pprof -traces\`;
\`gc\` is the runtime's background mark worker and \`other\` is everything
with no repository frame (the benchmark's own loop, net/http, the Go
scheduler, syscalls). The traced run wraps the policy and the workload
source in timers, so \`sched\` and \`workload\` carry some timer cost.

| workload | package | CPU share |
|---|---|---|
EOF
for w in paper-figures scale-greedy daemon-cluster; do
	cat "$out/$w.md"
done
