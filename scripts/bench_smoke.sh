#!/usr/bin/env bash
# Bench smoke gate: builds the CI-gated benches at -O2 and fails loudly when
# a reproduced headline regresses.
#
#   bench_master_scaling   routed pump() must keep its edge over the
#                          exhaustive fan-out with compiled filters
#                          (--min-speedup, default 2.0),
#                          and the sharded 4-thread pump must hold
#                          --min-parallel-speedup (default 2.0) over the
#                          serial baseline at 10k sessions — skipped
#                          hardware-aware on hosts with <4 cores
#   bench_topology_fanout  a fan-out-4 depth-2 relay tree must cut root
#                          master sessions/poll round trips vs the flat 1xN
#                          deployment (--min-factor, default 2.0, at 16+
#                          leaves)
#   bench_overload         a governed master under a slow-consumer storm must
#                          keep its peak history/replay/journal footprint
#                          within budget and below the ungoverned baseline
#                          (--min-overload-factor, default 4.0)
#   bench_reconcile        a recovery at 1% staleness must ship at least
#                          --min-reconcile-savings (default 4.0) times fewer
#                          frame bytes (FramedChannel traffic, both
#                          directions) through the digest walk than a full
#                          reload
#   bench_wire             the framed wire codec must keep its wall-clock
#                          cost per poll within --max-wire-overhead (default
#                          4.0) times the in-process DirectChannel, with
#                          framed and direct replicas bit-identical (its
#                          decode_over_encode and persist_overhead_factor
#                          are reported in BENCH_wire.json, not gated)
#   bench_netio            the socket transport must sustain at least 4
#                          concurrent replica sessions on one epoll loop,
#                          ship bit-identical frame traffic to the
#                          in-process pipe, and keep the Unix-socket poll
#                          within --max-socket-overhead (default 5.0) times
#                          the in-process EndpointPipe. The factor divides
#                          per-poll medians over interleaved rounds and
#                          reads ~1.2-1.3x on loopback (encode cost
#                          dominates; the kernel adds tens of
#                          microseconds), so 5.0 is a regression ceiling,
#                          not a typical value.
#                          Prints SKIP and passes when the host forbids
#                          sockets.
#   bench_socket_chaos     a SocketPipe replica behind the seeded ChaosProxy
#                          must reconverge to master truth within
#                          --max-recovery-polls quiet polls after each
#                          canonical byte-fault window (partition, reset
#                          storm, corruption), with every window actually
#                          injecting faults and recovery accounting intact.
#                          Prints SKIP and passes when the host forbids
#                          sockets.
#
# Small sizes keep it CI-fast; the full-size runs (the benches' defaults)
# are for EXPERIMENTS.md numbers.
#
# Usage: scripts/bench_smoke.sh [--min-speedup=F] [--min-factor=F]
#                               [--min-overload-factor=F]
#                               [--min-reconcile-savings=F]
#                               [--min-parallel-speedup=F]
#                               [--max-wire-overhead=F]
#                               [--max-socket-overhead=F]
#                               [--max-recovery-polls=N]
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_SPEEDUP=2.0
MIN_FACTOR=2.0
MIN_OVERLOAD_FACTOR=4.0
MIN_RECONCILE_SAVINGS=4.0
MIN_PARALLEL_SPEEDUP=2.0
MAX_WIRE_OVERHEAD=4.0
MAX_SOCKET_OVERHEAD=5.0
MAX_RECOVERY_POLLS=25
for arg in "$@"; do
  case "$arg" in
    --min-speedup=*) MIN_SPEEDUP="${arg#--min-speedup=}" ;;
    --min-factor=*) MIN_FACTOR="${arg#--min-factor=}" ;;
    --min-overload-factor=*) MIN_OVERLOAD_FACTOR="${arg#--min-overload-factor=}" ;;
    --min-reconcile-savings=*) MIN_RECONCILE_SAVINGS="${arg#--min-reconcile-savings=}" ;;
    --min-parallel-speedup=*) MIN_PARALLEL_SPEEDUP="${arg#--min-parallel-speedup=}" ;;
    --max-wire-overhead=*) MAX_WIRE_OVERHEAD="${arg#--max-wire-overhead=}" ;;
    --max-socket-overhead=*) MAX_SOCKET_OVERHEAD="${arg#--max-socket-overhead=}" ;;
    --max-recovery-polls=*) MAX_RECOVERY_POLLS="${arg#--max-recovery-polls=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-bench -j"$(nproc)" --target bench_master_scaling \
      bench_topology_fanout bench_overload bench_reconcile \
      bench_wire bench_netio bench_socket_chaos >/dev/null

./build-bench/bench/bench_master_scaling \
  --employees=2000 --updates=1000 --sessions=1000,10000 \
  --shards=8 --threads=0,4 --exhaustive-cap=1000 \
  --json=build-bench/BENCH_master_scaling.json \
  --min-speedup="$MIN_SPEEDUP" \
  --min-parallel-speedup="$MIN_PARALLEL_SPEEDUP"

./build-bench/bench/bench_topology_fanout \
  --employees=2000 --updates-per-round=50 --rounds=10 --leaves=8,16 \
  --json=build-bench/BENCH_topology.json \
  --min-factor="$MIN_FACTOR"

./build-bench/bench/bench_overload \
  --employees=1000 --ticks=2000 --leaves=4 \
  --json=build-bench/BENCH_overload.json \
  --min-factor="$MIN_OVERLOAD_FACTOR"

./build-bench/bench/bench_reconcile \
  --employees=2000 \
  --json=build-bench/BENCH_reconcile.json \
  --min-savings="$MIN_RECONCILE_SAVINGS"

./build-bench/bench/bench_wire \
  --employees=2000 --rounds=30 \
  --json=build-bench/BENCH_wire.json \
  --max-wire-overhead="$MAX_WIRE_OVERHEAD"

./build-bench/bench/bench_netio \
  --employees=2000 --rounds=30 --sessions=4 --min-sessions=4 \
  --json=build-bench/BENCH_netio.json \
  --max-socket-overhead="$MAX_SOCKET_OVERHEAD"

./build-bench/bench/bench_socket_chaos \
  --employees=1000 --updates-per-round=30 \
  --json=build-bench/BENCH_socket_chaos.json \
  --max-recovery-polls="$MAX_RECOVERY_POLLS"

echo "bench smoke: OK (reports at build-bench/BENCH_*.json)"
