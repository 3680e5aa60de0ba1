#!/usr/bin/env bash
# Tier-1 gate: the plain build + full test suite, then an ASan/UBSan build
# running every suite except the socket ones (memory bugs hide everywhere:
# faulty-transport retries and replay caches, session teardown, journal
# readers handing out pointers that trimming frees, in-place frame decoders
# reading a buffer the next feed moved, the shared DN representation and
# flat attribute storage of every entry, the parsers under fuzz), then a
# TSan build running the threaded shard-equivalence and chaos suites and the
# two-masters-on-one-store journal twin (the sharded pump is where races
# would hide — shard-local state crossing a shard boundary, the pump-pool
# barrier, shard threads reading a batch the barrier then frees) and the
# in-process socket suites (the epoll loop thread against the test thread),
# then the socket loopback suites (with the process TreeBackend scenarios)
# under ASan with a hard timeout (stream reassembly, the epoll server and
# the control plane's line parsing are where over-reads would hide), then
# the socket chaos suites under ASan with their own hard timeout (the
# ChaosProxy relay legs and the supervised-respawn paths are where
# use-after-close and leaked-fd bugs would hide).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: build + ctest =="
cmake -B build -S . -DFBDR_WERROR=ON >/dev/null
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

echo "== tier 1: lint (non-fatal) =="
scripts/lint.sh || echo "lint: reported issues (non-fatal)"

# The suites of the two timed socket stages below. The untimed ASan stage
# runs every other suite, so each suite runs under ASan exactly once.
socket_suites='SocketTwin|SocketErrors|ServeFrameTwin|SocketConcurrency|SocketRecovery|SocketPersist|SocketTcp|SocketBackpressure|SocketHardening|SocketPipelining|ControlPlane|ProcessTopology|TreeBackend.*/Process'
socket_chaos_suites='FaultScheduleTest|ChaosProxyTest|ChaosSoak|ChaosSupervision'

echo "== tier 1: every non-socket suite (ASan + UBSan) =="
cmake -B build-asan -S . -DFBDR_SANITIZE=address -DFBDR_BUILD_BENCHMARKS=OFF \
      -DFBDR_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-asan -j"$(nproc)"
ctest --test-dir build-asan --output-on-failure -j"$(nproc)" \
      -E "$socket_suites|$socket_chaos_suites"

echo "== tier 1: socket loopback suites (ASan, hard timeout) =="
# Real sockets, an epoll loop thread, and fork/exec'd fbdr_node processes
# (ASan-instrumented — netio_process_test spawns the build-asan binary).
# Each test GTEST_SKIPs loudly when the sandbox forbids sockets, so a host
# without them passes this stage with visible SKIPPING lines, not silence.
# The hard timeout guards against a hung epoll loop or a wedged child
# process eating the whole CI run.
timeout 600 ctest --test-dir build-asan --output-on-failure -j"$(nproc)" \
      -R "$socket_suites"

echo "== tier 1: socket chaos + supervision soak (ASan, hard timeout) =="
# The seeded ChaosProxy drives real byte faults (partitions, resets,
# corruption, truncation) into a depth-3 fbdr_node tree while the
# supervisor SIGKILLs and respawns relays; every schedule must converge
# bit-identically to the fault-free in-process twin. Skips loudly without
# sockets; the hard timeout guards against a wedged proxy loop or a
# respawn storm that never settles.
timeout 600 ctest --test-dir build-asan --output-on-failure -j"$(nproc)" \
      -R "$socket_chaos_suites"

echo "== tier 1: threaded-pump race run (TSan) =="
cmake -B build-tsan -S . -DFBDR_SANITIZE=thread -DFBDR_BUILD_BENCHMARKS=OFF \
      -DFBDR_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j"$(nproc)" --target \
      resync_shard_equivalence_test resync_chaos_test topology_chaos_test \
      server_journal_test netio_socket_test netio_chaos_test
ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
      -R 'ShardEquivalence|ShardConfig|ReSyncChaos|ServiceDegradation|TopologyChaos|BatchedSync|JournalReaderTwin'
# The socket suites in-process: the epoll loop thread dispatches frames
# under endpoint_mutex() while the test thread mutates the endpoint and
# reads the server's counters.
timeout 600 ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
      -R 'SocketTwin|SocketErrors|ServeFrameTwin|SocketConcurrency|SocketRecovery|SocketPersist|SocketTcp|SocketBackpressure|SocketHardening|SocketPipelining|ChaosProxyTest'

echo "== tier 1: bench smoke (routed pump >=2x exhaustive; relay tree >=2x root relief; 4-thread pump >=2x serial where cores allow) =="
scripts/bench_smoke.sh --min-speedup=2 --min-factor=2 --min-parallel-speedup=2

echo "tier 1: OK"
