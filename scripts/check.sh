#!/usr/bin/env bash
# Full local gate for the threading work:
#
#   1. Release build with -Werror (the tree must compile warning-free) +
#      the whole test suite, serial (ROOTSTRESS_THREADS=1) and parallel
#      (ROOTSTRESS_THREADS=4) — the auto thread knob reads that variable,
#      so this runs every engine test on both paths. Then the paper's
#      Table 1 (paper_report table1): its six key observations re-verified
#      against one full replay; any FAIL row exits non-zero.
#   2. Tier-1 build with -Werror: the default configuration, what a
#      plain `cmake -B build -S .` builds (RelWithDebInfo, -O2 -g). Its
#      optimizer inlines differently from -O3 and -O0, so it can warn
#      where the other lanes do not.
#   3. Bit-identity gate: all three benchmark workloads — replay,
#      campaign and wire — at seed 1 (perfbench/run.py, its own Release
#      build), untraced and traced (--trace 1), must report zero failed
#      output checks — their digests must equal the references pinned in
#      perfbench, so a change that moves any simulation output bit fails
#      here. Each traced run adds 65 checks: 1-lane vs 4-lane and traced
#      replay digests, evaluate_scenario agreement, 1-worker vs 2-worker
#      campaign digests, and every cell re-run standalone against its
#      campaign summary. The wire workload also runs the replay and
#      campaign legs at companion size against the pinned digests,
#      checks for unmatched responses, and needs its loopback latency leg
#      to keep up with its offered rate.
#   4. Smoke campaign: a 2x2 sweep grid against a fresh cache, run cold
#      then warm, asserting the warm pass executes ZERO engine runs (the
#      content-addressed cache contract).
#   5. Playbook gate: the reactive-controller integration tests on both
#      engine paths (ROOTSTRESS_THREADS=1 and 4), then the playbook_duel
#      example, which exits non-zero unless the withdraw plan changes the
#      answered fraction, threads 1 and 4 agree bit-for-bit, and the
#      playbook campaign axis caches three distinct digests.
#   6. Fault gate: the fault-layer integration tests on both engine
#      paths, then the pulse_duel example at ROOTSTRESS_THREADS=1 and 4
#      — it exits non-zero unless the pulse wave damages the absorb
#      baseline, fault-laden runs are thread-count invariant, the patient
#      plan out-oscillates nothing, and the fault-schedule campaign axis
#      caches four distinct digests cold then serves them all warm.
#   7. Observability gate: bench_ab obs (full telemetry incl. the flight
#      recorder against a dark run on the June 2016 scenario: the median
#      of 7 interleaved pairs' time ratios must stay within 1.05, writing
#      BENCH_obs.json), and the first pulse_duel pass re-run with
#      ROOTSTRESS_PERFETTO set — the exported Chrome-trace document must
#      be valid JSON with a traceEvents array.
#   8. Scale gate: bench_scale's smoke sizes — the churn-heavy 10^4-AS
#      cell must show incremental BGP >= 5x faster than full recompute
#      with bit-identical RouteChange/catchment output, plus records/sec
#      at three growing populations (ROOTSTRESS_SCALE_FULL=1 runs the
#      full population ladder instead), writing BENCH_scale.json. The
#      ratio reads about 15-21x since the full recompute's fixpoint moved
#      to a bucket queue over grouped links (it read 52-57x with the heap);
#      the full path got faster, not the incremental one slower, and the
#      5x bar is unchanged.
#   9. Distributed gate: bench_distributed (subprocess fabric digests at
#      1 and 4 workers must be bit-identical to in-process, a killed
#      worker's cells must be re-leased to completion, coordination
#      overhead bounded; writes BENCH_distributed.json), then the smoke
#      campaign re-run on the fabric — cold on 2 workers must execute
#      all 4 cells through the subprocess executor and a warm pass must
#      serve every cell from the cache the workers populated.
#  10. Netio gate: a wirestress --duel --quick loopback smoke (real UDP
#      packets through the generator and server-under-test), then
#      bench_netio — batched-send throughput must clear the 50k q/s bar
#      on loopback AND the measured answered fraction under a 2x capacity
#      overload must agree with the fluid simulator's prediction within
#      10% (writes BENCH_netio.json).
#  11. End-user gate: the resolver-population integration tests on both
#      engine paths, then the enduser_duel example at ROOTSTRESS_THREADS=1
#      (with ROOTSTRESS_DATASET set — every exported line must be valid
#      JSON with the attack/legit labels present) and 4 — it exits
#      non-zero unless cached+retrying resolvers beat cache-less clients
#      through the pulse window, reports are thread-count invariant, and
#      the resolver-profile campaign axis caches distinct digests — and
#      bench_ab enduser (the median of 7 interleaved pairs' time ratios,
#      population on over off, must stay within 1.05, and every
#      server-side series must stay bit-identical, writing
#      BENCH_enduser.json).
#  12. Debug build with ThreadSanitizer and -Werror, running the
#      thread-pool unit tests, the parallel-determinism integration test
#      (its 4-thread run also exercises the per-probe wire cross-check:
#      debug builds re-run every answered probe's CHAOS reply through
#      the codec and compare it with the engine's reply table), the
#      engine unit tests at 4 threads (probe shards carry per-VP
#      schedule, key-prefix, server-pick and RTT state from one step to
#      the next, possibly on another lane; debug builds recompute every
#      reused fluid load, every kept probe key prefix, server pick and
#      base RTT, and every site's kept queue outcome, and throw on any
#      difference), the incremental-vs-full BGP cross-check (debug
#      builds cross-check every mutation), the resolver-population unit
#      tests (sharded stepping races), and the netio
#      socket/server/generator tests (real threads + real sockets) under
#      TSan.
#  13. Debug build with AddressSanitizer and UndefinedBehaviorSanitizer
#      (float-cast-overflow named explicitly: GCC's -fsanitize=undefined
#      leaves it out), any report fatal, and -Werror, running the whole
#      test suite.
#
# Usage: scripts/check.sh  (from the repo root; build trees land in
# build/check-release, build/check-tier1, build/check-tsan and
# build/check-asan).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== Release build ==="
cmake -B build/check-release -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-Werror
cmake --build build/check-release -j

echo "=== Tier-1 build (RelWithDebInfo, -O2 -g) with -Werror ==="
cmake -B build/check-tier1 -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-Werror
cmake --build build/check-tier1 -j

echo "=== Test suite, serial (ROOTSTRESS_THREADS=1) ==="
(cd build/check-release && ROOTSTRESS_THREADS=1 ctest --output-on-failure -j)

echo "=== Test suite, parallel (ROOTSTRESS_THREADS=4) ==="
(cd build/check-release && ROOTSTRESS_THREADS=4 ctest --output-on-failure -j)

echo "=== Paper gate: Table 1's key observations must all PASS ==="
./build/check-release/bench/paper_report table1

echo "=== Bit-identity gate: pinned digests on every workload at seed 1 ==="
for trace in 0 1; do
  for workload in replay campaign wire; do
    result=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
      --seconds 5 --trace "$trace" | tail -n 1)
    python3 - "$workload" "$trace" "$result" <<'PYEOF'
import json, sys
workload, trace, result = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
if result["failed"] != 0:
    sys.exit(f"FAIL: perfbench {workload} at seed 1 (trace {trace}): "
             f"{result['failed']} of {result['attempted']} output checks failed")
print(f"perfbench {workload} (trace {trace}): {result['attempted']} checks, "
      "0 failed")
PYEOF
  done
done

echo "=== Smoke campaign: cold fills the cache, warm must not execute ==="
SWEEP_CACHE="$(mktemp -d)"
trap 'rm -rf "$SWEEP_CACHE"' EXIT
cold_line=$(./build/check-release/examples/campaign_sweep --smoke \
  --cache "$SWEEP_CACHE" | tee /dev/stderr | grep '^executed=')
[[ "$cold_line" == executed=4\ cache_hits=0\ * ]] ||
  { echo "FAIL: cold smoke campaign expected executed=4 cache_hits=0, got: $cold_line"; exit 1; }
warm_line=$(./build/check-release/examples/campaign_sweep --smoke \
  --cache "$SWEEP_CACHE" | tee /dev/stderr | grep '^executed=')
[[ "$warm_line" == executed=0\ cache_hits=4\ * ]] ||
  { echo "FAIL: warm smoke campaign expected executed=0 cache_hits=4, got: $warm_line"; exit 1; }

echo "=== Playbook integration, serial and pooled engines ==="
ROOTSTRESS_THREADS=1 ./build/check-release/tests/integration_test \
  --gtest_filter='Playbook*.*'
ROOTSTRESS_THREADS=4 ./build/check-release/tests/integration_test \
  --gtest_filter='Playbook*.*'

echo "=== Playbook duel example: reactive arm must move the needle ==="
DUEL_CACHE="$(mktemp -d)"
./build/check-release/examples/playbook_duel --quick --cache "$DUEL_CACHE"
rm -rf "$DUEL_CACHE"

echo "=== Fault integration, serial and pooled engines ==="
ROOTSTRESS_THREADS=1 ./build/check-release/tests/integration_test \
  --gtest_filter='FaultIntegration.*'
ROOTSTRESS_THREADS=4 ./build/check-release/tests/integration_test \
  --gtest_filter='FaultIntegration.*'

echo "=== Pulse duel example: the chaos layer's end-to-end contract ==="
PULSE_CACHE="$(mktemp -d)"
PERFETTO_OUT="$PULSE_CACHE/pulse_duel_perfetto.json"
ROOTSTRESS_THREADS=1 ROOTSTRESS_PERFETTO="$PERFETTO_OUT" \
  ./build/check-release/examples/pulse_duel --quick --cache "$PULSE_CACHE"

echo "=== Perfetto export: pulse duel trace must be valid JSON ==="
[[ -s "$PERFETTO_OUT" ]] ||
  { echo "FAIL: pulse_duel did not write $PERFETTO_OUT"; exit 1; }
python3 - "$PERFETTO_OUT" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
phases = [e for e in events if e.get("ph") == "X"]
instants = [e for e in events if e.get("ph") == "i"]
assert phases, "no phase slices in the Perfetto export"
assert instants, "no instant events in the Perfetto export"
print(f"perfetto export ok: {len(phases)} slices, {len(instants)} instants")
PYEOF
rm -rf "$PULSE_CACHE"

PULSE_CACHE="$(mktemp -d)"
ROOTSTRESS_THREADS=4 ./build/check-release/examples/pulse_duel --quick \
  --cache "$PULSE_CACHE"
rm -rf "$PULSE_CACHE"

echo "=== Telemetry overhead: flight recorder must stay within budget ==="
./build/check-release/bench/bench_ab obs

echo "=== Scale gate: incremental BGP must beat full recompute 5x ==="
./build/check-release/bench/bench_scale BENCH_scale.json

echo "=== Distributed gate: fabric digests must match in-process ==="
./build/check-release/bench/bench_distributed BENCH_distributed.json

echo "=== Smoke campaign on the subprocess fabric, cold then warm ==="
FABRIC_CACHE="$(mktemp -d)"
fabric_cold=$(./build/check-release/examples/campaign_sweep --smoke \
  --executor subprocess --workers 2 --cache "$FABRIC_CACHE" |
  tee /dev/stderr | grep '^executed=')
[[ "$fabric_cold" == executed=4\ cache_hits=0\ * &&
   "$fabric_cold" == *executor=subprocess* ]] ||
  { echo "FAIL: cold fabric smoke expected executed=4 on subprocess, got: $fabric_cold"; exit 1; }
fabric_warm=$(./build/check-release/examples/campaign_sweep --smoke \
  --executor subprocess --workers 2 --cache "$FABRIC_CACHE" |
  tee /dev/stderr | grep '^executed=')
[[ "$fabric_warm" == executed=0\ cache_hits=4\ * ]] ||
  { echo "FAIL: warm fabric smoke expected executed=0 cache_hits=4, got: $fabric_warm"; exit 1; }
rm -rf "$FABRIC_CACHE"

echo "=== Netio gate: wire smoke, then throughput + calibration ==="
./build/check-release/examples/wirestress --duel --quick
./build/check-release/bench/bench_netio BENCH_netio.json

echo "=== End-user integration, serial and pooled engines ==="
ROOTSTRESS_THREADS=1 ./build/check-release/tests/integration_test \
  --gtest_filter='EndUserIntegration.*'
ROOTSTRESS_THREADS=4 ./build/check-release/tests/integration_test \
  --gtest_filter='EndUserIntegration.*'

echo "=== End-user duel example: caches must mute the user impact ==="
ENDUSER_CACHE="$(mktemp -d)"
DATASET_OUT="$ENDUSER_CACHE/enduser_dataset.jsonl"
ROOTSTRESS_THREADS=1 ROOTSTRESS_DATASET="$DATASET_OUT" \
  ./build/check-release/examples/enduser_duel --quick --cache "$ENDUSER_CACHE"

echo "=== Labeled dataset export: every line must be valid JSON ==="
[[ -s "$DATASET_OUT" ]] ||
  { echo "FAIL: enduser_duel did not write $DATASET_OUT"; exit 1; }
python3 - "$DATASET_OUT" <<'PYEOF'
import json, sys
labels, types = set(), set()
count = 0
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        labels.add(rec["label"])
        types.add(rec["type"])
        count += 1
assert "attack" in labels, f"no attack-labeled bins: {labels}"
assert "legit" in labels, f"no legit-labeled bins: {labels}"
assert types == {"letter_bin", "enduser_bin"}, f"unexpected types: {types}"
print(f"labeled dataset ok: {count} records, labels={sorted(labels)}")
PYEOF
rm -rf "$ENDUSER_CACHE"

ENDUSER_CACHE="$(mktemp -d)"
ROOTSTRESS_THREADS=4 ./build/check-release/examples/enduser_duel --quick \
  --cache "$ENDUSER_CACHE"
rm -rf "$ENDUSER_CACHE"

echo "=== Resolver-population overhead: in-loop clients must stay free ==="
./build/check-release/bench/bench_ab enduser

echo "=== Debug + ThreadSanitizer build ==="
cmake -B build/check-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -g -Werror" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build/check-tsan -j --target util_test integration_test netio_test resolver_test sim_test

echo "=== Pool tests under TSan ==="
(cd build/check-tsan &&
  ./tests/util_test --gtest_filter='ThreadPool.*:ResolveThreadCount.*' &&
  ROOTSTRESS_THREADS=4 ./tests/integration_test \
    --gtest_filter='ParallelDeterminism.*' &&
  ROOTSTRESS_THREADS=4 ./tests/sim_test --gtest_filter='Engine.*' &&
  ROOTSTRESS_THREADS=4 ./tests/integration_test \
    --gtest_filter='ScaleDeterminism.FullAndIncrementalBgpProduceIdenticalRuns' &&
  ./tests/resolver_test --gtest_filter='Population.*')

echo "=== Netio tests under TSan: sockets + server + generator threads ==="
(cd build/check-tsan &&
  ./tests/netio_test \
    --gtest_filter='Modes/SocketRoundTrip.*:WireServer.LoopbackIntegrationAnswersRealSocketQuery:LoadGenerator.*')

echo "=== Debug + AddressSanitizer + UBSan build, whole suite ==="
SANITIZE="-fsanitize=address,undefined,float-cast-overflow"
cmake -B build/check-asan -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$SANITIZE -fno-sanitize-recover=all -fno-omit-frame-pointer -Werror" \
  -DCMAKE_EXE_LINKER_FLAGS="$SANITIZE"
cmake --build build/check-asan -j
(cd build/check-asan && ctest --output-on-failure -j)

echo "ALL CHECKS PASSED"
