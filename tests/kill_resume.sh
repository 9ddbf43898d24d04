#!/usr/bin/env bash
# Crash/recovery gate for the resilience layer, run as the cli_kill_resume
# CTest test (Linux/macOS only; see src/tools/CMakeLists.txt).
#
# Proves, with a real SIGKILL and real processes, the headline guarantees:
#
#   1. A journaled sweep killed mid-flight leaves only durable per-job records
#      (no partial CSV), and --resume replays exactly the missing jobs to a
#      final CSV byte-identical to an uninterrupted run.
#   2. Journal misuse fails loudly: fresh run over an existing journal,
#      resume with a different matrix.
#   3. Injected faults (read/write/worker sites, --fault-inject) plus
#      --job-retries recover to byte-identical CSVs; an exhausted retry
#      budget surfaces the last error; PLRUPART_FAULT_INJECT is honored and
#      the flag overrides it.
#   5. Read faults reach a trace-backed sweep (the `read` site fires only in
#      trace readers) and retries recover to the fault-free bytes.
#
# Usage: kill_resume.sh <plrupart-cli> <work-dir> <plrupart-trace-convert>
#                       <champsim-fixture>
set -u

CLI=$1
WORK=$2
CONVERT=$3
FIXTURE=$4

die() { echo "kill_resume: FAIL: $*" >&2; exit 1; }

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK" || die "cannot enter $WORK"

# Two sweeps over the same matrix axes: a slow one (jobs take long enough for
# a SIGKILL to land mid-flight) and a quick one for the fault-injection legs.
# Three L2 sizes make 12 jobs: the kill poll below triggers after the second
# durable record, leaving ten-plus jobs of runway, so the SIGKILL landing
# mid-flight is deterministic on any host fast or slow (a 2-of-12 prefix
# cannot outrun the kill the way a 2-of-8 one occasionally did).
AXES=(--workload 2T_01,2T_02 --configs NOPART-L,M-BT --l2-kb-sweep 128,256,512
      --interval 40000 --threads 1)
NJOBS=12
SLOW=("${AXES[@]}" --seed 7 --instr 2000000)
QUICK=("${AXES[@]}" --seed 7 --instr 200000)

# --- 1. Kill/resume round-trip -------------------------------------------

"$CLI" "${SLOW[@]}" --csv base_slow.csv || die "baseline (slow) run failed"
[ -s base_slow.csv ] || die "baseline CSV missing or empty"

"$CLI" "${SLOW[@]}" --journal j_full --csv full.csv || die "journaled run failed"
cmp -s base_slow.csv full.csv || die "journaled CSV differs from the plain run"

# Wall-clock-bounded poll: wait (up to DEADLINE seconds, generous for
# sanitizer builds) for two durable records, then SIGKILL while at least ten
# jobs are still unwritten. The kill landing mid-flight is asserted, not
# best-effort: a resume leg that silently degraded to replaying 0 missing
# jobs would prove nothing about crash recovery.
"$CLI" "${SLOW[@]}" --journal j_kill --csv kill.csv &
pid=$!
DEADLINE=$((SECONDS + 120))
while [ "$SECONDS" -lt "$DEADLINE" ]; do
  n=$(ls j_kill/job-*.rec 2>/dev/null | wc -l)
  [ "$n" -ge 2 ] && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.02
done
kill -0 "$pid" 2>/dev/null || die "the sweep finished (or died) before the kill \
could land mid-flight; the resume leg would prove nothing"
kill -KILL "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
n=$(ls j_kill/job-*.rec 2>/dev/null | wc -l)
[ "$n" -ge 1 ] || die "no durable journal records before the kill; nothing to resume"
[ "$n" -lt "$NJOBS" ] || die "every job was journaled before the kill; nothing left to resume"
[ -e kill.csv ] && die "a SIGKILLed sweep published a CSV (atomic output broken)"

"$CLI" "${SLOW[@]}" --journal j_kill --resume --progress --csv resumed.csv \
    2>resume.err || { cat resume.err >&2; die "resume failed"; }
cmp -s base_slow.csv resumed.csv || die "resumed CSV is not byte-identical to baseline"
grep -q "resuming:" resume.err || die "resume did not report already-journaled jobs"

# --- 2. Journal misuse must fail loudly ----------------------------------

"$CLI" "${SLOW[@]}" --journal j_kill --csv nope.csv 2>fresh.err &&
  die "fresh run over an existing journal must be refused"
grep -q -- "--resume" fresh.err || die "journal-reuse error does not mention --resume"

"$CLI" "${AXES[@]}" --seed 8 --instr 2000000 --journal j_kill --resume \
    --csv nope.csv 2>stale.err && die "resume with a different matrix must be refused"
grep -q "fingerprint" stale.err || die "matrix-mismatch error does not name fingerprints"

# --- 3. Fault injection + retries: byte-identical recovery ---------------

"$CLI" "${QUICK[@]}" --csv base_quick.csv || die "baseline (quick) run failed"

for spec in read:0.05 write:0.5 read:0.02,write:0.3; do
  out="fault_$(echo "$spec" | tr ':,' '__').csv"
  "$CLI" "${QUICK[@]}" --fault-inject "$spec" --job-retries 12 --retry-backoff-ms 0 \
      --journal "j_$out" --csv "$out" || die "fault run '$spec' did not recover"
  cmp -s base_quick.csv "$out" || die "fault run '$spec' changed the CSV"
done

# Worker faults fire in the front-end producers of a pipelined run, keyed by
# (core, the core's op index). At this rate a few first attempts fail (the
# plans are seeded, so the count is fixed) and every job recovers.
"$CLI" "${QUICK[@]}" --sim-threads 2 --fault-inject worker:0.000001 --job-retries 12 \
    --retry-backoff-ms 0 --progress --csv worker_fault.csv 2>worker_fault.err ||
  die "worker-fault run did not recover"
grep -q "injected worker fault" worker_fault.err || die "no worker fault fired"
cmp -s base_quick.csv worker_fault.csv || die "worker-fault run changed the CSV"

# Write faults hit the supervised (retryable) journal-record commits, so the
# exhaustion and env legs run journaled.
"$CLI" "${QUICK[@]}" --fault-inject write:1 --job-retries 2 --retry-backoff-ms 0 \
    --journal j_exhaust --csv never.csv 2>exhaust.err &&
  die "p=1 write faults must exhaust the retry budget"
grep -q "failed after 3 attempt(s)" exhaust.err ||
  die "retry exhaustion does not surface the attempt count"
grep -q "injected write fault" exhaust.err ||
  die "retry exhaustion does not surface the last error"
[ -e never.csv ] && die "a failed sweep published a CSV"

PLRUPART_FAULT_INJECT=write:1 "$CLI" "${QUICK[@]}" --journal j_env --csv env.csv \
    2>/dev/null && die "PLRUPART_FAULT_INJECT was ignored"
PLRUPART_FAULT_INJECT=write:1 "$CLI" "${QUICK[@]}" --fault-inject read:0 \
    --csv flag_wins.csv || die "--fault-inject must override PLRUPART_FAULT_INJECT"
cmp -s base_quick.csv flag_wins.csv || die "flag-override run changed the CSV"

# --- 4. --progress under --job-retries: no double-counted reporting -------
# Write faults force several failed attempts per job; the [n/total] done
# counter must still tick exactly once per job (run() increments it outside
# the retry loop, and the throughput numerator is the final attempt's access
# count only), and the CSV must stay byte-identical to the clean baseline.
"$CLI" "${QUICK[@]}" --progress --fault-inject write:0.5 --job-retries 12 \
    --retry-backoff-ms 0 --journal j_prog --csv prog.csv 2>prog.err ||
  { cat prog.err >&2; die "progress fault run did not recover"; }
cmp -s base_quick.csv prog.csv || die "progress fault run changed the CSV"
grep -q "failed (injected write fault" prog.err ||
  die "no retry lines under --progress: the fault leg exercised nothing"
done_lines=$(grep -c " done (" prog.err)
[ "$done_lines" -eq "$NJOBS" ] ||
  die "expected $NJOBS done lines under retries, saw $done_lines (double-counted?)"
for n in $(seq 1 "$NJOBS"); do
  c=$(grep -c "\[$n/$NJOBS\]" prog.err)
  [ "$c" -eq 1 ] || die "done counter [$n/$NJOBS] reported $c times"
done
grep -q "\[$((NJOBS + 1))/$NJOBS\]" prog.err &&
  die "done counter overran the job total (retries double-counted)"

# --- 5. Read faults on a trace-backed sweep -------------------------------
# The synthetic legs above never open a trace file, so their `read` specs
# cannot fire. A read opportunity is one window refill, the opening fill
# included; this small trace fits one window, so each core's reader gets one.
"$CONVERT" --in "$FIXTURE" --from champsim --to v2 --out small.trace ||
  die "converting the ChampSim fixture failed"
TRACE=(--trace small.trace,small.trace --configs NOPART-L,M-BT --l2-kb-sweep 128,256,512
       --interval 40000 --threads 1 --seed 7 --instr 200000)
"$CLI" "${TRACE[@]}" --csv base_trace.csv || die "trace baseline run failed"
"$CLI" "${TRACE[@]}" --progress --fault-inject read:0.05 --job-retries 12 \
    --retry-backoff-ms 0 --csv trace_fault.csv 2>trace_fault.err ||
  { cat trace_fault.err >&2; die "trace read-fault run did not recover"; }
cmp -s base_trace.csv trace_fault.csv || die "trace read-fault run changed the CSV"
grep -q "failed (injected read fault" trace_fault.err ||
  die "no read fault fired on the trace-backed sweep: the leg exercised nothing"
"$CLI" "${TRACE[@]}" --fault-inject read:1 --job-retries 0 --csv never_trace.csv \
    2>trace_exhaust.err && die "p=1 read faults must fail a trace-backed sweep"
grep -q "injected read fault" trace_exhaust.err ||
  die "a trace-backed sweep under p=1 read faults does not surface the fault"
[ -e never_trace.csv ] && die "a failed trace-backed sweep published a CSV"

echo "kill_resume: all resilience gates passed"
