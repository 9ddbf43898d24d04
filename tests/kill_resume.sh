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
#   3. An injected fault (write and worker sites, --fault-inject) fails a
#      journaled sweep with the job and the site named and no CSV published,
#      and --resume without the fault completes it to byte-identical CSV; a
#      p=1 write fault fails the same way.
#   4. The same for read faults on a trace-backed sweep (the `read` site
#      fires only in trace readers).
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

# --- 3. Fault injection, then --resume: byte-identical recovery -----------

# fault_then_resume NAME SPEC SITE BASE ARGS...: the journaled sweep ARGS under
# --fault-inject SPEC must fail, name the failed job (workload|config|KB) and
# the SITE fault on stderr, and publish no CSV; re-running it with --resume and
# without the fault must skip the jobs journaled before the fault and produce
# BASE byte for byte. Each SPEC's rate is chosen so that the fault fires after
# the first job is journaled (the plans are seeded, so that is fixed).
fault_then_resume() {
  local name=$1 spec=$2 site=$3 base=$4
  shift 4
  "$CLI" "$@" --fault-inject "$spec" --journal "j_$name" --csv "$name.csv" \
      2>"$name.err" && die "$name: the $spec sweep succeeded, so no fault fired"
  grep -qE "job [^ |]+\|[^ |]+\|[0-9]+: .*injected $site fault" "$name.err" ||
    { cat "$name.err" >&2; die "$name: the error does not name the job and the $site fault"; }
  [ -e "$name.csv" ] && die "$name: a failed sweep published a CSV"
  "$CLI" "$@" --journal "j_$name" --resume --progress --csv "$name.csv" \
      2>"$name.resume.err" || { cat "$name.resume.err" >&2; die "$name: --resume failed"; }
  grep -q "resuming:" "$name.resume.err" ||
    die "$name: no job was journaled before the fault; the resume skipped nothing"
  cmp -s "$base" "$name.csv" || die "$name: the resumed CSV differs from the fault-free run"
}

"$CLI" "${QUICK[@]}" --csv base_quick.csv || die "baseline (quick) run failed"

fault_then_resume write_fault write:0.5 write base_quick.csv "${QUICK[@]}"

# Worker faults fire in the front-end producers of a pipelined run, keyed by
# (core, the core's op index).
fault_then_resume worker_fault worker:0.000001 worker base_quick.csv \
    "${QUICK[@]}" --sim-threads 2

# A p=1 write fault fails the first job's record: the sweep names that job
# and publishes nothing. Write faults fire only on journal-record commits, so
# this leg runs journaled.
"$CLI" "${QUICK[@]}" --fault-inject write:1 --journal j_exhaust --csv never.csv \
    2>exhaust.err && die "p=1 write faults must fail the sweep"
grep -qE "job [^ |]+\|[^ |]+\|[0-9]+: injected write fault" exhaust.err ||
  { cat exhaust.err >&2; die "a p=1 write fault does not name the job and the fault"; }
[ -e never.csv ] && die "a failed sweep published a CSV"

# --- 4. Read faults on a trace-backed sweep -------------------------------
# The synthetic legs above open no trace file, so a `read` fault cannot fire
# there. A read opportunity is one window refill, the opening fill
# included; this small trace fits one window, so each core's reader gets one.
"$CONVERT" --in "$FIXTURE" --from champsim --to v2 --out small.trace ||
  die "converting the ChampSim fixture failed"
TRACE=(--trace small.trace,small.trace --configs NOPART-L,M-BT --l2-kb-sweep 128,256,512
       --interval 40000 --threads 1 --seed 7 --instr 200000)
"$CLI" "${TRACE[@]}" --csv base_trace.csv || die "trace baseline run failed"
fault_then_resume trace_fault read:0.1 read base_trace.csv "${TRACE[@]}"
"$CLI" "${TRACE[@]}" --fault-inject read:1 --csv never_trace.csv \
    2>trace_exhaust.err && die "p=1 read faults must fail a trace-backed sweep"
grep -q "injected read fault" trace_exhaust.err ||
  die "a trace-backed sweep under p=1 read faults does not surface the fault"
[ -e never_trace.csv ] && die "a failed trace-backed sweep published a CSV"

echo "kill_resume: all resilience gates passed"
