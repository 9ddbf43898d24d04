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
#   3. A real failure on each path a job can die on fails a journaled sweep
#      with the job and the error named and no CSV published, and once the
#      fault is repaired --resume completes it to byte-identical CSV:
#        write   a journal record path pre-created as a directory
#        read    a converted fixture trace with its last byte dropped
#        worker  the same torn trace read by --sim-threads 2 producers
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
# a SIGKILL to land mid-flight) and a quick one for the real-failure legs.
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

# --- 3. Real failures, then --resume: byte-identical recovery ------------

# failure_then_resume NAME BASE EXPECTED BREAK REPAIR ARGS...: after the
# command BREAK, the journaled sweep ARGS must fail with EXPECTED ("job
# <workload>|<config>|<KB>: " and the real error text) on stderr and publish
# no CSV; after the command REPAIR, re-running it with --resume must produce
# BASE byte for byte. The resume's stderr is left in NAME.resume.err.
failure_then_resume() {
  local name=$1 base=$2 expected=$3 break_it=$4 repair=$5
  shift 5
  "$break_it"
  "$CLI" "$@" --journal "j_$name" --csv "$name.csv" 2>"$name.err" &&
    die "$name: the sweep succeeded, so the fault was never met"
  grep -qF "plrupart: $expected" "$name.err" ||
    { cat "$name.err" >&2; die "$name: the error is not '$expected'"; }
  [ -e "$name.csv" ] && die "$name: a failed sweep published a CSV"
  "$repair"
  "$CLI" "$@" --journal "j_$name" --resume --progress --csv "$name.csv" \
      2>"$name.resume.err" || { cat "$name.resume.err" >&2; die "$name: --resume failed"; }
  cmp -s "$base" "$name.csv" || die "$name: the resumed CSV differs from the fault-free run"
}

"$CLI" "${QUICK[@]}" --csv base_quick.csv || die "baseline (quick) run failed"

# Write: job 5's record path is a directory. A fresh sweep accepts a journal
# directory without a MANIFEST, journals jobs 0-4, and fails at job 5's
# commit; a --resume that still finds the directory refuses it by name.
RECORD=j_write/job-5.rec
take_record_path() { mkdir -p "$RECORD"; }
free_record_path() {
  "$CLI" "${QUICK[@]}" --journal j_write --resume --csv never.csv 2>still.err &&
    die "write: --resume accepted a record path that is a directory"
  grep -qF "$RECORD" still.err || { cat still.err >&2; die "write: --resume does not name $RECORD"; }
  rmdir "$RECORD"
}
failure_then_resume write base_quick.csv \
    "job 2T_01|M-BT|512: cannot write '$RECORD': not a regular file" \
    take_record_path free_record_path "${QUICK[@]}"
grep -q "resuming: 5/$NJOBS jobs already journaled" write.resume.err ||
  die "write: the resume did not skip the five jobs journaled before the fault"

# --- 4. A torn trace, read serially and by front-end producers ------------
# The synthetic legs above open no trace file. Dropping the last byte of a
# converted fixture trace tears its last record, which each job meets at the
# end of its first lap (the fixture holds 15 records).
"$CONVERT" --in "$FIXTURE" --from champsim --to v2 --out small.trace ||
  die "converting the ChampSim fixture failed"
cp small.trace torn.trace
TRACE=(--trace torn.trace,torn.trace --configs NOPART-L,M-BT --l2-kb-sweep 128,256,512
       --interval 40000 --threads 1 --seed 7 --instr 200000)
"$CLI" "${TRACE[@]}" --csv base_trace.csv || die "trace baseline run failed"
SIZE=$(wc -c <small.trace)
tear() { head -c $((SIZE - 1)) small.trace >torn.trace; }
mend() { cp small.trace torn.trace; }
TORN="job trace:torn.trace+torn.trace|NOPART-L|128: trace file 'torn.trace': \
truncated record at byte $((SIZE - 1)) (EOF inside a varint)"
failure_then_resume read base_trace.csv "$TORN" tear mend "${TRACE[@]}"
failure_then_resume worker base_trace.csv "$TORN" tear mend "${TRACE[@]}" --sim-threads 2

# Without a journal the same failure publishes nothing either.
tear
"$CLI" "${TRACE[@]}" --csv never_trace.csv 2>trace_plain.err &&
  die "a sweep over a torn trace succeeded"
grep -qF "plrupart: $TORN" trace_plain.err ||
  { cat trace_plain.err >&2; die "an unjournaled sweep does not name the torn trace"; }
[ -e never_trace.csv ] && die "a failed trace-backed sweep published a CSV"

echo "kill_resume: all resilience gates passed"
