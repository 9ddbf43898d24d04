// The resilience layer's contracts: crash-safe file publication
// (AtomicFile), the run journal behind --journal/--resume (validation,
// corruption and mutation rejection, byte-identical reassembly), failed jobs
// that stop the sweep, failure-then-resume recovery from real faults (a
// journal record path taken by a directory, a torn trace read serially or by
// front-end producers), and the ByteReader I/O-error and EINTR/short-read
// regressions.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <pthread.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.hpp"
#include "plrupart/common/rng.hpp"
#include "plrupart/runner/journal.hpp"
#include "plrupart/runner/run_spec.hpp"
#include "plrupart/runner/sweep_executor.hpp"
#include "plrupart/sim/trace_codec.hpp"
#include "plrupart/sim/trace_file.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
#include "plrupart/workloads/trace_workload.hpp"
#include "plrupart/workloads/workload_table.hpp"
#include "support/byte_mutator.hpp"

namespace plrupart {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on teardown.
class ScratchDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("plrupart_resilience_" + std::string(info->name()) + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

/// A 2-job matrix cheap enough to actually simulate in supervision tests.
runner::RunMatrix tiny_matrix() {
  runner::RunMatrix m;
  m.configs = {"NOPART-L", "M-0.75N"};
  m.workloads = {workloads::workloads_2t()[0]};
  m.l2_kb = {128};
  m.l1d = cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
  m.instr = 20'000;
  m.warmup = 5'000;
  m.interval_cycles = 40'000;
  m.sampling_ratio = 8;
  m.seed = 99;
  return m;
}

std::string run_csv(const runner::RunMatrix& m, const runner::SweepOptions& opts) {
  std::ostringstream os;
  runner::SweepExecutor(opts).run_csv(m.expand(), os);
  return os.str();
}

runner::SweepOptions serial_opts() {
  runner::SweepOptions opts;
  opts.threads = 1;
  return opts;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// A 2-job matrix over a two-core workload that runs one v2 trace of 2,000
/// gzip records on both cores; the jobs lap the trace several times.
runner::RunMatrix trace_matrix(const fs::path& trace) {
  const auto source = workloads::make_trace(workloads::benchmark("gzip"), 0, 5);
  sim::write_trace_file(trace.string(), sim::record_trace(*source, 2'000),
                        sim::TraceFormat::kBinaryV2);
  runner::RunMatrix m = tiny_matrix();
  m.workloads = {workloads::workload_from_traces({trace.string(), trace.string()})};
  return m;
}

/// Drop a trace's last byte, tearing its last record, and return what reading
/// it fails with: the TraceError text the first lap ends in.
std::string tear_last_record(const fs::path& trace) {
  fs::resize_file(trace, fs::file_size(trace) - 1);
  return "trace file '" + trace.string() + "': truncated record at byte " +
         std::to_string(fs::file_size(trace));
}

// ---------------------------------------------------------------------------
// AtomicFile
// ---------------------------------------------------------------------------

class AtomicFileTest : public ScratchDirTest {};

TEST_F(AtomicFileTest, NothingOnDiskBeforeCommitEverythingAfter) {
  const fs::path target = dir_ / "out.csv";
  AtomicFile f(target);
  f.stream() << "a,b\n1,2\n";
  EXPECT_FALSE(fs::exists(target));
  EXPECT_FALSE(f.committed());
  f.commit();
  EXPECT_TRUE(f.committed());
  EXPECT_EQ(slurp(target), "a,b\n1,2\n");
}

TEST_F(AtomicFileTest, DirectoryTargetFailsTheCommitAndLeavesNoTmp) {
  // What a journal record path taken by a directory meets: the commit is
  // refused by name before any tmp file is created.
  const fs::path target = dir_ / "out.csv";
  fs::create_directory(target);
  AtomicFile f(target);
  f.stream() << "doomed";
  try {
    f.commit();
    FAIL() << "a directory target must fail the commit";
  } catch (const InvariantError& e) {
    EXPECT_EQ(std::string(e.what()),
              "cannot write '" + target.string() + "': not a regular file");
  }
  EXPECT_FALSE(f.committed());
  std::vector<fs::path> entries;
  for (const auto& e : fs::directory_iterator(dir_)) entries.push_back(e.path());
  EXPECT_EQ(entries, std::vector<fs::path>{target}) << "no .tmp. sibling may remain";
  EXPECT_TRUE(fs::is_directory(target));
  EXPECT_TRUE(fs::is_empty(target));
}

TEST_F(AtomicFileTest, OverwriteReplacesWholeContent) {
  const fs::path target = dir_ / "out.csv";
  AtomicFile::write_file(target, "the first, longer content\n");
  AtomicFile::write_file(target, "short\n");
  EXPECT_EQ(slurp(target), "short\n");
}

TEST_F(AtomicFileTest, ProbeWritableFailsFastAndLeavesNoResidue) {
  EXPECT_NO_THROW(AtomicFile::probe_writable(dir_ / "ok.csv"));
  EXPECT_TRUE(fs::is_empty(dir_)) << "the probe must clean up its tmp";
  try {
    AtomicFile::probe_writable(dir_ / "no_such_subdir" / "out.csv");
    FAIL() << "unwritable target must throw";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos) << e.what();
  }
}

TEST_F(AtomicFileTest, RefusesToReplaceAFifo) {
  // Renaming over a FIFO would swap its directory entry for a regular file.
  // Both entry points must refuse without opening it (an open could block)
  // and without leaving a tmp sibling.
  const fs::path fifo = dir_ / "out.csv";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  const auto expect_refused = [&](const char* entry, const auto& call) {
    try {
      call();
      ADD_FAILURE() << entry << " accepted a FIFO target";
    } catch (const InvariantError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(fifo.string()), std::string::npos) << entry << ": " << what;
      EXPECT_NE(what.find("not a regular file"), std::string::npos) << entry << ": " << what;
    }
  };
  expect_refused("probe_writable", [&] { AtomicFile::probe_writable(fifo); });
  expect_refused("write_file", [&] { AtomicFile::write_file(fifo, "x\n"); });
  EXPECT_TRUE(fs::is_fifo(fifo));
  std::vector<fs::path> entries;
  for (const auto& e : fs::directory_iterator(dir_)) entries.push_back(e.path());
  EXPECT_EQ(entries, std::vector<fs::path>{fifo}) << "no .tmp. sibling may remain";
}

TEST_F(AtomicFileTest, RemoveFileIgnoresMissingTargets) {
  EXPECT_NO_THROW(AtomicFile::remove_file(dir_ / "never_existed"));
  const fs::path target = dir_ / "x";
  AtomicFile::write_file(target, "x");
  AtomicFile::remove_file(target);
  EXPECT_FALSE(fs::exists(target));
}

// ---------------------------------------------------------------------------
// ByteReader: real I/O errors, EINTR/short reads
// ---------------------------------------------------------------------------

class ByteReaderResilienceTest : public ScratchDirTest {};

TEST_F(ByteReaderResilienceTest, MidStreamIoErrorThrowsTraceIoError) {
  // fopen(dir, "rb") succeeds on Linux; the first fread fails with EISDIR --
  // a mid-stream read failure, not malformed data.
  sim::ByteReader in(dir_.string(), 64);
  try {
    (void)in.get();
    FAIL() << "reading a directory must fail";
  } catch (const sim::TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find("I/O error reading"), std::string::npos)
        << e.what();
  }
}

std::atomic<int> g_eintr_signals{0};
void eintr_probe_handler(int) { g_eintr_signals.fetch_add(1, std::memory_order_relaxed); }

TEST_F(ByteReaderResilienceTest, SurvivesEintrAndShortReadsOnAFifo) {
  const fs::path fifo = dir_ / "pipe";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  // Install a no-SA_RESTART handler so blocked reads really return EINTR.
  struct sigaction sa {};
  sa.sa_handler = eintr_probe_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  std::string payload;
  payload.reserve(64 * 1024);
  for (std::size_t i = 0; payload.size() < 64 * 1024; ++i)
    payload.push_back(static_cast<char>('A' + (i * 31) % 23));

  const pthread_t reader_thread = ::pthread_self();
  std::atomic<bool> done{false};
  const int signals_before = g_eintr_signals.load();

  // Writer: dribble the payload through the FIFO in odd-sized chunks with
  // pauses, so the reader sees short reads and blocks mid-stream. It opens
  // its end only after several signals, so the reader's open of the FIFO
  // blocks first and is interrupted too.
  std::thread writer([&] {
    while (g_eintr_signals.load() < signals_before + 8) std::this_thread::yield();
    const int fd = ::open(fifo.c_str(), O_WRONLY);  // rendezvous with the reader
    if (fd < 0) return;
    const char* p = payload.data();
    std::size_t left = payload.size();
    std::size_t chunk_no = 0;
    while (left > 0) {
      const std::size_t chunk = std::min<std::size_t>(997, left);
      std::size_t off = 0;
      while (off < chunk) {
        const ::ssize_t n = ::write(fd, p + off, chunk - off);
        if (n < 0) {
          if (errno == EINTR) continue;
          break;
        }
        off += static_cast<std::size_t>(n);
      }
      p += chunk;
      left -= chunk;
      if (++chunk_no % 8 == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ::close(fd);
  });

  // Pinger: pepper the reading thread with signals for the whole read.
  std::thread pinger([&] {
    while (!done.load(std::memory_order_relaxed)) {
      ::pthread_kill(reader_thread, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  std::string got;
  got.reserve(payload.size());
  {
    sim::ByteReader in(fifo.string(), 4096);
    for (int c = in.get(); c != sim::ByteReader::kEof; c = in.get())
      got.push_back(static_cast<char>(c));
  }
  done.store(true, std::memory_order_relaxed);
  pinger.join();
  writer.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);

  EXPECT_EQ(got.size(), payload.size());
  EXPECT_EQ(got, payload) << "EINTR or a short read dropped or duplicated bytes";
  EXPECT_GT(g_eintr_signals.load(), 0) << "the test never actually delivered a signal";
}

// ---------------------------------------------------------------------------
// RunJournal
// ---------------------------------------------------------------------------

class JournalTest : public ScratchDirTest {
 protected:
  std::vector<runner::RunSpec> jobs_ = tiny_matrix().expand();
};

TEST_F(JournalTest, RecordsRoundTripAndAssembleTheFinalCsv) {
  runner::RunJournal j(dir_, jobs_, /*resume=*/false);
  ASSERT_EQ(j.size(), jobs_.size());
  EXPECT_EQ(j.num_complete(), 0u);
  std::string expected_body;
  for (std::size_t pos = 0; pos < j.size(); ++pos) {
    const std::string rows = "row-" + std::to_string(pos) + "\n";
    j.record(pos, rows);
    EXPECT_TRUE(j.complete(pos));
    EXPECT_EQ(j.rows(pos), rows) << "record must validate and round-trip";
    expected_body += rows;
  }
  EXPECT_EQ(j.num_complete(), jobs_.size());
  std::ostringstream os;
  j.write_final_csv(os);
  const auto& header = runner::sweep_csv_header();
  std::string expected = header[0];
  for (std::size_t i = 1; i < header.size(); ++i) expected += "," + header[i];
  expected += "\n" + expected_body;
  EXPECT_EQ(os.str(), expected);
}

TEST_F(JournalTest, ResumeMarksOnlyDurablyRecordedJobsComplete) {
  {
    runner::RunJournal j(dir_, jobs_, false);
    j.record(0, "only-job-zero\n");
  }
  // A stray in-flight tmp (what a SIGKILL leaves behind) must be ignored.
  std::ofstream(dir_ / "job-1.rec.tmp.12345") << "torn write";
  runner::RunJournal r(dir_, jobs_, /*resume=*/true);
  EXPECT_TRUE(r.complete(0));
  EXPECT_FALSE(r.complete(1));
  EXPECT_EQ(r.num_complete(), 1u);
  EXPECT_EQ(r.rows(0), "only-job-zero\n");
}

TEST_F(JournalTest, FreshModeRefusesAnExistingJournal) {
  runner::RunJournal first(dir_, jobs_, false);
  try {
    runner::RunJournal second(dir_, jobs_, false);
    FAIL() << "silently reusing a journal directory would clobber progress";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos) << e.what();
  }
}

TEST_F(JournalTest, ResumeWithoutAManifestFailsActionably) {
  try {
    runner::RunJournal j(dir_, jobs_, true);
    FAIL() << "resume of a never-started sweep must fail";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("start the sweep once"), std::string::npos)
        << e.what();
  }
}

TEST_F(JournalTest, ResumeRejectsAJournalFromADifferentSweep) {
  { runner::RunJournal j(dir_, jobs_, false); }
  auto other = tiny_matrix();
  other.seed = 100;  // different seed => different jobs => different fingerprint
  try {
    runner::RunJournal j(dir_, other.expand(), true);
    FAIL() << "a stale journal must not silently poison a new sweep";
  } catch (const InvariantError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("different sweep"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fingerprint"), std::string::npos) << msg;
  }
}

TEST_F(JournalTest, CorruptRecordsAreRejectedWithTheFileNamed) {
  fs::path record0;
  {
    runner::RunJournal j(dir_, jobs_, false);
    j.record(0, "good rows\n");
    record0 = j.record_path(0);
  }
  std::ofstream(record0, std::ios::binary | std::ios::app) << "trailing garbage";
  try {
    runner::RunJournal j(dir_, jobs_, true);
    FAIL() << "a corrupt record must fail validation on resume";
  } catch (const InvariantError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(record0.filename().string()), std::string::npos) << msg;
    EXPECT_NE(msg.find("remove it to re-run that job"), std::string::npos) << msg;
  }
}

TEST_F(JournalTest, MutatedRecordsLoadIdenticallyOrFailNamingTheFile) {
  // A real journaled sweep, then seeded byte flips, truncations and
  // extensions of its MANIFEST and of one record, one mutant at a time. A
  // resume must either load every job and assemble the original CSV byte for
  // byte, or refuse with an InvariantError that names the mutated file.
  const fs::path journal = dir_ / "journal";
  runner::SweepOptions opts = serial_opts();
  opts.journal_dir = journal.string();
  const std::string csv = run_csv(tiny_matrix(), opts);
  Rng rng(32'017);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (const fs::path& target : {journal / "MANIFEST", journal / "job-1.rec"}) {
    const std::string original = slurp(target);
    for (int m = 0; m < 1000; ++m) {
      AtomicFile::write_file(target, testing::mutate_bytes(original, rng));
      try {
        const runner::RunJournal j(journal, jobs_, /*resume=*/true);
        ASSERT_EQ(j.num_complete(), jobs_.size()) << target << " mutant " << m;
        std::ostringstream os;
        j.write_final_csv(os);
        ASSERT_EQ(os.str(), csv) << target << " mutant " << m;
        ++loaded;
      } catch (const InvariantError& e) {
        ASSERT_NE(std::string(e.what()).find(target.string()), std::string::npos)
            << target << " mutant " << m << ": " << e.what();
        ++rejected;
      }
    }
    AtomicFile::write_file(target, original);
  }
  // Both outcomes must occur (an extended MANIFEST still loads), or the
  // mutator is not exercising anything.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 1000u);
}

TEST(JobsFingerprint, CoversIdentityButNotPerformanceKnobs) {
  const auto jobs = tiny_matrix().expand();
  auto resharded = jobs;
  for (auto& j : resharded) j.sim_threads = 8;
  EXPECT_EQ(runner::jobs_fingerprint(jobs), runner::jobs_fingerprint(resharded))
      << "sim_threads is a performance knob, not job identity";
  auto reseeded = jobs;
  reseeded[0].seed ^= 1;
  EXPECT_NE(runner::jobs_fingerprint(jobs), runner::jobs_fingerprint(reseeded));
}

// ---------------------------------------------------------------------------
// Supervision: failed jobs stop the sweep; real failures, then --resume
// ---------------------------------------------------------------------------

/// Run `m` journaled in `journal` after `fault` breaks it: the sweep must fail
/// with `expected` (the failed job's key and the error) and publish no CSV.
/// After `repair`, --resume must reproduce the fault-free CSV byte for byte.
template <class Fault, class Repair>
void expect_failure_then_resume_is_byte_identical(const runner::RunMatrix& m,
                                                  const fs::path& journal, Fault&& fault,
                                                  const std::string& expected,
                                                  Repair&& repair) {
  const std::string baseline = run_csv(m, serial_opts());
  fault();
  runner::SweepOptions opts = serial_opts();
  opts.journal_dir = journal.string();
  std::ostringstream os;
  try {
    runner::SweepExecutor(opts).run_csv(m.expand(), os);
    FAIL() << "the sweep succeeded: the resume below would prove nothing";
  } catch (const InvariantError& e) {
    EXPECT_EQ(std::string(e.what()).rfind(expected, 0), 0u) << e.what();
  }
  EXPECT_EQ(os.str(), "") << "a failed sweep must publish nothing";
  repair();
  opts.resume = true;
  EXPECT_EQ(run_csv(m, opts), baseline)
      << "a resumed sweep must not change a single output byte";
}

class SupervisionTest : public ScratchDirTest {};

TEST_F(SupervisionTest, RecordWriteFailureThenResumeYieldsByteIdenticalCsv) {
  // Job 1's record path is taken by a directory: job 0 is journaled, job 1's
  // commit is refused, and the resume re-runs job 1 only.
  const auto m = tiny_matrix();
  const auto jobs = m.expand();
  const fs::path journal = dir_ / "journal";
  const fs::path record1 = journal / "job-1.rec";
  expect_failure_then_resume_is_byte_identical(
      m, journal, [&] { fs::create_directories(record1); },
      "job " + jobs[1].key() + ": cannot write '" + record1.string() +
          "': not a regular file",
      [&] {
        EXPECT_TRUE(fs::is_regular_file(journal / "job-0.rec"));
        fs::remove(record1);
      });
}

TEST_F(SupervisionTest, FailedJobErrorNamesTheJobAndTheFault) {
  // A fresh sweep accepts a journal directory without a MANIFEST; job 0's
  // record path taken by a directory fails that job, and a --resume that
  // still finds the directory there refuses it by name.
  const auto m = tiny_matrix();
  const fs::path journal = dir_ / "journal";
  const fs::path record0 = journal / "job-0.rec";
  fs::create_directories(record0);
  runner::SweepOptions opts = serial_opts();
  opts.journal_dir = journal.string();
  try {
    (void)run_csv(m, opts);
    FAIL() << "a record path taken by a directory must fail the sweep";
  } catch (const InvariantError& e) {
    EXPECT_EQ(std::string(e.what()), "job " + m.expand()[0].key() + ": cannot write '" +
                                         record0.string() + "': not a regular file");
  }
  opts.resume = true;
  try {
    (void)run_csv(m, opts);
    FAIL() << "--resume must refuse a record path that is a directory";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(record0.string()), std::string::npos) << e.what();
  }
}

TEST_F(SupervisionTest, ResumeAfterLostRecordsIsByteIdentical) {
  const auto m = tiny_matrix();
  const std::string baseline = run_csv(m, serial_opts());
  const std::string journal = (dir_ / "journal").string();

  runner::SweepOptions first;
  first.threads = 1;
  first.journal_dir = journal;
  ASSERT_EQ(run_csv(m, first), baseline);

  // Lose one record (as if the process died before it committed), then resume.
  runner::RunJournal j(journal, m.expand(), /*resume=*/true);
  AtomicFile::remove_file(j.record_path(0));

  runner::SweepOptions second;
  second.threads = 1;
  second.journal_dir = journal;
  second.resume = true;
  EXPECT_EQ(run_csv(m, second), baseline)
      << "a resumed sweep must reproduce the uninterrupted CSV byte-for-byte";
}

TEST_F(SupervisionTest, WorkerFaultsFireInsideShardedRuns) {
  // A torn trace read by the front-end producers of a pipelined job fails it
  // with the serial run's TraceError, raised where the replay reaches the
  // torn record.
  auto jobs = trace_matrix(dir_ / "a.trace").expand();
  const std::string expected = tear_last_record(dir_ / "a.trace");
  for (const std::uint32_t k : {1u, 2u}) {
    jobs[0].sim_threads = k;
    try {
      (void)runner::execute(jobs[0]);
      FAIL() << "a torn trace must fail the job @" << k;
    } catch (const sim::TraceError& e) {
      EXPECT_EQ(std::string(e.what()).rfind(expected, 0), 0u) << "@" << k << ": " << e.what();
    }
  }
}

class TraceFaultTest : public ScratchDirTest {};

TEST_F(TraceFaultTest, TornTraceFailsTheJobWithANamedTraceError) {
  const auto jobs = trace_matrix(dir_ / "a.trace").expand();
  ASSERT_NO_THROW((void)runner::execute(jobs[0]));
  const std::string expected = tear_last_record(dir_ / "a.trace");
  try {
    (void)runner::execute(jobs[0]);
    FAIL() << "a torn trace must fail the job at the end of its first lap";
  } catch (const sim::TraceError& e) {
    EXPECT_EQ(std::string(e.what()), expected + " (EOF inside a varint)");
  }
}

TEST_F(TraceFaultTest, ReadFaultThenResumeYieldsByteIdenticalCsv) {
  // Tear the trace, fail the sweep at its first job, restore the file and
  // resume.
  const fs::path trace = dir_ / "a.trace";
  const auto m = trace_matrix(trace);
  const std::string intact = slurp(trace);
  expect_failure_then_resume_is_byte_identical(
      m, dir_ / "journal", [&] { (void)tear_last_record(trace); },
      "job " + m.expand()[0].key() + ": trace file '" + trace.string() +
          "': truncated record at byte " + std::to_string(intact.size() - 1),
      [&] { AtomicFile::write_file(trace, intact); });
}

}  // namespace
}  // namespace plrupart
