// The resilience layer's contracts: deterministic fault injection (spec
// grammar, pure-function plans, site instrumentation), crash-safe file
// publication (AtomicFile), the run journal behind --journal/--resume
// (validation, corruption rejection, byte-identical reassembly), failed jobs
// that stop the sweep, fault-then-resume recovery, and the ByteReader
// EINTR/short-read regression.
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
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.hpp"
#include "plrupart/common/fault_inject.hpp"
#include "plrupart/runner/journal.hpp"
#include "plrupart/runner/run_spec.hpp"
#include "plrupart/runner/sweep_executor.hpp"
#include "plrupart/sim/trace_codec.hpp"
#include "plrupart/sim/trace_file.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
#include "plrupart/workloads/trace_workload.hpp"
#include "plrupart/workloads/workload_table.hpp"

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

// ---------------------------------------------------------------------------
// FaultSpec / FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesSitesAndProbabilities) {
  const auto s = FaultSpec::parse("read:0.25,worker:1");
  EXPECT_DOUBLE_EQ(s.of(FaultSite::kRead), 0.25);
  EXPECT_DOUBLE_EQ(s.of(FaultSite::kWrite), 0.0);
  EXPECT_DOUBLE_EQ(s.of(FaultSite::kWorker), 1.0);
  EXPECT_TRUE(s.any());
  EXPECT_FALSE(FaultSpec{}.any());
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", "read", "read:", "read:abc", "read:1.5", "read:-0.1",
                          "frobnicate:0.5", "read:0.1,read:0.2", "read:0.1,,write:0.1"}) {
    EXPECT_THROW((void)FaultSpec::parse(bad), InvariantError) << "spec: '" << bad << "'";
  }
}

TEST(FaultPlan, DecisionsArePureFunctionsOfSeedSiteLaneCounter) {
  FaultSpec spec;
  spec.probability[static_cast<std::size_t>(FaultSite::kRead)] = 0.5;
  const FaultPlan plan(spec, 7);
  std::vector<bool> first, second, other_seed, other_lane;
  const FaultPlan plan8(spec, 8);
  for (std::uint64_t c = 0; c < 512; ++c) {
    first.push_back(plan.should_fire(FaultSite::kRead, c));
    second.push_back(plan.should_fire(FaultSite::kRead, c));
    other_seed.push_back(plan8.should_fire(FaultSite::kRead, c));
    other_lane.push_back(plan.should_fire(FaultSite::kRead, c, 1));
  }
  EXPECT_EQ(first, second) << "replaying the same plan must give the same decisions";
  EXPECT_NE(first, other_seed) << "a different seed must give a different sequence";
  EXPECT_NE(first, other_lane) << "lanes must be decorrelated";
}

TEST(FaultPlan, ExtremeProbabilitiesAndApproximateRate) {
  FaultSpec spec;
  spec.probability[static_cast<std::size_t>(FaultSite::kWrite)] = 1.0;
  spec.probability[static_cast<std::size_t>(FaultSite::kWorker)] = 0.25;
  const FaultPlan plan(spec, 3);
  std::size_t fires = 0;
  for (std::uint64_t c = 0; c < 4096; ++c) {
    EXPECT_TRUE(plan.should_fire(FaultSite::kWrite, c));
    EXPECT_FALSE(plan.should_fire(FaultSite::kRead, c)) << "p=0 must never fire";
    if (plan.should_fire(FaultSite::kWorker, c)) ++fires;
  }
  EXPECT_GT(fires, 4096 * 0.18);
  EXPECT_LT(fires, 4096 * 0.32);
}

TEST(FaultPlan, MaybeThrowNamesSiteContextAndCoordinates) {
  FaultSpec spec;
  spec.probability[static_cast<std::size_t>(FaultSite::kWorker)] = 1.0;
  const FaultPlan plan(spec, 11);
  try {
    plan.maybe_throw(FaultSite::kWorker, 5, 2, "shard worker 2/4");
    FAIL() << "p=1 plan must fire";
  } catch (const InjectedFault& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("injected worker fault"), std::string::npos) << msg;
    EXPECT_NE(msg.find("shard worker 2/4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("opportunity 5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("lane 2"), std::string::npos) << msg;
  }
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

TEST_F(AtomicFileTest, InjectedWriteFaultLeavesDirectoryUntouched) {
  FaultSpec spec;
  spec.probability[static_cast<std::size_t>(FaultSite::kWrite)] = 1.0;
  const FaultPlan plan(spec, 1);
  AtomicFile f(dir_ / "out.csv");
  f.arm_fault(&plan, 0);
  f.stream() << "doomed";
  EXPECT_THROW(f.commit(), InjectedFault);
  EXPECT_FALSE(f.committed());
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 0u) << "a failed commit must publish nothing, not even a tmp";
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
// ByteReader: injected read faults, real I/O errors, EINTR/short reads
// ---------------------------------------------------------------------------

class ByteReaderResilienceTest : public ScratchDirTest {};

TEST_F(ByteReaderResilienceTest, InjectedReadFaultThrowsWithLaneAndContext) {
  const fs::path file = dir_ / "bytes";
  AtomicFile::write_file(file, std::string(256, 'x'));
  FaultSpec spec;
  spec.probability[static_cast<std::size_t>(FaultSite::kRead)] = 1.0;
  sim::ByteReader in(file.string(), 64);
  in.set_fault_plan(std::make_shared<FaultPlan>(spec, 5), 3);
  try {
    (void)in.get();
    FAIL() << "p=1 read plan must fire on the first refill";
  } catch (const InjectedFault& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("injected read fault"), std::string::npos) << msg;
    EXPECT_NE(msg.find("lane 3"), std::string::npos) << msg;
  }
}

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
// Supervision: the watchdog, and fault-then-resume byte identity
// ---------------------------------------------------------------------------

/// Run `m` journaled in `journal` under `faults`: the sweep must fail with the
/// `site` fault named. Then --resume without faults must reproduce the
/// fault-free CSV byte for byte.
void expect_fault_then_resume_is_byte_identical(const runner::RunMatrix& m,
                                                const std::string& faults,
                                                const std::string& site,
                                                const fs::path& journal) {
  const std::string baseline = run_csv(m, serial_opts());
  runner::SweepOptions opts = serial_opts();
  opts.journal_dir = journal.string();
  opts.faults = FaultSpec::parse(faults);
  opts.fault_seed = m.seed;
  try {
    (void)run_csv(m, opts);
    FAIL() << "'" << faults << "' fired no fault: the resume below would prove nothing";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("injected " + site + " fault"), std::string::npos)
        << e.what();
  }
  opts.faults = FaultSpec{};
  opts.resume = true;
  EXPECT_EQ(run_csv(m, opts), baseline)
      << "a resumed sweep must not change a single output byte";
}

class SupervisionTest : public ScratchDirTest {};

TEST_F(SupervisionTest, InjectedWriteFaultThenResumeYieldsByteIdenticalCsv) {
  expect_fault_then_resume_is_byte_identical(tiny_matrix(), "write:0.5", "write",
                                             dir_ / "journal");
}

TEST_F(SupervisionTest, FailedJobErrorNamesTheJobAndTheFault) {
  const auto m = tiny_matrix();
  runner::SweepOptions opts;
  opts.threads = 1;
  opts.journal_dir = (dir_ / "journal").string();
  opts.faults = FaultSpec::parse("write:1");  // the first job's record fails
  std::ostringstream os;
  try {
    runner::SweepExecutor(opts).run_csv(m.expand(), os);
    FAIL() << "a p=1 write fault must fail the sweep";
  } catch (const InvariantError& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("job " + m.expand()[0].key() + ": ", 0), 0u) << msg;
    EXPECT_NE(msg.find("injected write fault"), std::string::npos) << msg;
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
  auto jobs = tiny_matrix().expand();
  jobs[0].sim_threads = 2;
  FaultSpec spec;
  spec.probability[static_cast<std::size_t>(FaultSite::kWorker)] = 1.0;
  try {
    (void)runner::execute(jobs[0], std::make_shared<FaultPlan>(spec, 17));
    FAIL() << "a p=1 worker plan must fail the first op the replay reads";
  } catch (const InjectedFault& e) {
    EXPECT_NE(std::string(e.what()).find("injected worker fault"), std::string::npos)
        << e.what();
  }
}

class TraceFaultTest : public ScratchDirTest {
 protected:
  [[nodiscard]] runner::RunMatrix trace_matrix() const {
    const auto trace_path = (dir_ / "a.trace").string();
    const auto trace = workloads::make_trace(workloads::benchmark("gzip"), 0, 5);
    sim::write_trace_file(trace_path, sim::record_trace(*trace, 30'000),
                          sim::TraceFormat::kBinaryV2);
    runner::RunMatrix m;
    m.configs = {"NOPART-L"};
    m.workloads = {workloads::workload_from_traces({trace_path})};
    m.l2_kb = {128};
    m.l1d = cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
    m.instr = 20'000;
    m.warmup = 5'000;
    m.interval_cycles = 40'000;
    m.sampling_ratio = 8;
    m.seed = 99;
    return m;
  }
};

TEST_F(TraceFaultTest, ReadFaultsReachTheTraceStream) {
  const auto jobs = trace_matrix().expand();
  FaultSpec spec;
  spec.probability[static_cast<std::size_t>(FaultSite::kRead)] = 1.0;
  EXPECT_THROW((void)runner::execute(jobs[0], std::make_shared<FaultPlan>(spec, 23)),
               InjectedFault);
}

TEST_F(TraceFaultTest, ReadFaultThenResumeYieldsByteIdenticalCsv) {
  expect_fault_then_resume_is_byte_identical(trace_matrix(), "read:0.5", "read",
                                             dir_ / "journal");
}

}  // namespace
}  // namespace plrupart
