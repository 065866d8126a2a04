// real_commit: one op is one transaction on the real-I/O stack, timed
// from BeginTransaction to its on_durable acknowledgement.
//
// Stack: the EL manager from core::MakeLogManager on a
// core::WallClockExecutor, writing through a wall-clock-mode
// disk::FileLogDevice with durable_sync on (pwrite + fdatasync per
// block, CRC-framed). The WAL is a memfd — an anonymous tmpfs file,
// opened through /proc/self/fd — so every write is real and synced, yet
// the device is memory and nothing lands outside the process. The run
// refuses to start when statfs does not report a memory file system:
// real-disk fdatasync times moved by 45% between identical runs on a
// shared machine, which no bound could absorb. Figures are the
// sandbox's latencies, not a device's.
//
// Load: a closed loop of four logical clients on the executor thread,
// each doing BEGIN, two 100-byte updates and COMMIT, then waiting for
// the acknowledgement before its next transaction. Each client draws its
// objects from its own residue class, so no two in-flight transactions
// share an object. max_hold_us = 1 writes an open buffer a microsecond
// after its first record, so the program's path, not a timer, sets the
// latency. Threads: the executor (this thread) and the device worker,
// both pinned to one CPU. The executor is busy-polled and yields to the
// worker between polls, so a handoff between the two is a context switch
// on a running CPU. Left to block, each handoff waited for an idle vCPU
// to be woken; on a shared VM that wake-up alone doubled the commit p50
// (15 to 25 us) for minutes at a time, depending on the host's load.
//
// A run is a series of one-second sessions, each on a fresh stack (its
// own memfd WAL, executor and worker thread) warmed up by one
// transaction, so one unlucky thread placement moves a second of the
// run, not all of it.
//
// End check, per session: after the last acknowledgement the executor
// runs to idle, the WAL is read back with disk::RecoverFromFile, and
// db::RecoveryManager::Recover over it and the versions flushed so far
// (gathered through the manager's flush hook) must yield exactly the
// acknowledged versions (gathered through its commit hook).

#include <sched.h>
#include <sys/mman.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "core/manager_factory.h"
#include "core/wall_executor.h"
#include "db/recovery.h"
#include "db/stable_store.h"
#include "disk/drive_array.h"
#include "disk/file_format.h"
#include "disk/file_log_device.h"
#include "layers.h"
#include "util/random.h"
#include "wal/block_format.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace elog;

constexpr uint32_t kClients = 4;
constexpr Oid kObjects = 1 << 16;
constexpr uint32_t kFlushDrives = 4;
constexpr size_t kPlanPerClient = 1 << 18;
constexpr uint32_t kRecordBytes = 100;
constexpr int kSetupRepeats = 3;
/// Over 100k ops/s: thousands of ops lie beyond p99 in any run.
constexpr double kTailPercentile = 99.0;
/// Sizes the latency buffer: well above the ~170k/s this stack reaches.
constexpr double kMaxCommitsPerSecond = 400000.0;
/// A run is a series of sessions of this length, each on a fresh stack.
constexpr double kSessionSeconds = 1.0;
constexpr int64_t kTmpfsMagic = 0x01021994;
constexpr int64_t kRamfsMagic = 0x858458f6;

/// The WAL's backing file: a memfd, reached by path so FileLogDevice and
/// RecoverFromFile open it like any WAL file.
class MemoryWal {
 public:
  MemoryWal() : fd_(memfd_create("perfbench-wal", MFD_CLOEXEC)) {
    if (fd_ >= 0) path_ = "/proc/self/fd/" + std::to_string(fd_);
  }
  ~MemoryWal() {
    if (fd_ >= 0) close(fd_);
  }
  MemoryWal(const MemoryWal&) = delete;
  MemoryWal& operator=(const MemoryWal&) = delete;

  /// True when the file system under the path is tmpfs or ramfs.
  bool MemoryBacked() const {
    struct statfs info;
    if (fd_ < 0 || statfs(path_.c_str(), &info) != 0) return false;
    const int64_t type = static_cast<int64_t>(info.f_type);
    return type == kTmpfsMagic || type == kRamfsMagic;
  }
  const std::string& path() const { return path_; }

 private:
  int fd_;
  std::string path_;
};

struct Pair {
  uint32_t a;
  uint32_t b;
};

/// Fills, per client, a cyclic list of object pairs from the client's
/// residue class modulo kClients, two distinct objects per transaction.
/// Rebuilding reuses the vectors, so it allocates nothing.
void MakePlan(uint64_t seed, std::vector<std::vector<Pair>>* plan) {
  plan->resize(kClients);
  const uint64_t per_client = kObjects / kClients;
  for (uint32_t c = 0; c < kClients; ++c) {
    Rng rng(DeriveSeed(seed, c));
    (*plan)[c].resize(kPlanPerClient);
    for (Pair& pair : (*plan)[c]) {
      const uint64_t a = rng.NextBounded(per_client);
      uint64_t b = rng.NextBounded(per_client - 1);
      if (b >= a) ++b;
      pair.a = static_cast<uint32_t>(a * kClients + c);
      pair.b = static_cast<uint32_t>(b * kClients + c);
    }
  }
}

/// Per-layer samples of the traced sessions, in microseconds.
struct LayerSamples {
  std::vector<double> call_us;
  std::vector<double> hold_us;
  std::vector<double> write_us;
  std::vector<double> ack_us;
  int64_t block_writes = 0;
  int64_t framed_bytes = 0;
  std::unordered_map<TxId, int64_t> commit_entry_ns;
  int64_t last_completion_ns = 0;
};

/// The timed transactions of a run, across its sessions. The latency
/// buffer is sized and touched during set-up so the run's resident memory
/// does not depend on its throughput.
struct Recording {
  std::vector<double> latencies_ms;
  size_t recorded = 0;
  int64_t started = 0;
  int64_t timed_ns = 0;
  /// timed_ns with each session scaled to the nominal host speed.
  double scaled_s = 0.0;
  bool full() const { return recorded == latencies_ms.size(); }
};

/// Restricts this thread, and the threads it creates from now on (the
/// device workers), to the highest-numbered CPU it may use.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

class CountKills final : public KillListener {
 public:
  void OnTransactionKilled(TxId) override { ++kills; }
  int64_t kills = 0;
};

/// One real-I/O stack — its own executor, device worker thread and
/// freshly truncated WAL — plus the closed-loop clients driving it.
/// Members are declared in dependency order so destruction runs managers
/// before devices and the executor last.
class Session {
 public:
  Session(const MemoryWal& wal, const std::vector<std::vector<Pair>>* plan,
          size_t* cursors, Recording* recording, SpanRecorder* recorder,
          LayerSamples* samples)
      : plan_(plan),
        cursors_(cursors),
        recording_(recording),
        recorder_(recorder),
        samples_(samples) {
    LogManagerOptions options;
    options.generation_blocks = {32, 32};
    options.recirculation = true;
    options.max_hold_us = 1;
    options.num_flush_drives = kFlushDrives;
    options.num_objects = kObjects;
    options.flush_transfer_time = 1;
    drives_ = std::make_unique<disk::DriveArray>(
        &executor_, kFlushDrives, kObjects, options.flush_transfer_time,
        &metrics_);
    disk::FileLogDeviceOptions file;
    file.path = wal.path();
    file.model_latency = 0;  // wall-clock completions
    file.durable_sync = true;
    file.direct_io = true;
    file.truncate = true;
    auto opened = disk::FileLogDevice::Open(
        &executor_, options.generation_blocks, file);
    ELOG_CHECK(opened.ok()) << opened.status().message();
    device_ = std::move(opened).value();
    port_ = std::make_unique<TimedPort>(device_.get(), recorder);
    managers_ = MakeLogManager(
        ManagerKind::kEphemeral, options, &executor_,
        recorder != nullptr ? static_cast<disk::LogWritePort*>(port_.get())
                            : device_.get(),
        drives_.get(), &metrics_);
    sink_ = std::make_unique<TimedSink>(managers_.manager.get(), recorder);
    managers_.manager->set_kill_listener(&kills_);
    managers_.manager->set_flush_apply_hook(
        [this](Oid oid, Lsn lsn, uint64_t digest) {
          stable_.ApplyFlush(oid, lsn, digest);
        });
    acked_.resize(kObjects);
    managers_.manager->set_commit_hook(
        [this](TxId, const std::vector<wal::LogRecord>& updates) {
          for (const wal::LogRecord& record : updates) {
            db::ObjectVersion& version = acked_[record.oid];
            if (record.lsn > version.lsn) {
              version.lsn = record.lsn;
              version.value_digest = record.value_digest;
            }
          }
        });
    if (recorder != nullptr) Instrument();
    type_.name = "real_commit";
    type_.num_data_records = 2;
    type_.data_record_bytes = kRecordBytes;
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool direct_io_active() const { return device_->direct_io_active(); }

  /// One unrecorded transaction from client 0, run to acknowledgement.
  void WarmUp() {
    deadline_ns_ = 0;
    Start(0);
    executor_.Run();
  }

  /// Runs the closed loop for `seconds` (or until the latency buffer is
  /// full), recording every transaction, then lets the executor drain to
  /// idle.
  void RunFor(double seconds) {
    recording_on_ = true;
    const int64_t first_begin_ns = NowNs();
    deadline_ns_ = first_begin_ns + static_cast<int64_t>(seconds * 1e9);
    active_clients_ = kClients;
    for (uint32_t c = 0; c < kClients; ++c) {
      executor_.ScheduleAfter(0, [this, c] { Start(c); });
    }
    // Busy-poll the executor, yielding the CPU to the device worker
    // between polls, until every client has stopped; then drain to idle.
    while (active_clients_ > 0) {
      executor_.RunUntil(executor_.Now());
      sched_yield();
    }
    executor_.Run();
    recording_on_ = false;
    recording_->timed_ns += last_ack_ns_ - first_begin_ns;
  }

  /// End-of-session check, with the executor idle: no kills, every begun
  /// transaction acknowledged, and recovery from the WAL read back plus
  /// the flushed versions yields exactly the acknowledged versions.
  bool Check(const std::string& path) const {
    if (kills_.kills != 0 || begun_ != acked_count_) {
      std::fprintf(stderr, "real_commit: %lld kills, %lld of %lld "
                   "transactions acknowledged\n",
                   static_cast<long long>(kills_.kills),
                   static_cast<long long>(acked_count_),
                   static_cast<long long>(begun_));
      return false;
    }
    disk::FileRecoveryResult file = disk::RecoverFromFile(path);
    if (!file.status.ok() || file.stopped_early) {
      std::fprintf(stderr, "real_commit: WAL read-back failed: %s%s\n",
                   file.status.message().c_str(), file.stop_reason.c_str());
      return false;
    }
    const db::RecoveryResult recovered =
        db::RecoveryManager::Recover(file.storage, stable_);
    size_t acked_objects = 0;
    for (Oid oid = 0; oid < kObjects; ++oid) {
      const db::ObjectVersion& want = acked_[oid];
      if (want.lsn == 0) continue;  // never acknowledged
      ++acked_objects;
      auto it = recovered.state.find(oid);
      if (it == recovered.state.end() || it->second.lsn != want.lsn ||
          it->second.value_digest != want.value_digest) {
        std::fprintf(stderr, "real_commit: acknowledged update of object "
                     "%llu not recovered\n",
                     static_cast<unsigned long long>(oid));
        return false;
      }
    }
    if (recovered.state.size() != acked_objects) {
      std::fprintf(stderr, "real_commit: recovered %zu objects, %zu were "
                   "acknowledged\n", recovered.state.size(), acked_objects);
      return false;
    }
    return true;
  }

 private:
  void Instrument() {
    sink_->on_commit_entry = [this](TxId tid, int64_t now) {
      if (!recording_on_) return;
      samples_->commit_entry_ns[tid] = now;
    };
    port_->on_submit = [this](const disk::LogWriteRequest& request,
                              int64_t now) {
      if (!recording_on_) return;
      ++samples_->block_writes;
      samples_->framed_bytes +=
          static_cast<int64_t>(disk::FrameBytes(request.image));
      if (request.address.generation != 0) return;
      if (!wal::DecodeBlockInto(request.image, &decoded_).ok()) return;
      for (const wal::LogRecord& record : decoded_.records) {
        if (record.type != wal::RecordType::kCommit) continue;
        auto it = samples_->commit_entry_ns.find(record.tid);
        if (it == samples_->commit_entry_ns.end()) continue;
        samples_->hold_us.push_back(NsToUs(now - it->second));
        recorder_->Record("core.hold", 2, it->second, now);
        samples_->commit_entry_ns.erase(it);
      }
    };
    port_->on_complete_entry = [this](int64_t submitted, int64_t entry) {
      if (!recording_on_) return;
      samples_->write_us.push_back(NsToUs(entry - submitted));
      recorder_->Record("disk.write", 3, submitted, entry);
      samples_->last_completion_ns = entry;
    };
  }

  void Start(uint32_t c) {
    const Pair& pair = (*plan_)[c][cursors_[c]++ % kPlanPerClient];
    workload::TransactionSink* sink =
        recorder_ != nullptr
            ? static_cast<workload::TransactionSink*>(sink_.get())
            : managers_.manager.get();
    int64_t calls_before = 0;
    if (recorder_ != nullptr) {
      calls_before = recorder_->totals("core.sink").total_ns;
      recorder_->set_op(static_cast<int64_t>(recording_->recorded));
    }
    ++begun_;
    if (recording_on_) ++recording_->started;
    begin_ns_[c] = NowNs();
    const TxId tid = sink->BeginTransaction(type_);
    sink->WriteUpdate(tid, pair.a, kRecordBytes);
    sink->WriteUpdate(tid, pair.b, kRecordBytes);
    sink->Commit(tid, [this, c](TxId) { OnDurable(c); });
    if (recorder_ != nullptr && recording_on_) {
      samples_->call_us.push_back(NsToUs(
          recorder_->totals("core.sink").total_ns - calls_before));
    }
  }

  void OnDurable(uint32_t c) {
    const int64_t now = NowNs();
    ++acked_count_;
    if (recording_on_) {
      recording_->latencies_ms[recording_->recorded++] =
          NsToMs(now - begin_ns_[c]);
      last_ack_ns_ = now;
      if (recorder_ != nullptr) {
        samples_->ack_us.push_back(NsToUs(now - samples_->last_completion_ns));
        recorder_->Record("core.ack", 4, samples_->last_completion_ns, now);
      }
    }
    if (now >= deadline_ns_ || recording_->full()) {
      --active_clients_;
      return;
    }
    executor_.ScheduleAfter(0, [this, c] { Start(c); });
  }

  const std::vector<std::vector<Pair>>* plan_;
  size_t* cursors_;
  Recording* recording_;
  SpanRecorder* recorder_;
  LayerSamples* samples_;
  workload::TransactionType type_;
  wal::DecodedBlock decoded_;
  int64_t begin_ns_[kClients] = {};
  bool recording_on_ = false;
  uint32_t active_clients_ = 0;
  int64_t begun_ = 0;
  int64_t acked_count_ = 0;
  int64_t deadline_ns_ = 0;
  int64_t last_ack_ns_ = 0;
  std::vector<db::ObjectVersion> acked_;
  db::StableStore stable_;
  CountKills kills_;

  core::WallClockExecutor executor_;
  sim::MetricsRegistry metrics_;
  std::unique_ptr<disk::DriveArray> drives_;
  std::unique_ptr<disk::FileLogDevice> device_;
  std::unique_ptr<TimedPort> port_;
  LogManagerSet managers_;
  std::unique_ptr<TimedSink> sink_;
};

double QuantileOf(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return Quantile(values, q);
}

/// Builds the stack of each session. A build is the set-up: a fresh
/// memfd WAL (statfs-checked), the op plan (a function of the seed, so
/// rebuilding it changes nothing), and a new stack warmed up by one
/// transaction. Every build is timed and setup_s is their median, so
/// set-up is sampled across the whole run, not only in its first moment.
class SetUp {
 public:
  explicit SetUp(uint64_t seed) : seed_(seed) {}

  /// Null when the WAL is not on a memory file system. The previous
  /// session must be destroyed first: it refers to the WAL and the plan.
  std::unique_ptr<Session> Build(Recording* recording, SpanRecorder* recorder,
                                 LayerSamples* samples) {
    // The host's speed, measured before the stack (and its device
    // worker) exists.
    const double slowdown = HostSpeed::SlowdownNow();
    const int64_t start = NowNs();
    wal_ = std::make_unique<MemoryWal>();
    if (!wal_->MemoryBacked()) return nullptr;
    MakePlan(seed_, &plan_);
    auto session = std::make_unique<Session>(*wal_, &plan_, cursors_,
                                             recording, recorder, samples);
    session->WarmUp();
    seconds_.push_back(static_cast<double>(NowNs() - start) / 1e9 / slowdown);
    return session;
  }
  const MemoryWal& wal() const { return *wal_; }
  double median_seconds() const { return Median(seconds_); }

 private:
  uint64_t seed_;
  std::unique_ptr<MemoryWal> wal_;
  std::vector<std::vector<Pair>> plan_;
  /// Plan positions, carried across sessions.
  size_t cursors_[kClients] = {};
  std::vector<double> seconds_;
};

/// Runs `sessions` one-second sessions, each on a fresh stack; `first`,
/// if given, is an already built stack used for the first session. Each
/// session's latencies are scaled to the nominal host speed by
/// HostSpeed::SlowdownNow() taken once its stack is gone. Returns false
/// if a build or any session's end check failed.
bool RunSessions(int sessions, std::unique_ptr<Session> first, SetUp* setup,
                 Recording* recording, SpanRecorder* recorder,
                 LayerSamples* samples) {
  bool ok = true;
  std::unique_ptr<Session> session = std::move(first);
  for (int i = 0; i < sessions && !recording->full(); ++i) {
    if (session == nullptr) {
      session = setup->Build(recording, recorder, samples);
      if (session == nullptr) return false;
    }
    const size_t first_op = recording->recorded;
    const int64_t timed_ns = recording->timed_ns;
    session->RunFor(kSessionSeconds);
    ok = session->Check(setup->wal().path()) && ok;
    session.reset();
    const double slowdown = HostSpeed::SlowdownNow();
    for (size_t op = first_op; op < recording->recorded; ++op) {
      recording->latencies_ms[op] /= slowdown;
    }
    recording->scaled_s +=
        static_cast<double>(recording->timed_ns - timed_ns) / 1e9 / slowdown;
  }
  return ok;
}

/// Sizes and touches a latency buffer for `sessions` sessions, so the
/// run's resident memory does not depend on its throughput.
void Reserve(int sessions, Recording* recording) {
  recording->latencies_ms.assign(
      static_cast<size_t>(sessions * kSessionSeconds * kMaxCommitsPerSecond),
      0.0);
}

}  // namespace

bool RunRealCommit(const Options& options, Outcome* outcome) {
  // A traced run spends half its sessions untraced, for the overhead.
  const int untraced_sessions =
      options.trace ? std::max(1, options.seconds / 2) : options.seconds;
  const int traced_sessions =
      options.trace ? std::max(1, options.seconds - untraced_sessions) : 0;

  PinToOneCpu();
  SetUp setup(options.seed);
  Recording recording;
  Reserve(untraced_sessions, &recording);
  std::unique_ptr<Session> first;
  for (int i = 0; i < kSetupRepeats; ++i) {
    first.reset();
    first = setup.Build(&recording, nullptr, nullptr);
    if (first == nullptr) {
      std::fprintf(stderr, "real_commit: the WAL path is not on a memory "
                   "file system; refusing to run\n");
      return false;
    }
  }
  std::printf("real_commit: WAL on a memory file system (memfd); O_DIRECT "
              "%s\n", first->direct_io_active() ? "active" : "not active");

  outcome->end_check_ok = RunSessions(untraced_sessions, std::move(first),
                                      &setup, &recording, nullptr, nullptr);
  outcome->attempted = recording.started;
  outcome->failed =
      recording.started - static_cast<int64_t>(recording.recorded);
  const double untraced_ops_per_s =
      static_cast<double>(recording.recorded) /
      (static_cast<double>(recording.timed_ns) / 1e9);
  if (!options.trace) {
    recording.latencies_ms.resize(recording.recorded);
    return AddEndToEnd("real_commit", std::move(recording.latencies_ms),
                       recording.scaled_s, setup.median_seconds(),
                       /*host=*/nullptr,
                       kTailPercentile, outcome);
  }

  SpanRecorder recorder(1 << 17);
  LayerSamples samples;
  Recording traced;
  Reserve(traced_sessions, &traced);
  const bool traced_ok = RunSessions(traced_sessions, nullptr, &setup,
                                     &traced, &recorder, &samples);
  outcome->end_check_ok = outcome->end_check_ok && traced_ok;
  outcome->attempted += traced.started;
  outcome->failed += traced.started - static_cast<int64_t>(traced.recorded);
  const double commits = static_cast<double>(traced.recorded);
  const double traced_ops_per_s =
      commits / (static_cast<double>(traced.timed_ns) / 1e9);

  outcome->Add("core.call_us", QuantileOf(samples.call_us, 0.5), "us");
  outcome->Add("core.hold_us.p50", QuantileOf(samples.hold_us, 0.5), "us");
  outcome->Add("core.hold_us.p99", QuantileOf(samples.hold_us, 0.99), "us");
  outcome->Add("disk.write_us.p50", QuantileOf(samples.write_us, 0.5), "us");
  outcome->Add("disk.write_us.p99", QuantileOf(samples.write_us, 0.99), "us");
  outcome->Add("core.ack_us.p50", QuantileOf(samples.ack_us, 0.5), "us");
  outcome->Add("core.ack_us.p99", QuantileOf(samples.ack_us, 0.99), "us");
  outcome->Add("disk.commits_per_write",
               commits / static_cast<double>(
                             std::max<int64_t>(samples.block_writes, 1)),
               "ratio");
  outcome->Add("disk.bytes_per_commit",
               static_cast<double>(samples.framed_bytes) /
                   std::max(commits, 1.0),
               "B");
  outcome->Add("trace.overhead_pct",
               100.0 * (untraced_ops_per_s / traced_ops_per_s - 1.0), "%");
  std::printf("real_commit traced: %.0f commits (accounted 216 B each), "
              "%lld block writes, %zu hold samples; untraced %.0f/s, "
              "traced %.0f/s\n",
              commits, static_cast<long long>(samples.block_writes),
              samples.hold_us.size(), untraced_ops_per_s, traced_ops_per_s);
  if (!options.trace_out.empty() &&
      !recorder.WriteChromeTrace(options.trace_out, "real_commit")) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
    return false;
  }
  return true;
}

}  // namespace perfbench
