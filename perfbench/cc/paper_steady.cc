// paper_steady: one op is one complete simulation — construct a
// db::Database, Run() it over a 100 s virtual window, destroy it.
//
// The configurations are the Figure 4 minimum-space points of
// results/fig4.csv (FW and EL at the 5%, 20% and 40% mixes), so an op is
// exactly the probe the fig4/5/7 sweeps spend their host time on. They
// are pinned here rather than read from the CSV so that regenerating the
// figure cannot silently change the benchmark. Ops run in rounds of six,
// one per configuration in a seed-shuffled order, and the run always
// ends on a whole round so every run weighs the six configurations
// equally. Op times are scaled to the nominal host speed (HostSpeed in
// common.h).
//
// The traced run replays each op's (configuration, seed) twice more on a
// twin stack the benchmark assembles from the same public parts the
// facade uses (Simulator, LogStorage, LogDevice, DriveArray,
// MakeLogManager, WorkloadGenerator) but without the facade's recovery
// oracle: once bare, to price the oracle (db.oracle_ms = Database::Run
// minus bare twin), and once with TimedSink/TimedPort installed, to split
// the twin's time between the layers.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.h"
#include "core/fw_manager.h"
#include "core/manager_factory.h"
#include "db/database.h"
#include "disk/drive_array.h"
#include "disk/log_device.h"
#include "disk/log_storage.h"
#include "layers.h"
#include "sim/simulator.h"
#include "util/random.h"
#include "wal/block_pool.h"
#include "workload/generator.h"
#include "workload/spec.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace elog;

struct PaperConfig {
  double long_fraction;
  bool firewall;
  std::vector<uint32_t> blocks;
};

// results/fig4.csv: fw_blocks, then (el_gen0, el_gen1), at mixes 5, 20, 40.
const std::vector<PaperConfig>& Configs() {
  static const std::vector<PaperConfig> configs = {
      {0.05, true, {123}}, {0.05, false, {16, 19}},
      {0.20, true, {141}}, {0.20, false, {15, 41}},
      {0.40, true, {163}}, {0.40, false, {19, 68}},
  };
  return configs;
}

constexpr int64_t kWindowSeconds = 100;
constexpr int kSetupRepeats = 3;
/// About every 2 s of a run at 20-30 ops/s.
constexpr int64_t kSetupEveryRounds = 8;
/// 20-30 ops/s: a 30 s run has some 600-900 ops, 60 or more beyond p90;
/// p99 would need 1000.
constexpr double kTailPercentile = 90.0;

db::DatabaseConfig MakeConfig(const PaperConfig& paper, uint64_t seed) {
  db::DatabaseConfig config;
  config.workload = workload::PaperMix(paper.long_fraction);
  config.workload.runtime = SecondsToSimTime(kWindowSeconds);
  config.workload.seed = seed;
  if (paper.firewall) {
    config.log = MakeFirewallOptions(paper.blocks[0]);
  } else {
    config.log.generation_blocks = paper.blocks;
    config.log.recirculation = false;
    config.log.release_on_commit = false;
  }
  return config;
}

struct Op {
  size_t config = 0;
  uint64_t seed = 0;
};

/// Round r holds the six configurations in a seed-shuffled order, each
/// with its own simulation seed. Pure function of (seed, round).
std::vector<Op> MakeRound(uint64_t seed, int64_t round) {
  const size_t n = Configs().size();
  std::vector<Op> ops(n);
  for (size_t i = 0; i < n; ++i) {
    ops[i].config = i;
    ops[i].seed = DeriveSeed(seed, static_cast<uint64_t>(round) * n + i) | 1;
  }
  Rng rng(DeriveSeed(seed ^ 0x70617065725f7374ull, static_cast<uint64_t>(round)));
  for (size_t i = n - 1; i > 0; --i) {
    std::swap(ops[i], ops[rng.NextBounded(i + 1)]);
  }
  return ops;
}

/// The counts a speed-only change must leave fixed.
struct Counts {
  int64_t events = 0;
  int64_t block_writes = 0;
  int64_t records_appended = 0;
  int64_t records_forwarded = 0;
  int64_t records_recirculated = 0;
  int64_t kills = 0;
  int64_t flushes = 0;
};

struct DatabaseOp {
  int64_t construct_ns = 0;
  int64_t run_ns = 0;
  int64_t destruct_ns = 0;
  bool ok = false;
  Counts counts;
};

/// Runs one op through the facade. The correctness check sits between
/// Run() and destruction and is excluded from the timings.
DatabaseOp RunDatabase(const db::DatabaseConfig& config) {
  DatabaseOp op;
  const int64_t t0 = NowNs();
  auto database = std::make_unique<db::Database>(config);
  const int64_t t1 = NowNs();
  const db::RunStats stats = database->Run();
  const int64_t t2 = NowNs();

  EphemeralLogManager& manager = database->manager();
  manager.CheckInvariants();  // aborts the process on a violation
  workload::WorkloadGenerator& generator = database->generator();
  op.ok = generator.started() ==
          generator.committed() + generator.killed() + generator.aborted();
  op.counts.events = static_cast<int64_t>(database->simulator().events_processed());
  op.counts.block_writes = database->device().writes_completed();
  op.counts.records_appended = stats.records_appended;
  op.counts.records_forwarded = stats.records_forwarded;
  op.counts.records_recirculated = stats.records_recirculated;
  op.counts.kills = stats.total_killed;
  op.counts.flushes = database->drives().total_flushes_completed();

  const int64_t t3 = NowNs();
  database.reset();
  const int64_t t4 = NowNs();
  op.construct_ns = t1 - t0;
  op.run_ns = t2 - t1;
  op.destruct_ns = t4 - t3;
  return op;
}

class KillRelay final : public KillListener {
 public:
  explicit KillRelay(workload::WorkloadGenerator* generator)
      : generator_(generator) {}
  void OnTransactionKilled(TxId tid) override { generator_->NotifyKilled(tid); }

 private:
  workload::WorkloadGenerator* generator_;
};

/// Database::Run's end-of-run drain: force out open buffers every
/// drain_interval until no transaction is in flight.
struct Drain {
  sim::Simulator* simulator;
  LogManager* manager;
  workload::WorkloadGenerator* generator;
  SimTime interval;
  void Step() {
    if (generator->active() == 0) return;
    manager->ForceWriteOpenBuffers();
    simulator->ScheduleAfter(interval, [this] { Step(); });
  }
};

struct TwinOp {
  int64_t run_ns = 0;
  Counts counts;
};

/// Runs one op on the twin stack. With a recorder, the sink and the log
/// port are decorated; without, the generator and manager talk directly.
/// Only the event loop (start to quiescence) is timed, like
/// Database::Run.
TwinOp RunTwin(const db::DatabaseConfig& config, SpanRecorder* recorder) {
  wal::BlockImagePool pool;
  sim::Simulator simulator;
  sim::MetricsRegistry metrics;
  disk::LogStorage storage(config.log.generation_blocks);
  storage.set_block_pool(&pool);
  disk::LogDevice device(&simulator, &storage, config.log.log_write_latency,
                         &metrics);
  device.ApplyHooks(disk::DeviceHooks{}.WithBlockPool(&pool));
  disk::DriveArray drives(&simulator, config.log.num_flush_drives,
                          config.log.num_objects,
                          config.log.flush_transfer_time, &metrics);
  TimedPort port(&device, recorder);
  LogManagerSet managers = MakeLogManager(
      config.manager, config.log, &simulator,
      recorder != nullptr ? static_cast<disk::LogWritePort*>(&port) : &device,
      &drives, &metrics);
  managers.manager->set_block_pool(&pool);
  TimedSink sink(managers.manager.get(), recorder);
  workload::WorkloadGenerator generator(
      &simulator, config.workload,
      recorder != nullptr ? static_cast<workload::TransactionSink*>(&sink)
                          : managers.manager.get(),
      &metrics);
  KillRelay relay(&generator);
  managers.manager->set_kill_listener(&relay);
  Drain drain{&simulator, managers.manager.get(), &generator,
              config.drain_interval};

  const int64_t start = NowNs();
  // Same scheduling order as Database::StartRun: arrivals, the window
  // snapshot (a no-op here: it only reads counters), then the drain.
  generator.Start();
  simulator.ScheduleAt(config.workload.runtime, [] {});
  simulator.ScheduleAt(config.workload.runtime + config.drain_interval,
                       [&drain] { drain.Step(); });
  simulator.Run();
  TwinOp op;
  op.run_ns = NowNs() - start;

  EphemeralLogManager* el = managers.el;
  op.counts.events = static_cast<int64_t>(simulator.events_processed());
  op.counts.block_writes = device.writes_completed();
  op.counts.records_appended = el->records_appended();
  op.counts.records_forwarded = el->records_forwarded();
  op.counts.records_recirculated = el->records_recirculated();
  op.counts.kills = generator.killed();
  op.counts.flushes = drives.total_flushes_completed();
  return op;
}

bool SameWork(const Counts& a, const Counts& b) {
  return a.block_writes == b.block_writes &&
         a.records_appended == b.records_appended && a.flushes == b.flushes;
}

void AddCounts(const Counts& add, Counts* sum) {
  sum->events += add.events;
  sum->block_writes += add.block_writes;
  sum->records_appended += add.records_appended;
  sum->records_forwarded += add.records_forwarded;
  sum->records_recirculated += add.records_recirculated;
  sum->kills += add.kills;
  sum->flushes += add.flushes;
}

}  // namespace

bool RunPaperSteady(const Options& options, Outcome* outcome) {
  // Set-up: the op list's first round plus one untimed warm-up op. The
  // warm-up op is the same for every seed (el5 on the workload spec's
  // default seed), so set-up time measures the program, not the seed.
  // Set-up takes some 45 ms, so a few repetitions at the start would
  // sample one brief moment of a host whose speed drifts in phases; it is
  // repeated at the start and again after every kSetupEveryRounds rounds,
  // and setup_s is the median of all repetitions, each scaled to the
  // nominal host speed.
  std::vector<Op> round;
  std::vector<double> setup_samples;
  auto set_up = [&] {
    const int64_t t0 = NowNs();
    round = MakeRound(options.seed, 0);
    const DatabaseOp warm =
        RunDatabase(MakeConfig(Configs()[1], workload::WorkloadSpec{}.seed));
    const double host_s = static_cast<double>(NowNs() - t0) / 1e9;
    setup_samples.push_back(host_s / HostSpeed::SlowdownNow());
    if (!warm.ok) {
      std::fprintf(stderr, "paper_steady: the warm-up op failed its check\n");
      outcome->end_check_ok = false;
    }
  };
  for (int i = 0; i < kSetupRepeats; ++i) set_up();

  std::unique_ptr<SpanRecorder> recorder;
  if (options.trace) recorder = std::make_unique<SpanRecorder>(1 << 17);

  HostSpeed host;
  std::vector<double> op_ms;
  int64_t construct_ns = 0, run_ns = 0, destruct_ns = 0;
  int64_t twin_bare_ns = 0, twin_traced_ns = 0;
  int64_t twin_events = 0;
  bool twin_match = true;
  Counts first_round;

  const int64_t budget_ns = static_cast<int64_t>(options.seconds) * 1000000000;
  const int64_t start = NowNs();
  int64_t measured_ns = 0;
  for (int64_t r = 0;; ++r) {
    if (r > 0) round = MakeRound(options.seed, r);
    for (const Op& op : round) {
      const db::DatabaseConfig config = MakeConfig(Configs()[op.config], op.seed);
      const DatabaseOp done = RunDatabase(config);
      ++outcome->attempted;
      if (!done.ok) ++outcome->failed;
      op_ms.push_back(NsToMs(done.construct_ns + done.run_ns + done.destruct_ns));
      measured_ns += done.construct_ns + done.run_ns + done.destruct_ns;
      if (r == 0) AddCounts(done.counts, &first_round);
      if (!options.trace) {
        host.Sample();
        continue;
      }

      construct_ns += done.construct_ns;
      run_ns += done.run_ns;
      destruct_ns += done.destruct_ns;
      const TwinOp bare = RunTwin(config, nullptr);
      recorder->set_op(outcome->attempted - 1);
      const TwinOp traced = RunTwin(config, recorder.get());
      twin_bare_ns += bare.run_ns;
      twin_traced_ns += traced.run_ns;
      twin_events += bare.counts.events;
      if (!SameWork(done.counts, bare.counts) ||
          !SameWork(done.counts, traced.counts)) {
        twin_match = false;
      }
    }
    if (NowNs() - start >= budget_ns) break;
    if ((r + 1) % kSetupEveryRounds == 0) set_up();
  }
  const double setup_s = Median(std::move(setup_samples));

  if (!options.trace) {
    return AddEndToEnd("paper_steady", std::move(op_ms),
                       static_cast<double>(measured_ns) / 1e9, setup_s, &host,
                       kTailPercentile, outcome);
  }

  const double ops = static_cast<double>(outcome->attempted);
  const SpanRecorder::Totals sink = recorder->totals("core.sink");
  const SpanRecorder::Totals completion = recorder->totals("core.completion");
  const SpanRecorder::Totals submit = recorder->totals("disk.submit");
  // Time the decorators cover, counted once: every span is either a
  // top-level span or nested inside one, so the self times partition it.
  const int64_t covered = sink.self_ns + completion.self_ns + submit.self_ns;
  outcome->Add("db.construct_ms", NsToMs(construct_ns) / ops, "ms");
  outcome->Add("db.destruct_ms", NsToMs(destruct_ns) / ops, "ms");
  if (twin_match) {
    outcome->Add("db.oracle_ms", NsToMs(run_ns - twin_bare_ns) / ops, "ms");
  } else {
    std::printf("paper_steady: the twin stack did different work than the "
                "Database run; db.oracle_ms is invalid (reported as -1)\n");
    outcome->Add("db.oracle_ms", -1.0, "ms");
  }
  outcome->Add("db.twin_match", twin_match ? 1.0 : 0.0, "count");
  outcome->Add("core.sink_ms", NsToMs(sink.self_ns) / ops, "ms");
  outcome->Add("core.completion_ms", NsToMs(completion.self_ns) / ops, "ms");
  outcome->Add("disk.submit_ms", NsToMs(submit.self_ns) / ops, "ms");
  outcome->Add("sim.other_ms", NsToMs(twin_traced_ns - covered) / ops, "ms");
  outcome->Add("sim.ns_per_event",
               static_cast<double>(twin_bare_ns) /
                   static_cast<double>(std::max<int64_t>(twin_events, 1)),
               "ns");
  outcome->Add("sim.events", static_cast<double>(first_round.events), "count");
  outcome->Add("core.records_appended",
               static_cast<double>(first_round.records_appended), "count");
  outcome->Add("core.records_forwarded",
               static_cast<double>(first_round.records_forwarded), "count");
  outcome->Add("core.records_recirculated",
               static_cast<double>(first_round.records_recirculated), "count");
  outcome->Add("core.kills", static_cast<double>(first_round.kills), "count");
  outcome->Add("disk.block_writes",
               static_cast<double>(first_round.block_writes), "count");
  outcome->Add("disk.flushes", static_cast<double>(first_round.flushes),
               "count");
  // Tracing overhead: the decorated twin against the bare twin, the same
  // simulation with and without the benchmark's spans.
  outcome->Add("trace.overhead_pct",
               100.0 * (static_cast<double>(twin_traced_ns) /
                            static_cast<double>(twin_bare_ns) -
                        1.0),
               "%");
  std::printf("paper_steady traced: %lld ops; counts cover the first round "
              "of %zu ops; spans stored %zu, dropped %lld\n",
              static_cast<long long>(outcome->attempted), Configs().size(),
              recorder->stored(), static_cast<long long>(recorder->dropped()));
  if (!options.trace_out.empty() &&
      !recorder->WriteChromeTrace(options.trace_out, "paper_steady")) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
    return false;
  }
  return true;
}

}  // namespace perfbench
