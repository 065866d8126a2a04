// crash_recover: one op is one db::RecoveryManager::RecoverSharded call
// over a prebuilt crash image.
//
// Set-up captures kImages crash images, each from its own S=4 sharded EL
// database (own seed, own crash instant, torn in-flight writes) at 400
// tps — 100 tps per shard, the paper's single-log rate — on logs with
// room to spare, so no transaction is killed and recovery
// is held to the exact oracle. Ten percent of transactions span shards,
// so the logs carry PREPARE records for the cross-shard pass. This is
// the only workload that loads the wal scan and decode, the db stable
// overlay and the shard cross-shard pass.
//
// Op times are scaled to the nominal host speed (HostSpeed in common.h).
//
// The traced run stages each recovery: a wal::LogScanner pass over the
// same image ("wal.scan"), then the full recovery ("db.recover"); the
// difference is the state build and stable overlay.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.h"
#include "db/database.h"
#include "db/recovery.h"
#include "db/recovery_check.h"
#include "util/random.h"
#include "wal/log_reader.h"
#include "workload/spec.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace elog;

constexpr int kImages = 5;
constexpr uint32_t kShards = 4;
constexpr double kRateTps = 400.0;
constexpr int64_t kWindowSeconds = 100;
constexpr int kSetupRepeats = 3;
/// About 50 ops per wall second with their checks: a 30 s run has some
/// 1500 ops, 150 beyond p90; p99 needs 1000, which a host twice as slow
/// would not reach.
constexpr double kTailPercentile = 90.0;

struct Image {
  db::Database::CrashImage image;
  std::vector<db::ShardLogInput> inputs;
  int64_t capture_ns = 0;
  /// Bytes of every written block image, all shards.
  int64_t log_bytes = 0;
};

db::DatabaseConfig ImageConfig(uint64_t seed) {
  db::DatabaseConfig config;
  config.workload = workload::PaperMix(0.05);
  config.workload.arrival_rate_tps = kRateTps;
  config.workload.runtime = SecondsToSimTime(kWindowSeconds);
  config.workload.cross_shard_fraction = 0.1;
  config.workload.seed = seed;
  config.log.shards = kShards;
  config.log.generation_blocks = {24, 24};
  config.log.recirculation = true;
  return config;
}

/// Captures image `index` for the benchmark seed. Returns null (after
/// printing why) if the run killed a transaction: the exact oracle
/// would then not apply.
std::unique_ptr<Image> Capture(uint64_t seed, int index) {
  const uint64_t image_seed = DeriveSeed(seed, static_cast<uint64_t>(index)) | 1;
  Rng rng(image_seed);
  // Image i crashes at a seed-drawn microsecond of the second before
  // (i + 1) / kImages of the window, so the later an image crashes the
  // more state it holds and the longer it takes to recover. The seed
  // changes an image's contents and barely its amount of work. The op
  // times form kImages clusters of equal size; with an odd kImages the
  // median and p90 fall inside a cluster (the middle image and the
  // last), not on the gap between two.
  const SimTime crash_time =
      SecondsToSimTime(kWindowSeconds * (index + 1) / kImages - 1) +
      static_cast<SimTime>(rng.NextBounded(static_cast<uint64_t>(kSecond)));
  db::Database database(ImageConfig(image_seed));
  const int64_t start = NowNs();
  db::Database::CrashImage image =
      database.RunUntilCrash(crash_time, /*torn_write=*/true);
  const int64_t capture_ns = NowNs() - start;
  if (database.generator().killed() != 0) {
    std::fprintf(stderr, "crash_recover: image %d killed %lld transactions\n",
                 index, static_cast<long long>(database.generator().killed()));
    return nullptr;
  }
  auto out = std::make_unique<Image>(Image{std::move(image), {}, capture_ns, 0});
  for (db::Database::ShardCrashLog& shard : out->image.shards) {
    db::ShardLogInput input;
    input.primary = &shard.log;
    out->inputs.push_back(input);
    for (uint32_t g = 0; g < shard.log.num_generations(); ++g) {
      for (const wal::BlockImage* block : shard.log.GenerationBlocks(g)) {
        if (block != nullptr) out->log_bytes += static_cast<int64_t>(block->size());
      }
    }
  }
  return out;
}

/// The log-scan stage alone: what RecoverSharded's first phase reads.
void ScanOnly(const Image& image) {
  for (const db::ShardLogInput& input : image.inputs) {
    wal::LogScanner scanner;
    for (uint32_t g = 0; g < input.primary->num_generations(); ++g) {
      scanner.AddGeneration(input.primary->GenerationBlocks(g));
    }
  }
}

}  // namespace

bool RunCrashRecover(const Options& options, Outcome* outcome) {
  std::vector<std::unique_ptr<Image>> images;
  bool setup_ok = true;
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    images.clear();
    for (int i = 0; i < kImages && setup_ok; ++i) {
      images.push_back(Capture(options.seed, i));
      if (images.back() == nullptr) setup_ok = false;
    }
    if (!setup_ok) return;
    // Warm-up op, untimed: one recovery of the first image.
    db::RecoveryResult warm =
        db::RecoveryManager::RecoverSharded(images[0]->inputs, images[0]->image.stable);
    if (warm.state.empty()) setup_ok = false;
  });
  if (!setup_ok) return false;

  const db::InvariantPolicy policy;  // exact, no phantoms: nothing was lost
  std::unique_ptr<SpanRecorder> recorder;
  if (options.trace) recorder = std::make_unique<SpanRecorder>(1 << 16);

  HostSpeed host;
  std::vector<double> op_ms;
  int64_t measured_ns = 0;
  int64_t untraced_ns = 0, traced_recover_ns = 0, scanned_bytes = 0;
  bool reported_violation = false;
  const int64_t budget_ns = static_cast<int64_t>(options.seconds) * 1000000000;
  const int64_t start = NowNs();
  Rng order_rng(DeriveSeed(options.seed, 0x637261736852ull));
  std::vector<int> order(kImages);
  while (NowNs() - start < budget_ns) {
    for (int i = 0; i < kImages; ++i) order[i] = i;
    for (int i = kImages - 1; i > 0; --i) {
      std::swap(order[i], order[order_rng.NextBounded(static_cast<uint64_t>(i) + 1)]);
    }
    for (int index : order) {
      const Image& image = *images[static_cast<size_t>(index)];
      const int64_t t0 = NowNs();
      db::RecoveryResult result =
          db::RecoveryManager::RecoverSharded(image.inputs, image.image.stable);
      const int64_t elapsed = NowNs() - t0;
      ++outcome->attempted;
      op_ms.push_back(NsToMs(elapsed));
      measured_ns += elapsed;
      const db::InvariantReport report =
          db::CheckRecoveryInvariants(image.image, result, policy);
      if (!report.ok()) {
        ++outcome->failed;
        if (!reported_violation) {
          std::fprintf(stderr, "crash_recover: %s\n", report.First().c_str());
          reported_violation = true;
        }
      }
      if (!options.trace) {
        host.Sample();
        continue;
      }

      untraced_ns += elapsed;
      recorder->set_op(outcome->attempted - 1);
      recorder->Open("wal.scan");
      ScanOnly(image);
      recorder->Close();
      recorder->Open("db.recover");
      db::RecoveryResult again =
          db::RecoveryManager::RecoverSharded(image.inputs, image.image.stable);
      traced_recover_ns += recorder->Close();
      scanned_bytes += image.log_bytes;
      if (again.state.size() != result.state.size()) ++outcome->failed;
    }
  }

  if (!options.trace) {
    return AddEndToEnd("crash_recover", std::move(op_ms),
                       static_cast<double>(measured_ns) / 1e9, setup_s, &host,
                       kTailPercentile, outcome);
  }

  // Fixed counts: one recovery of each image.
  int64_t blocks = 0, records = 0, applied = 0, objects = 0, prepares = 0;
  int64_t capture_ns = 0;
  for (const auto& image : images) {
    const db::RecoveryResult result =
        db::RecoveryManager::RecoverSharded(image->inputs, image->image.stable);
    blocks += static_cast<int64_t>(result.scan.blocks_scanned);
    records += static_cast<int64_t>(result.scan.records);
    applied += static_cast<int64_t>(result.records_applied);
    objects += static_cast<int64_t>(result.state.size());
    prepares += static_cast<int64_t>(result.sharded.prepares_in_log);
    capture_ns += image->capture_ns;
  }
  const double ops = static_cast<double>(outcome->attempted);
  const SpanRecorder::Totals scan = recorder->totals("wal.scan");
  outcome->Add("db.capture_ms", NsToMs(capture_ns) / kImages, "ms");
  outcome->Add("wal.scan_ms", NsToMs(scan.total_ns) / ops, "ms");
  outcome->Add("wal.scan_mb_per_s",
               static_cast<double>(scanned_bytes) / 1e6 /
                   (static_cast<double>(scan.total_ns) / 1e9),
               "MB/s");
  outcome->Add("db.apply_ms", NsToMs(traced_recover_ns - scan.total_ns) / ops,
               "ms");
  outcome->Add("wal.blocks_scanned", static_cast<double>(blocks), "count");
  outcome->Add("wal.records", static_cast<double>(records), "count");
  outcome->Add("db.records_applied", static_cast<double>(applied), "count");
  outcome->Add("db.state_objects", static_cast<double>(objects), "count");
  outcome->Add("shard.prepares_in_log", static_cast<double>(prepares), "count");
  // The spans only bracket the recovery call, so the traced call should
  // cost what the untraced one does; this reports any difference.
  outcome->Add("trace.overhead_pct",
               100.0 * (static_cast<double>(traced_recover_ns) /
                            static_cast<double>(untraced_ns) -
                        1.0),
               "%");
  std::printf("crash_recover traced: %lld ops over %d images; counts cover "
              "one recovery per image\n",
              static_cast<long long>(outcome->attempted), kImages);
  if (!options.trace_out.empty() &&
      !recorder->WriteChromeTrace(options.trace_out, "crash_recover")) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
    return false;
  }
  return true;
}

}  // namespace perfbench
