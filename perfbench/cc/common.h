// Shared pieces of the benchmark program: wall-clock timing, per-op
// latency statistics, the result record every workload fills, and the
// in-memory span recorder of the traced run.
//
// Everything here measures from outside the program: spans open and
// close around calls into the repository's public entry points, never
// inside them.

#ifndef PERFBENCH_CC_COMMON_H_
#define PERFBENCH_CC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host monotonic time in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  /// Chrome trace_event JSON written by a traced run.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `attempted` counts timed ops only (never the
/// warm-up); `failed` counts ops whose correctness check failed, and
/// `end_check_ok` carries the end-of-run checks that are not per op.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool end_check_ok = true;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Nearest-rank quantile of an ascending sample, q in [0, 1].
double Quantile(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (copied).
double Median(std::vector<double> values);

/// A workload's tail percentile: p90 or p99, fixed per workload as the
/// higher of the two that leaves at least ten ops beyond it at the
/// workload's design op count, with room for a host twice as slow. It is
/// fixed rather than re-chosen from each run's op count, so a change
/// that makes ops faster cannot move the tail to a higher rung and read
/// as a tail regression. The ladder stops at p99: on a shared 4-core VM
/// p99.9 of a 15 us commit moved by 20-25% between runs of the same code.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  int64_t beyond = 0;
};

/// The `percentile` of an ascending sample and the count of samples
/// beyond its rank. Returns false when fewer than ten lie beyond it.
bool TailOf(const std::vector<double>& sorted, double percentile, Tail* tail);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Host-speed reference for the end-to-end times.
///
/// The shared host's speed moves by 10-40% in phases of seconds to
/// minutes, and a phase slows every vCPU alike, so a run's raw op times
/// measure the phase as much as the program. The reference kernel is
/// fixed work of the benchmark's own that calls nothing in the program
/// and allocates nothing: a small event loop (a binary heap of pending
/// events and a 256 KiB table indexed at random), like the simulator's
/// and the recovery's own mix of branches and cache misses.
///
/// In paper_steady and crash_recover the kernel runs, untimed as an op,
/// after every op, and each op's host time is scaled by
/// kReferenceNominalNs / (the median of the kernel times of the
/// kReferenceWindow ops around it): the op time the host would have
/// shown at the kernel's nominal speed. real_commit's ops are too short
/// to interleave: each of its one-second sessions is scaled by
/// SlowdownNow() taken after it. Every set-up time is scaled by
/// SlowdownNow() taken next to it. A change to the program moves the op
/// times and not the kernel's, so it moves the scaled times by the same
/// share.
class HostSpeed {
 public:
  /// The kernel's time in the quiet phases of the host the benchmark was
  /// tuned on (a shared 4-vCPU x86-64 VM; about the fastest it ran there),
  /// in ns: scaled times read as that host's ms in a quiet phase.
  static constexpr double kReferenceNominalNs = 7.2e5;
  /// Ops whose kernel times are pooled for one op's scale factor.
  static constexpr int kReferenceWindow = 15;

  /// Runs the kernel once and records its time, in ns.
  void Sample();

  /// `op_ms[i]` scaled by the kernel times sampled around op i; one
  /// Sample() must follow every op.
  std::vector<double> Scale(const std::vector<double>& op_ms) const;

  /// The median of kReferenceWindow kernel runs made now over the
  /// nominal time; the runs are not recorded.
  static double SlowdownNow();

  /// Median kernel time over the nominal one: above 1, a slow host.
  double SlowdownFactor() const;

 private:
  std::vector<int64_t> samples_ns_;
};

/// Adds the five end-to-end metrics from the timed ops' host latencies
/// (ms), the measured wall time, the median set-up time and the
/// workload's tail percentile, and prints the op count and the number of
/// ops beyond the tail. With a `host` reference, the op times are first
/// scaled to its nominal speed, ops_per_s counts ops per scaled second,
/// and the raw figures are printed beside them; `setup_s` is passed in
/// as reported (see MedianSetupSeconds).
/// Returns false (and prints why) when the sample cannot support the
/// tail percentile.
bool AddEndToEnd(const std::string& workload, std::vector<double> op_ms,
                 double measured_s, double setup_s, const HostSpeed* host,
                 double tail_percentile, Outcome* outcome);

/// Median wall time of `repeats` runs of `setup`, in seconds, each
/// scaled to the nominal host speed by HostSpeed::SlowdownNow. Each run
/// must leave the workload fully set up; the last one's state is kept.
template <typename Fn>
double MedianSetupSeconds(int repeats, Fn&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    const int64_t start = NowNs();
    setup();
    const double host_s = static_cast<double>(NowNs() - start) / 1e9;
    seconds.push_back(host_s / HostSpeed::SlowdownNow());
  }
  return Median(std::move(seconds));
}

/// In-memory span recorder for the traced run.
///
/// Nested spans (Open/Close) form a stack on the calling thread: a span's
/// self time is its duration minus the time its child spans cover, and
/// per-name totals of both are kept for every span, stored or not.
/// Interval spans (Record) carry their own start and end and do not nest;
/// they describe asynchronous stages such as a block's time in the device
/// queue. The first `capacity` spans are stored for the Chrome trace.
class SpanRecorder {
 public:
  struct Totals {
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  explicit SpanRecorder(size_t capacity) : capacity_(capacity) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Spans recorded from now on carry this op index.
  void set_op(int64_t op) { op_ = op; }

  void Open(const char* name);
  /// Closes the innermost open span; returns its duration in ns.
  int64_t Close();
  /// Records a finished non-nesting interval on lane `lane` (>= 2).
  void Record(const char* name, int lane, int64_t start_ns, int64_t end_ns);

  /// Totals for `name` (zero if it never occurred). Names compare by
  /// content.
  Totals totals(const char* name) const;

  size_t stored() const { return spans_.size(); }
  int64_t dropped() const { return dropped_; }

  /// Writes the stored spans as Chrome trace_event JSON (opens in
  /// Perfetto and chrome://tracing). Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& workload) const;

  /// RAII helper around Open/Close.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name) : recorder_(recorder) {
      if (recorder_ != nullptr) recorder_->Open(name);
    }
    ~Scope() {
      if (recorder_ != nullptr) recorder_->Close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
  };

 private:
  struct OpenSpan {
    const char* name;
    int64_t start_ns;
    int64_t child_ns;
    int64_t parent;  // stored index of the parent span, or -1
    int64_t stored;  // stored index of this span, or -1
  };
  struct Stored {
    const char* name;
    int lane;
    int64_t start_ns;
    int64_t dur_ns;
    int64_t op;
    int64_t parent;
  };
  Totals* Find(const char* name);
  int64_t Store(const char* name, int lane, int64_t start_ns, int64_t parent);

  size_t capacity_;
  int64_t op_ = -1;
  int64_t dropped_ = 0;
  int64_t origin_ns_ = -1;
  std::vector<OpenSpan> stack_;
  std::vector<Stored> spans_;
  std::vector<std::pair<std::string, Totals>> totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CC_COMMON_H_
