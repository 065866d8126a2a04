#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>

namespace perfbench {

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool TailOf(const std::vector<double>& sorted, double percentile,
            Tail* tail) {
  const int64_t n = static_cast<int64_t>(sorted.size());
  const int64_t rank = static_cast<int64_t>(
      std::ceil(percentile / 100.0 * static_cast<double>(n)));
  if (rank < 1 || n - rank < 10) return false;
  tail->percentile = percentile;
  tail->value = sorted[static_cast<size_t>(rank - 1)];
  tail->beyond = n - rank;
  return true;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool AddEndToEnd(const std::string& workload, std::vector<double> op_ms,
                 double measured_s, double setup_s, const HostSpeed* host,
                 double tail_percentile, Outcome* outcome) {
  if (host != nullptr) {
    std::vector<double> raw = op_ms;
    std::sort(raw.begin(), raw.end());
    std::printf("%s: raw host figures: %.6g ops/s, op_p50_ms %.6g; "
                "reference kernel %.4gx its nominal time\n",
                workload.c_str(), static_cast<double>(raw.size()) / measured_s,
                Quantile(raw, 0.5), host->SlowdownFactor());
    op_ms = host->Scale(op_ms);
    measured_s = std::accumulate(op_ms.begin(), op_ms.end(), 0.0) / 1e3;
  }
  std::sort(op_ms.begin(), op_ms.end());
  Tail tail;
  if (!TailOf(op_ms, tail_percentile, &tail)) {
    std::fprintf(stderr,
                 "%s: %zu timed ops leave fewer than 10 ops beyond p%g; "
                 "refusing to report op_tail_ms\n",
                 workload.c_str(), op_ms.size(), tail_percentile);
    return false;
  }
  const double p50 = Quantile(op_ms, 0.5);
  std::printf("%s: %zu timed ops in %.3f s; op_p50_ms %.6g; op_tail_ms is "
              "p%g = %.6g ms with %lld ops beyond it\n",
              workload.c_str(), op_ms.size(), measured_s, p50,
              tail.percentile, tail.value,
              static_cast<long long>(tail.beyond));
  outcome->Add("ops_per_s", static_cast<double>(op_ms.size()) / measured_s,
               "1/s");
  outcome->Add("op_p50_ms", p50, "ms");
  outcome->Add("op_tail_ms", tail.value, "ms");
  outcome->Add("peak_rss_mb", PeakRssMb(), "MB");
  outcome->Add("setup_s", setup_s, "s");
  return true;
}

namespace {

/// The reference kernel's work: kReferenceEvents events of a loop that
/// pops the earliest pending event, reads and updates a table slot chosen
/// by hashing it, and schedules a successor. Everything it touches is
/// allocated once, so it measures the host, not the allocator.
constexpr int kReferenceEvents = 10000;
constexpr int kReferencePending = 256;
constexpr size_t kReferenceTableSlots = size_t{1} << 15;  // 256 KiB

struct Event {
  uint64_t time;
  uint64_t key;
  bool operator>(const Event& other) const { return time > other.time; }
};

/// Keeps the kernel's result observable, so it cannot be optimized away.
volatile uint64_t reference_sink = 0;

uint64_t RunReferenceKernel() {
  static std::vector<uint64_t> table(kReferenceTableSlots, 1);
  static std::vector<Event> heap;
  heap.clear();
  heap.reserve(kReferencePending);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < kReferencePending; ++i) {
    heap.push_back({next() & 0xffff, x});
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  uint64_t sum = 0;
  for (int i = 0; i < kReferenceEvents; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const Event event = heap.back();
    heap.pop_back();
    uint64_t& slot = table[(event.key * 0x9e3779b97f4a7c15ull) >> 49];
    slot += event.key;
    sum += slot;
    heap.push_back({event.time + (next() & 0xfff), x ^ sum});
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  return sum;
}

}  // namespace

void HostSpeed::Sample() {
  const int64_t start = NowNs();
  reference_sink = RunReferenceKernel();
  samples_ns_.push_back(NowNs() - start);
}

std::vector<double> HostSpeed::Scale(const std::vector<double>& op_ms) const {
  std::vector<double> scaled;
  scaled.reserve(op_ms.size());
  const int64_t n = static_cast<int64_t>(samples_ns_.size());
  for (size_t i = 0; i < op_ms.size(); ++i) {
    const int64_t from = std::max<int64_t>(
        0, std::min<int64_t>(static_cast<int64_t>(i) - kReferenceWindow / 2,
                             n - kReferenceWindow));
    const int64_t to = std::min<int64_t>(n, from + kReferenceWindow);
    std::vector<double> window(samples_ns_.begin() + from,
                               samples_ns_.begin() + to);
    scaled.push_back(op_ms[i] * kReferenceNominalNs / Median(std::move(window)));
  }
  return scaled;
}

double HostSpeed::SlowdownNow() {
  HostSpeed now;
  for (int i = 0; i < kReferenceWindow; ++i) now.Sample();
  return now.SlowdownFactor();
}

double HostSpeed::SlowdownFactor() const {
  return Median(std::vector<double>(samples_ns_.begin(), samples_ns_.end())) /
         kReferenceNominalNs;
}

SpanRecorder::Totals* SpanRecorder::Find(const char* name) {
  for (auto& [key, totals] : totals_) {
    if (key == name) return &totals;
  }
  totals_.emplace_back(name, Totals{});
  return &totals_.back().second;
}

SpanRecorder::Totals SpanRecorder::totals(const char* name) const {
  for (const auto& [key, totals] : totals_) {
    if (key == name) return totals;
  }
  return Totals{};
}

int64_t SpanRecorder::Store(const char* name, int lane, int64_t start_ns,
                            int64_t parent) {
  if (origin_ns_ < 0) origin_ns_ = start_ns;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({name, lane, start_ns, 0, op_, parent});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::Open(const char* name) {
  const int64_t start = NowNs();
  const int64_t parent = stack_.empty() ? -1 : stack_.back().stored;
  const int64_t stored = Store(name, /*lane=*/1, start, parent);
  stack_.push_back({name, start, 0, parent, stored});
}

int64_t SpanRecorder::Close() {
  const int64_t end = NowNs();
  const OpenSpan open = stack_.back();
  stack_.pop_back();
  const int64_t duration = end - open.start_ns;
  if (open.stored >= 0) spans_[static_cast<size_t>(open.stored)].dur_ns = duration;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  Totals* totals = Find(open.name);
  totals->total_ns += duration;
  totals->self_ns += duration - open.child_ns;
  return duration;
}

void SpanRecorder::Record(const char* name, int lane, int64_t start_ns,
                          int64_t end_ns) {
  const int64_t stored = Store(name, lane, start_ns, -1);
  if (stored >= 0) spans_[static_cast<size_t>(stored)].dur_ns = end_ns - start_ns;
  Totals* totals = Find(name);
  totals->total_ns += end_ns - start_ns;
  totals->self_ns += end_ns - start_ns;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    const std::string& workload) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
                     "\"workload\":\"%s\",\"spans_stored\":%zu,"
                     "\"spans_dropped\":%lld},\"traceEvents\":[\n",
               workload.c_str(), spans_.size(),
               static_cast<long long>(dropped_));
  std::fprintf(file,
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"calls into the program\"}}");
  for (const Stored& span : spans_) {
    std::fprintf(file,
                 ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"op\":%lld,\"parent\":%lld}}",
                 span.name, span.lane,
                 static_cast<double>(span.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(span.dur_ns) / 1e3,
                 static_cast<long long>(span.op),
                 static_cast<long long>(span.parent));
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
