// Decorators that time the calls crossing two layer boundaries, from the
// benchmark's side of each boundary:
//
//   workload -> core   TimedSink wraps the workload::TransactionSink a
//                      log manager implements ("core.sink" spans);
//   core -> disk       TimedPort wraps the disk::LogWritePort a manager
//                      writes through ("disk.submit" spans) and wraps
//                      each request's completion callback, so the
//                      manager's completion handling becomes a
//                      "core.completion" span.
//
// Both forward every call unchanged; with a null recorder they are not
// installed at all (callers pass the inner object instead).

#ifndef PERFBENCH_CC_LAYERS_H_
#define PERFBENCH_CC_LAYERS_H_

#include <functional>
#include <utility>

#include "common.h"
#include "disk/log_device.h"
#include "workload/generator.h"

namespace perfbench {

class TimedSink final : public elog::workload::TransactionSink {
 public:
  TimedSink(elog::workload::TransactionSink* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  /// Called at the entry of every Commit with the tid and host time.
  std::function<void(elog::TxId, int64_t)> on_commit_entry;

  elog::TxId BeginTransaction(
      const elog::workload::TransactionType& type) override {
    SpanRecorder::Scope span(recorder_, "core.sink");
    return inner_->BeginTransaction(type);
  }
  void WriteUpdate(elog::TxId tid, elog::Oid oid,
                   uint32_t logged_size) override {
    SpanRecorder::Scope span(recorder_, "core.sink");
    inner_->WriteUpdate(tid, oid, logged_size);
  }
  void Commit(elog::TxId tid,
              elog::workload::CommitCallback on_durable) override {
    if (on_commit_entry) on_commit_entry(tid, NowNs());
    SpanRecorder::Scope span(recorder_, "core.sink");
    inner_->Commit(tid, std::move(on_durable));
  }
  void Abort(elog::TxId tid) override {
    SpanRecorder::Scope span(recorder_, "core.sink");
    inner_->Abort(tid);
  }

 private:
  elog::workload::TransactionSink* inner_;
  SpanRecorder* recorder_;
};

class TimedPort final : public elog::disk::LogWritePort {
 public:
  TimedPort(elog::disk::LogWritePort* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  /// Called at every submission, before the inner Submit, with the host
  /// time the request entered the port.
  std::function<void(const elog::disk::LogWriteRequest&, int64_t)> on_submit;
  /// Called at the entry of every wrapped completion with the request's
  /// submission time and the completion's entry time.
  std::function<void(int64_t, int64_t)> on_complete_entry;

  void Submit(elog::disk::LogWriteRequest request) override {
    Wrap(&request);
    SpanRecorder::Scope span(recorder_, "disk.submit");
    inner_->Submit(std::move(request));
  }
  void SubmitFront(elog::disk::LogWriteRequest request) override {
    Wrap(&request);
    SpanRecorder::Scope span(recorder_, "disk.submit");
    inner_->SubmitFront(std::move(request));
  }

 private:
  void Wrap(elog::disk::LogWriteRequest* request) {
    const int64_t submitted = NowNs();
    if (on_submit) on_submit(*request, submitted);
    request->on_complete = [this, submitted,
                            inner = std::move(request->on_complete)](
                               const elog::Status& status) {
      if (on_complete_entry) on_complete_entry(submitted, NowNs());
      SpanRecorder::Scope span(recorder_, "core.completion");
      inner(status);
    };
  }

  elog::disk::LogWritePort* inner_;
  SpanRecorder* recorder_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CC_LAYERS_H_
