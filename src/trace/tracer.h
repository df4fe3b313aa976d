// The Tracer is the single recording point the instrumented layers talk to.
// Every layer holds an optional `Tracer*` (null by default — tracing
// disabled costs one pointer compare per instrumented operation) and calls
// Record() with a TraceEvent. The tracer
//   * feeds a per-(layer, op) latency Histogram, and
//   * optionally streams each event to a TraceWriter for offline analysis
//     and replay.
//
// The simulator is single-threaded, so the tracer is too.
#ifndef XFTL_TRACE_TRACER_H_
#define XFTL_TRACE_TRACER_H_

#include <array>
#include <memory>

#include "common/histogram.h"
#include "trace/trace_event.h"
#include "trace/trace_file.h"

namespace xftl::trace {

class Tracer {
 public:
  // `sink` may be null (histograms only) and is not owned.
  explicit Tracer(TraceWriter* sink = nullptr) : sink_(sink) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Record(const TraceEvent& event) {
    latency_[int(event.layer)][int(event.op)].Add(event.latency);
    event_count_++;
    if (sink_ == nullptr) return;
    if (event.sid == 0 && session_ != 0) {
      TraceEvent stamped = event;
      stamped.sid = session_;
      sink_->Append(stamped);
    } else {
      sink_->Append(event);
    }
  }

  // Convenience overload used by the instrumentation points.
  void Record(Layer layer, Op op, SimNanos time, uint32_t tid, uint64_t a,
              uint64_t b, SimNanos latency, StatusCode status) {
    Record(TraceEvent{time, layer, op, tid, session_, a, b, latency, status});
  }

  // Session attribution: the host scheduler sets this before dispatching a
  // session's step, so events recorded by the layers below (which know
  // nothing about sessions) carry the session they were working for.
  // 0 = untagged (single-session runs never set it).
  void set_session(uint32_t sid) { session_ = sid; }
  uint32_t session() const { return session_; }

  const Histogram& latency(Layer layer, Op op) const {
    return latency_[int(layer)][int(op)];
  }
  uint64_t event_count() const { return event_count_; }

  TraceWriter* sink() const { return sink_; }
  // Detach (or swap) the file sink; histograms keep accumulating.
  void set_sink(TraceWriter* sink) { sink_ = sink; }

 private:
  TraceWriter* sink_;
  std::array<std::array<Histogram, kNumOps>, kNumLayers> latency_;
  uint64_t event_count_ = 0;
  uint32_t session_ = 0;
};

}  // namespace xftl::trace

#endif  // XFTL_TRACE_TRACER_H_
