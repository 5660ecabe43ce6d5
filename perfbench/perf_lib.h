// Measurement helpers of the benchmark (perfbench.cc): the process CPU
// clock, runs in a forked copy of the process, the tail percentile rule, a
// span recorder with self-time attribution, and an open-loop request
// generator that times each request from its due time.
//
// Everything here is independent of the Orion runtime so it can be unit
// tested on its own (perf_lib_test.cc).
#ifndef ORION_PERFBENCH_PERF_LIB_H_
#define ORION_PERFBENCH_PERF_LIB_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace orion {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU seconds used so far by all threads of this process. Time a thread
// spends blocked or asleep does not count, and neither does time a
// virtual machine's host withholds from its CPUs (steal), where the guest
// kernel accounts it.
double ProcessCpuSeconds();

// Runs `child` in a forked copy of this process and waits for the copy to
// end. The copy starts from this process's memory as it is, the memory
// allocator's state included, so repeated calls measure from the same
// state. Returns the bytes `child` returned, or nullopt when this process
// has other threads (a fork copies only the calling one), the fork failed
// or the copy did not exit with status 0. The copy is killed if this
// process dies first.
std::optional<std::string> RunForked(const std::function<std::string()>& child);

// ---- Percentiles ----

// A percentile is reported only when at least this many samples lie beyond
// it; otherwise a single outlier would decide it.
constexpr size_t kMinSamplesBeyond = 10;

struct Percentile {
  double q = 0.0;      // 0.5, 0.9, 0.99, 0.999
  double value = 0.0;  // nearest-rank value; 0 when !valid
  size_t count = 0;    // samples the percentile was taken over
  size_t beyond = 0;   // samples strictly above the rank
  bool valid = false;  // beyond >= kMinSamplesBeyond (always true for q=0.5
                       // on a non-empty set)
};

// Nearest-rank percentile q of `samples` (need not be sorted). The median
// of an empty set is reported invalid; tails follow kMinSamplesBeyond.
Percentile PercentileOf(std::vector<double> samples, double q);

// The highest of p50, p90, p99 and p99.9 that has at least
// kMinSamplesBeyond samples beyond it.
Percentile HighestTail(const std::vector<double>& samples);

// ---- Spans ----

struct Span {
  std::string name;  // "<layer>.<call>", e.g. "runtime.pass"
  uint64_t id = 0;   // shared by every span of one pass, lookup or session
  int parent = -1;   // index into the same recorder's spans; -1 for a root
  double start = 0.0;  // seconds since the recorder's epoch
  double end = 0.0;
};

// Records nested spans on one thread. Spans stay in memory until the run
// ends; a disabled recorder records nothing and costs one branch per call.
class SpanRecorder {
 public:
  SpanRecorder(bool enabled, Clock::time_point epoch) : enabled_(enabled), epoch_(epoch) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span under the innermost open span; returns its index (-1 when
  // disabled). Spans must close in reverse order of opening.
  int Begin(const std::string& name, uint64_t id);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  class Scope {
   public:
    Scope(SpanRecorder* rec, const std::string& name, uint64_t id)
        : rec_(rec), index_(rec->Begin(name, id)) {}
    ~Scope() { rec_->End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_;
  };

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

// Self time per layer: each span's duration minus the part of its interval
// that its children cover, summed by layer (the name up to the first '.').
// Overlapping children are counted once.
std::map<std::string, double> SelfSecondsByLayer(const std::vector<Span>& spans);

// Writes spans as JSON lines ({"thread","name","id","parent","start_s",
// "end_s"}) to `path`. Returns false on an IO failure.
bool WriteSpans(const std::string& path, const std::vector<std::vector<Span>>& per_thread);

// ---- Open-loop generator ----

struct OpenLoopResult {
  std::vector<double> latency_s;  // completion minus due time, per request
  double max_late_s = 0.0;        // worst send time minus due time
};

// Sends request i at start + i / rate_per_s by calling `request(i)`, until
// `stop` is set, whatever the previous request took (independent users).
// When a request stalls, those due meanwhile are sent as soon as it
// returns, and their latency, timed from when they were due, includes the
// wait the stall imposed on them.
OpenLoopResult RunOpenLoop(double rate_per_s, const std::atomic<bool>& stop,
                           const std::function<void(uint64_t)>& request);

}  // namespace perfbench
}  // namespace orion

#endif  // ORION_PERFBENCH_PERF_LIB_H_
