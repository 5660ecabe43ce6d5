// Background monitor: a sampler thread that snapshots live gauges the
// registry cannot see — fabric queue depths, prefetch-ring fill, param-reply
// lane backlog, pinned-snapshot counts, buffer-pool occupancy, per-rank
// pass/step watermarks — into a bounded ring of timestamped samples.
//
// Probes are plain std::function<double()> registered before Start(); each
// must be cheap and side-effect free (read an atomic, or take a short
// uncontended mutex). The sampler never touches a hot path and never feeds
// back into scheduling decisions, so enabling the monitor cannot perturb a
// run: monitor-on and monitor-off executions are bit-for-bit identical.
//
// The monitor also carries the registry snapshot the metrics endpoint
// renders from: the driver publishes an immutable ExportMetrics() copy at
// pass boundaries (a shared_ptr swap), so a scrape never races live driver
// state. Runtime-toggled like the span tracer: Start()/Stop() any time.
#ifndef ORION_SRC_OBS_MONITOR_H_
#define ORION_SRC_OBS_MONITOR_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics_registry.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace orion {
namespace obs {

class Monitor {
 public:
  struct Options {
    double period_seconds = 0.1;  // sampler cadence
    size_t ring_capacity = 600;   // samples retained (1 min at the default)
  };

  Monitor();
  explicit Monitor(Options options);
  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  // Registers one gauge probe. Must be called before Start(); the callable
  // must stay valid until the Monitor dies and must be safe to invoke from
  // the sampler thread at any time.
  void RegisterProbe(const std::string& name, std::function<double()> probe);

  Status Start();
  void Stop();
  bool running() const;

  struct Sample {
    i64 t_ns = 0;                // trace::NowNs epoch
    std::vector<double> values;  // parallel to ProbeNames()
  };

  std::vector<std::string> ProbeNames() const;
  // Latest sample (values empty when none taken yet).
  Sample Latest() const;
  std::vector<Sample> SamplesSnapshot() const;
  u64 samples_taken() const;

  // Takes one sample synchronously on the calling thread (tests, and the
  // final sample at Stop so short runs always have at least one).
  void SampleNow();

  // ---- Registry snapshot swap (endpoint render source) ----

  void PublishRegistry(std::shared_ptr<const MetricsRegistry> registry);
  std::shared_ptr<const MetricsRegistry> PublishedRegistry() const;

  // Merges the live view into `registry`: "live.<probe>" gauges from the
  // latest sample, one "live.<probe>" series point per retained sample, and
  // the "live.monitor.samples" counter.
  void MergeInto(MetricsRegistry* registry) const;

 private:
  void Loop();
  void TakeSampleLocked();  // requires mu_

  Options options_;

  mutable std::mutex mu_;
  std::condition_variable stop_cv_;
  std::vector<std::string> names_;
  std::vector<std::function<double()>> probes_;
  std::deque<Sample> ring_;
  u64 samples_taken_ = 0;
  bool running_ = false;
  bool stop_ = false;
  std::thread thread_;

  mutable std::mutex registry_mu_;
  std::shared_ptr<const MetricsRegistry> published_;
};

}  // namespace obs
}  // namespace orion

#endif  // ORION_SRC_OBS_MONITOR_H_
