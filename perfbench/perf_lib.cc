#include "perfbench/perf_lib.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

namespace orion {
namespace perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::optional<std::string> RunForked(const std::function<std::string()>& child) {
  const auto tasks = std::filesystem::directory_iterator("/proc/self/task");
  if (std::distance(std::filesystem::begin(tasks), std::filesystem::end(tasks)) != 1) {
    return std::nullopt;
  }
  int fds[2];
  if (pipe(fds) != 0) {
    return std::nullopt;
  }
  // Buffered output would otherwise be written once by each process.
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) {
      _exit(1);  // the parent died before the line above took effect
    }
    const std::string out = child();
    size_t done = 0;
    while (done < out.size()) {
      const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
      if (n < 0 && errno != EINTR) {
        _exit(1);
      }
      done += n > 0 ? static_cast<size_t>(n) : 0;
    }
    // _exit skips the parent's atexit handlers and stdio buffers.
    _exit(0);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  while (true) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      return std::nullopt;
    }
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return out;
}

Percentile PercentileOf(std::vector<double> samples, double q) {
  Percentile p;
  p.q = q;
  p.count = samples.size();
  if (samples.empty()) {
    return p;
  }
  // Nearest rank; the epsilon keeps q*n that is integral in exact
  // arithmetic (0.9 * 100) from rounding up a rank.
  const double exact = q * static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1),
                   samples.end());
  p.beyond = samples.size() - rank;
  p.valid = q <= 0.5 || p.beyond >= kMinSamplesBeyond;
  if (p.valid) {
    p.value = samples[rank - 1];
  }
  return p;
}

Percentile HighestTail(const std::vector<double>& samples) {
  Percentile best = PercentileOf(samples, 0.5);
  for (double q : {0.9, 0.99, 0.999}) {
    Percentile p = PercentileOf(samples, q);
    if (!p.valid) {
      break;
    }
    best = p;
  }
  return best;
}

int SpanRecorder::Begin(const std::string& name, uint64_t id) {
  if (!enabled_) {
    return -1;
  }
  Span s;
  s.name = name;
  s.id = id;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = SecondsSince(epoch_);
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<size_t>(index)].end = SecondsSince(epoch_);
  // Scopes close innermost first, so `index` is the top of the stack.
  open_.pop_back();
}

std::map<std::string, double> SelfSecondsByLayer(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the span.
    double covered = 0.0;
    double reach = s.start;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, reach);
      hi = std::min(hi, s.end);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

bool WriteSpans(const std::string& path, const std::vector<std::vector<Span>>& per_thread) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (size_t t = 0; t < per_thread.size(); ++t) {
    for (const Span& s : per_thread[t]) {
      std::fprintf(f,
                   "{\"thread\":%zu,\"name\":\"%s\",\"id\":%llu,\"parent\":%d,"
                   "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                   t, s.name.c_str(), static_cast<unsigned long long>(s.id), s.parent,
                   s.start, s.end);
    }
  }
  return std::fclose(f) == 0;
}

OpenLoopResult RunOpenLoop(double rate_per_s, const std::atomic<bool>& stop,
                           const std::function<void(uint64_t)>& request) {
  OpenLoopResult out;
  const auto interval = std::chrono::duration<double>(1.0 / rate_per_s);
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(interval * static_cast<double>(i));
    std::this_thread::sleep_until(due);
    const double late = std::chrono::duration<double>(Clock::now() - due).count();
    out.max_late_s = std::max(out.max_late_s, late);
    request(i);
    out.latency_s.push_back(std::chrono::duration<double>(Clock::now() - due).count());
  }
  return out;
}

}  // namespace perfbench
}  // namespace orion
