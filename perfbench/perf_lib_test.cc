// Unit tests of the benchmark's measurement helpers: the process CPU clock,
// runs in a forked copy, the tail percentile rule, self-time subtraction
// and due-time latency of the open-loop generator.
#include "perfbench/perf_lib.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace orion {
namespace perfbench {
namespace {

std::vector<double> OneToN(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {  // unsorted on purpose
    v.push_back(i);
  }
  return v;
}

// ---- Process CPU clock ----

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// The gated timings are CPU time, so a sleeping thread must add nothing
// and busy threads must add their CPU time, summed over threads.
TEST(ProcessCpu, CountsBusyThreadsAndNotSleep) {
  const double before_sleep = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LT(ProcessCpuSeconds() - before_sleep, 0.02);

  constexpr double kBusy = 0.05;
  const double before_busy = ProcessCpuSeconds();
  auto spin = [] {
    const double t0 = ThreadCpuSeconds();
    while (ThreadCpuSeconds() - t0 < kBusy) {
    }
  };
  std::thread a(spin);
  std::thread b(spin);
  a.join();
  b.join();
  EXPECT_GE(ProcessCpuSeconds() - before_busy, 2 * kBusy);
}

// ---- Forked runs ----

TEST(RunForked, ReturnsTheChildsBytesAndLeavesThisProcessAlone) {
  int counter = 1;
  for (int i = 0; i < 3; ++i) {
    // Each copy starts from this process's state, whatever earlier copies did.
    const std::optional<std::string> out = RunForked([&] {
      ++counter;
      return std::string("count=") + std::to_string(counter) + std::string(5000, 'x');
    });
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->substr(0, 8), "count=2x");
    EXPECT_EQ(out->size(), 8u + 4999u);
  }
  EXPECT_EQ(counter, 1);
}

TEST(RunForked, FailsOnAFailedChildOrAnotherThread) {
  EXPECT_FALSE(RunForked([]() -> std::string { _exit(3); }).has_value());
  EXPECT_FALSE(RunForked([]() -> std::string { raise(SIGKILL); return ""; }).has_value());

  std::atomic<bool> stop{false};
  std::thread other([&] {
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  EXPECT_FALSE(RunForked([] { return std::string("unsafe"); }).has_value());
  stop.store(true);
  other.join();
  EXPECT_EQ(RunForked([] { return std::string("ok"); }), std::optional<std::string>("ok"));
}

// ---- Percentile rule ----

TEST(Percentile, NearestRankWithCount) {
  const Percentile p = PercentileOf(OneToN(100), 0.9);
  EXPECT_TRUE(p.valid);
  EXPECT_EQ(p.value, 90.0);
  EXPECT_EQ(p.count, 100u);
  EXPECT_EQ(p.beyond, 10u);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_FALSE(PercentileOf(OneToN(99), 0.9).valid);  // 9 beyond
  EXPECT_TRUE(PercentileOf(OneToN(1000), 0.99).valid);
  EXPECT_FALSE(PercentileOf(OneToN(999), 0.99).valid);
  const Percentile median = PercentileOf(OneToN(3), 0.5);
  EXPECT_TRUE(median.valid);
  EXPECT_EQ(median.value, 2.0);
  EXPECT_FALSE(PercentileOf({}, 0.5).valid);
}

TEST(Percentile, HighestTailPicksTheLastValidRung) {
  EXPECT_EQ(HighestTail(OneToN(50)).q, 0.5);
  EXPECT_EQ(HighestTail(OneToN(100)).q, 0.9);
  EXPECT_EQ(HighestTail(OneToN(999)).q, 0.9);
  const Percentile p = HighestTail(OneToN(1000));
  EXPECT_EQ(p.q, 0.99);
  EXPECT_EQ(p.value, 990.0);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_EQ(HighestTail(OneToN(10000)).q, 0.999);
}

// ---- Self time ----

Span MakeSpan(const char* name, int parent, double start, double end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

TEST(SelfTime, SubtractsChildrenAndCountsOverlapOnce) {
  std::vector<Span> spans = {
      MakeSpan("bench.session", -1, 0.0, 10.0),
      MakeSpan("runtime.pass", 0, 1.0, 4.0),
      MakeSpan("runtime.pass", 0, 3.0, 5.0),  // overlaps the first pass
      MakeSpan("apps.eval", 0, 6.0, 7.0),
      MakeSpan("dsm.flush", 3, 6.2, 6.7),   // grandchild
      MakeSpan("serve.lookup", 0, 9.5, 12.0),  // runs past its parent
  };
  const auto self = SelfSecondsByLayer(spans);
  // Session: 10 - [1,5) - [6,7) - [9.5,10) = 10 - 4 - 1 - 0.5.
  EXPECT_NEAR(self.at("bench"), 4.5, 1e-12);
  EXPECT_NEAR(self.at("runtime"), 3.0 + 2.0, 1e-12);  // each pass has no children
  EXPECT_NEAR(self.at("apps"), 0.5, 1e-12);
  EXPECT_NEAR(self.at("dsm"), 0.5, 1e-12);
  EXPECT_NEAR(self.at("serve"), 2.5, 1e-12);
}

TEST(SelfTime, RecorderNestsScopesAndDisabledRecordsNothing) {
  SpanRecorder rec(true, Clock::now());
  {
    SpanRecorder::Scope outer(&rec, "bench.session", 7);
    SpanRecorder::Scope inner(&rec, "runtime.pass", 7);
  }
  { SpanRecorder::Scope root(&rec, "serve.lookup", 8); }
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[0].parent, -1);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[1].id, 7u);
  EXPECT_EQ(rec.spans()[2].parent, -1);
  EXPECT_LE(rec.spans()[1].end, rec.spans()[0].end);

  SpanRecorder off(false, Clock::now());
  { SpanRecorder::Scope s(&off, "bench.session", 1); }
  EXPECT_TRUE(off.spans().empty());
}

// ---- Open-loop generator ----

// One request stalls the callee for 50 ms. The requests due during the
// stall are sent late, and their latency, timed from the due time, carries
// that wait; a closed-loop timer (send to reply) would read ~0 for them.
TEST(OpenLoop, StalledCalleeDelaysRequestsDueMeanwhile) {
  constexpr double kRate = 1000.0;  // one request per ms
  constexpr double kStall = 0.050;
  std::atomic<bool> stop{false};
  std::vector<double> service_s;
  const OpenLoopResult r = RunOpenLoop(kRate, stop, [&](uint64_t i) {
    const Clock::time_point t0 = Clock::now();
    if (i == 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kStall));
    }
    service_s.push_back(SecondsSince(t0));
    if (i == 99) {
      stop.store(true);
    }
  });
  ASSERT_EQ(r.latency_s.size(), 100u);
  EXPECT_GE(r.latency_s[0], kStall);
  // Request i was due at i ms but could start only after the stall.
  for (int i = 1; i <= 40; ++i) {
    EXPECT_GE(r.latency_s[static_cast<size_t>(i)], kStall - i * 1e-3) << i;
    EXPECT_LT(service_s[static_cast<size_t>(i)], 0.005) << i;
  }
  EXPECT_GE(r.max_late_s, kStall - 1e-3);
}

TEST(OpenLoop, KeepsItsScheduleWhenTheCalleeIsFast) {
  std::atomic<bool> stop{false};
  const Clock::time_point t0 = Clock::now();
  const OpenLoopResult r = RunOpenLoop(200.0, stop, [&](uint64_t i) {
    if (i == 19) {
      stop.store(true);
    }
  });
  ASSERT_EQ(r.latency_s.size(), 20u);
  // 20 requests at 200/s span 19 intervals of 5 ms.
  EXPECT_GE(SecondsSince(t0), 19 * 0.005);
}

}  // namespace
}  // namespace perfbench
}  // namespace orion
