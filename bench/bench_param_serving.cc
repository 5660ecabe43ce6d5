// Parameter serving + depth-k prefetch ring: pass wall time across a ring
// depth sweep on the rotation+server scenario, under a cost model that
// charges real time at the sender.
//
// The master gathers every reply on its service loop and sends it through a
// per-worker reply lane, so the reply fan-out's modeled latencies overlap
// across workers. The depth-1 overlap engine (double buffer) is the
// baseline; the sweep deepens the ring. One extra point runs depth 2 under
// seeded message faults (drop/dup/delay of control traffic) to show serving
// composes with supervision.
//
// Every configuration must be bit-for-bit identical to the synchronous run;
// a mismatch is the only failure (exit 1). Timings are written to
// BENCH_param_serving.json for the CI smoke step.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/driver.h"

namespace orion {
namespace {

constexpr int kWorkers = 4;

std::map<i64, std::vector<f32>> Snapshot(Driver* d, DistArrayId id) {
  std::map<i64, std::vector<f32>> out;
  const CellStore& c = d->Cells(id);
  c.ForEachConst([&](i64 key, const f32* v) {
    out[key].assign(v, v + c.value_dim());
  });
  return out;
}

NetCostModel SlowLink() {
  NetCostModel m;
  m.latency_us = 1000.0;
  m.bandwidth_bps = 2e9;
  m.charge_real_time = true;
  return m;
}

struct Config {
  bool overlap = true;
  int depth = 2;
  bool faults = false;
};

struct RunResult {
  double sec_per_pass = 0.0;
  double serve_seconds = 0.0;
  int ring_depth = 0;
  double reply_wait_seconds = 0.0;
  WaitHistogram reply_wait;  // merged across workers and passes
  std::map<i64, std::vector<f32>> out_r;
  std::map<i64, std::vector<f32>> out_c;
  f64 accum = 0.0;
};

RunResult Run(const Config& c) {
  constexpr i64 kRows = 64;
  constexpr i64 kCols = 64;
  constexpr int kPasses = 6;

  DriverConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.net = SlowLink();
  cfg.seed = 11;
  if (c.faults) {
    cfg.fault_plan.seed = 29;
    cfg.fault_plan.drop_prob = 0.03;
    cfg.fault_plan.dup_prob = 0.03;
    cfg.fault_plan.delay_prob = 0.03;
    cfg.supervisor.heartbeat_interval_seconds = 0.05;
    cfg.supervisor.retry_initial_seconds = 0.05;
  }
  Driver driver(cfg);

  auto data = driver.CreateDistArray("data", {kRows, kCols}, 1, Density::kSparse);
  auto out_r = driver.CreateDistArray("out_r", {kRows}, 4, Density::kDense);
  auto out_c = driver.CreateDistArray("out_c", {kCols}, 4, Density::kDense);
  auto table = driver.CreateDistArray("table", {kRows + kCols - 1}, 4, Density::kDense);
  {
    Rng rng(99);
    CellStore& cells = driver.MutableCells(data);
    for (i64 n = 0; n < 2500; ++n) {
      const i64 i = static_cast<i64>(rng.NextBounded(static_cast<u64>(kRows)));
      const i64 j = static_cast<i64>(rng.NextBounded(static_cast<u64>(kCols)));
      *cells.GetOrCreate(i * kCols + j) = 1.0f + 0.25f * static_cast<f32>(n % 7);
    }
    driver.MapCells(table, [](i64 key, f32* v) {
      for (int d = 0; d < 4; ++d) {
        v[d] = 0.5f + 0.001f * static_cast<f32>(key + d);
      }
    });
  }

  LoopSpec spec;
  spec.iter_space = data;
  spec.iter_extents = {kRows, kCols};
  spec.AddAccess(out_r, "out_r", {Expr::LoopIndex(0)}, true);
  spec.AddAccess(out_c, "out_c", {Expr::LoopIndex(1)}, true);
  spec.AddAccess(table, "table", {Expr::Add(Expr::LoopIndex(0), Expr::LoopIndex(1))},
                 false);

  const int acc = driver.CreateAccumulator();
  // Lighter compute than bench_overlap's kernel: here the regime under test
  // is a master-bound pass, where the reply fan-out (one ~latency sleep per
  // worker per step) is comparable to the kernel time. The per-worker reply
  // lanes overlap that fan-out; the deep ring hides the round trip.
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 k[1] = {idx[0] + idx[1]};
    const f32* t = ctx.Read(table, k);
    f32 s = value[0];
    for (int it = 0; it < 2500; ++it) {
      s = s * 0.999f + t[it & 3] * 0.001f;
    }
    const i64 ki[1] = {idx[0]};
    const i64 kj[1] = {idx[1]};
    f32* r = ctx.Mutate(out_r, ki);
    f32* cc = ctx.Mutate(out_c, kj);
    for (int d = 0; d < 4; ++d) {
      r[d] += s * t[d];
      cc[d] += s * t[d];
    }
    ctx.AccumulatorAdd(acc, static_cast<f64>(s));
  };

  ParallelForOptions options;
  options.prefetch = PrefetchMode::kCached;  // warm cache => deep early issue
  options.prefetch_depth = c.depth;
  options.overlap = c.overlap;
  options.planner.replicate_threshold_floats = 0;  // force table -> kServer
  auto loop = driver.Compile(spec, kernel, options);
  ORION_CHECK_OK(loop.status());
  ORION_CHECK(driver.PlanOf(*loop).placements.at(table).scheme == PartitionScheme::kServer);

  RunResult res;
  for (int p = 0; p < kPasses; ++p) {
    ORION_CHECK_OK(driver.Execute(*loop));
    if (p > 0) {  // skip the recording pass: measure the warm-cache regime
      const LoopMetrics& m = driver.last_metrics();
      res.sec_per_pass += m.pass_wall_seconds;
      res.serve_seconds += m.param_serve_seconds;
      res.ring_depth = std::max(res.ring_depth, m.prefetch_ring_depth_used);
      for (const WaitHistogram& h : m.worker_reply_wait) {
        res.reply_wait.Merge(h);
      }
    }
  }
  res.reply_wait_seconds = res.reply_wait.total_seconds;
  res.sec_per_pass /= kPasses - 1;
  res.out_r = Snapshot(&driver, out_r);
  res.out_c = Snapshot(&driver, out_c);
  res.accum = driver.AccumulatorValue(acc);
  return res;
}

bool Identical(const RunResult& a, const RunResult& b) {
  return a.out_r == b.out_r && a.out_c == b.out_c && a.accum == b.accum;
}

int Main() {
  PrintHeader("parameter serving + depth-k prefetch ring",
              "pass wall seconds across ring depths, vs the depth-1 overlap baseline, "
              "real-time-charged link");

  Config sync_cfg;
  sync_cfg.overlap = false;
  sync_cfg.depth = 1;
  const RunResult sync = Run(sync_cfg);

  struct Point {
    int depth;
    RunResult res;
    bool identical;
  };
  std::vector<Point> points;
  bool identical = true;
  for (int depth : {1, 2, 4}) {
    Config c;
    c.depth = depth;
    Point p{depth, Run(c), false};
    p.identical = Identical(sync, p.res);
    if (!p.identical) {
      std::printf("MISMATCH: depth=%d is not bit-for-bit identical to sync\n", depth);
      identical = false;
    }
    points.push_back(std::move(p));
  }
  const RunResult& baseline = points.front().res;  // depth-1 overlap engine

  std::printf("depth,sec_per_pass,speedup_vs_depth1,serve_sec,ring_depth,reply_wait_sec,"
              "identical\n");
  std::printf("sync,%.4f,,,,,\n", sync.sec_per_pass);
  for (const Point& p : points) {
    std::printf("%d,%.4f,%.2f,%.4f,%d,%.4f,%d\n", p.depth, p.res.sec_per_pass,
                baseline.sec_per_pass / p.res.sec_per_pass, p.res.serve_seconds,
                p.res.ring_depth, p.res.reply_wait_seconds, p.identical ? 1 : 0);
  }

  Config fault_cfg;
  fault_cfg.depth = 2;
  fault_cfg.faults = true;
  const RunResult faulted = Run(fault_cfg);
  const bool fault_identical = Identical(sync, faulted);
  if (!fault_identical) {
    std::printf("MISMATCH: fault-injected run is not bit-for-bit identical to sync\n");
    identical = false;
  }
  std::printf("2,%.4f,%.2f,%.4f,%d,%.4f,%d  (fault-injected)\n", faulted.sec_per_pass,
              baseline.sec_per_pass / faulted.sec_per_pass, faulted.serve_seconds,
              faulted.ring_depth, faulted.reply_wait_seconds, fault_identical ? 1 : 0);

  std::vector<std::string> sweep_rows;
  for (const Point& p : points) {
    sweep_rows.push_back(
        JsonF("{\"depth\": %d, \"sec_per_pass\": %.6f, "
              "\"speedup_vs_depth1\": %.3f, \"serve_sec\": %.6f, "
              "\"ring_depth_used\": %d, \"reply_wait_sec\": %.6f, "
              "\"reply_wait_p50\": %.6f, \"reply_wait_p99\": %.6f, "
              "\"identical\": %s}",
              p.depth, p.res.sec_per_pass, baseline.sec_per_pass / p.res.sec_per_pass,
              p.res.serve_seconds, p.res.ring_depth, p.res.reply_wait_seconds,
              p.res.reply_wait.ApproxPercentile(0.5),
              p.res.reply_wait.ApproxPercentile(0.99), p.identical ? "true" : "false"));
  }
  BenchJson("param_serving")
      .Figure("sync_sec", sync.sec_per_pass)
      .Figure("sweep", BenchJson::Array(sweep_rows))
      .Figure("fault_injected",
              JsonF("{\"depth\": 2, \"sec_per_pass\": %.6f, \"identical\": %s}",
                    faulted.sec_per_pass, fault_identical ? "true" : "false"))
      .Figure("bit_for_bit_identical", identical)
      .Write();

  PrintShape("all ring depths and the faulted run bit-for-bit identical to sync", identical);
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace orion

int main() { return orion::Main(); }
