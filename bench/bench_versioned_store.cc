// Versioned copy-on-write parameter store: 1D snapshot serving vs the
// inline 1D baseline, plus a writer microbench on the wavefront overwrite
// path.
//
// Sweep 1 (1D serving): a chunked 1D loop with runtime-subscripted server
// reads and buffered server writes, split into sync rounds, on a
// real-time-charged link. The baseline serves every round's prefetch
// inline on the master's service loop (one serialized reply per worker per
// round); async serving moves 1D loops onto the sharded path — the service
// loop pins a snapshot per request (a refcount bump) and pool
// threads gather from it with no lock while replies overlap on per-worker
// lanes. The workload is arrival-invariant (read-only table + additive
// integer-valued buffered updates), so every configuration must be
// bit-for-bit identical to the inline run; a mismatch is the only failure
// (exit 1).
//
// Sweep 2 (writers vs pinned readers): the skewed-wavefront recurrence
// flushes unbuffered server writes (kOverwrite) mid-pass while gather tasks
// for the next steps are in flight. Gathers read pinned snapshots with no
// lock held and writers pay only for the pages they actually clone; the
// result must match an inline-serving run bit for bit (exit 1 otherwise).
//
// Results go to BENCH_versioned_store.json for the CI smoke step.
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

// ---- Sweep 1: 1D chunked serving ----

struct OneDConfig {
  bool async_serving = true;  // false: the inline baseline
  int shards = 4;
};

struct OneDResult {
  double sec_per_pass = 0.0;
  double serve_seconds = 0.0;
  u64 snapshot_pins = 0;
  u64 pages_cloned = 0;
  u64 stripe_gather_ns = 0;
  std::map<i64, std::vector<f32>> table_w;
  f64 accum = 0.0;
};

OneDResult Run1D(const OneDConfig& c) {
  constexpr i64 kSamples = 1536;
  constexpr i64 kKeys = 6000;
  constexpr int kRounds = 4;
  constexpr int kPasses = 4;

  DriverConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.net = SlowLink();
  cfg.seed = 17;
  cfg.async_param_serving = c.async_serving;
  cfg.param_server_shards = c.shards;
  Driver driver(cfg);

  auto samples = driver.CreateDistArray("samples", {kSamples}, 3, Density::kDense);
  auto table_r = driver.CreateDistArray("table_r", {kKeys}, 8, Density::kDense);
  auto table_w = driver.CreateDistArray("table_w", {kKeys}, 4, Density::kDense);
  driver.MapCells(samples, [](i64 key, f32* v) {
    v[0] = static_cast<f32>((key * 131 + 17) % kKeys);  // read key
    v[1] = static_cast<f32>((key * 173 + 5) % kKeys);   // write key
    v[2] = static_cast<f32>(1 + key % 7);               // integer payload
  });
  driver.MapCells(table_r, [](i64 key, f32* v) {
    for (int d = 0; d < 8; ++d) {
      v[d] = static_cast<f32>((key + d) % 13);
    }
  });
  driver.RegisterBuffer(table_w, 4, MakeAddApplyFn());
  const int acc = driver.CreateAccumulator();

  LoopSpec spec;
  spec.iter_space = samples;
  spec.iter_extents = {kSamples};
  spec.AddAccess(table_r, "table_r", {Expr::Runtime("rk")}, /*is_write=*/false);
  spec.AddAccess(table_w, "table_w", {Expr::Runtime("wk")}, /*is_write=*/true,
                 /*buffered=*/true);
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    (void)idx;
    const i64 rk[1] = {static_cast<i64>(value[0])};
    const i64 wk[1] = {static_cast<i64>(value[1])};
    const f32* t = ctx.Read(table_r, rk);
    // Integer-valued f32 adds: exact and commutative, so the merged result
    // is independent of apply arrival order across workers.
    f32 upd[4];
    for (int d = 0; d < 4; ++d) {
      upd[d] = value[2] * (t[d] + t[d + 4] + 1.0f);
    }
    ctx.BufferUpdate(table_w, wk, upd);
    ctx.AccumulatorAdd(acc, static_cast<f64>(upd[0]));
  };

  ParallelForOptions options;
  options.prefetch = PrefetchMode::kBulk;
  options.server_sync_rounds = kRounds;
  options.planner.replicate_threshold_floats = 0;  // force both tables -> kServer
  auto loop = driver.Compile(spec, kernel, options);
  ORION_CHECK_OK(loop.status());
  ORION_CHECK(driver.PlanOf(*loop).form == ParallelForm::k1D);
  ORION_CHECK(driver.PlanOf(*loop).placements.at(table_r).scheme == PartitionScheme::kServer);

  OneDResult res;
  for (int p = 0; p < kPasses; ++p) {
    ORION_CHECK_OK(driver.Execute(*loop));
    const LoopMetrics& m = driver.last_metrics();
    res.sec_per_pass += m.pass_wall_seconds;
    res.serve_seconds += m.param_serve_seconds;
    res.snapshot_pins += m.versioned_snapshot_pins;
    res.pages_cloned += m.versioned_pages_cloned;
    for (const auto& s : m.stripes) {
      res.stripe_gather_ns += s.gather_ns;
    }
  }
  res.sec_per_pass /= kPasses;
  res.table_w = Snapshot(&driver, table_w);
  res.accum = driver.AccumulatorValue(acc);
  return res;
}

bool Identical(const OneDResult& a, const OneDResult& b) {
  return a.table_w == b.table_w && a.accum == b.accum;
}

// ---- Sweep 2: wavefront writers vs pinned readers ----

struct WaveResult {
  double sec_per_pass = 0.0;
  u64 stripe_gather_ns = 0;
  u64 pages_cloned = 0;
  u64 cow_bytes = 0;
  std::map<i64, std::vector<f32>> out;
};

WaveResult RunWave(bool async_serving) {
  const i64 n = 40;
  const i64 m = 32;

  DriverConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.seed = 23;
  cfg.async_param_serving = async_serving;
  cfg.param_server_shards = 4;
  Driver driver(cfg);
  auto grid = driver.CreateDistArray("grid", {n, m}, 1, Density::kSparse);
  auto b = driver.CreateDistArray("B", {n, m}, 1, Density::kDense);
  auto c = driver.CreateDistArray("C", {n, m}, 1, Density::kDense);
  {
    CellStore& cells = driver.MutableCells(grid);
    for (i64 i = 0; i < n; ++i) {
      for (i64 j = 0; j < m; ++j) {
        *cells.GetOrCreate(i * m + j) = 1.0f;
      }
    }
    Rng rng(7);
    driver.MapCells(b, [&](i64, f32* v) { v[0] = static_cast<f32>(rng.NextBounded(4)); });
  }

  LoopSpec spec;
  spec.iter_space = grid;
  spec.iter_extents = {n, m};
  spec.AddAccess(c, "C", {Expr::LoopIndex(0), Expr::LoopIndex(1)}, /*is_write=*/true);
  spec.AddAccess(c, "C", {Expr::Sub(Expr::LoopIndex(0), Expr::Const(1)), Expr::LoopIndex(1)},
                 /*is_write=*/false);
  spec.AddAccess(c, "C", {Expr::LoopIndex(0), Expr::Sub(Expr::LoopIndex(1), Expr::Const(1))},
                 /*is_write=*/false);
  spec.AddAccess(b, "B", {Expr::LoopIndex(0), Expr::LoopIndex(1)}, /*is_write=*/false);
  LoopKernel kernel = [&](LoopContext& ctx, IdxSpan idx, const f32* value) {
    (void)value;
    const i64 i = idx[0];
    const i64 j = idx[1];
    f32 up = 0.0f;
    f32 left = 0.0f;
    if (i > 0) {
      const i64 ku[2] = {i - 1, j};
      up = ctx.Read(c, ku)[0];
    }
    if (j > 0) {
      const i64 kl[2] = {i, j - 1};
      left = ctx.Read(c, kl)[0];
    }
    const i64 kb[2] = {i, j};
    f32* o = ctx.Mutate(c, kb);
    o[0] = up + left + ctx.Read(b, kb)[0];
  };

  auto loop = driver.Compile(spec, kernel, {});
  ORION_CHECK_OK(loop.status());
  ORION_CHECK(driver.PlanOf(*loop).form == ParallelForm::k2DUnimodular);

  WaveResult res;
  constexpr int kPasses = 3;
  for (int p = 0; p < kPasses; ++p) {
    ORION_CHECK_OK(driver.Execute(*loop));
    const LoopMetrics& lm = driver.last_metrics();
    res.sec_per_pass += lm.pass_wall_seconds;
    res.pages_cloned += lm.versioned_pages_cloned;
    res.cow_bytes += lm.versioned_cow_bytes;
    for (const auto& s : lm.stripes) {
      res.stripe_gather_ns += s.gather_ns;
    }
  }
  res.sec_per_pass /= kPasses;
  res.out = Snapshot(&driver, c);
  return res;
}

int Main() {
  PrintHeader("versioned copy-on-write parameter store",
              "1D snapshot serving vs inline baseline (real-time-charged link), and "
              "wavefront overwrites racing pinned gathers vs inline serving");

  OneDConfig inline_cfg;
  inline_cfg.async_serving = false;
  const OneDResult baseline = Run1D(inline_cfg);
  ORION_CHECK(baseline.snapshot_pins == 0);

  struct Point {
    int shards;
    OneDResult res;
    bool identical;
  };
  std::vector<Point> points;
  bool identical = true;
  std::printf("config,sec_per_pass,speedup_vs_inline,serve_sec,pins,stripe_gather_ns,identical\n");
  std::printf("inline,%.4f,1.00,,,,\n", baseline.sec_per_pass);
  for (int shards : {1, 4}) {
    OneDConfig c;
    c.shards = shards;
    Point p{shards, Run1D(c), false};
    p.identical = Identical(baseline, p.res);
    if (!p.identical) {
      std::printf("MISMATCH: shards=%d not bit-for-bit identical to inline\n", shards);
      identical = false;
    }
    ORION_CHECK(p.res.snapshot_pins > 0);
    std::printf("snap_s%d,%.4f,%.2f,%.4f,%llu,%llu,%d\n", shards, p.res.sec_per_pass,
                baseline.sec_per_pass / p.res.sec_per_pass, p.res.serve_seconds,
                static_cast<unsigned long long>(p.res.snapshot_pins),
                static_cast<unsigned long long>(p.res.stripe_gather_ns), p.identical ? 1 : 0);
    points.push_back(std::move(p));
  }
  double best_speedup = 0.0;
  for (const Point& p : points) {
    best_speedup = std::max(best_speedup, baseline.sec_per_pass / p.res.sec_per_pass);
  }

  const WaveResult inline_wave = RunWave(/*async_serving=*/false);
  const WaveResult snap = RunWave(/*async_serving=*/true);
  const bool wave_identical = inline_wave.out == snap.out;
  if (!wave_identical) {
    identical = false;
    std::printf("MISMATCH: wavefront snapshot run differs from inline run\n");
  }
  std::printf("wavefront inline:   sec_per_pass=%.4f\n", inline_wave.sec_per_pass);
  std::printf("wavefront snapshot: sec_per_pass=%.4f gather=%.3fms pages_cloned=%llu "
              "cow_bytes=%llu\n",
              snap.sec_per_pass, snap.stripe_gather_ns * 1e-6,
              static_cast<unsigned long long>(snap.pages_cloned),
              static_cast<unsigned long long>(snap.cow_bytes));

  std::vector<std::string> sweep_rows;
  for (const Point& p : points) {
    sweep_rows.push_back(
        JsonF("{\"shards\": %d, \"sec_per_pass\": %.6f, "
              "\"speedup_vs_inline\": %.3f, \"serve_sec\": %.6f, "
              "\"snapshot_pins\": %llu, \"stripe_gather_ns\": %llu, "
              "\"identical\": %s}",
              p.shards, p.res.sec_per_pass, baseline.sec_per_pass / p.res.sec_per_pass,
              p.res.serve_seconds, static_cast<unsigned long long>(p.res.snapshot_pins),
              static_cast<unsigned long long>(p.res.stripe_gather_ns),
              p.identical ? "true" : "false"));
  }
  BenchJson("versioned_store")
      .Figure("inline_sec", baseline.sec_per_pass)
      .Figure("sweep", BenchJson::Array(sweep_rows))
      .Figure("wavefront",
              JsonF("{\"inline_sec_per_pass\": %.6f, \"snapshot_sec_per_pass\": %.6f, "
                    "\"snapshot_gather_ns\": %llu, \"snapshot_pages_cloned\": %llu, "
                    "\"snapshot_cow_bytes\": %llu, \"identical\": %s}",
                    inline_wave.sec_per_pass, snap.sec_per_pass,
                    static_cast<unsigned long long>(snap.stripe_gather_ns),
                    static_cast<unsigned long long>(snap.pages_cloned),
                    static_cast<unsigned long long>(snap.cow_bytes),
                    wave_identical ? "true" : "false"))
      .Figure("best_speedup_vs_inline", JsonF("%.3f", best_speedup))
      .Figure("bit_for_bit_identical", identical)
      .Write();

  PrintShape("1D snapshot serving beats the inline baseline by >= 1.15x",
             best_speedup >= 1.15);
  PrintShape("all configurations bit-for-bit identical", identical);
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace orion

int main() { return orion::Main(); }
