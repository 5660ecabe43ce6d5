// Versioned copy-on-write parameter store: what serving parameter requests
// from a paged master that a serving tier pins costs, against the same
// workload on a flat master.
//
// Sweep 1 (1D serving): a chunked 1D loop with runtime-subscripted server
// reads and buffered server writes, split into sync rounds, on a
// real-time-charged link. The master gathers every round's replies on its
// service loop. In the pinned run a serving tier publishes (pins) both
// tables at every pass boundary, so the masters are paged and each round's
// flushes clone the pages the pin shares. The workload is arrival-invariant
// (read-only table + additive integer-valued buffered updates), so the
// pinned run must be bit-for-bit identical to the flat one; a mismatch is
// the only failure (exit 1).
//
// Sweep 2 (writers vs a pinned version): the skewed-wavefront recurrence
// flushes unbuffered server writes (kOverwrite) mid-pass while the tier's
// pin shares the pages; writers pay only for the pages they actually clone,
// and the result must match the flat run bit for bit (exit 1 otherwise).
//
// Results go to BENCH_versioned_store.json for the CI smoke step.
#include <utility>
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

struct OneDResult {
  double sec_per_pass = 0.0;
  double serve_seconds = 0.0;
  u64 snapshot_pins = 0;
  u64 pages_cloned = 0;
  u64 cow_bytes = 0;
  std::map<i64, std::vector<f32>> table_w;
  f64 accum = 0.0;
};

// `pinned`: a serving tier publishes both tables at every pass boundary.
OneDResult Run1D(bool pinned) {
  constexpr i64 kSamples = 1536;
  constexpr i64 kKeys = 6000;
  constexpr int kRounds = 4;
  constexpr int kPasses = 4;

  DriverConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.net = SlowLink();
  cfg.seed = 17;
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
  driver.RegisterBuffer(table_w, 4);
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
  if (pinned) {
    ORION_CHECK_OK(driver.StartServingTier({table_r, table_w}).status());
  }

  OneDResult res;
  for (int p = 0; p < kPasses; ++p) {
    ORION_CHECK_OK(driver.Execute(*loop));
    const LoopMetrics& m = driver.last_metrics();
    res.sec_per_pass += m.pass_wall_seconds;
    res.serve_seconds += m.param_serve_seconds;
    res.snapshot_pins += m.versioned_snapshot_pins;
    res.pages_cloned += m.versioned_pages_cloned;
    res.cow_bytes += m.versioned_cow_bytes;
  }
  res.sec_per_pass /= kPasses;
  res.table_w = Snapshot(&driver, table_w);
  res.accum = driver.AccumulatorValue(acc);
  return res;
}

bool Identical(const OneDResult& a, const OneDResult& b) {
  return a.table_w == b.table_w && a.accum == b.accum;
}

// ---- Sweep 2: wavefront writers vs a pinned version ----

struct WaveResult {
  double sec_per_pass = 0.0;
  double serve_seconds = 0.0;
  u64 pages_cloned = 0;
  u64 cow_bytes = 0;
  std::map<i64, std::vector<f32>> out;
};

WaveResult RunWave(bool pinned) {
  const i64 n = 40;
  const i64 m = 32;

  DriverConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.seed = 23;
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
  if (pinned) {
    ORION_CHECK_OK(driver.StartServingTier({c}).status());
  }

  WaveResult res;
  constexpr int kPasses = 3;
  for (int p = 0; p < kPasses; ++p) {
    ORION_CHECK_OK(driver.Execute(*loop));
    const LoopMetrics& lm = driver.last_metrics();
    res.sec_per_pass += lm.pass_wall_seconds;
    res.serve_seconds += lm.param_serve_seconds;
    res.pages_cloned += lm.versioned_pages_cloned;
    res.cow_bytes += lm.versioned_cow_bytes;
  }
  res.sec_per_pass /= kPasses;
  res.out = Snapshot(&driver, c);
  return res;
}

int Main() {
  PrintHeader("versioned copy-on-write parameter store",
              "1D serving and wavefront overwrites on a flat master vs a paged master "
              "a serving tier pins every pass (real-time-charged link for 1D)");

  const OneDResult flat = Run1D(/*pinned=*/false);
  ORION_CHECK(flat.snapshot_pins == 0);
  const OneDResult pinned = Run1D(/*pinned=*/true);
  ORION_CHECK(pinned.snapshot_pins > 0);
  bool identical = Identical(flat, pinned);
  if (!identical) {
    std::printf("MISMATCH: 1D pinned run not bit-for-bit identical to flat\n");
  }
  std::printf("config,sec_per_pass,serve_sec,pins,pages_cloned,cow_bytes,identical\n");
  for (const auto& [name, r] : {std::pair<const char*, const OneDResult*>{"1d_flat", &flat},
                                {"1d_pinned", &pinned}}) {
    std::printf("%s,%.4f,%.4f,%llu,%llu,%llu,%d\n", name, r->sec_per_pass, r->serve_seconds,
                static_cast<unsigned long long>(r->snapshot_pins),
                static_cast<unsigned long long>(r->pages_cloned),
                static_cast<unsigned long long>(r->cow_bytes), identical ? 1 : 0);
  }

  const WaveResult flat_wave = RunWave(/*pinned=*/false);
  const WaveResult pinned_wave = RunWave(/*pinned=*/true);
  const bool wave_identical = flat_wave.out == pinned_wave.out;
  if (!wave_identical) {
    identical = false;
    std::printf("MISMATCH: wavefront pinned run differs from flat run\n");
  }
  for (const auto& [name, r] :
       {std::pair<const char*, const WaveResult*>{"wave_flat", &flat_wave},
        {"wave_pinned", &pinned_wave}}) {
    std::printf("%s,%.4f,%.4f,,%llu,%llu,%d\n", name, r->sec_per_pass, r->serve_seconds,
                static_cast<unsigned long long>(r->pages_cloned),
                static_cast<unsigned long long>(r->cow_bytes), wave_identical ? 1 : 0);
  }

  auto one_d = [](const OneDResult& r) {
    return JsonF("{\"sec_per_pass\": %.6f, \"serve_sec\": %.6f, \"snapshot_pins\": %llu, "
                 "\"pages_cloned\": %llu, \"cow_bytes\": %llu}",
                 r.sec_per_pass, r.serve_seconds,
                 static_cast<unsigned long long>(r.snapshot_pins),
                 static_cast<unsigned long long>(r.pages_cloned),
                 static_cast<unsigned long long>(r.cow_bytes));
  };
  auto wave = [](const WaveResult& r) {
    return JsonF("{\"sec_per_pass\": %.6f, \"serve_sec\": %.6f, \"pages_cloned\": %llu, "
                 "\"cow_bytes\": %llu}",
                 r.sec_per_pass, r.serve_seconds,
                 static_cast<unsigned long long>(r.pages_cloned),
                 static_cast<unsigned long long>(r.cow_bytes));
  };
  BenchJson("versioned_store")
      .Figure("one_d_flat", one_d(flat))
      .Figure("one_d_pinned", one_d(pinned))
      .Figure("wavefront_flat", wave(flat_wave))
      .Figure("wavefront_pinned", wave(pinned_wave))
      .Figure("bit_for_bit_identical", identical)
      .Write();

  PrintShape("writers under a live pin clone pages instead of blocking",
             pinned.pages_cloned > 0 && pinned_wave.pages_cloned > 0);
  PrintShape("pinned and flat masters bit-for-bit identical", identical);
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace orion

int main() { return orion::Main(); }
