// End-to-end smoke tests for the Orion runtime: a small MF-shaped loop is
// compiled, planned (2D), scattered, and executed; the distributed result
// must match a serial reference execution.
#include <gtest/gtest.h>

#include <map>

#include "src/runtime/driver.h"

namespace orion {
namespace {

// Builds a sparse 2-D "data" array with deterministic entries.
std::map<i64, f32> FillData(Driver* driver, DistArrayId data, i64 rows, i64 cols, int stride) {
  std::map<i64, f32> entries;
  CellStore& cells = driver->MutableCells(data);
  const KeySpace& ks = driver->Meta(data).key_space;
  for (i64 i = 0; i < rows; ++i) {
    for (i64 j = i % stride; j < cols; j += stride) {
      const i64 key = ks.Encode(std::vector<i64>{i, j});
      const f32 v = static_cast<f32>((i * 31 + j * 17) % 13) + 1.0f;
      *cells.GetOrCreate(key) = v;
      entries[key] = v;
    }
  }
  return entries;
}

TEST(RuntimeSmoke, TwoDUnorderedRowColSums) {
  const i64 kRows = 24;
  const i64 kCols = 18;
  DriverConfig cfg;
  cfg.num_workers = 4;
  Driver driver(cfg);

  auto data = driver.CreateDistArray("data", {kRows, kCols}, 1, Density::kSparse);
  auto row_sum = driver.CreateDistArray("row_sum", {kRows}, 1, Density::kDense);
  auto col_sum = driver.CreateDistArray("col_sum", {kCols}, 1, Density::kDense);
  auto entries = FillData(&driver, data, kRows, kCols, 3);

  LoopSpec spec;
  spec.iter_space = data;
  spec.iter_extents = {kRows, kCols};
  spec.AddAccess(row_sum, "row_sum", {Expr::LoopIndex(0)}, /*is_write=*/false);
  spec.AddAccess(row_sum, "row_sum", {Expr::LoopIndex(0)}, /*is_write=*/true);
  spec.AddAccess(col_sum, "col_sum", {Expr::LoopIndex(1)}, /*is_write=*/false);
  spec.AddAccess(col_sum, "col_sum", {Expr::LoopIndex(1)}, /*is_write=*/true);

  int acc = driver.CreateAccumulator();
  LoopKernel kernel = [&](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 i = idx[0];
    const i64 j = idx[1];
    f32* r = ctx.Mutate(row_sum, std::vector<i64>{i});
    f32* c = ctx.Mutate(col_sum, std::vector<i64>{j});
    r[0] += value[0];
    c[0] += value[0];
    ctx.AccumulatorAdd(acc, value[0]);
  };

  auto loop = driver.Compile(spec, kernel, {});
  ASSERT_TRUE(loop.ok()) << loop.status();
  const auto& plan = driver.PlanOf(*loop);
  EXPECT_EQ(plan.form, ParallelForm::k2D);
  EXPECT_FALSE(plan.ordered);

  const int kPasses = 3;
  for (int p = 0; p < kPasses; ++p) {
    ASSERT_TRUE(driver.Execute(*loop).ok());
  }

  // Serial reference.
  std::map<i64, f32> want_row;
  std::map<i64, f32> want_col;
  f64 want_total = 0.0;
  const KeySpace& ks = driver.Meta(data).key_space;
  for (const auto& [key, v] : entries) {
    auto idx = ks.Decode(key);
    want_row[idx[0]] += static_cast<f32>(kPasses) * v;
    want_col[idx[1]] += static_cast<f32>(kPasses) * v;
    want_total += static_cast<f64>(kPasses) * v;
  }

  const CellStore& rows = driver.Cells(row_sum);
  for (i64 i = 0; i < kRows; ++i) {
    const f32* v = rows.Get(i);
    ASSERT_NE(v, nullptr);
    EXPECT_FLOAT_EQ(v[0], want_row.count(i) ? want_row[i] : 0.0f) << "row " << i;
  }
  const CellStore& cols = driver.Cells(col_sum);
  for (i64 j = 0; j < kCols; ++j) {
    const f32* v = cols.Get(j);
    ASSERT_NE(v, nullptr);
    EXPECT_FLOAT_EQ(v[0], want_col.count(j) ? want_col[j] : 0.0f) << "col " << j;
  }
  EXPECT_DOUBLE_EQ(driver.AccumulatorValue(acc), want_total);
}

TEST(RuntimeSmoke, OneDWithServerReadsAndBufferedWrites) {
  // 1-D iteration over samples; reads/writes a server-hosted weight array
  // through data-dependent subscripts and a DistArray Buffer (the SLR
  // shape).
  const i64 kSamples = 40;
  const i64 kFeatures = 16;
  DriverConfig cfg;
  cfg.num_workers = 4;
  Driver driver(cfg);

  auto data = driver.CreateDistArray("samples", {kSamples}, 1, Density::kSparse);
  auto weights = driver.CreateDistArray("weights", {kFeatures}, 1, Density::kDense);
  driver.RegisterBuffer(weights, 1);

  {
    CellStore& cells = driver.MutableCells(data);
    for (i64 s = 0; s < kSamples; ++s) {
      *cells.GetOrCreate(s) = static_cast<f32>(s % 7);
    }
  }

  LoopSpec spec;
  spec.iter_space = data;
  spec.iter_extents = {kSamples};
  spec.AddAccess(weights, "weights", {Expr::Runtime("feature")}, /*is_write=*/false);
  spec.AddAccess(weights, "weights", {Expr::Runtime("feature")}, /*is_write=*/true,
                 /*buffered=*/true);

  // Force server placement: a tiny replicate threshold.
  ParallelForOptions options;
  options.planner.replicate_threshold_floats = 0;

  LoopKernel kernel = [&](LoopContext& ctx, IdxSpan idx, const f32* value) {
    // Each sample touches features (s % kFeatures) and (s*3 % kFeatures).
    const i64 f1 = idx[0] % kFeatures;
    const i64 f2 = (idx[0] * 3) % kFeatures;
    const f32 w1 = ctx.Read(weights, std::vector<i64>{f1})[0];
    (void)w1;
    const f32 upd = value[0] + 1.0f;
    ctx.BufferUpdate(weights, std::vector<i64>{f1}, &upd);
    ctx.BufferUpdate(weights, std::vector<i64>{f2}, &upd);
  };

  auto loop = driver.Compile(spec, kernel, options);
  ASSERT_TRUE(loop.ok()) << loop.status();
  EXPECT_EQ(driver.PlanOf(*loop).form, ParallelForm::k1D);
  ASSERT_EQ(driver.PlanOf(*loop).placements.at(weights).scheme, PartitionScheme::kServer);

  ASSERT_TRUE(driver.Execute(*loop).ok());

  std::vector<f32> want(static_cast<size_t>(kFeatures), 0.0f);
  for (i64 s = 0; s < kSamples; ++s) {
    const f32 upd = static_cast<f32>(s % 7) + 1.0f;
    want[static_cast<size_t>(s % kFeatures)] += upd;
    want[static_cast<size_t>((s * 3) % kFeatures)] += upd;
  }
  const CellStore& w = driver.Cells(weights);
  for (i64 f = 0; f < kFeatures; ++f) {
    EXPECT_FLOAT_EQ(w.Get(f)[0], want[static_cast<size_t>(f)]) << "feature " << f;
  }
}

}  // namespace
}  // namespace orion
