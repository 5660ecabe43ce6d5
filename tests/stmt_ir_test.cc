// Statement-level loop-body IR: subscript classification, access
// extraction, prefetch-slice synthesis (paper Sec. 4.4), interpretation,
// and an end-to-end CompileBody run whose synthesized prefetch must match
// the kernel's actual accesses.
#include <gtest/gtest.h>

#include <set>

#include "src/ir/analyze_body.h"
#include "src/runtime/driver.h"

namespace orion {
namespace {

// ---- Subscript classification over SExpr ----

TEST(StmtIr, ClassifyAffine) {
  auto s = ClassifySubscriptExpr(SExpr::Add(SExpr::IndexVar(1), SExpr::Const(3)));
  EXPECT_EQ(s.kind, SubscriptKind::kLoopIndex);
  EXPECT_EQ(s.loop_dim, 1);
  EXPECT_EQ(s.constant, 3);
}

TEST(StmtIr, ClassifyConstantFolding) {
  auto s = ClassifySubscriptExpr(SExpr::Mul(SExpr::Const(3), SExpr::Const(4)));
  EXPECT_EQ(s.kind, SubscriptKind::kConstant);
  EXPECT_EQ(s.constant, 12);
}

TEST(StmtIr, ClassifyVarIsRuntime) {
  auto s = ClassifySubscriptExpr(SExpr::Var(0));
  EXPECT_EQ(s.kind, SubscriptKind::kRuntime);
}

TEST(StmtIr, ClassifyIterValueIsRuntime) {
  auto s = ClassifySubscriptExpr(SExpr::IterValueAt(SExpr::Const(2)));
  EXPECT_EQ(s.kind, SubscriptKind::kRuntime);
}

TEST(StmtIr, ClassifyScaledIndexIsRange) {
  auto s = ClassifySubscriptExpr(SExpr::Mul(SExpr::Const(2), SExpr::IndexVar(0)));
  EXPECT_EQ(s.kind, SubscriptKind::kRange);
}

// ---- Access extraction ----

// The MF body: read W[i], H[j]; write W[i], H[j] (via accumulate stores).
LoopBody MfBody() {
  LoopBody body;
  body.num_index_dims = 2;
  body.num_vars = 1;
  // v0 = W[i][0] * H[j][0]; W[i][0] += v0; H[j][0] += v0
  auto w_read = SExpr::ArrayElem(1, {SExpr::IndexVar(0)}, SExpr::Const(0));
  auto h_read = SExpr::ArrayElem(2, {SExpr::IndexVar(1)}, SExpr::Const(0));
  body.stmts.push_back(Stmt::Assign(0, SExpr::Mul(w_read, h_read)));
  body.stmts.push_back(Stmt::Store(1, "W", {SExpr::IndexVar(0)}, SExpr::Const(0),
                                   SExpr::Var(0), /*accumulate=*/true));
  body.stmts.push_back(Stmt::Store(2, "H", {SExpr::IndexVar(1)}, SExpr::Const(0),
                                   SExpr::Var(0), /*accumulate=*/true));
  return body;
}

TEST(StmtIr, ExtractMfAccesses) {
  const auto accesses = ExtractAccesses(MfBody());
  // W read, H read, W write, W read (from +=, deduped with the first),
  // H write: 4 distinct entries.
  int w_reads = 0;
  int w_writes = 0;
  int h_reads = 0;
  int h_writes = 0;
  for (const auto& a : accesses) {
    ASSERT_EQ(a.subscripts.size(), 1u);
    EXPECT_EQ(a.subscripts[0].kind, SubscriptKind::kLoopIndex);
    if (a.array == 1) {
      (a.is_write ? w_writes : w_reads) += 1;
      EXPECT_EQ(a.subscripts[0].loop_dim, 0);
    } else {
      (a.is_write ? h_writes : h_reads) += 1;
      EXPECT_EQ(a.subscripts[0].loop_dim, 1);
    }
  }
  EXPECT_EQ(w_reads, 1);
  EXPECT_EQ(w_writes, 1);
  EXPECT_EQ(h_reads, 1);
  EXPECT_EQ(h_writes, 1);
}

TEST(StmtIr, ExtractBufferedUpdate) {
  LoopBody body;
  body.num_index_dims = 1;
  body.num_vars = 1;
  body.stmts.push_back(Stmt::Assign(0, SExpr::IterValueAt(SExpr::Const(0))));
  body.stmts.push_back(Stmt::BufferUpdate(3, "weights", {SExpr::Var(0)}, {SExpr::Const(1)}));
  const auto accesses = ExtractAccesses(body);
  ASSERT_EQ(accesses.size(), 1u);
  EXPECT_TRUE(accesses[0].is_write);
  EXPECT_TRUE(accesses[0].buffered);
  EXPECT_EQ(accesses[0].subscripts[0].kind, SubscriptKind::kRuntime);
}

// ---- Prefetch synthesis ----

// The SLR body shape: n = value[1]; for f in 0..n-1:
//   id = value[2 + 2f]; v = value[3 + 2f]; margin += weights[id][0] * v
LoopBody SlrBody(DistArrayId weights) {
  LoopBody body;
  body.num_index_dims = 1;
  body.num_vars = 5;  // 0=n, 1=f(counter), 2=id, 3=v, 4=margin
  auto two_f = SExpr::Mul(SExpr::Const(2), SExpr::Var(1));
  std::vector<StmtPtr> loop_body;
  loop_body.push_back(
      Stmt::Assign(2, SExpr::IterValueAt(SExpr::Add(SExpr::Const(2), two_f))));
  loop_body.push_back(
      Stmt::Assign(3, SExpr::IterValueAt(SExpr::Add(SExpr::Const(3), two_f))));
  loop_body.push_back(Stmt::Assign(
      4, SExpr::Add(SExpr::Var(4),
                    SExpr::Mul(SExpr::ArrayElem(weights, {SExpr::Var(2)}, SExpr::Const(0)),
                               SExpr::Var(3)))));
  body.stmts.push_back(Stmt::Assign(0, SExpr::IterValueAt(SExpr::Const(1))));
  body.stmts.push_back(Stmt::Assign(4, SExpr::Const(0)));
  body.stmts.push_back(Stmt::For(1, SExpr::Var(0), std::move(loop_body)));
  return body;
}

TEST(StmtIr, SlrSliceRecordsExactlyTheTouchedWeights) {
  const auto program = SynthesizePrefetch(SlrBody(7));
  ASSERT_TRUE(program.HasTargets());
  ASSERT_EQ(program.target_arrays().size(), 1u);
  EXPECT_EQ(program.target_arrays()[0], 7);
  EXPECT_TRUE(program.unprefetchable().empty());

  // Interpret over a sample: label, n=3, (id,val) = (5,.5)(11,.25)(2,1).
  const f32 value[8] = {1.0f, 3.0f, 5.0f, 0.5f, 11.0f, 0.25f, 2.0f, 1.0f};
  std::map<DistArrayId, KeySpace> spaces;
  spaces.emplace(7, KeySpace({100}));
  std::map<DistArrayId, KeySet> keys;
  const i64 idx[1] = {0};
  program.Run(idx, value, 8, spaces, &keys);
  EXPECT_EQ(keys[7].keys(), (std::vector<i64>{5, 11, 2}));
}

TEST(StmtIr, SliceDropsPureComputeStatements) {
  // margin accumulation (var 4) feeds no subscript: the sliced program must
  // not keep it. We detect this by checking the slice's node count: the
  // For survives with only the id assignment + record inside.
  const auto program = SynthesizePrefetch(SlrBody(7));
  // Top level: n assignment + For. (margin init sliced away.)
  ASSERT_EQ(program.nodes().size(), 2u);
  const auto& loop = program.nodes()[1];
  ASSERT_EQ(loop.kind, PrefetchProgram::Node::Kind::kFor);
  // Inside: id assignment + record (value assignment and margin update gone).
  EXPECT_EQ(loop.body.size(), 2u);
}

TEST(StmtIr, ArrayDependentSubscriptIsUnprefetchable) {
  // B[A[i]]: the outer read's subscript needs A's value -> cannot prefetch
  // B; A itself (subscript = i) is prefetchable.
  LoopBody body;
  body.num_index_dims = 1;
  body.num_vars = 1;
  body.stmts.push_back(
      Stmt::Assign(0, SExpr::ArrayElem(2, {SExpr::ArrayElem(1, {SExpr::IndexVar(0)},
                                                            SExpr::Const(0))},
                                       SExpr::Const(0))));
  const auto program = SynthesizePrefetch(body);
  ASSERT_EQ(program.target_arrays().size(), 1u);
  EXPECT_EQ(program.target_arrays()[0], 1);
  ASSERT_EQ(program.unprefetchable().size(), 1u);
  EXPECT_EQ(program.unprefetchable()[0], 2);
}

TEST(StmtIr, TaintedVariableBlocksPrefetch) {
  // v = A[i]; read B[v]: v is tainted by an array read.
  LoopBody body;
  body.num_index_dims = 1;
  body.num_vars = 2;
  body.stmts.push_back(
      Stmt::Assign(0, SExpr::ArrayElem(1, {SExpr::IndexVar(0)}, SExpr::Const(0))));
  body.stmts.push_back(
      Stmt::Assign(1, SExpr::ArrayElem(2, {SExpr::Var(0)}, SExpr::Const(0))));
  const auto program = SynthesizePrefetch(body);
  EXPECT_EQ(program.target_arrays(), std::vector<DistArrayId>{1});
  EXPECT_EQ(program.unprefetchable(), std::vector<DistArrayId>{2});
}

TEST(StmtIr, ConditionalReadsRespectControlFlow) {
  // if (value[0]) { read A[i] }: the record must stay under the If.
  LoopBody body;
  body.num_index_dims = 1;
  body.num_vars = 1;
  std::vector<StmtPtr> then_body;
  then_body.push_back(
      Stmt::Assign(0, SExpr::ArrayElem(1, {SExpr::IndexVar(0)}, SExpr::Const(0))));
  body.stmts.push_back(Stmt::If(SExpr::IterValueAt(SExpr::Const(0)), std::move(then_body)));
  const auto program = SynthesizePrefetch(body);
  ASSERT_TRUE(program.HasTargets());

  std::map<DistArrayId, KeySpace> spaces;
  spaces.emplace(1, KeySpace({10}));
  std::map<DistArrayId, KeySet> keys;
  const i64 idx[1] = {4};
  const f32 off[1] = {0.0f};
  program.Run(idx, off, 1, spaces, &keys);
  EXPECT_TRUE(keys[1].empty());
  const f32 on[1] = {1.0f};
  program.Run(idx, on, 1, spaces, &keys);
  EXPECT_EQ(keys[1].keys(), std::vector<i64>{4});
}

// ---- End-to-end: CompileBody drives a real loop ----

TEST(StmtIr, CompileBodyRunsSlrEndToEnd) {
  // Samples: [n, id0, id1] with n in {1, 2}; kernel adds 1 to each touched
  // weight through a buffer; the synthesized prefetch must pull exactly the
  // touched weights so reads observe server state.
  const i64 kSamples = 60;
  const i64 kFeatures = 40;
  DriverConfig cfg;
  cfg.num_workers = 3;
  Driver driver(cfg);
  auto samples = driver.CreateDistArray("samples", {kSamples}, 3, Density::kSparse);
  auto weights = driver.CreateDistArray("weights", {kFeatures}, 1, Density::kDense);
  driver.RegisterBuffer(weights, 1);
  std::vector<f64> want(static_cast<size_t>(kFeatures), 0.0);
  {
    CellStore& cells = driver.MutableCells(samples);
    Rng rng(9);
    for (i64 s = 0; s < kSamples; ++s) {
      f32* cell = cells.GetOrCreate(s);
      const int n = 1 + static_cast<int>(rng.NextBounded(2));
      cell[0] = static_cast<f32>(n);
      for (int f = 0; f < n; ++f) {
        const i64 id = rng.NextIndex(kFeatures);
        cell[1 + f] = static_cast<f32>(id);
        want[static_cast<size_t>(id)] += 1.0;
      }
    }
  }

  // Body: for f in 0..n-1 { id = value[1+f]; read weights[id]; buffer += 1 }
  LoopBody body;
  body.num_index_dims = 1;
  body.num_vars = 4;  // 0=n, 1=f, 2=id, 3=w (the loaded weight)
  std::vector<StmtPtr> inner;
  inner.push_back(Stmt::Assign(2, SExpr::IterValueAt(SExpr::Add(SExpr::Const(1), SExpr::Var(1)))));
  inner.push_back(Stmt::Assign(3, SExpr::ArrayElem(weights, {SExpr::Var(2)}, SExpr::Const(0))));
  inner.push_back(Stmt::BufferUpdate(weights, "weights", {SExpr::Var(2)}, {SExpr::Const(1)}));
  body.stmts.push_back(Stmt::Assign(0, SExpr::IterValueAt(SExpr::Const(0))));
  body.stmts.push_back(Stmt::For(1, SExpr::Var(0), std::move(inner)));

  LoopKernel kernel = [&](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const int n = static_cast<int>(value[0]);
    for (int f = 0; f < n; ++f) {
      const i64 id[1] = {static_cast<i64>(value[1 + f])};
      // The prefetched read must be present (zero-initialized weights).
      (void)ctx.Read(weights, id);
      const f32 one = 1.0f;
      ctx.BufferUpdate(weights, id, &one);
    }
  };

  ParallelForOptions options;
  options.planner.replicate_threshold_floats = 0;  // force server weights
  auto loop = driver.CompileBody(samples, {kSamples}, /*ordered=*/false, body, kernel, options);
  ASSERT_TRUE(loop.ok()) << loop.status();
  EXPECT_EQ(driver.PlanOf(*loop).form, ParallelForm::k1D);
  EXPECT_EQ(driver.PlanOf(*loop).placements.at(weights).scheme, PartitionScheme::kServer);
  ASSERT_TRUE(driver.Execute(*loop).ok());

  const CellStore& out = driver.Cells(weights);
  for (i64 f = 0; f < kFeatures; ++f) {
    EXPECT_FLOAT_EQ(out.Get(f)[0], static_cast<f32>(want[static_cast<size_t>(f)]))
        << "feature " << f;
  }
}

}  // namespace
}  // namespace orion
