// Dependence-vector computation (paper Alg. 2) and lexicographic-positivity
// canonicalization.
#include <gtest/gtest.h>

#include "src/analysis/dependence.h"

namespace orion {
namespace {

ArrayAccess Ref(DistArrayId array, std::vector<Subscript> subs, bool write,
                bool buffered = false) {
  return ArrayAccess{array, std::string("A"), std::move(subs), write, buffered};
}

// ---- DepVec canonicalization ----

TEST(DepVec, AllZeroIsDropped) {
  DepVec d(2);
  d[0] = DepEntry::Value(0);
  d[1] = DepEntry::Value(0);
  EXPECT_FALSE(d.CorrectLexPositive());
}

TEST(DepVec, NegativeLeadingFlips) {
  DepVec d(2);
  d[0] = DepEntry::Value(-2);
  d[1] = DepEntry::Value(3);
  ASSERT_TRUE(d.CorrectLexPositive());
  EXPECT_EQ(d[0], DepEntry::Value(2));
  EXPECT_EQ(d[1], DepEntry::Value(-3));
}

TEST(DepVec, LeadingAnyBecomesPosInf) {
  DepVec d(2);
  d[0] = DepEntry::Any();
  d[1] = DepEntry::Value(0);
  ASSERT_TRUE(d.CorrectLexPositive());
  EXPECT_EQ(d[0], DepEntry::PosInf());
}

TEST(DepVec, ZeroThenAny) {
  DepVec d(2);
  d[0] = DepEntry::Value(0);
  d[1] = DepEntry::Any();
  ASSERT_TRUE(d.CorrectLexPositive());
  EXPECT_EQ(d[0], DepEntry::Value(0));
  EXPECT_EQ(d[1], DepEntry::PosInf());
}

TEST(DepVec, NegInfLeadingFlips) {
  DepVec d(2);
  d[0] = DepEntry::NegInf();
  d[1] = DepEntry::Value(1);
  ASSERT_TRUE(d.CorrectLexPositive());
  EXPECT_EQ(d[0], DepEntry::PosInf());
  EXPECT_EQ(d[1], DepEntry::Value(-1));
}

TEST(DepVec, PositiveLeadingKept) {
  DepVec d(3);
  d[0] = DepEntry::Value(0);
  d[1] = DepEntry::Value(2);
  d[2] = DepEntry::NegInf();
  ASSERT_TRUE(d.CorrectLexPositive());
  EXPECT_EQ(d[1], DepEntry::Value(2));
  EXPECT_EQ(d[2], DepEntry::NegInf());
}

TEST(DepVec, ToString) {
  DepVec d(2);
  d[0] = DepEntry::Value(0);
  d[1] = DepEntry::PosInf();
  EXPECT_EQ(d.ToString(), "(0, +inf)");
}

// ---- Pairwise dependence tests (Alg. 2) ----

TEST(DependencePair, ReadReadSkipped) {
  auto a = Ref(0, {Subscript::MakeLoopIndex(0)}, false);
  auto b = Ref(0, {Subscript::MakeLoopIndex(0)}, false);
  DepVec d;
  EXPECT_FALSE(DependenceForPair(a, b, 2, /*unordered=*/true, &d));
}

TEST(DependencePair, WriteWriteSkippedWhenUnordered) {
  auto a = Ref(0, {Subscript::MakeLoopIndex(0, 1)}, true);
  auto b = Ref(0, {Subscript::MakeLoopIndex(0)}, true);
  DepVec d;
  EXPECT_FALSE(DependenceForPair(a, b, 2, /*unordered=*/true, &d));
  EXPECT_TRUE(DependenceForPair(a, b, 2, /*unordered=*/false, &d));
  EXPECT_EQ(d[0], DepEntry::Value(1));
}

TEST(DependencePair, BufferedWritesExempt) {
  auto r = Ref(0, {Subscript::MakeLoopIndex(0)}, false);
  auto w = Ref(0, {Subscript::MakeLoopIndex(0)}, true, /*buffered=*/true);
  DepVec d;
  EXPECT_FALSE(DependenceForPair(r, w, 2, true, &d));
}

TEST(DependencePair, MfShape) {
  // W[i] read vs W[i] write over a 2-D iteration space: raw (0, any),
  // canonicalized to the single representative (0, +inf).
  auto r = Ref(0, {Subscript::MakeLoopIndex(0)}, false);
  auto w = Ref(0, {Subscript::MakeLoopIndex(0)}, true);
  DepVec d;
  ASSERT_TRUE(DependenceForPair(r, w, 2, true, &d));
  EXPECT_EQ(d[0], DepEntry::Value(0));
  EXPECT_EQ(d[1], DepEntry::Any());
  const auto reps = CanonicalRepresentatives(d);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0][0], DepEntry::Value(0));
  EXPECT_EQ(reps[0][1], DepEntry::PosInf());
}

TEST(DependencePair, OffsetDistance) {
  // A[i+2] write vs A[i] read -> distance 2 at dim 0.
  auto w = Ref(0, {Subscript::MakeLoopIndex(0, 2)}, true);
  auto r = Ref(0, {Subscript::MakeLoopIndex(0, 0)}, false);
  DepVec d;
  ASSERT_TRUE(DependenceForPair(w, r, 1, true, &d));
  EXPECT_EQ(d[0], DepEntry::Value(2));
}

TEST(DependencePair, NegativeDistanceCanonicalized) {
  // A[i-1] write vs A[i] read -> raw distance -1 -> representative (1).
  auto w = Ref(0, {Subscript::MakeLoopIndex(0, -1)}, true);
  auto r = Ref(0, {Subscript::MakeLoopIndex(0, 0)}, false);
  DepVec d;
  ASSERT_TRUE(DependenceForPair(w, r, 1, true, &d));
  EXPECT_EQ(d[0], DepEntry::Value(-1));
  const auto reps = CanonicalRepresentatives(d);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0][0], DepEntry::Value(1));
}

TEST(DependencePair, ContradictoryDistancesProveIndependence) {
  // A[i, i+1] vs A[i, i]: dim0 demands distance 0, dim1 demands distance 1
  // on the same loop index -> never the same cell.
  auto w = Ref(0, {Subscript::MakeLoopIndex(0), Subscript::MakeLoopIndex(0, 1)}, true);
  auto r = Ref(0, {Subscript::MakeLoopIndex(0), Subscript::MakeLoopIndex(0)}, false);
  DepVec d;
  EXPECT_FALSE(DependenceForPair(w, r, 1, true, &d));
}

TEST(DependencePair, DifferentConstantsProveIndependence) {
  auto w = Ref(0, {Subscript::MakeConstant(3)}, true);
  auto r = Ref(0, {Subscript::MakeConstant(4)}, false);
  DepVec d;
  EXPECT_FALSE(DependenceForPair(w, r, 1, true, &d));
}

TEST(DependencePair, SameConstantConservative) {
  // Both touch cell 3: any pair of iterations conflicts -> raw (any),
  // representative (+inf).
  auto w = Ref(0, {Subscript::MakeConstant(3)}, true);
  auto r = Ref(0, {Subscript::MakeConstant(3)}, false);
  DepVec d;
  ASSERT_TRUE(DependenceForPair(w, r, 1, true, &d));
  EXPECT_EQ(d[0], DepEntry::Any());
  const auto reps = CanonicalRepresentatives(d);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0][0], DepEntry::PosInf());
}

TEST(DependencePair, RangeSubscriptConservative) {
  // A range subscript gives no refinement: raw (any, any); the complete
  // canonical set is {(+inf, any), (0, +inf)}.
  auto w = Ref(0, {Subscript::MakeRange()}, true);
  auto r = Ref(0, {Subscript::MakeLoopIndex(0)}, false);
  DepVec d;
  ASSERT_TRUE(DependenceForPair(w, r, 2, true, &d));
  EXPECT_EQ(d[0], DepEntry::Any());
  EXPECT_EQ(d[1], DepEntry::Any());
  const auto reps = CanonicalRepresentatives(d);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[0][0], DepEntry::PosInf());
  EXPECT_EQ(reps[0][1], DepEntry::Any());
  EXPECT_EQ(reps[1][0], DepEntry::Value(0));
  EXPECT_EQ(reps[1][1], DepEntry::PosInf());
}

TEST(DependencePair, RuntimeSubscriptConservative) {
  auto w = Ref(0, {Subscript::MakeRuntime()}, true);
  auto r = Ref(0, {Subscript::MakeRuntime()}, false);
  DepVec d;
  ASSERT_TRUE(DependenceForPair(w, r, 1, true, &d));
  EXPECT_EQ(d[0], DepEntry::Any());
  const auto reps = CanonicalRepresentatives(d);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0][0], DepEntry::PosInf());
}

TEST(DependencePair, DifferentLoopIndicesNoRefinement) {
  // A[i] vs A[j]: the coordinate could match for any (i, j) pair: raw
  // (any, any).
  auto w = Ref(0, {Subscript::MakeLoopIndex(0)}, true);
  auto r = Ref(0, {Subscript::MakeLoopIndex(1)}, false);
  DepVec d;
  ASSERT_TRUE(DependenceForPair(w, r, 2, true, &d));
  EXPECT_EQ(d[0], DepEntry::Any());
  EXPECT_EQ(d[1], DepEntry::Any());
  EXPECT_EQ(CanonicalRepresentatives(d).size(), 2u);
}

TEST(DependencePair, SelfWritePairIsIntraIteration) {
  // The same write ref paired with itself in an ordered loop: distance 0
  // everywhere it constrains -> intra-iteration only -> dropped.
  auto w = Ref(0, {Subscript::MakeLoopIndex(0), Subscript::MakeLoopIndex(1)}, true);
  DepVec d;
  EXPECT_FALSE(DependenceForPair(w, w, 2, /*unordered=*/false, &d));
}

// ---- Whole-loop dependence sets ----

TEST(Dependence, MatrixFactorization) {
  LoopSpec spec;
  spec.iter_space = 9;
  spec.iter_extents = {100, 80};
  spec.AddClassifiedAccess(1, "W", {Subscript::MakeLoopIndex(0)}, false);
  spec.AddClassifiedAccess(1, "W", {Subscript::MakeLoopIndex(0)}, true);
  spec.AddClassifiedAccess(2, "H", {Subscript::MakeLoopIndex(1)}, false);
  spec.AddClassifiedAccess(2, "H", {Subscript::MakeLoopIndex(1)}, true);

  const auto deps = ComputeDependenceVectors(spec);
  ASSERT_EQ(deps.size(), 2u);  // (0, +inf) and (+inf, 0), deduplicated
  bool has_row = false;
  bool has_col = false;
  for (const auto& d : deps) {
    if (d[0].IsZero() && d[1] == DepEntry::PosInf()) {
      has_row = true;
    }
    if (d[0] == DepEntry::PosInf() && d[1].IsZero()) {
      has_col = true;
    }
  }
  EXPECT_TRUE(has_row);
  EXPECT_TRUE(has_col);
}

TEST(Dependence, AllBufferedMeansNoDeps) {
  LoopSpec spec;
  spec.iter_space = 9;
  spec.iter_extents = {100};
  spec.AddClassifiedAccess(1, "w", {Subscript::MakeRuntime()}, false);
  spec.AddClassifiedAccess(1, "w", {Subscript::MakeRuntime()}, true, /*buffered=*/true);
  EXPECT_TRUE(ComputeDependenceVectors(spec).empty());
}

TEST(Dependence, DuplicateVectorsDeduplicated) {
  LoopSpec spec;
  spec.iter_space = 9;
  spec.iter_extents = {100, 80};
  // Two distinct read refs against the same write produce the same vector.
  spec.AddClassifiedAccess(1, "A", {Subscript::MakeLoopIndex(0)}, false);
  spec.AddClassifiedAccess(1, "A", {Subscript::MakeLoopIndex(0)}, false);
  spec.AddClassifiedAccess(1, "A", {Subscript::MakeLoopIndex(0)}, true);
  EXPECT_EQ(ComputeDependenceVectors(spec).size(), 1u);
}

TEST(Dependence, LeadingAnyWithTrailingDistanceKeepsBothDirections) {
  // The soundness case behind CanonicalRepresentatives: A[j] write vs
  // A[j+1] read over a 2-D space has raw vector (any, -1); both directions
  // of the unconstrained dim must survive, plus the zero-leading case —
  // otherwise the planner could "prove" a skewed wavefront legal when
  // concurrent blocks would in fact conflict.
  LoopSpec spec;
  spec.iter_space = 9;
  spec.iter_extents = {100, 100};
  spec.AddClassifiedAccess(1, "A", {Subscript::MakeLoopIndex(1, 0)}, true);
  spec.AddClassifiedAccess(1, "A", {Subscript::MakeLoopIndex(1, 1)}, false);
  const auto deps = ComputeDependenceVectors(spec);
  // {(+inf, -1), (+inf, 1), (0, 1)}.
  ASSERT_EQ(deps.size(), 3u);
  bool pos_neg = false;
  bool pos_pos = false;
  bool zero_pos = false;
  for (const auto& d : deps) {
    pos_neg |= d[0] == DepEntry::PosInf() && d[1] == DepEntry::Value(-1);
    pos_pos |= d[0] == DepEntry::PosInf() && d[1] == DepEntry::Value(1);
    zero_pos |= d[0] == DepEntry::Value(0) && d[1] == DepEntry::Value(1);
  }
  EXPECT_TRUE(pos_neg);
  EXPECT_TRUE(pos_pos);
  EXPECT_TRUE(zero_pos);
}

TEST(Dependence, StencilShape) {
  // write A[i][j]; read A[i-1][j], A[i][j-1] -> deps (1,0) and (0,1).
  LoopSpec spec;
  spec.iter_space = 9;
  spec.iter_extents = {50, 50};
  spec.AddClassifiedAccess(1, "A",
                           {Subscript::MakeLoopIndex(0), Subscript::MakeLoopIndex(1)}, true);
  spec.AddClassifiedAccess(
      1, "A", {Subscript::MakeLoopIndex(0, -1), Subscript::MakeLoopIndex(1)}, false);
  spec.AddClassifiedAccess(
      1, "A", {Subscript::MakeLoopIndex(0), Subscript::MakeLoopIndex(1, -1)}, false);
  const auto deps = ComputeDependenceVectors(spec);
  ASSERT_EQ(deps.size(), 2u);
  for (const auto& d : deps) {
    const bool is10 = d[0] == DepEntry::Value(1) && d[1].IsZero();
    const bool is01 = d[0].IsZero() && d[1] == DepEntry::Value(1);
    EXPECT_TRUE(is10 || is01) << d.ToString();
  }
}

}  // namespace
}  // namespace orion
