// DSM primitives: key spaces, cell stores (all three layouts), partitions,
// buffers, randomize, checkpointing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>

#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/dsm/cell_store.h"
#include "src/dsm/dist_array_buffer.h"
#include "src/dsm/key_set.h"
#include "src/dsm/key_space.h"
#include "src/dsm/partition.h"
#include "src/dsm/randomize.h"

namespace orion {
namespace {

// ---- KeySpace ----

TEST(KeySpace, EncodeDecodeRoundtrip) {
  const KeySpace ks({4, 5, 6});
  EXPECT_EQ(ks.total(), 120);
  for (i64 a = 0; a < 4; ++a) {
    for (i64 b = 0; b < 5; ++b) {
      for (i64 c = 0; c < 6; ++c) {
        const i64 key = ks.Encode(std::vector<i64>{a, b, c});
        const auto idx = ks.Decode(key);
        EXPECT_EQ(idx[0], a);
        EXPECT_EQ(idx[1], b);
        EXPECT_EQ(idx[2], c);
        EXPECT_EQ(ks.Coord(key, 0), a);
        EXPECT_EQ(ks.Coord(key, 1), b);
        EXPECT_EQ(ks.Coord(key, 2), c);
      }
    }
  }
}

TEST(KeySpace, LastDimContiguous) {
  const KeySpace ks({3, 7});
  EXPECT_EQ(ks.Encode(std::vector<i64>{0, 1}) - ks.Encode(std::vector<i64>{0, 0}), 1);
}

TEST(KeySpace, ContainsBounds) {
  const KeySpace ks({3, 3});
  EXPECT_TRUE(ks.Contains(std::vector<i64>{2, 2}));
  EXPECT_FALSE(ks.Contains(std::vector<i64>{3, 0}));
  EXPECT_FALSE(ks.Contains(std::vector<i64>{0, -1}));
  EXPECT_FALSE(ks.Contains(std::vector<i64>{0}));
}

// ---- CellStore layouts (parameterized) ----

enum class StoreKind { kHashed, kFullDense, kDenseRange };

class CellStoreLayoutTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  CellStore Make(i32 value_dim) const {
    switch (GetParam()) {
      case StoreKind::kHashed:
        return CellStore(value_dim, CellStore::Layout::kHashed, 0);
      case StoreKind::kFullDense:
        return CellStore(value_dim, CellStore::Layout::kFullDense, 100);
      case StoreKind::kDenseRange:
        return CellStore::DenseRange(value_dim, 10, 109);
    }
    return CellStore();
  }
  i64 KeyFor(int i) const {
    return GetParam() == StoreKind::kDenseRange ? 10 + i : i;
  }
};

TEST_P(CellStoreLayoutTest, WriteReadBack) {
  CellStore s = Make(3);
  for (int i = 0; i < 50; ++i) {
    f32* v = s.GetOrCreate(KeyFor(i));
    v[0] = static_cast<f32>(i);
    v[2] = static_cast<f32>(-i);
  }
  for (int i = 0; i < 50; ++i) {
    const f32* v = s.Get(KeyFor(i));
    ASSERT_NE(v, nullptr);
    EXPECT_FLOAT_EQ(v[0], static_cast<f32>(i));
    EXPECT_FLOAT_EQ(v[2], static_cast<f32>(-i));
  }
}

TEST_P(CellStoreLayoutTest, SerializeRoundtrip) {
  CellStore s = Make(2);
  for (int i = 0; i < 30; ++i) {
    s.GetOrCreate(KeyFor(i))[1] = static_cast<f32>(i * i);
  }
  ByteWriter w;
  s.Serialize(&w);
  auto bytes = w.Take();
  ByteReader r(bytes);
  CellStore back = CellStore::Deserialize(&r);
  EXPECT_EQ(back.layout(), s.layout());
  EXPECT_EQ(back.NumCells(), s.NumCells());
  for (int i = 0; i < 30; ++i) {
    EXPECT_FLOAT_EQ(back.Get(KeyFor(i))[1], static_cast<f32>(i * i));
  }
}

TEST_P(CellStoreLayoutTest, ForEachVisitsEverythingOnce) {
  CellStore s = Make(1);
  for (int i = 0; i < 20; ++i) {
    *s.GetOrCreate(KeyFor(i)) = 1.0f;
  }
  i64 visits = 0;
  f64 sum = 0.0;
  s.ForEach([&](i64, f32* v) {
    ++visits;
    sum += v[0];
  });
  EXPECT_EQ(visits, s.NumCells());
  EXPECT_DOUBLE_EQ(sum, 20.0);  // untouched dense cells contribute zero
}

TEST_P(CellStoreLayoutTest, MergeAddAccumulates) {
  CellStore a = Make(2);
  CellStore b = Make(2);
  for (int i = 0; i < 10; ++i) {
    a.GetOrCreate(KeyFor(i))[0] = 1.0f;
    b.GetOrCreate(KeyFor(i))[0] = 2.0f;
  }
  a.MergeAdd(b);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FLOAT_EQ(a.Get(KeyFor(i))[0], 3.0f);
  }
}

TEST_P(CellStoreLayoutTest, ClearZeroesOrEmpties) {
  CellStore s = Make(1);
  *s.GetOrCreate(KeyFor(3)) = 9.0f;
  s.Clear();
  if (GetParam() == StoreKind::kHashed) {
    EXPECT_EQ(s.NumCells(), 0);
  } else {
    EXPECT_FLOAT_EQ(s.Get(KeyFor(3))[0], 0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, CellStoreLayoutTest,
                         ::testing::Values(StoreKind::kHashed, StoreKind::kFullDense,
                                           StoreKind::kDenseRange));

TEST(CellStore, HashedInsertionOrderIsStable) {
  CellStore s(1, CellStore::Layout::kHashed, 0);
  const std::vector<i64> keys = {42, 7, 99, 1, 13};
  for (i64 k : keys) {
    s.GetOrCreate(k);
  }
  std::vector<i64> seen;
  s.ForEach([&](i64 k, f32*) { seen.push_back(k); });
  EXPECT_EQ(seen, keys);
}

TEST(CellStore, SliceCoversExactlyOnce) {
  CellStore s(1, CellStore::Layout::kHashed, 0);
  for (i64 k = 0; k < 103; ++k) {
    s.GetOrCreate(k * 7);
  }
  std::vector<int> visits(103, 0);
  for (int chunk = 0; chunk < 8; ++chunk) {
    s.ForEachSlice(chunk, 8, [&](i64 k, f32*) { ++visits[static_cast<size_t>(k / 7)]; });
  }
  for (int v : visits) {
    EXPECT_EQ(v, 1);
  }
}

// ---- Hashed index (open-addressing slot table) ----

// Inserts `keys` in order with value[0] = position, then checks every key
// reads back its own cell, that `absent` keys miss, and that iteration is
// insertion order.
void ExpectIndexed(CellStore& s, const std::vector<i64>& keys, const std::vector<i64>& absent) {
  ASSERT_EQ(s.NumCells(), static_cast<i64>(keys.size()));
  for (size_t i = 0; i < keys.size(); ++i) {
    const f32* v = s.Get(keys[i]);
    ASSERT_NE(v, nullptr) << "key " << keys[i];
    EXPECT_EQ(v[0], static_cast<f32>(i)) << "key " << keys[i];
    EXPECT_TRUE(s.Contains(keys[i]));
  }
  for (const i64 k : absent) {
    EXPECT_EQ(s.Get(k), nullptr) << "key " << k;
    EXPECT_FALSE(s.Contains(k));
  }
  EXPECT_EQ(s.keys(), keys);
}

void InsertNumbered(CellStore& s, const std::vector<i64>& keys) {
  for (size_t i = 0; i < keys.size(); ++i) {
    s.GetOrCreate(keys[i])[0] = static_cast<f32>(i);
  }
}

TEST(CellStoreIndex, StridedAndMaskCollidingKeysSurviveRehashes) {
  // Strides that share their low bits (powers of two, 2-D row strides) all
  // land on one bucket under a bare mask; 3000 keys force eight rehashes.
  for (const i64 stride : {i64{1}, i64{7}, i64{1} << 10, i64{50000}, i64{1} << 32,
                           i64{1} << 48}) {
    CellStore s(2, CellStore::Layout::kHashed, 0);
    std::vector<i64> keys;
    std::vector<i64> absent;
    for (i64 i = 0; i < 3000; ++i) {
      keys.push_back(i * stride);
      absent.push_back(i * stride + (stride > 1 ? stride / 2 : 5000));
    }
    InsertNumbered(s, keys);
    // Re-touching existing keys must not add cells.
    for (const i64 k : keys) {
      s.GetOrCreate(k);
    }
    SCOPED_TRACE(stride);
    ExpectIndexed(s, keys, absent);
  }
}

TEST(CellStoreIndex, NegativeAndExtremeKeys) {
  CellStore s(1, CellStore::Layout::kHashed, 0);
  std::vector<i64> keys = {-1, 0, std::numeric_limits<i64>::min(),
                           std::numeric_limits<i64>::max(), -(i64{1} << 40)};
  for (i64 i = 1; i < 500; ++i) {
    keys.push_back(-i * 1024);
  }
  InsertNumbered(s, keys);
  ExpectIndexed(s, keys, {1, -3, std::numeric_limits<i64>::min() + 1});
}

TEST(CellStoreIndex, DuplicateKeysInBytesKeepTheFirstCell) {
  ByteWriter w;
  w.Put<i32>(1);
  w.Put<u8>(static_cast<u8>(CellStore::Layout::kHashed));
  w.PutVec(std::vector<i64>{5, 9, 5, 9, 5});
  w.PutVec(std::vector<f32>{1.0f, 2.0f, 3.0f, 4.0f, 5.0f});
  const auto bytes = w.Take();
  for (const bool checked : {false, true}) {
    ByteReader r(bytes);
    CellStore s;
    if (checked) {
      auto back = CellStore::TryDeserialize(&r);
      ASSERT_TRUE(back.ok());
      s = std::move(*back);
    } else {
      s = CellStore::Deserialize(&r);
    }
    // The bytes carry no key bound: the store is unbounded and hashed.
    EXPECT_EQ(s.key_bound(), 0);
    EXPECT_FALSE(s.direct_indexed());
    EXPECT_EQ(s.NumCells(), 5);
    EXPECT_EQ(*s.Get(5), 1.0f);
    EXPECT_EQ(*s.Get(9), 2.0f);
    // Growing the table re-indexes keys_ and must still pick the first cell.
    for (i64 k = 100; k < 400; ++k) {
      s.GetOrCreate(k);
    }
    EXPECT_EQ(*s.Get(5), 1.0f);
    EXPECT_EQ(*s.Get(9), 2.0f);
    *s.GetOrCreate(5) += 10.0f;
    EXPECT_EQ(s.raw_values()[0], 11.0f);
    EXPECT_EQ(s.raw_values()[2], 3.0f);
  }
}

TEST(CellStoreIndex, ClearThenReuse) {
  CellStore s(1, CellStore::Layout::kHashed, 0);
  std::vector<i64> first;
  for (i64 k = 0; k < 1000; ++k) {
    first.push_back(k * 3);
  }
  InsertNumbered(s, first);
  s.Clear();
  EXPECT_EQ(s.NumCells(), 0);
  for (const i64 k : first) {
    ASSERT_EQ(s.Get(k), nullptr);
  }
  std::vector<i64> second;
  for (i64 k = 0; k < 500; ++k) {
    second.push_back(k * 3 + 1);
  }
  second.push_back(0);  // a key from before the Clear comes back fresh
  InsertNumbered(s, second);
  ExpectIndexed(s, second, {3, 6, 2997});
}

TEST(CellStoreIndex, ReserveThenInsert) {
  CellStore s(3, CellStore::Layout::kHashed, 0);
  std::vector<i64> keys;
  for (i64 k = 0; k < 700; ++k) {
    keys.push_back(k * 4096 - 100000);
  }
  s.Reserve(300);
  InsertNumbered(s, std::vector<i64>(keys.begin(), keys.begin() + 300));
  s.Reserve(400);  // mid-way: re-indexes the 300 cells already there
  ExpectIndexed(s, std::vector<i64>(keys.begin(), keys.begin() + 300), {keys[300]});
  for (size_t i = 300; i < keys.size(); ++i) {
    s.GetOrCreate(keys[i])[0] = static_cast<f32>(i);
  }
  ExpectIndexed(s, keys, {1, -1});
}

TEST(CellStoreIndex, CopyAndMoveKeepLookupsValid) {
  CellStore original(1, CellStore::Layout::kHashed, 0);
  std::vector<i64> keys;
  for (i64 k = 0; k < 200; ++k) {
    keys.push_back(k * k - 50);
  }
  InsertNumbered(original, keys);

  CellStore copy = original;
  *copy.GetOrCreate(keys[0]) = 99.0f;
  copy.GetOrCreate(123456789);
  EXPECT_EQ(*original.Get(keys[0]), 0.0f);
  EXPECT_EQ(original.Get(123456789), nullptr);
  EXPECT_EQ(*copy.Get(keys[0]), 99.0f);
  EXPECT_EQ(*copy.Get(keys[199]), 199.0f);

  CellStore moved = std::move(original);
  ExpectIndexed(moved, keys, {123456789});
  CellStore assigned;
  assigned = std::move(moved);
  ExpectIndexed(assigned, keys, {123456789});
  assigned.GetOrCreate(-7)[0] = static_cast<f32>(keys.size());
  keys.push_back(-7);
  ExpectIndexed(assigned, keys, {123456789});

  CellStore copy_assigned;
  copy_assigned.GetOrCreate(1);
  copy_assigned = assigned;
  ExpectIndexed(copy_assigned, keys, {123456789});
}

TEST(CellStoreIndex, RefusesMoreCellsThanASlotCanName) {
  CellStore s(1, CellStore::Layout::kHashed, 0);
  s.GetOrCreate(1);
  // The check fires before any allocation, so this costs nothing.
  EXPECT_DEATH(s.Reserve(i64{1} << 32), "at most");
}

// ---- Direct-mapped index (hashed store with a key bound) ----

TEST(CellStoreIndex, DirectIndexAtTheTwoTimesEdge) {
  // The hashed table for n cells has 2^bits >= max(16, 2n) slots; a bound
  // of at most twice that indexes directly.
  for (const i64 bound : {i64{32}, i64{33}}) {
    SCOPED_TRACE(bound);
    CellStore s(1, CellStore::Layout::kHashed, bound);
    EXPECT_EQ(s.key_bound(), bound);
    std::vector<i64> keys;
    for (i64 i = 0; i < bound; ++i) {
      keys.push_back((i * 7) % bound);  // 7 is coprime to 32 and 33
    }
    for (size_t n = 1; n <= keys.size(); ++n) {
      s.GetOrCreate(keys[n - 1])[0] = static_cast<f32>(n - 1);
      // 16 slots up to 8 cells, 32 up to 16, then 64.
      const i64 hashed_slots = n <= 8 ? 16 : n <= 16 ? 32 : 64;
      ASSERT_EQ(s.direct_indexed(), bound <= 2 * hashed_slots) << "cells " << n;
    }
    ExpectIndexed(s, keys, {-1, bound, bound + 1});
  }
  // Reserve picks the index for the reserved size up front.
  for (const auto& [reserve, bound, direct] :
       {std::tuple{i64{100}, i64{512}, true}, std::tuple{i64{100}, i64{513}, false},
        std::tuple{i64{129}, i64{513}, true}}) {
    CellStore s(2, CellStore::Layout::kHashed, bound);
    s.Reserve(reserve);
    EXPECT_EQ(s.direct_indexed(), direct) << reserve << " " << bound;
  }
  // Unbounded stores never index directly.
  CellStore unbounded(1, CellStore::Layout::kHashed, 0);
  InsertNumbered(unbounded, {0, 1, 2, 3});
  EXPECT_FALSE(unbounded.direct_indexed());
}

TEST(CellStoreIndex, OutOfBoundInsertDemotesToHashed) {
  // From a direct index.
  CellStore s(2, CellStore::Layout::kHashed, 100);
  std::vector<i64> keys;
  for (i64 k = 99; k >= 0; --k) {
    keys.push_back(k);
  }
  InsertNumbered(s, keys);
  ASSERT_TRUE(s.direct_indexed());
  for (const i64 k : {i64{100}, i64{-1}, std::numeric_limits<i64>::min(), i64{1} << 40}) {
    s.GetOrCreate(k)[0] = static_cast<f32>(keys.size());
    keys.push_back(k);
    EXPECT_FALSE(s.direct_indexed());
    EXPECT_EQ(s.key_bound(), 0);
    ExpectIndexed(s, keys, {101, -2});
  }
  // From a bounded store still on the hashed index: the bound is dropped,
  // so growing past the edge later stays hashed.
  CellStore t(1, CellStore::Layout::kHashed, 1000);
  InsertNumbered(t, {1, 2, 3});
  ASSERT_FALSE(t.direct_indexed());
  std::vector<i64> more = {1, 2, 3, 1000};
  t.GetOrCreate(1000)[0] = 3.0f;
  EXPECT_EQ(t.key_bound(), 0);
  for (i64 k = 4; k < 1000; ++k) {
    t.GetOrCreate(k)[0] = static_cast<f32>(more.size());
    more.push_back(k);
  }
  EXPECT_FALSE(t.direct_indexed());
  ExpectIndexed(t, more, {0, 1001, -1});
}

TEST(CellStoreIndex, OutOfBoundGetIsNull) {
  CellStore s(1, CellStore::Layout::kHashed, 64);
  std::vector<i64> keys;
  for (i64 k = 0; k < 64; k += 2) {
    keys.push_back(k);
  }
  InsertNumbered(s, keys);
  ASSERT_TRUE(s.direct_indexed());
  ExpectIndexed(s, keys,
                {1, 63, 64, 65, -1, -64, std::numeric_limits<i64>::min(),
                 std::numeric_limits<i64>::max()});
  // Lookups never write: the store is still direct with the same cells.
  EXPECT_TRUE(s.direct_indexed());
  EXPECT_EQ(s.key_bound(), 64);
}

TEST(CellStoreIndex, SerializeBytesDoNotSeeTheBound) {
  // The same inserts and updates with and without a bound give the same
  // bytes, order and values, on the direct index and after a demotion.
  Rng rng(5);
  CellStore bounded(3, CellStore::Layout::kHashed, 2000);
  CellStore plain(3, CellStore::Layout::kHashed, 0);
  bool saw_direct = false;
  auto bytes = [](const CellStore& s) {
    ByteWriter w;
    s.Serialize(&w);
    return w.Take();
  };
  for (int i = 0; i < 3000; ++i) {
    const i64 key = i == 2500 ? 2000 : rng.NextIndex(2000);  // one out-of-bound key
    const f32 add[3] = {static_cast<f32>(i), 0.5f, -1.0f};
    simd::AddF32(bounded.GetOrCreate(key), add, 3);
    simd::AddF32(plain.GetOrCreate(key), add, 3);
    saw_direct |= bounded.direct_indexed();
    if (i % 500 == 499) {
      ASSERT_EQ(bounded.SerializedBytes(), plain.SerializedBytes());
      ASSERT_EQ(bytes(bounded), bytes(plain)) << "after " << i + 1;
    }
  }
  EXPECT_TRUE(saw_direct);
  EXPECT_FALSE(bounded.direct_indexed());
  EXPECT_EQ(bounded.keys(), plain.keys());
  EXPECT_EQ(bounded.raw_values(), plain.raw_values());
  const std::vector<u8> encoded = bytes(bounded);
  ByteReader r(encoded);
  CellStore back = CellStore::Deserialize(&r);
  EXPECT_EQ(bytes(back), bytes(plain));
}

TEST(CellStoreIndex, ClearAndReserveAfterDirectRebuild) {
  CellStore s(2, CellStore::Layout::kHashed, 300);
  s.Reserve(200);
  ASSERT_TRUE(s.direct_indexed());
  std::vector<i64> first;
  for (i64 k = 0; k < 300; k += 3) {
    first.push_back(k);
  }
  InsertNumbered(s, first);
  s.Clear();
  EXPECT_EQ(s.NumCells(), 0);
  EXPECT_TRUE(s.direct_indexed());
  for (const i64 k : first) {
    ASSERT_EQ(s.Get(k), nullptr);
  }
  std::vector<i64> second = {299, 0, 150, 1, 3};
  InsertNumbered(s, second);
  ExpectIndexed(s, second, {6, 298, 300});
  // Reserving more than the bound has keys keeps the direct index.
  s.Reserve(5000);
  EXPECT_TRUE(s.direct_indexed());
  ExpectIndexed(s, second, {6, 298, 300});
  for (i64 k = 0; k < 300; ++k) {
    s.GetOrCreate(k);
  }
  EXPECT_EQ(s.NumCells(), 300);
  EXPECT_EQ(s.Get(299)[0], 0.0f);
  EXPECT_EQ(s.Get(3)[0], 4.0f);
  CellStore copy = s;
  EXPECT_TRUE(copy.direct_indexed());
  EXPECT_EQ(copy.keys(), s.keys());
}

TEST(CellStoreIndex, BoundedStoreRefusesMoreCellsThanASlotCanName) {
  CellStore s(1, CellStore::Layout::kHashed, 64);
  InsertNumbered(s, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  ASSERT_TRUE(s.direct_indexed());
  EXPECT_DEATH(s.Reserve(i64{1} << 32), "at most");
  // A bound far above the cell count never indexes directly.
  CellStore huge(1, CellStore::Layout::kHashed, i64{1} << 40);
  InsertNumbered(huge, {0, 1, 2});
  EXPECT_FALSE(huge.direct_indexed());
}

// ---- Prefetch key dedupe ----

std::vector<i64> SortUniqueReference(std::vector<i64> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

TEST(SortUniqueKeys, BitmapAndSortPathsAgreeOnRandomLists) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const i64 total = 1 + rng.NextIndex(trial % 2 == 0 ? 200 : 100000);
    const i64 n = rng.NextIndex(3 * total / 64 + 40);
    std::vector<i64> keys;
    for (i64 i = 0; i < n; ++i) {
      keys.push_back(rng.NextIndex(total));
    }
    const std::vector<i64> want = SortUniqueReference(keys);
    // `total` picks the bitmap when total / 64 <= n; a huge key space always
    // sorts. Both must give the reference.
    std::vector<i64> chosen = keys;
    SortUniqueKeys(chosen, total);
    EXPECT_EQ(chosen, want) << "total " << total << " n " << n;
    std::vector<i64> sorted = keys;
    SortUniqueKeys(sorted, std::numeric_limits<i64>::max());
    EXPECT_EQ(sorted, want);
  }
}

TEST(SortUniqueKeys, WordBoundariesAndEmpty) {
  std::vector<i64> none;
  SortUniqueKeys(none, 64);
  EXPECT_TRUE(none.empty());
  std::vector<i64> keys = {127, 64, 63, 0, 128, 63, 191, 0};
  SortUniqueKeys(keys, 192);
  EXPECT_EQ(keys, (std::vector<i64>{0, 63, 64, 127, 128, 191}));
}

TEST(SortUniqueKeys, OutOfRangeKeysTakeTheSortPath) {
  // A small key space would pick the bitmap; one key below 0 or at/after
  // `total` must send the whole list down the sort path instead of indexing
  // the bitmap with it.
  const std::vector<std::vector<i64>> lists = {
      {5, -1, 3, 5, 0}, {5, 64, 3, 5, 0}, {std::numeric_limits<i64>::min(), 2, 2},
      {std::numeric_limits<i64>::max(), 1, 1}, {-64, -65, -64}};
  for (const auto& list : lists) {
    std::vector<i64> keys = list;
    SortUniqueKeys(keys, 64);
    EXPECT_EQ(keys, SortUniqueReference(list));
  }
}

// ---- RangeSplits / histograms ----

TEST(RangeSplits, EqualWidthCoversRange) {
  const auto s = RangeSplits::EqualWidth(100, 4);
  EXPECT_EQ(s.PartOf(0), 0);
  EXPECT_EQ(s.PartOf(24), 0);
  EXPECT_EQ(s.PartOf(25), 1);
  EXPECT_EQ(s.PartOf(99), 3);
}

TEST(RangeSplits, PartOfIsMonotone) {
  DimHistogram hist(0, 999, 128);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    hist.Add(rng.NextZipf(1000, 0.9));
  }
  const auto s = RangeSplits::FromHistogram(hist, 7);
  int prev = 0;
  for (i64 c = 0; c < 1000; ++c) {
    const int p = s.PartOf(c);
    EXPECT_GE(p, prev);
    EXPECT_LT(p, 7);
    prev = p;
  }
}

TEST(RangeSplits, HistogramBalancesSkew) {
  DimHistogram hist(0, 9999, 512);
  Rng rng(6);
  std::vector<i64> coords;
  for (int i = 0; i < 50000; ++i) {
    coords.push_back(rng.NextZipf(10000, 1.0));
    hist.Add(coords.back());
  }
  const int parts = 8;
  const auto balanced = RangeSplits::FromHistogram(hist, parts);
  const auto naive = RangeSplits::EqualWidth(10000, parts);
  std::vector<i64> balanced_load(parts, 0);
  std::vector<i64> naive_load(parts, 0);
  for (i64 c : coords) {
    ++balanced_load[static_cast<size_t>(balanced.PartOf(c))];
    ++naive_load[static_cast<size_t>(naive.PartOf(c))];
  }
  const i64 balanced_max = *std::max_element(balanced_load.begin(), balanced_load.end());
  const i64 naive_max = *std::max_element(naive_load.begin(), naive_load.end());
  EXPECT_LT(balanced_max, naive_max / 2) << "histogram splits should halve the max load";
}

TEST(RangeSplits, SerializeRoundtrip) {
  const auto s = RangeSplits::EqualWidth(1000, 5);
  ByteWriter w;
  s.Serialize(&w);
  auto bytes = w.Take();
  ByteReader r(bytes);
  const auto back = RangeSplits::Deserialize(&r);
  EXPECT_EQ(back.num_parts(), 5);
  EXPECT_EQ(back.uppers(), s.uppers());
}

// ---- Key sets ----

TEST(KeySet, RunsCoverExactlyTheBitsAndAreMaximal) {
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const i64 total = 1 + static_cast<i64>(rng.NextBounded(300));
    const u64 density = rng.NextBounded(5);  // 0 = empty ... 4 = every key
    KeySet s = KeySet::Bitmap(total);
    std::vector<i64> want;
    for (i64 k = 0; k < total; ++k) {
      if (rng.NextBounded(4) < density) {
        EXPECT_TRUE(s.Insert(k));
        EXPECT_FALSE(s.Insert(k));
        want.push_back(k);
      }
    }
    std::vector<i64> bits;
    s.ForEach([&](i64 k) { bits.push_back(k); });
    EXPECT_EQ(bits, want);
    EXPECT_EQ(s.size(), static_cast<i64>(want.size()));
    EXPECT_EQ(s.empty(), want.empty());
    std::vector<i64> from_runs;
    i64 last_end = -2;
    s.ForEachRun([&](i64 first, i64 count) {
      ASSERT_GT(count, 0);
      EXPECT_GT(first, last_end + 1) << "runs must be maximal";
      for (i64 k = first; k < first + count; ++k) {
        from_runs.push_back(k);
      }
      last_end = first + count - 1;
    });
    EXPECT_EQ(from_runs, want) << "total " << total;
  }
}

TEST(KeySet, ListFormKeepsOrderUntilNormalized) {
  KeySet s;
  for (const i64 k : {9, 2, 9, 5}) {
    s.Insert(k);
  }
  EXPECT_EQ(s.keys(), (std::vector<i64>{9, 2, 9, 5}));
  s.Normalize(/*total=*/16);
  EXPECT_EQ(s.keys(), (std::vector<i64>{2, 5, 9}));
  EXPECT_EQ(s.size(), 3);
}

TEST(KeySetDeathTest, BitmapRefusesKeysOutsideItsSpace) {
  KeySet s = KeySet::Bitmap(10);
  EXPECT_DEATH(s.Insert(10), "outside the bitmap");
  EXPECT_DEATH(s.Insert(-1), "outside the bitmap");
}

// ---- DistArray buffers ----

TEST(Buffer, CoalescesAndApplies) {
  DistArrayBuffer buf(7, 2);  // no apply function: the additive default
  EXPECT_TRUE(buf.additive());
  const f32 u1[2] = {1.0f, 2.0f};
  const f32 u2[2] = {3.0f, 4.0f};
  buf.Accumulate(5, u1);
  buf.Accumulate(5, u2);
  buf.Accumulate(9, u1);
  EXPECT_EQ(buf.NumPending(), 2);
  CellStore target(2, CellStore::Layout::kHashed, 0);
  target.GetOrCreate(5)[0] = 10.0f;
  CellStore drained = buf.Drain();
  EXPECT_EQ(buf.NumPending(), 0);
  DistArrayBuffer::ApplyTo(&target, drained, buf.apply_fn());
  EXPECT_FLOAT_EQ(target.Get(5)[0], 14.0f);
  EXPECT_FLOAT_EQ(target.Get(5)[1], 6.0f);
  EXPECT_FLOAT_EQ(target.Get(9)[0], 1.0f);
}

TEST(Buffer, SlabFormHoldsTheHashedFormsDeltas) {
  constexpr i32 kDim = 2;
  constexpr i64 kBound = 200;
  DistArrayBuffer hashed(7, kDim, {}, kBound);
  DistArrayBuffer slab(7, kDim, {}, kBound, /*slab=*/true);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const i64 key = static_cast<i64>(rng.NextIndex(kBound));
    const f32 u[kDim] = {static_cast<f32>(rng.NextGaussian()), 0.1f * static_cast<f32>(i)};
    hashed.Accumulate(key, u);
    slab.Accumulate(key, u);
  }
  ASSERT_EQ(slab.NumPending(), hashed.NumPending());
  const CellStore want = hashed.Drain();
  // The slab drains packed, in key order, with bit-identical deltas.
  KeySet keys;
  std::vector<f32> values;
  slab.DrainPacked(&keys, &values);
  EXPECT_EQ(slab.NumPending(), 0);
  ASSERT_EQ(keys.size(), want.NumCells());
  std::vector<i64> sorted = want.keys();
  std::sort(sorted.begin(), sorted.end());
  size_t i = 0;
  keys.ForEach([&](i64 key) {
    ASSERT_EQ(key, sorted[i]);
    EXPECT_EQ(std::memcmp(values.data() + i * kDim, want.Get(key), kDim * sizeof(f32)), 0);
    ++i;
  });
  // Drained, the slab holds zeros again: the next round starts clean.
  const f32 one[kDim] = {1.0f, 1.0f};
  slab.Accumulate(3, one);
  slab.DrainPacked(&keys, &values);
  EXPECT_EQ(keys.size(), 1);
  EXPECT_EQ(values, (std::vector<f32>{1.0f, 1.0f}));
}

TEST(Buffer, ApplyPackedMatchesPerKeyApply) {
  constexpr i32 kDim = 3;
  constexpr i64 kBound = 90;
  Rng rng(8);
  KeySet keys = KeySet::Bitmap(kBound);
  for (i64 k = 0; k < kBound; ++k) {
    if (rng.NextBounded(3) != 0) {
      keys.Insert(k);
    }
  }
  std::vector<f32> values;
  for (i64 i = 0; i < keys.size() * kDim; ++i) {
    values.push_back(static_cast<f32>(rng.NextGaussian()));
  }
  auto fresh = [&] {
    CellStore s(kDim, CellStore::Layout::kFullDense, kBound);
    s.ForEach([](i64 key, f32* v) { v[0] = v[1] = v[2] = 0.5f * static_cast<f32>(key); });
    return s;
  };
  auto max_apply = [](f32* cell, const f32* update, i32 dim) {
    for (i32 d = 0; d < dim; ++d) {
      cell[d] = std::max(cell[d], update[d]);
    }
  };
  for (const bool udf : {false, true}) {
    const BufferApplyFn apply = udf ? BufferApplyFn(max_apply) : BufferApplyFn();
    CellStore want = fresh();
    size_t i = 0;
    keys.ForEach([&](i64 key) {
      ApplyBufferedUpdate(apply, want.GetOrCreate(key), values.data() + i * kDim, kDim);
      ++i;
    });
    CellStore got = fresh();
    DistArrayBuffer::ApplyPacked(&got, keys, values, kDim, apply);
    EXPECT_EQ(got.raw_values(), want.raw_values()) << (udf ? "udf" : "additive");
  }
}

TEST(Buffer, CustomApplyUdf) {
  // Apply: cell[0] = max(cell[0], update[0]) — a non-additive UDF.
  auto apply = [](f32* cell, const f32* update, i32) {
    cell[0] = std::max(cell[0], update[0]);
  };
  DistArrayBuffer buf(7, 1, apply);
  const f32 u = 5.0f;
  buf.Accumulate(1, &u);
  CellStore target(1, CellStore::Layout::kHashed, 0);
  target.GetOrCreate(1)[0] = 3.0f;
  DistArrayBuffer::ApplyTo(&target, buf.Drain(), buf.apply_fn());
  EXPECT_FLOAT_EQ(target.Get(1)[0], 5.0f);
}

TEST(Buffer, ApplyPendingLeavesNonAdditiveUpdatesUntouched) {
  // A replica refresh applies the unflushed updates through the apply UDF
  // (here a non-additive per-lane max) and must leave them pending exactly
  // as they were.
  auto max_apply = [](f32* cell, const f32* update, i32 dim) {
    for (i32 d = 0; d < dim; ++d) {
      cell[d] = std::max(cell[d], update[d]);
    }
  };
  auto fill = [](DistArrayBuffer* buf) {
    const f32 updates[3][2] = {{-2.0f, 0.5f}, {-5.0f, 0.25f}, {1.5f, 2.0f}};
    const i64 keys[3] = {3, 3, 4};
    for (int i = 0; i < 3; ++i) {
      buf->Accumulate(keys[i], updates[i]);
    }
  };
  DistArrayBuffer reference(7, 2, max_apply, /*key_bound=*/16);
  DistArrayBuffer buf(7, 2, max_apply, /*key_bound=*/16);
  fill(&reference);
  fill(&buf);
  const CellStore want = reference.Drain();
  EXPECT_EQ(want.Get(3)[0], -7.0f);
  EXPECT_EQ(want.Get(3)[1], 0.75f);
  CellStore replica(2, CellStore::Layout::kHashed, 0);
  replica.GetOrCreate(3)[0] = 100.0f;
  replica.GetOrCreate(3)[1] = -1.0f;
  buf.ApplyPendingTo(&replica);
  EXPECT_EQ(replica.Get(3)[0], 100.0f);
  EXPECT_EQ(replica.Get(3)[1], 0.75f);
  EXPECT_EQ(replica.Get(4)[0], 1.5f);
  EXPECT_EQ(replica.Get(4)[1], 2.0f);
  EXPECT_EQ(buf.NumPending(), 2);
  const CellStore got = buf.Drain();
  EXPECT_EQ(got.keys(), want.keys());
  EXPECT_EQ(got.raw_values(), want.raw_values());
}

// ---- Randomize ----

TEST(Randomize, IsABijection) {
  RandomPermutation perm(1000, 9);
  std::vector<bool> hit(1000, false);
  for (i64 x = 0; x < 1000; ++x) {
    const i64 y = perm.Map(x);
    ASSERT_GE(y, 0);
    ASSERT_LT(y, 1000);
    EXPECT_FALSE(hit[static_cast<size_t>(y)]);
    hit[static_cast<size_t>(y)] = true;
    EXPECT_EQ(perm.Inverse(y), x);
  }
}

TEST(Randomize, DeterministicInSeed) {
  RandomPermutation a(100, 1);
  RandomPermutation b(100, 1);
  RandomPermutation c(100, 2);
  bool differs = false;
  for (i64 x = 0; x < 100; ++x) {
    EXPECT_EQ(a.Map(x), b.Map(x));
    differs = differs || a.Map(x) != c.Map(x);
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace orion
