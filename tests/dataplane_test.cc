// Data-plane raw-speed pass: the SIMD kernels, the serialization buffer
// pool, and per-array page sizing must all be invisible to results.
//
//  - simd::CopyF32 / simd::AddF32 are bit-for-bit identical to the scalar
//    loops at every dispatch level, across randomized sizes and alignments
//    (the runtime-dispatch seams: head/tail scalar remainders, unrolled
//    bodies, unaligned loads).
//  - BufferPool recycles released buffers (steady-state hit rate), accounts
//    hits/misses/discards, and its thread-local caches stay coherent under
//    concurrent lanes.
//  - VersionedCellStore contents are bit-for-bit identical across
//    page_cells in {64, 256, 1024}, and the autotuner repaginates only on
//    two consecutive agreeing picks at quiesced points.
//  - The delta log round-trips stores with non-default page sizes (format
//    v2 carries the page geometry per record).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include "src/common/buffer_pool.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/common/simd.h"
#include "src/dsm/cell_store.h"
#include "src/dsm/delta_log.h"
#include "src/dsm/versioned_store.h"

namespace orion {
namespace {

// ---------------------------------------------------------------------------
// SIMD kernels vs scalar reference.

std::vector<simd::Level> LevelsToTest() {
  std::vector<simd::Level> out = {simd::Level::kScalar};
  if (simd::BestSupportedLevel() >= simd::Level::kSSE2) {
    out.push_back(simd::Level::kSSE2);
  }
  if (simd::BestSupportedLevel() >= simd::Level::kAVX2) {
    out.push_back(simd::Level::kAVX2);
  }
  return out;
}

TEST(Simd, DispatchLevels) {
  // x86-64 guarantees SSE2; elsewhere scalar must still work.
  EXPECT_GE(simd::BestSupportedLevel(), simd::Level::kScalar);
  simd::ForceLevel(simd::Level::kScalar);
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  simd::ResetLevel();
  EXPECT_EQ(simd::ActiveLevel(), simd::BestSupportedLevel());
  // Forcing past what the CPU supports clamps instead of crashing.
  simd::ForceLevel(simd::Level::kAVX2);
  EXPECT_LE(simd::ActiveLevel(), simd::BestSupportedLevel());
  simd::ResetLevel();
}

TEST(Simd, CopyMatchesScalarAcrossSizesAndAlignments) {
  Rng rng(0x5eed5eedULL);
  // Padded buffers let us start the spans at every offset in [0, 8): the
  // kernels must handle unaligned heads, unrolled bodies, and scalar tails.
  constexpr size_t kMax = 4099;
  std::vector<f32> src(kMax + 16), ref(kMax + 16), out(kMax + 16);
  for (f32& v : src) {
    v = static_cast<f32>(rng.NextGaussian());
  }
  const size_t sizes[] = {0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 33,
                          63, 64, 100, 255, 256, 1000, 4096, kMax};
  for (simd::Level level : LevelsToTest()) {
    simd::ForceLevel(level);
    for (size_t n : sizes) {
      for (size_t off = 0; off < 8; ++off) {
        std::fill(ref.begin(), ref.end(), -7.0f);
        std::fill(out.begin(), out.end(), -7.0f);
        for (size_t i = 0; i < n; ++i) {
          ref[off + i] = src[off + i];  // reference: element-wise assign
        }
        simd::CopyF32(out.data() + off, src.data() + off, n);
        ASSERT_EQ(std::memcmp(out.data(), ref.data(), out.size() * sizeof(f32)), 0)
            << "level=" << simd::LevelName(level) << " n=" << n << " off=" << off;
      }
    }
  }
  simd::ResetLevel();
}

TEST(Simd, AddMatchesScalarBitForBitAcrossLevels) {
  // The determinism contract: one IEEE add per lane at every level, so the
  // result bytes cannot depend on the dispatch level. Gaussian values with
  // mixed magnitudes exercise rounding.
  Rng rng(0xadd5eedULL);
  constexpr size_t kMax = 2053;
  std::vector<f32> src(kMax + 8), base(kMax + 8);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<f32>(rng.NextGaussian() * 1e3);
    base[i] = static_cast<f32>(rng.NextGaussian() * 1e-3);
  }
  // n <= simd::kInlineLanes takes the inline loop at every level.
  const size_t sizes[] = {0, 1, 2, 3, 4, 5, 8, 16, 17, 64, 129, 1024, kMax};
  simd::ForceLevel(simd::Level::kScalar);
  for (size_t n : sizes) {
    for (size_t off = 0; off < 4; ++off) {
      std::vector<f32> want(base);
      simd::AddF32(want.data() + off, src.data() + off, n);
      std::vector<f32> plain(base);
      for (size_t i = 0; i < n; ++i) {
        plain[off + i] += src[off + i];
      }
      ASSERT_EQ(std::memcmp(plain.data(), want.data(), want.size() * sizeof(f32)), 0)
          << "scalar vs plain loop, n=" << n << " off=" << off;
      for (simd::Level level : LevelsToTest()) {
        simd::ForceLevel(level);
        std::vector<f32> got(base);
        simd::AddF32(got.data() + off, src.data() + off, n);
        ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(f32)), 0)
            << "level=" << simd::LevelName(level) << " n=" << n << " off=" << off;
      }
      simd::ForceLevel(simd::Level::kScalar);
    }
  }
  simd::ResetLevel();
}

// ---------------------------------------------------------------------------
// Buffer pool.

TEST(BufferPool, AcquireReleaseRecycles) {
  BufferPool::TrimThreadCacheForTest();
  BufferPool::ResetStatsForTest();

  std::vector<u8> a = BufferPool::Acquire(100);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_GE(a.capacity(), 100u);
  const u8* storage = a.data();
  BufferPool::Release(std::move(a));

  // Same class: must come back with the same storage, counted as a hit.
  std::vector<u8> b = BufferPool::Acquire(80);
  EXPECT_EQ(b.data(), storage);
  const BufferPool::Stats s = BufferPool::AggregateStats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.releases, 1u);
  BufferPool::Release(std::move(b));
  BufferPool::TrimThreadCacheForTest();
}

TEST(BufferPool, OversizedAndEmptyReleases) {
  BufferPool::TrimThreadCacheForTest();
  BufferPool::ResetStatsForTest();

  // Zero-capacity vectors (moved-from payloads) are ignored entirely.
  BufferPool::Release(std::vector<u8>{});
  EXPECT_EQ(BufferPool::AggregateStats().releases, 0u);
  EXPECT_EQ(BufferPool::AggregateStats().discards, 0u);

  // Oversized buffers bypass the pool and are discarded on release.
  std::vector<u8> big = BufferPool::Acquire(4u << 20);
  EXPECT_GE(big.capacity(), 4u << 20);
  BufferPool::Release(std::move(big));
  const BufferPool::Stats s = BufferPool::AggregateStats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.discards, 1u);
  BufferPool::TrimThreadCacheForTest();
}

TEST(BufferPool, HighWaterTracksParkedBytes) {
  BufferPool::TrimThreadCacheForTest();
  BufferPool::ResetStatsForTest();

  std::vector<u8> a = BufferPool::Acquire(1024);
  std::vector<u8> b = BufferPool::Acquire(1024);
  const size_t cap = a.capacity() + b.capacity();
  BufferPool::Release(std::move(a));
  BufferPool::Release(std::move(b));
  EXPECT_GE(BufferPool::AggregateStats().pooled_bytes_high_water, cap);
  BufferPool::TrimThreadCacheForTest();
}

TEST(BufferPool, ConcurrentLanesSteadyStateHits) {
  BufferPool::ResetStatsForTest();
  // Each thread runs an encode/consume loop against its own cache; after
  // warm-up every acquire must be a hit (allocations-per-message ~ 0).
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        std::vector<u8> buf = BufferPool::Acquire(256 + static_cast<size_t>(t));
        buf.push_back(static_cast<u8>(i));
        BufferPool::Release(std::move(buf));
      }
      BufferPool::TrimThreadCacheForTest();
    });
  }
  for (std::thread& t : ts) {
    t.join();
  }
  const BufferPool::Stats s = BufferPool::AggregateStats();
  EXPECT_EQ(s.acquires, static_cast<u64>(kThreads) * kIters);
  // First acquire per thread allocates; everything after recycles.
  EXPECT_GE(s.hits, s.acquires - kThreads);
}

TEST(BufferPool, ByteWriterUsesPool) {
  BufferPool::TrimThreadCacheForTest();
  BufferPool::ResetStatsForTest();

  // Encode, consume, release, encode again: the second writer's backing
  // buffer must be recycled storage (same size class via the reserve hint).
  ByteWriter w1(100 * sizeof(i64));
  for (int i = 0; i < 100; ++i) {
    w1.Put<i64>(i);
  }
  std::vector<u8> payload = w1.Take();
  const std::vector<u8> want(payload.begin(), payload.end());
  BufferPool::Release(std::move(payload));

  ByteWriter w2(100 * sizeof(i64));
  for (int i = 0; i < 100; ++i) {
    w2.Put<i64>(i);
  }
  std::vector<u8> payload2 = w2.Take();
  EXPECT_EQ(want, payload2);  // recycling must not perturb encoded bytes
  const BufferPool::Stats s = BufferPool::AggregateStats();
  EXPECT_GE(s.hits, 1u);
  BufferPool::Release(std::move(payload2));
  BufferPool::TrimThreadCacheForTest();
}

TEST(BufferPool, ByteWriterReserveAvoidsRegrowth) {
  // A writer constructed with the exact size must not reallocate while
  // encoding (the Reserve audit on the Encode chains depends on this).
  const size_t total = 64 * sizeof(i64);
  ByteWriter w(total);
  for (int i = 0; i < 64; ++i) {
    w.Put<i64>(i);
  }
  std::vector<u8> out = w.Take();
  EXPECT_EQ(out.size(), total);
  BufferPool::Release(std::move(out));
  BufferPool::TrimThreadCacheForTest();
}

// ---------------------------------------------------------------------------
// Page-size sweep and autotune.

using CellMap = std::map<i64, std::vector<f32>>;

CellMap StoreSnapshot(const VersionedCellStore& s) {
  CellMap out;
  const i32 vdim = s.value_dim();
  s.ForEachConst([&](i64 key, const f32* v) { out[key].assign(v, v + vdim); });
  return out;
}

::testing::AssertionResult BitIdentical(const CellMap& a, const CellMap& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "cell counts differ: " << a.size() << " vs " << b.size();
  }
  for (const auto& [key, va] : a) {
    auto it = b.find(key);
    if (it == b.end()) {
      return ::testing::AssertionFailure() << "key " << key << " missing";
    }
    if (va.size() != it->second.size() ||
        std::memcmp(va.data(), it->second.data(), va.size() * sizeof(f32)) != 0) {
      return ::testing::AssertionFailure() << "key " << key << " differs bitwise";
    }
  }
  return ::testing::AssertionSuccess();
}

// One serve-write-snapshot cycle at a given page size; returns the final
// contents. Every page size must produce byte-identical results.
CellMap RunPagedWorkload(i64 page_cells, bool dense) {
  constexpr i32 kDim = 3;
  constexpr i64 kCells = 1500;
  CellStore flat = dense ? CellStore(kDim, CellStore::Layout::kFullDense, kCells)
                         : CellStore(kDim, CellStore::Layout::kHashed, 0);
  Rng rng(0x9a6e5eedULL);
  for (i64 k = 0; k < kCells; ++k) {
    const i64 key = dense ? k : k * 7 + 1;
    f32* v = flat.GetOrCreate(key);
    for (i32 d = 0; d < kDim; ++d) {
      v[d] = static_cast<f32>(rng.NextGaussian());
    }
  }
  VersionedCellStore store(std::move(flat));
  store.SetPageCells(page_cells);
  store.BeginServing();
  EXPECT_EQ(store.page_cells(), page_cells);

  // Pin a snapshot, write through COW under it, merge additive deltas.
  VersionedCellStore::Snapshot snap = store.Pin();
  Rng wr(0x11ULL);
  for (int i = 0; i < 300; ++i) {
    const i64 k = wr.NextIndex(kCells);
    const i64 key = dense ? k : k * 7 + 1;
    f32* v = store.GetOrCreate(key);
    v[0] += 1.0f;
    v[2] = static_cast<f32>(i);
  }
  CellStore updates(kDim, CellStore::Layout::kHashed, 0);
  for (int i = 0; i < 100; ++i) {
    const i64 k = wr.NextIndex(kCells);
    const i64 key = dense ? k : k * 7 + 1;
    f32* v = updates.GetOrCreate(key);
    v[1] = 0.25f;
  }
  updates.ForEachConst([&](i64 key, const f32* v) {
    simd::AddF32(store.GetOrCreate(key), v, static_cast<size_t>(kDim));
  });
  snap.Release();
  return StoreSnapshot(store);
}

TEST(PageSize, SweepBitForBitIdentical) {
  for (bool dense : {true, false}) {
    const CellMap want = RunPagedWorkload(VersionedCellStore::kPageCells, dense);
    for (i64 pc : {VersionedCellStore::kMinPageCells, VersionedCellStore::kMaxPageCells,
                   i64{128}}) {
      EXPECT_TRUE(BitIdentical(want, RunPagedWorkload(pc, dense)))
          << "page_cells=" << pc << " dense=" << dense;
    }
  }
}

TEST(PageSize, SetPageCellsRepaginatesInPlace) {
  CellStore flat(2, CellStore::Layout::kFullDense, 1000);
  for (i64 k = 0; k < 1000; ++k) {
    flat.GetOrCreate(k)[0] = static_cast<f32>(k);
  }
  VersionedCellStore store(std::move(flat));
  store.BeginServing();
  const CellMap before = StoreSnapshot(store);
  EXPECT_EQ(store.page_cells(), VersionedCellStore::kPageCells);

  store.SetPageCells(64);
  EXPECT_TRUE(store.paged());
  EXPECT_EQ(store.page_cells(), 64);
  EXPECT_EQ(store.num_pages(), (1000 + 63) / 64);
  EXPECT_TRUE(BitIdentical(before, StoreSnapshot(store)));
  // Repagination cannot know which pages changed since the last checkpoint.
  EXPECT_FALSE(store.delta_tracking_valid());
}

TEST(PageSize, AutoTuneServingOnlyGrowsWithHysteresis) {
  CellStore flat(1, CellStore::Layout::kFullDense, 4000);
  VersionedCellStore store(std::move(flat));
  store.BeginServing();
  ASSERT_EQ(store.page_cells(), VersionedCellStore::kPageCells);

  // Serving-only passes pick kMaxPageCells, but one pick must not
  // repaginate: hysteresis requires two consecutive agreeing picks.
  EXPECT_FALSE(store.AutoTunePageSize());
  EXPECT_EQ(store.page_cells(), VersionedCellStore::kPageCells);
  EXPECT_TRUE(store.AutoTunePageSize());
  EXPECT_EQ(store.page_cells(), VersionedCellStore::kMaxPageCells);
}

TEST(PageSize, AutoTuneSparseWritersShrink) {
  CellStore flat(1, CellStore::Layout::kFullDense, 4000);
  VersionedCellStore store(std::move(flat));
  store.BeginServing();
  store.SetPageCells(VersionedCellStore::kMaxPageCells);

  // A handful of writes per pass out of 4000 cells: write fraction < 1/16,
  // so the tuner wants kMinPageCells. Two agreeing passes repaginate.
  for (int pass = 0; pass < 2; ++pass) {
    for (i64 k = 0; k < 10; ++k) {
      store.GetOrCreate(k * 57)[0] += 1.0f;
    }
    const bool repaginated = store.AutoTunePageSize();
    EXPECT_EQ(repaginated, pass == 1);
  }
  EXPECT_EQ(store.page_cells(), VersionedCellStore::kMinPageCells);
}

TEST(PageSize, AutoTuneBlockedByLivePin) {
  CellStore flat(1, CellStore::Layout::kFullDense, 4000);
  VersionedCellStore store(std::move(flat));
  store.BeginServing();
  VersionedCellStore::Snapshot snap = store.Pin();
  // A live snapshot pins the page geometry; tuning must refuse quietly.
  EXPECT_FALSE(store.AutoTunePageSize());
  EXPECT_FALSE(store.AutoTunePageSize());
  EXPECT_EQ(store.page_cells(), VersionedCellStore::kPageCells);
  snap.Release();
}

// ---------------------------------------------------------------------------
// Delta log with non-default page geometry (format v2).

TEST(PageSize, DeltaLogRoundTripsNonDefaultPageSize) {
  const std::string dir = ::testing::TempDir() + "/orion_dataplane_log";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  CellStore flat(2, CellStore::Layout::kFullDense, 700);
  for (i64 k = 0; k < 700; ++k) {
    f32* v = flat.GetOrCreate(k);
    v[0] = static_cast<f32>(k);
    v[1] = static_cast<f32>(-k);
  }
  VersionedCellStore store(std::move(flat));
  store.SetPageCells(64);  // delta records must carry this geometry
  store.BeginServing();

  auto writer = DeltaLogWriter::Open(dir, {/*compact_every=*/8});
  ASSERT_TRUE(writer.ok()) << writer.status();
  MasterRecord m0;
  m0.next_pass = 0;
  auto s0 = (*writer)->AppendCheckpoint(m0, {{"t", &store}});
  ASSERT_TRUE(s0.ok()) << s0.status();
  ASSERT_TRUE(store.delta_tracking_valid());

  // Dirty two cells in distinct 64-cell pages; the delta record's page
  // indices and spans are in units of the store's page size, not the
  // default.
  store.GetOrCreate(5)[0] = 42.0f;
  store.GetOrCreate(650)[1] = -42.0f;
  const CellMap snap1 = StoreSnapshot(store);
  MasterRecord m1;
  m1.next_pass = 1;
  auto s1 = (*writer)->AppendCheckpoint(m1, {{"t", &store}});
  ASSERT_TRUE(s1.ok()) << s1.status();
  EXPECT_FALSE(s1->wrote_base);
  EXPECT_EQ(s1->pages_deltad, 2u);

  auto reader = DeltaLogReader::Open(dir);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto at1 = reader->Latest();
  ASSERT_TRUE(at1.ok()) << at1.status();
  CellMap got;
  at1->arrays.at("t").ForEachConst([&](i64 key, const f32* v) {
    got[key].assign(v, v + 2);
  });
  EXPECT_TRUE(BitIdentical(snap1, got));
}

}  // namespace
}  // namespace orion
