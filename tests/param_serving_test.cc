// Parameter serving + depth-k prefetch ring: every configuration (ring
// depth k, fault injection, per-key vs bulk request shape) must be
// *bit-for-bit* identical to a fully synchronous run (no overlap, depth 1) —
// same reply bytes, same apply order, same f64 folds. BuildParamReply gives
// the same reply bytes from every store form the master can be in.
// Also covers the coalesced kPerKey metering identity: one wire message
// carrying K keys must charge the fabric exactly like K single-key messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "src/apps/lda.h"
#include "src/common/rng.h"
#include "src/net/fault_injector.h"
#include "src/runtime/driver.h"
#include "src/runtime/protocol.h"

namespace orion {
namespace {

std::map<i64, std::vector<f32>> Snapshot(Driver* d, DistArrayId id) {
  std::map<i64, std::vector<f32>> out;
  const CellStore& c = d->Cells(id);
  c.ForEachConst([&](i64 key, const f32* v) {
    out[key].assign(v, v + c.value_dim());
  });
  return out;
}

::testing::AssertionResult BitIdentical(const std::map<i64, std::vector<f32>>& a,
                                        const std::map<i64, std::vector<f32>>& b) {
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

// ---------------------------------------------------------------------------
// Rotation schedule + server-hosted table (non-aligned i+j subscript): the
// scenario where both the prefetch ring and param serving are hot.

struct RotationResult {
  std::map<i64, std::vector<f32>> out_r;
  std::map<i64, std::vector<f32>> out_c;
  f64 accum = 0.0;
  LoopMetrics last;
  double virtual_net_seconds = 0.0;  // summed over passes
  std::vector<FaultEvent> fault_events;
};

struct RotationOptions {
  bool overlap = true;
  int prefetch_depth = 2;
  PrefetchMode prefetch = PrefetchMode::kCached;
  FaultPlan fault_plan;
};

RotationResult RunRotationServer(const RotationOptions& opt) {
  constexpr i64 kRows = 24;
  constexpr i64 kCols = 24;
  constexpr int kPasses = 4;

  DriverConfig cfg;
  cfg.num_workers = 4;
  cfg.seed = 11;
  // Modeled-only link (no real-time charging): gives nonzero virtual cost so
  // the per-key metering comparison has something to compare, keeps tests fast.
  cfg.net.latency_us = 200.0;
  cfg.net.bandwidth_bps = 1e9;
  cfg.fault_plan = opt.fault_plan;
  if (cfg.fault_plan.Active()) {
    cfg.supervisor.enabled = true;
    cfg.supervisor.heartbeat_interval_seconds = 0.02;
    cfg.supervisor.retry_initial_seconds = 0.02;
  }
  Driver driver(cfg);

  auto data = driver.CreateDistArray("data", {kRows, kCols}, 1, Density::kSparse);
  auto out_r = driver.CreateDistArray("out_r", {kRows}, 2, Density::kDense);
  auto out_c = driver.CreateDistArray("out_c", {kCols}, 2, Density::kDense);
  auto table = driver.CreateDistArray("table", {kRows + kCols - 1}, 2, Density::kDense);
  {
    Rng rng(99);
    CellStore& cells = driver.MutableCells(data);
    for (i64 n = 0; n < 600; ++n) {
      const i64 i = static_cast<i64>(rng.NextBounded(static_cast<u64>(kRows)));
      const i64 j = static_cast<i64>(rng.NextBounded(static_cast<u64>(kCols)));
      *cells.GetOrCreate(i * kCols + j) = 1.0f + 0.25f * static_cast<f32>(n % 7);
    }
    driver.MapCells(table, [](i64 key, f32* v) {
      v[0] = 0.5f + 0.001f * static_cast<f32>(key);
      v[1] = 1.0f - 0.002f * static_cast<f32>(key);
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
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan idx, const f32* value) {
    const i64 k[1] = {idx[0] + idx[1]};
    const f32* t = ctx.Read(table, k);
    const f32 s = value[0] * t[0] + t[1];
    const i64 ki[1] = {idx[0]};
    const i64 kj[1] = {idx[1]};
    ctx.Mutate(out_r, ki)[0] += s;
    ctx.Mutate(out_r, ki)[1] += s * t[0];
    ctx.Mutate(out_c, kj)[0] += s;
    ctx.Mutate(out_c, kj)[1] += s * t[1];
    ctx.AccumulatorAdd(acc, static_cast<f64>(s));
  };

  ParallelForOptions options;
  options.prefetch = opt.prefetch;
  options.prefetch_depth = opt.prefetch_depth;
  options.overlap = opt.overlap;
  options.planner.replicate_threshold_floats = 0;  // force table -> kServer
  auto loop = driver.Compile(spec, kernel, options);
  EXPECT_TRUE(loop.ok()) << loop.status();
  EXPECT_EQ(driver.PlanOf(*loop).placements.at(table).scheme, PartitionScheme::kServer);

  RotationResult res;
  for (int p = 0; p < kPasses; ++p) {
    EXPECT_TRUE(driver.Execute(*loop).ok());
    res.virtual_net_seconds += driver.last_metrics().virtual_net_seconds;
  }
  res.last = driver.last_metrics();
  res.out_r = Snapshot(&driver, out_r);
  res.out_c = Snapshot(&driver, out_c);
  res.accum = driver.AccumulatorValue(acc);
  res.fault_events = driver.fault_events();
  return res;
}

::testing::AssertionResult SameResult(const RotationResult& a, const RotationResult& b) {
  auto r = BitIdentical(a.out_r, b.out_r);
  if (!r) {
    return r;
  }
  auto c = BitIdentical(a.out_c, b.out_c);
  if (!c) {
    return c;
  }
  if (a.accum != b.accum) {
    return ::testing::AssertionFailure() << "accumulators differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(ParamServing, RotationDepthSweepBitForBit) {
  RotationOptions sync;
  sync.overlap = false;
  sync.prefetch_depth = 1;
  const RotationResult ref = RunRotationServer(sync);

  for (int depth : {1, 2, 4}) {
    RotationOptions o;
    o.prefetch_depth = depth;
    const RotationResult got = RunRotationServer(o);
    EXPECT_TRUE(SameResult(ref, got)) << "depth " << depth;
    EXPECT_LE(got.last.prefetch_ring_depth_used, depth);
    if (depth >= 2) {
      // Warm kCached key lists let the ring actually fill past 1.
      EXPECT_GE(got.last.prefetch_ring_depth_used, 2) << "depth " << depth;
    }
    // The master served requests and reported its work.
    EXPECT_GT(got.last.param_serve_seconds, 0.0);
    EXPECT_EQ(got.last.worker_reply_wait.size(), 4u);
    u64 awaits = 0;
    for (const WaitHistogram& h : got.last.worker_reply_wait) {
      awaits += h.total_count();
    }
    EXPECT_GT(awaits, 0u);
  }
}

TEST(ParamServing, ChaosWhileShardedServingActive) {
  RotationOptions clean;
  clean.overlap = false;
  const RotationResult ref = RunRotationServer(clean);

  RotationOptions chaos;
  chaos.prefetch_depth = 2;
  chaos.fault_plan.seed = 17;
  chaos.fault_plan.drop_prob = 0.05;
  chaos.fault_plan.dup_prob = 0.05;
  chaos.fault_plan.delay_prob = 0.05;
  const RotationResult a = RunRotationServer(chaos);
  EXPECT_TRUE(SameResult(ref, a));
  EXPECT_FALSE(a.fault_events.empty());

  // Decision events are a pure function of the plan seed: replies leaving
  // on the master's lane threads must not perturb the injected sequence. Releases are
  // timing-dependent, so compare decisions only, canonically ordered.
  auto canonical = [](std::vector<FaultEvent> events) {
    events.erase(std::remove_if(events.begin(), events.end(),
                                [](const FaultEvent& e) {
                                  return e.kind == FaultEvent::Kind::kRelease;
                                }),
                 events.end());
    std::sort(events.begin(), events.end(),
              [](const FaultEvent& x, const FaultEvent& y) {
                return std::make_tuple(x.from, x.to, x.link_seq,
                                       static_cast<int>(x.kind)) <
                       std::make_tuple(y.from, y.to, y.link_seq,
                                       static_cast<int>(y.kind));
              });
    return events;
  };
  const RotationResult b = RunRotationServer(chaos);
  EXPECT_TRUE(SameResult(ref, b));
  EXPECT_EQ(canonical(a.fault_events), canonical(b.fault_events));
}

TEST(ParamServing, PerKeyMatchesBulkAndCostsMore) {
  RotationOptions bulk;
  bulk.prefetch = PrefetchMode::kBulk;
  RotationOptions perkey;
  perkey.prefetch = PrefetchMode::kPerKey;
  const RotationResult rb = RunRotationServer(bulk);
  const RotationResult rp = RunRotationServer(perkey);
  EXPECT_TRUE(SameResult(rb, rp));
  // Coalescing must not erase the modeled per-message cost of the storm.
  EXPECT_GT(rp.virtual_net_seconds, rb.virtual_net_seconds);
  EXPECT_GT(rp.last.messages_sent, rb.last.messages_sent);
}

// ---------------------------------------------------------------------------
// LDA with server-hosted topic totals: buffered server applies defer to pass
// end, the regime that makes deep prefetch legal in the first place.

void LdaDepthBitForBit(PrefetchMode prefetch) {
  CorpusConfig c;
  c.num_docs = 120;
  c.vocab = 200;
  c.true_topics = 5;
  c.doc_length = 25;
  c.seed = 23;
  auto corpus = GenerateCorpus(c);

  auto run = [&](bool overlap, int depth) {
    DriverConfig cfg;
    cfg.num_workers = 4;
    cfg.seed = 3;
    auto driver = std::make_unique<Driver>(cfg);
    LdaConfig l;
    l.num_topics = 5;
    l.loop_options.overlap = overlap;
    l.loop_options.prefetch = prefetch;
    l.loop_options.prefetch_depth = depth;
    l.loop_options.planner.replicate_threshold_floats = 0;
    auto app = std::make_unique<LdaApp>(driver.get(), l);
    EXPECT_TRUE(app->Init(corpus, 120, 200).ok());
    EXPECT_EQ(app->train_plan().placements.at(app->topic_sum()).scheme,
              PartitionScheme::kServer);
    for (int p = 0; p < 3; ++p) {
      EXPECT_TRUE(app->RunPass().ok());
    }
    auto ll = app->EvalLogLikelihood();
    EXPECT_TRUE(ll.ok());
    return std::make_tuple(Snapshot(driver.get(), app->doc_topic()),
                           Snapshot(driver.get(), app->word_topic()),
                           Snapshot(driver.get(), app->topic_sum()), *ll);
  };

  auto [dt_sync, wt_sync, ts_sync, ll_sync] = run(false, 1);
  for (int depth : {1, 4}) {
    auto [dt, wt, ts, ll] = run(true, depth);
    EXPECT_TRUE(BitIdentical(dt_sync, dt)) << "depth " << depth;
    EXPECT_TRUE(BitIdentical(wt_sync, wt)) << "depth " << depth;
    EXPECT_TRUE(BitIdentical(ts_sync, ts)) << "depth " << depth;
    EXPECT_EQ(ll_sync, ll) << "depth " << depth;  // exact f64
  }
}

TEST(ParamServing, LdaBulkDepthBitForBit) { LdaDepthBitForBit(PrefetchMode::kBulk); }
TEST(ParamServing, LdaCachedDepthBitForBit) { LdaDepthBitForBit(PrefetchMode::kCached); }

// ---------------------------------------------------------------------------
// Coalesced kPerKey metering: one wire message carrying K keys must charge
// the fabric (messages, bytes, virtual seconds) exactly like the K single-key
// messages the storm used to send.

TEST(PerKeyMetering, CoalescedRequestChargesLikeStorm) {
  NetCostModel net;
  net.latency_us = 500.0;
  net.bandwidth_bps = 1e9;
  const std::vector<i64> keys = {3, 17, 42, 100, 255, 1023, 4096};

  Fabric storm(1, net);
  for (i64 key : keys) {
    ParamRequest req{7, 5, KeySet({key})};
    req.per_key = true;
    Message m;
    m.from = 0;
    m.to = kMasterRank;
    m.kind = MsgKind::kParamRequest;
    AttachParamRequest(&m, std::move(req), /*zero_copy=*/false);
    storm.Send(std::move(m));
  }

  Fabric coalesced(1, net);
  {
    ParamRequest req{7, 5, KeySet(keys)};
    req.per_key = true;
    Message m;
    m.from = 0;
    m.to = kMasterRank;
    m.kind = MsgKind::kParamRequest;
    MeterAsPerKeyRequests(&m, req);
    AttachParamRequest(&m, std::move(req), /*zero_copy=*/false);
    coalesced.Send(std::move(m));
  }

  const FabricStats a = storm.Stats();
  const FabricStats b = coalesced.Stats();
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_DOUBLE_EQ(a.virtual_net_seconds, b.virtual_net_seconds);
}

TEST(PerKeyMetering, CoalescedReplyChargesLikeStorm) {
  NetCostModel net;
  net.latency_us = 500.0;
  net.bandwidth_bps = 1e9;
  constexpr i32 kDim = 3;
  const std::vector<i64> keys = {2, 9, 31, 64, 77};

  CellStore master(kDim, CellStore::Layout::kHashed, 0);
  for (i64 key : keys) {
    f32* v = master.GetOrCreate(key);
    for (int d = 0; d < kDim; ++d) {
      v[d] = static_cast<f32>(key * 10 + d);
    }
  }

  Fabric storm(1, net);
  for (i64 key : keys) {
    ParamRequest req{4, 2, KeySet({key})};
    req.per_key = true;
    Message reply = BuildParamReply(req, master, kDim, /*key_bound=*/0, /*zero_copy=*/false);
    reply.to = 0;
    storm.Send(std::move(reply));
  }

  Fabric coalesced(1, net);
  {
    ParamRequest req{4, 2, KeySet(keys)};
    req.per_key = true;
    Message reply = BuildParamReply(req, master, kDim, /*key_bound=*/0, /*zero_copy=*/false);
    reply.to = 0;
    coalesced.Send(std::move(reply));
  }

  const FabricStats a = storm.Stats();
  const FabricStats b = coalesced.Stats();
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_DOUBLE_EQ(a.virtual_net_seconds, b.virtual_net_seconds);
}

TEST(PerKeyMetering, ParamRequestEncodedSizeMatchesEncode) {
  ParamRequest empty{1, 0, KeySet()};
  EXPECT_EQ(empty.EncodedSize(), empty.Encode().size());

  ParamRequest bulk{2, 3, KeySet({1, 2, 3, 4, 5})};
  EXPECT_EQ(bulk.EncodedSize(), bulk.Encode().size());

  ParamRequest perkey{2, 3, KeySet({10, 20})};
  perkey.per_key = true;
  EXPECT_EQ(perkey.EncodedSize(), perkey.Encode().size());
  const ParamRequest decoded = ParamRequest::Decode(perkey.Encode());
  EXPECT_TRUE(decoded.per_key);
  EXPECT_EQ(decoded.keys, perkey.keys);
}

// BuildParamReply assembles hits in request-key order.
TEST(PerKeyMetering, BuildParamReplyPreservesKeyOrder) {
  constexpr i32 kDim = 2;
  CellStore master(kDim, CellStore::Layout::kHashed, 0);
  for (i64 key : {5, 1, 9}) {
    f32* v = master.GetOrCreate(key);
    v[0] = static_cast<f32>(key);
    v[1] = static_cast<f32>(-key);
  }
  ParamRequest req{0, 0, KeySet({9, 4, 1, 5})};  // 4 misses
  Message reply = BuildParamReply(req, master, kDim, /*key_bound=*/0, /*zero_copy=*/false);
  PartData pd = TakePart(reply);
  EXPECT_EQ(pd.cells.keys(), (std::vector<i64>{9, 1, 5}));  // request order, misses skipped
}

// ---------------------------------------------------------------------------
// BuildParamReply from every store form the master can be in: a flat
// CellStore, a VersionedCellStore before and after pagination, and a pinned
// snapshot of it. Each must give the same reply bytes, zero-copy or encoded.

void ExpectSameReply(Message want, Message got, const std::string& what) {
  EXPECT_EQ(got.from, want.from) << what;
  EXPECT_TRUE(got.kind == want.kind) << what;
  EXPECT_EQ(got.tag, want.tag) << what;
  EXPECT_EQ(got.meter_messages, want.meter_messages) << what;
  EXPECT_EQ(got.meter_extra_bytes, want.meter_extra_bytes) << what;
  EXPECT_EQ(got.WireSize(), want.WireSize()) << what;
  const PartData want_pd = TakePart(want);
  const PartData got_pd = TakePart(got);
  EXPECT_TRUE(got_pd.mode == want_pd.mode) << what;
  EXPECT_EQ(got_pd.values, want_pd.values) << what;
  EXPECT_EQ(got_pd.cells.keys(), want_pd.cells.keys()) << what;
  EXPECT_EQ(got_pd.Encode(), want_pd.Encode()) << what;
  // Zero-copy replies keep their store, bound and index included.
  EXPECT_EQ(got_pd.cells.key_bound(), want_pd.cells.key_bound()) << what;
  EXPECT_EQ(got_pd.cells.direct_indexed(), want_pd.cells.direct_indexed()) << what;
  for (i64 key : want_pd.cells.keys()) {
    ASSERT_NE(got_pd.cells.Get(key), nullptr) << what << " key " << key;
    EXPECT_EQ(std::memcmp(got_pd.cells.Get(key), want_pd.cells.Get(key),
                          static_cast<size_t>(want_pd.cells.value_dim()) * sizeof(f32)),
              0)
        << what << " key " << key;
  }
}

constexpr i32 kReplyDim = 3;
// Dense master over keys [100, 899]: several pages once paginated.
constexpr i64 kDenseLo = 100;
constexpr i64 kDenseHi = 899;
constexpr i64 kDenseBound = 900;
// Hashed master with strided keys below kHashedBound; keys at or above it miss.
constexpr i64 kHashedBound = 100003;

std::vector<i64> DenseKeys() {
  std::vector<i64> keys;
  for (i64 k = kDenseLo; k <= kDenseHi; ++k) {
    keys.push_back(k);
  }
  return keys;
}

std::vector<i64> HashedKeys() {
  std::vector<i64> keys;
  for (i64 i = 0; i < 600; ++i) {
    keys.push_back((i * 7919) % kHashedBound);
  }
  return keys;
}

CellStore MakeReplyMaster(bool dense) {
  CellStore store = dense ? CellStore::DenseRange(kReplyDim, kDenseLo, kDenseHi)
                          : CellStore(kReplyDim, CellStore::Layout::kHashed, 0);
  for (i64 key : dense ? DenseKeys() : HashedKeys()) {
    f32* v = store.GetOrCreate(key);
    for (i32 d = 0; d < kReplyDim; ++d) {
      v[d] = 0.5f * static_cast<f32>(key) + 0.25f * static_cast<f32>(d);
    }
  }
  return store;
}

struct ReplyCase {
  std::string name;
  bool dense = false;
  std::vector<i64> keys;
  bool per_key = false;
  bool bounded = false;  // reply store bounded by the array's key space
  bool bitmap = false;   // slab-plane request: the keys as a bitmap
};

std::vector<ReplyCase> ReplyCases() {
  const std::vector<i64> dense = DenseKeys();
  const std::vector<i64> hashed = HashedKeys();
  std::vector<i64> hashed_mixed;
  for (size_t i = 0; i < hashed.size(); i += 3) {
    hashed_mixed.push_back(hashed[i]);
    hashed_mixed.push_back(kHashedBound + static_cast<i64>(i));  // miss
    if (i % 2 == 0) {
      hashed_mixed.push_back(hashed[i]);  // duplicate
    }
  }
  const std::vector<ReplyCase> base = {
      {"dense_duplicates", true, {450, 101, 450, 899, 100, 101, 450, 777}},
      {"dense_all_reversed", true, std::vector<i64>(dense.rbegin(), dense.rend())},
      {"dense_empty", true, {}},
      {"dense_per_key", true, {777, 101, 777}, true},
      {"hashed_duplicates_and_misses", false, hashed_mixed},
      {"hashed_per_key", false, {hashed[9], kHashedBound + 1, hashed[9], hashed[2]}, true},
      {"hashed_all_misses", false, {kHashedBound, 200000, kHashedBound}},
      {"hashed_empty", false, {}},
  };
  std::vector<ReplyCase> out;
  for (bool bounded : {false, true}) {
    for (ReplyCase c : base) {
      c.bounded = bounded;
      c.name += bounded ? "_bounded" : "_unbounded";
      out.push_back(std::move(c));
    }
  }
  // Slab-plane requests: a bitmap over the whole key space, answered with
  // the values in bit order (the bitmap's bound is the key space).
  const std::vector<ReplyCase> bitmaps = {
      {"dense_bitmap_scattered", true, {450, 101, 899, 100, 777, 450}},
      {"dense_bitmap_all", true, dense},
      {"dense_bitmap_empty", true, {}},
      {"dense_bitmap_per_key", true, {777, 101}, true},
  };
  for (ReplyCase c : bitmaps) {
    c.bounded = true;
    c.bitmap = true;
    c.name += "_bounded";
    out.push_back(std::move(c));
  }
  return out;
}

// Names the case in test listings (the default printer dumps raw bytes,
// pointers included).
void PrintTo(const ReplyCase& c, std::ostream* os) { *os << c.name; }

class BuildParamReplyTest : public ::testing::TestWithParam<ReplyCase> {};

TEST_P(BuildParamReplyTest, SameBytesFromFlatPagedAndPinnedStores) {
  const ReplyCase& c = GetParam();
  const CellStore flat = MakeReplyMaster(c.dense);
  const i64 bound = !c.bounded ? 0 : c.dense ? kDenseBound : kHashedBound;
  const VersionedCellStore unpaged{CellStore(flat)};
  VersionedCellStore paged{CellStore(flat)};
  paged.BeginServing();
  ASSERT_GT(paged.num_pages(), 1);
  const VersionedCellStore::Snapshot pinned = paged.Pin();

  KeySet keys(c.keys);
  if (c.bitmap) {
    keys = KeySet::Bitmap(bound);
    for (const i64 k : c.keys) {
      keys.Insert(k);
    }
  }
  ParamRequest req{/*array=*/7, /*step=*/3, std::move(keys)};
  req.per_key = c.per_key;
  for (bool zero_copy : {false, true}) {
    const std::string how = zero_copy ? " zero_copy" : " encoded";
    Message want = BuildParamReply(req, flat, kReplyDim, bound, zero_copy);
    if (zero_copy && c.name == "dense_all_reversed_bounded") {
      // 800 keys under a bound of 900: the reply table indexes directly.
      const auto* z = static_cast<const ZeroCopyPart*>(want.zc.get());
      EXPECT_TRUE(z->pd.cells.direct_indexed());
    }
    ExpectSameReply(BuildParamReply(req, flat, kReplyDim, bound, zero_copy),
                    BuildParamReply(req, unpaged, kReplyDim, bound, zero_copy),
                    "unpaged" + how);
    ExpectSameReply(BuildParamReply(req, flat, kReplyDim, bound, zero_copy),
                    BuildParamReply(req, paged, kReplyDim, bound, zero_copy), "paged" + how);
    ExpectSameReply(std::move(want), BuildParamReply(req, pinned, kReplyDim, bound, zero_copy),
                    "pinned" + how);
  }
}

INSTANTIATE_TEST_SUITE_P(StoreForms, BuildParamReplyTest, ::testing::ValuesIn(ReplyCases()));

TEST(PerKeyMetering, BitmapRequestMetersOneMessagePerSetBit) {
  KeySet keys = KeySet::Bitmap(1000);
  for (const i64 k : {3, 4, 5, 900, 999}) {
    keys.Insert(k);
  }
  ParamRequest req{7, 5, std::move(keys)};
  req.per_key = true;
  Message m;
  MeterAsPerKeyRequests(&m, req);
  EXPECT_EQ(m.meter_messages, 5u);

  CellStore master(1, CellStore::Layout::kFullDense, 1000);
  Message reply = BuildParamReply(req, master, 1, /*key_bound=*/1000, /*zero_copy=*/false);
  EXPECT_EQ(reply.meter_messages, 5u);
}

// ---------------------------------------------------------------------------
// Slab plane vs key-list plane: the same SLR-shaped loop with its weights
// declared dense (bitmaps, packed values, read and delta slabs) and sparse
// (key lists and CellStores) must give bit-identical losses and weights at
// one worker, for additive and AdaRev buffers, every prefetch mode, and the
// synthesized prefetch program.

struct SlabCase {
  std::string name;
  bool adarev = false;
  PrefetchMode mode = PrefetchMode::kBulk;
  bool body_ir = false;
};

void PrintTo(const SlabCase& c, std::ostream* os) { *os << c.name; }

struct SlrShapedRun {
  std::vector<f64> losses;            // per pass
  std::map<i64, std::vector<f32>> w;  // every key, absent sparse cells as zeros
  u64 bytes_sent = 0;
};

SlrShapedRun RunSlrShaped(const SlabCase& c, Density density) {
  constexpr i64 kSamples = 400;
  constexpr i64 kFeatures = 300;
  constexpr int kNnz = 6;
  constexpr int kStride = 2 + 2 * kNnz;
  const int wdim = c.adarev ? 3 : 1;
  DriverConfig cfg;
  cfg.num_workers = 1;
  Driver driver(cfg);
  const DistArrayId samples =
      driver.CreateDistArray("samples", {kSamples}, kStride, Density::kSparse);
  const DistArrayId weights = driver.CreateDistArray("weights", {kFeatures}, wdim, density);
  {
    CellStore& cells = driver.MutableCells(samples);
    Rng rng(21);
    for (i64 s = 0; s < kSamples; ++s) {
      f32* cell = cells.GetOrCreate(s);
      const int n = 1 + static_cast<int>(rng.NextBounded(kNnz));
      cell[0] = rng.NextBounded(2) == 0 ? 0.0f : 1.0f;
      cell[1] = static_cast<f32>(n);
      for (int f = 0; f < n; ++f) {
        // Skewed ids: low features recur, so flushes coalesce and runs form.
        const i64 id = static_cast<i64>(rng.NextIndex(kFeatures) * rng.NextIndex(kFeatures)) /
                       kFeatures;
        cell[2 + 2 * f] = static_cast<f32>(id);
        cell[3 + 2 * f] = 0.25f + static_cast<f32>(rng.NextBounded(8)) * 0.125f;
      }
    }
  }
  if (c.adarev) {
    driver.RegisterBuffer(weights, 2, [](f32* cell, const f32* update, i32) {
      const f32 g = update[0];
      const f32 g_bwd = cell[2] - update[1];
      const f32 extra = g * g_bwd;
      const f32 z_new = cell[1] + g * g + 2.0f * (extra > 0.0f ? extra : 0.0f);
      cell[0] -= 0.1f / std::sqrt(1.0f + z_new) * g;
      cell[1] = z_new;
      cell[2] += g;
    });
  } else {
    driver.RegisterBuffer(weights, 1);
  }
  const int acc = driver.CreateAccumulator();
  const bool adarev = c.adarev;
  LoopKernel kernel = [=](LoopContext& ctx, IdxSpan, const f32* value) {
    const int n = static_cast<int>(value[1]);
    f64 margin = 0.0;
    f32 seen[kNnz] = {};
    for (int f = 0; f < n; ++f) {
      const i64 id[1] = {static_cast<i64>(value[2 + 2 * f])};
      const f32* w = ctx.Read(weights, id);
      margin += static_cast<f64>(w[0]) * static_cast<f64>(value[3 + 2 * f]);
      seen[f] = adarev ? w[2] : 0.0f;
    }
    const f64 p = 1.0 / (1.0 + std::exp(-margin));
    ctx.AccumulatorAdd(acc, value[0] > 0.5f ? -std::log(p + 1e-12) : -std::log(1.0 - p + 1e-12));
    const f32 err = static_cast<f32>(p) - value[0];
    for (int f = 0; f < n; ++f) {
      const i64 id[1] = {static_cast<i64>(value[2 + 2 * f])};
      const f32 g = err * value[3 + 2 * f];
      const f32 update[2] = {adarev ? g : -0.05f * g, seen[f]};
      ctx.BufferUpdate(weights, id, update);
    }
  };
  ParallelForOptions options;
  options.prefetch = c.mode;
  options.server_sync_rounds = 4;
  // Host the weights on the server, the empty sparse declaration included.
  options.planner.replicate_threshold_floats = -1;
  StatusOr<i32> loop = Status::Internal("unset");
  if (!c.body_ir) {
    LoopSpec spec;
    spec.iter_space = samples;
    spec.iter_extents = {kSamples};
    spec.AddAccess(weights, "weights", {Expr::Runtime("id")}, /*is_write=*/false);
    spec.AddAccess(weights, "weights", {Expr::Runtime("id")}, /*is_write=*/true,
                   /*buffered=*/true);
    loop = driver.Compile(spec, kernel, options);
  } else {
    // for f in 0..n-1 { id = value[2 + 2f]; w = weights[id]; buffer(weights)[id] <- w }
    LoopBody body;
    body.num_index_dims = 1;
    body.num_vars = 4;  // 0=n, 1=f, 2=id, 3=w
    std::vector<StmtPtr> inner;
    inner.push_back(Stmt::Assign(2, SExpr::IterValueAt(SExpr::Add(
                                        SExpr::Const(2), SExpr::Mul(SExpr::Const(2),
                                                                    SExpr::Var(1))))));
    inner.push_back(Stmt::Assign(3, SExpr::ArrayElem(weights, {SExpr::Var(2)}, SExpr::Const(0))));
    inner.push_back(Stmt::BufferUpdate(weights, "weights", {SExpr::Var(2)}, {SExpr::Var(3)}));
    body.stmts.push_back(Stmt::Assign(0, SExpr::IterValueAt(SExpr::Const(1))));
    body.stmts.push_back(Stmt::For(1, SExpr::Var(0), std::move(inner)));
    loop = driver.CompileBody(samples, {kSamples}, /*ordered=*/false, body, kernel, options);
  }
  EXPECT_TRUE(loop.ok()) << loop.status();
  if (!loop.ok()) {
    return {};
  }
  EXPECT_EQ(driver.PlanOf(*loop).placements.at(weights).scheme, PartitionScheme::kServer);
  SlrShapedRun out;
  for (int pass = 0; pass < 4; ++pass) {
    driver.ResetAccumulator(acc);
    EXPECT_TRUE(driver.Execute(*loop).ok());
    out.losses.push_back(driver.AccumulatorValue(acc));
  }
  out.bytes_sent = driver.NetStats().bytes_sent;
  const CellStore& w = driver.Cells(weights);
  for (i64 k = 0; k < kFeatures; ++k) {
    const f32* v = w.Get(k);
    out.w[k] = v != nullptr ? std::vector<f32>(v, v + wdim) : std::vector<f32>(wdim, 0.0f);
  }
  return out;
}

class SlabPlaneTest : public ::testing::TestWithParam<SlabCase> {};

TEST_P(SlabPlaneTest, DenseAndSparseDeclarationsAgreeBitForBit) {
  const SlrShapedRun dense = RunSlrShaped(GetParam(), Density::kDense);
  const SlrShapedRun sparse = RunSlrShaped(GetParam(), Density::kSparse);
  ASSERT_EQ(dense.losses.size(), 4u);
  ASSERT_EQ(sparse.losses.size(), 4u);
  for (size_t p = 0; p < dense.losses.size(); ++p) {
    EXPECT_EQ(std::memcmp(&dense.losses[p], &sparse.losses[p], sizeof(f64)), 0)
        << "pass " << p << ": " << dense.losses[p] << " vs " << sparse.losses[p];
  }
  EXPECT_LT(dense.losses.back(), dense.losses.front());  // it trains
  EXPECT_TRUE(BitIdentical(dense.w, sparse.w));
  // The dense run really took the slab plane: no i64 key on the wire.
  EXPECT_LT(dense.bytes_sent, sparse.bytes_sent);
}

std::vector<SlabCase> SlabCases() {
  std::vector<SlabCase> out;
  for (const bool adarev : {false, true}) {
    for (const auto& [mode, mode_name] : {std::pair{PrefetchMode::kBulk, "bulk"},
                                          std::pair{PrefetchMode::kCached, "cached"},
                                          std::pair{PrefetchMode::kPerKey, "per_key"}}) {
      out.push_back({std::string(adarev ? "adarev_" : "additive_") + mode_name, adarev, mode});
    }
    out.push_back({std::string(adarev ? "adarev_" : "additive_") + "body_ir", adarev,
                   PrefetchMode::kBulk, true});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(SlabPlane, SlabPlaneTest, ::testing::ValuesIn(SlabCases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace orion
