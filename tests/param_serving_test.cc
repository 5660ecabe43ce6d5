// Parameter serving + depth-k prefetch ring: every configuration (ring
// depth k, fault injection, per-key vs bulk request shape) must be
// *bit-for-bit* identical to a fully synchronous run (no overlap, depth 1) —
// same reply bytes, same apply order, same f64 folds. BuildParamReply gives
// the same reply bytes from every store form the master can be in.
// Also covers the coalesced kPerKey metering identity: one wire message
// carrying K keys must charge the fabric exactly like K single-key messages.
#include <gtest/gtest.h>

#include <algorithm>
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
    ParamRequest req{7, 5, {key}};
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
    ParamRequest req{7, 5, keys};
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
    ParamRequest req{4, 2, {key}};
    req.per_key = true;
    Message reply = BuildParamReply(req, master, kDim, /*key_bound=*/0, /*zero_copy=*/false);
    reply.to = 0;
    storm.Send(std::move(reply));
  }

  Fabric coalesced(1, net);
  {
    ParamRequest req{4, 2, keys};
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
  ParamRequest empty{1, 0, {}};
  EXPECT_EQ(empty.EncodedSize(), empty.Encode().size());

  ParamRequest bulk{2, 3, {1, 2, 3, 4, 5}};
  EXPECT_EQ(bulk.EncodedSize(), bulk.Encode().size());

  ParamRequest perkey{2, 3, {10, 20}};
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
  ParamRequest req{0, 0, {9, 4, 1, 5}};  // 4 misses
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

  ParamRequest req{/*array=*/7, /*step=*/3, c.keys};
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

}  // namespace
}  // namespace orion
