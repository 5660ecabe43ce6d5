// Chaos tests: seeded fault injection (drop / duplicate / delay / crash)
// against the supervised runtime, and checkpoint-based recovery from worker
// loss (paper Sec. 4.3).
//
// Determinism contract: injected drop/duplicate/delay decisions are a pure
// function of (plan seed, link, per-link faultable sequence number), so two
// runs of the same program with the same plan inject the same faults. The
// global interleaving of *release* events depends on thread timing, so
// cross-run comparisons canonicalize the log to decision events per link.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "src/apps/lda.h"
#include "src/apps/sgd_mf.h"
#include "src/dsm/dist_array_buffer.h"
#include "src/net/fault_injector.h"
#include "src/runtime/driver.h"
#include "src/runtime/protocol.h"

namespace orion {
namespace {

PassDone MakePassDone(i32 loop_id, i32 pass) {
  PassDone d;
  d.loop_id = loop_id;
  d.pass = pass;
  return d;
}

RatingsConfig SmallData() {
  RatingsConfig d;
  d.rows = 300;
  d.cols = 240;
  d.nnz = 12000;
  d.true_rank = 4;
  d.seed = 7;
  return d;
}

SupervisorConfig FastSupervision() {
  SupervisorConfig s;
  s.enabled = true;
  s.heartbeat_interval_seconds = 0.02;
  s.death_timeout_seconds = 2.0;
  s.retry_initial_seconds = 0.02;
  return s;
}

// Tests run as parallel ctest processes; each needs its own checkpoint dir.
// A fresh delta-log directory: a log left by an earlier run would be
// adopted by the writer.
std::string RecoveryDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/orion_fi_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

Driver::DurabilityOptions EveryTwoPasses() {
  Driver::DurabilityOptions o;
  o.every_n_passes = 2;
  return o;
}

Message ControlMsg(WorkerId from, WorkerId to, std::vector<u8> payload) {
  Message m;
  m.from = from;
  m.to = to;
  m.kind = MsgKind::kControl;
  m.payload = std::move(payload);
  return m;
}

// Decision events only (drop / duplicate / delay / crash), in per-link
// order. Release events are timing-dependent and excluded.
std::vector<FaultEvent> CanonicalEvents(std::vector<FaultEvent> events) {
  events.erase(std::remove_if(events.begin(), events.end(),
                              [](const FaultEvent& e) {
                                return e.kind == FaultEvent::Kind::kRelease;
                              }),
               events.end());
  std::sort(events.begin(), events.end(), [](const FaultEvent& a, const FaultEvent& b) {
    return std::make_tuple(a.from, a.to, a.link_seq, static_cast<int>(a.kind), a.pass,
                           a.step) < std::make_tuple(b.from, b.to, b.link_seq,
                                                     static_cast<int>(b.kind), b.pass,
                                                     b.step);
  });
  return events;
}

// ---- Injector unit tests ----

TEST(FaultInjector, SameSeedSameDecisions) {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop_prob = 0.1;
  plan.dup_prob = 0.1;
  plan.delay_prob = 0.1;

  auto run = [&](u64 seed) {
    FaultPlan p = plan;
    p.seed = seed;
    FaultInjector inj(p);
    for (int pass = 0; pass < 50; ++pass) {
      for (WorkerId w = 0; w < 4; ++w) {
        inj.Process(ControlMsg(kMasterRank, w, StartPass{0, pass}.Encode()));
        inj.Process(ControlMsg(w, kMasterRank, MakePassDone(0, pass).Encode()));
      }
    }
    return inj.events();
  };

  const auto a = run(42);
  const auto b = run(42);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // single-threaded: the full log, releases included
  EXPECT_NE(run(43), a);
}

TEST(FaultInjector, OnlyEligibleMessagesAreFaulted) {
  FaultPlan plan;
  plan.drop_prob = 1.0;  // drop every eligible message
  plan.fault_barrier_msgs = false;
  FaultInjector inj(plan);

  // kControl kStartPass: eligible, dropped.
  EXPECT_TRUE(inj.Process(ControlMsg(kMasterRank, 0, StartPass{0, 0}.Encode())).empty());
  // kControl kGather: not in faultable_control_ops, passes through.
  EXPECT_EQ(inj.Process(ControlMsg(kMasterRank, 0, ArrayOp{ControlOp::kGather, 0}.Encode()))
                .size(),
            1u);
  // kBarrier with fault_barrier_msgs = false: passes through.
  Message barrier;
  barrier.from = 0;
  barrier.to = kMasterRank;
  barrier.kind = MsgKind::kBarrier;
  barrier.payload = BarrierMsg{}.Encode();
  EXPECT_EQ(inj.Process(barrier).size(), 1u);
  // Data plane is never eligible.
  Message data;
  data.from = kMasterRank;
  data.to = 1;
  data.kind = MsgKind::kPartitionData;
  EXPECT_EQ(inj.Process(data).size(), 1u);

  EXPECT_EQ(inj.stats().dropped, 1u);
}

TEST(FaultInjector, CrashPointsFireExactlyOnce) {
  FaultPlan plan;
  plan.crashes = {{/*rank=*/1, /*pass=*/3, /*step=*/-1}};
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.ShouldCrash(1, 2, -1));
  EXPECT_FALSE(inj.ShouldCrash(0, 3, -1));
  EXPECT_TRUE(inj.ShouldCrash(1, 3, -1));
  EXPECT_FALSE(inj.ShouldCrash(1, 3, -1));  // one-shot
  EXPECT_EQ(inj.stats().crashes_triggered, 1u);
}

TEST(FaultInjector, DuplicateDeliversTwice) {
  FaultPlan plan;
  plan.dup_prob = 1.0;
  FaultInjector inj(plan);
  const auto out = inj.Process(ControlMsg(0, kMasterRank, MakePassDone(0, 0).Encode()));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(inj.stats().duplicated, 1u);
}

TEST(FaultInjector, DelayedMessageIsReleasedAfterLaterTraffic) {
  FaultPlan plan;
  plan.delay_prob = 1.0;
  plan.delay_release_after = 2;
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.Process(ControlMsg(0, kMasterRank, MakePassDone(0, 0).Encode())).empty());
  // Unfaulted traffic toward the same destination ages the holdback.
  Message data;
  data.from = 1;
  data.to = kMasterRank;
  data.kind = MsgKind::kParamUpdate;
  EXPECT_EQ(inj.Process(data).size(), 1u);
  const auto out = inj.Process(data);  // second send -> release
  ASSERT_EQ(out.size(), 2u);
  // The reordering: the triggering message first, the held one after it.
  EXPECT_EQ(out[0].kind, MsgKind::kParamUpdate);
  EXPECT_EQ(out[1].kind, MsgKind::kControl);
  EXPECT_EQ(inj.stats().released, 1u);
}

// ---- Control message round trips ----

TEST(ProtocolRoundTrip, StartPass) {
  const StartPass sent{/*loop_id=*/3, /*pass=*/17, /*spec_depth=*/2};
  const std::vector<u8> bytes = sent.Encode();
  EXPECT_EQ(PeekControlOp(bytes), ControlOp::kStartPass);
  const StartPass got = StartPass::Decode(bytes);
  EXPECT_EQ(got.loop_id, 3);
  EXPECT_EQ(got.pass, 17);
  EXPECT_EQ(got.spec_depth, 2);
  EXPECT_EQ(got.Encode(), bytes);
}

TEST(ProtocolRoundTrip, PassDoneWithSpansSpeculationAndAccumulators) {
  PassDone sent = MakePassDone(/*loop_id=*/4, /*pass=*/9);
  sent.compute_seconds = 0.125;
  sent.wait_seconds = 0.25;
  sent.overlap_send_seconds = 0.0625;
  sent.prefetch_hidden_seconds = 0.5;
  sent.prefetch_ring_depth_used = 3;
  sent.reply_wait.Add(5e-5);
  sent.reply_wait.Add(2e-3);
  sent.accumulators = {1.5, -2.0, 1e300};
  trace::Span span;
  span.start_ns = 100;
  span.end_ns = 250;
  span.pass = 9;
  span.step = 2;
  span.rank = 1;
  span.tid = 5;
  span.category = 3;
  span.name = "compute";
  sent.spans = {span, span};
  sent.spans[1].name = "flush";
  sent.spec_issued = 7;
  sent.spec_conflicts = 2;
  sent.spec_repair_bytes = 4096;
  sent.spec_hidden_seconds = 0.75;
  sent.spec_wait_seconds = 0.375;

  const std::vector<u8> bytes = sent.Encode();
  EXPECT_EQ(PeekControlOp(bytes), ControlOp::kPassDone);
  const PassDone got = PassDone::Decode(bytes);
  EXPECT_EQ(got.loop_id, 4);
  EXPECT_EQ(got.pass, 9);
  EXPECT_EQ(got.compute_seconds, 0.125);
  EXPECT_EQ(got.wait_seconds, 0.25);
  EXPECT_EQ(got.overlap_send_seconds, 0.0625);
  EXPECT_EQ(got.prefetch_hidden_seconds, 0.5);
  EXPECT_EQ(got.prefetch_ring_depth_used, 3);
  EXPECT_EQ(got.reply_wait.total_count(), 2u);
  EXPECT_EQ(got.reply_wait.max_seconds, 2e-3);
  EXPECT_EQ(got.accumulators, sent.accumulators);
  ASSERT_EQ(got.spans.size(), 2u);
  EXPECT_EQ(got.spans[0].start_ns, 100);
  EXPECT_EQ(got.spans[0].end_ns, 250);
  EXPECT_EQ(got.spans[0].pass, 9);
  EXPECT_EQ(got.spans[0].step, 2);
  EXPECT_EQ(got.spans[0].rank, 1);
  EXPECT_EQ(got.spans[0].tid, 5);
  EXPECT_EQ(got.spans[0].category, 3);
  EXPECT_EQ(got.spans[0].name, "compute");
  EXPECT_EQ(got.spans[1].name, "flush");
  EXPECT_EQ(got.spec_issued, 7u);
  EXPECT_EQ(got.spec_conflicts, 2u);
  EXPECT_EQ(got.spec_repair_bytes, 4096u);
  EXPECT_EQ(got.spec_hidden_seconds, 0.75);
  EXPECT_EQ(got.spec_wait_seconds, 0.375);
  // Nothing is dropped: re-encoding the decoded message gives the same bytes.
  EXPECT_EQ(got.Encode(), bytes);
}

// ---- Parameter-plane round trips (slab plane: bitmaps and packed values) ----

KeySet BitmapOf(i64 total, const std::vector<i64>& keys) {
  KeySet s = KeySet::Bitmap(total);
  for (const i64 k : keys) {
    s.Insert(k);
  }
  return s;
}

// Sends `req` both ways: the zero-copy carrier and the encoded bytes must
// decode to the same request, and EncodedSize() must be the encoded size.
ParamRequest RoundTripRequest(const ParamRequest& req) {
  const std::vector<u8> bytes = req.Encode();
  EXPECT_EQ(req.EncodedSize(), bytes.size());
  Message zc;
  AttachParamRequest(&zc, req, /*zero_copy=*/true);
  Message enc;
  AttachParamRequest(&enc, req, /*zero_copy=*/false);
  EXPECT_EQ(enc.payload, bytes);
  const ParamRequest a = TakeParamRequest(zc);
  const ParamRequest b = TakeParamRequest(enc);
  EXPECT_EQ(a.array, b.array);
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.per_key, b.per_key);
  EXPECT_EQ(a.speculative, b.speculative);
  EXPECT_EQ(a.keys, b.keys);
  EXPECT_EQ(b.Encode(), bytes);
  return b;
}

// Same for a PartData (packed replies and flushes).
PartData RoundTripPart(const PartData& pd) {
  const std::vector<u8> bytes = pd.Encode();
  EXPECT_EQ(pd.EncodedSize(), bytes.size());
  Message zc;
  AttachPart(&zc, pd, /*zero_copy=*/true);
  Message enc;
  AttachPart(&enc, pd, /*zero_copy=*/false);
  const PartData a = TakePart(zc);
  const PartData b = TakePart(enc);
  EXPECT_EQ(a.array, b.array);
  EXPECT_EQ(a.part, b.part);
  EXPECT_TRUE(a.mode == b.mode);
  EXPECT_EQ(a.dim, b.dim);
  EXPECT_EQ(a.keys, b.keys);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.Encode(), bytes);
  EXPECT_EQ(b.Encode(), bytes);
  return b;
}

TEST(ProtocolRoundTrip, BitmapParamRequests) {
  std::vector<i64> all(130);
  for (i64 k = 0; k < 130; ++k) {
    all[static_cast<size_t>(k)] = k;
  }
  const struct {
    const char* name;
    i64 total;
    std::vector<i64> keys;
  } cases[] = {
      {"empty", 130, {}},
      {"one_bit", 130, {77}},
      {"all_bits", 130, all},
      {"last_key_of_a_partial_word", 130, {0, 63, 64, 129}},
      {"word_multiple", 128, {1, 127}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    ParamRequest req{/*array=*/3, /*step=*/5, BitmapOf(c.total, c.keys)};
    req.per_key = c.keys.size() == 1;
    req.speculative = true;
    const ParamRequest got = RoundTripRequest(req);
    EXPECT_TRUE(got.keys.is_bitmap());
    EXPECT_EQ(got.keys.total(), c.total);
    EXPECT_EQ(got.keys.size(), static_cast<i64>(c.keys.size()));
    std::vector<i64> seen;
    got.keys.ForEach([&](i64 k) { seen.push_back(k); });
    EXPECT_EQ(seen, c.keys);
    EXPECT_EQ(got.per_key, req.per_key);
    EXPECT_TRUE(got.speculative);
  }
}

TEST(ProtocolRoundTrip, PackedReplies) {
  constexpr i32 kDim = 2;
  CellStore master(kDim, CellStore::Layout::kFullDense, 130);
  master.ForEach([](i64 key, f32* v) {
    v[0] = static_cast<f32>(key) + 0.5f;
    v[1] = -static_cast<f32>(key);
  });
  for (const std::vector<i64>& keys :
       {std::vector<i64>{}, std::vector<i64>{129}, std::vector<i64>{0, 1, 2, 64, 100, 129}}) {
    const ParamRequest req{/*array=*/4, /*step=*/2, BitmapOf(130, keys)};
    for (const bool zero_copy : {false, true}) {
      Message reply = BuildParamReply(req, master, kDim, /*key_bound=*/130, zero_copy);
      const size_t wire = reply.WireSize();
      EXPECT_EQ(wire, Message::kHeaderBytes + TakePart(reply).EncodedSize());
    }
    Message reply = BuildParamReply(req, master, kDim, 130, /*zero_copy=*/true);
    const PartData got = RoundTripPart(TakePart(reply));
    EXPECT_TRUE(got.mode == PartDataMode::kPackedReply);
    EXPECT_EQ(got.part, 2);
    ASSERT_EQ(got.values.size(), keys.size() * kDim);
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(got.values[2 * i], static_cast<f32>(keys[i]) + 0.5f);
      EXPECT_EQ(got.values[2 * i + 1], -static_cast<f32>(keys[i]));
    }
  }
}

TEST(ProtocolRoundTrip, PackedFlushes) {
  constexpr i32 kDim = 3;
  for (const std::vector<i64>& keys :
       {std::vector<i64>{}, std::vector<i64>{5}, std::vector<i64>{129, 0, 64, 63, 0, 129}}) {
    DistArrayBuffer buf(/*target=*/6, kDim, {}, /*key_bound=*/130, /*slab=*/true);
    for (const i64 k : keys) {
      const f32 u[kDim] = {1.0f, 0.25f * static_cast<f32>(k), -2.0f};
      buf.Accumulate(k, u);
    }
    PartData pd;
    pd.array = 6;
    pd.mode = PartDataMode::kPackedApply;
    pd.dim = kDim;
    buf.DrainPacked(&pd.keys, &pd.values);
    EXPECT_EQ(buf.NumPending(), 0);
    const PartData got = RoundTripPart(pd);
    EXPECT_TRUE(got.mode == PartDataMode::kPackedApply);
    EXPECT_EQ(static_cast<i64>(got.values.size()), got.keys.size() * kDim);
  }
}

TEST(ProtocolRoundTripDeathTest, RefusesMalformedBitmapsAndPackedCounts) {
  // A bitmap one word longer than its key space.
  {
    ByteWriter w;
    w.Put<u8>(static_cast<u8>(KeySet::Form::kBitmap));
    w.Put<i64>(130);
    w.PutVec(std::vector<u64>{0, 0, 0, 0});
    const std::vector<u8> bytes = w.Take();
    EXPECT_DEATH(
        {
          ByteReader r(bytes);
          KeySet::Deserialize(&r);
        },
        "words for a key space");
  }
  // A set bit past the key space, inside the last word.
  {
    ByteWriter w;
    w.Put<u8>(static_cast<u8>(KeySet::Form::kBitmap));
    w.Put<i64>(130);
    w.PutVec(std::vector<u64>{0, 0, u64{1} << 2});
    const std::vector<u8> bytes = w.Take();
    EXPECT_DEATH(
        {
          ByteReader r(bytes);
          KeySet::Deserialize(&r);
        },
        "past its key space");
  }
  // A packed flush whose value count is not popcount x dim.
  {
    PartData pd;
    pd.mode = PartDataMode::kPackedApply;
    pd.dim = 2;
    pd.keys = BitmapOf(130, {1, 2, 3});
    pd.values.assign(5, 1.0f);
    const std::vector<u8> bytes = pd.Encode();
    EXPECT_DEATH(PartData::Decode(bytes), "packed flush");
  }
}

// ---- End-to-end chaos: SGD MF ----

// Message faults without crashes must not change the computation at all:
// every lost control message is retransmitted with identical content, and
// the data plane is never faulted, so the final model is bit-for-bit the
// model of a fault-free run.
TEST(FaultInjectionE2E, SgdMfBitForBitUnderMessageFaults) {
  auto data = GenerateRatings(SmallData());
  SgdMfConfig mf;
  mf.rank = 4;

  auto train = [&](const FaultPlan& plan, std::vector<f32>* w_out,
                   std::vector<f32>* h_out) {
    DriverConfig cfg;
    cfg.num_workers = 4;
    cfg.fault_plan = plan;
    cfg.supervisor = FastSupervision();
    Driver driver(cfg);
    SgdMfApp app(&driver, mf);
    ASSERT_TRUE(app.Init(data, 300, 240).ok());
    for (int p = 0; p < 5; ++p) {
      ASSERT_TRUE(app.RunPass().ok());
    }
    driver.MutableCells(app.w()).ForEachConst(
        [&](i64, const f32* v) { w_out->insert(w_out->end(), v, v + 4); });
    driver.MutableCells(app.h()).ForEachConst(
        [&](i64, const f32* v) { h_out->insert(h_out->end(), v, v + 4); });
    if (plan.HasMessageFaults()) {
      const RuntimeMetrics rm = driver.runtime_metrics();
      EXPECT_GT(rm.faults_dropped + rm.faults_duplicated + rm.faults_delayed, 0u);
      EXPECT_EQ(rm.workers_lost, 0u);
    }
  };

  std::vector<f32> w_clean, h_clean;
  train(FaultPlan{}, &w_clean, &h_clean);

  FaultPlan chaos;
  chaos.seed = 11;
  chaos.drop_prob = 0.05;
  chaos.dup_prob = 0.05;
  chaos.delay_prob = 0.05;
  std::vector<f32> w_faulty, h_faulty;
  train(chaos, &w_faulty, &h_faulty);

  EXPECT_EQ(w_clean, w_faulty);
  EXPECT_EQ(h_clean, h_faulty);
}

TEST(FaultInjectionE2E, SgdMfCrashRecoveryConvergesAndIsDeterministic) {
  auto data = GenerateRatings(SmallData());
  SgdMfConfig mf;
  mf.rank = 4;

  FaultPlan chaos;
  chaos.seed = 5;
  chaos.drop_prob = 0.05;  // <= 5% of control messages, per the fault model
  chaos.crashes = {{/*rank=*/1, /*pass=*/3, /*step=*/-1}};

  auto train = [&](f64* loss0, f64* loss_final, RuntimeMetrics* rm,
                   std::vector<FaultEvent>* events, size_t* live) {
    DriverConfig cfg;
    cfg.num_workers = 4;
    cfg.fault_plan = chaos;
    cfg.supervisor = FastSupervision();
    cfg.supervisor.death_timeout_seconds = 1.0;
    Driver driver(cfg);
    SgdMfApp app(&driver, mf);
    ASSERT_TRUE(app.Init(data, 300, 240).ok());
    ASSERT_TRUE(
        driver.EnableDurability({app.w(), app.h()}, RecoveryDir("crash_mf"), EveryTwoPasses())
            .ok());
    *loss0 = *app.EvalLoss();
    for (int p = 0; p < 8; ++p) {
      ASSERT_TRUE(app.RunPass().ok());
    }
    *loss_final = *app.EvalLoss();
    *rm = driver.runtime_metrics();
    *events = CanonicalEvents(driver.fault_events());
    *live = driver.live_ranks().size();
  };

  f64 loss0 = 0.0, loss_final = 0.0;
  RuntimeMetrics rm;
  std::vector<FaultEvent> events_a;
  size_t live = 0;
  train(&loss0, &loss_final, &rm, &events_a, &live);

  // The run absorbed one worker loss and still trained to convergence.
  EXPECT_EQ(rm.crashes_triggered, 1u);
  EXPECT_EQ(rm.workers_lost, 1u);
  EXPECT_EQ(rm.recoveries, 1u);
  EXPECT_GE(rm.checkpoints_written, 2u);  // baseline + at least one periodic
  EXPECT_GT(rm.recovery_seconds, 0.0);
  EXPECT_EQ(live, 3u);  // graceful degradation to N-1 executors
  EXPECT_LT(loss_final, 0.25 * loss0);

  // Same seed, same program -> the same injected-fault sequence.
  f64 l0 = 0.0, lf = 0.0;
  RuntimeMetrics rm2;
  std::vector<FaultEvent> events_b;
  size_t live2 = 0;
  train(&l0, &lf, &rm2, &events_b, &live2);
  EXPECT_FALSE(events_a.empty());
  EXPECT_EQ(events_a, events_b);
  EXPECT_EQ(rm2.workers_lost, 1u);
}

TEST(FaultInjectionE2E, OrderedWavefrontSurvivesBarrierFaultsAndCrash) {
  auto data = GenerateRatings(SmallData());
  SgdMfConfig mf;
  mf.rank = 4;
  mf.loop_options.ordered = true;  // wavefront schedule with step barriers

  FaultPlan chaos;
  chaos.seed = 21;
  chaos.drop_prob = 0.04;
  chaos.dup_prob = 0.03;
  chaos.fault_barrier_msgs = true;
  chaos.crashes = {{/*rank=*/2, /*pass=*/2, /*step=*/1}};  // mid-wavefront

  DriverConfig cfg;
  cfg.num_workers = 3;
  cfg.fault_plan = chaos;
  cfg.supervisor = FastSupervision();
  cfg.supervisor.death_timeout_seconds = 1.0;
  Driver driver(cfg);
  SgdMfApp app(&driver, mf);
  ASSERT_TRUE(app.Init(data, 300, 240).ok());
  ASSERT_TRUE(app.train_plan().ordered);
  ASSERT_TRUE(
      driver.EnableDurability({app.w(), app.h()}, RecoveryDir("wavefront_mf"), EveryTwoPasses())
          .ok());

  const f64 loss0 = *app.EvalLoss();
  for (int p = 0; p < 6; ++p) {
    ASSERT_TRUE(app.RunPass().ok());
  }
  EXPECT_LT(*app.EvalLoss(), 0.5 * loss0);
  const RuntimeMetrics rm = driver.runtime_metrics();
  EXPECT_EQ(rm.crashes_triggered, 1u);
  EXPECT_EQ(rm.recoveries, 1u);
  EXPECT_EQ(driver.live_ranks().size(), 2u);
}

TEST(FaultInjectionE2E, CrashWithoutRecoveryFailsTheExecute) {
  auto data = GenerateRatings(SmallData());
  SgdMfConfig mf;
  mf.rank = 4;

  FaultPlan chaos;
  chaos.crashes = {{/*rank=*/0, /*pass=*/1, /*step=*/-1}};

  DriverConfig cfg;
  cfg.num_workers = 3;
  cfg.fault_plan = chaos;
  cfg.supervisor = FastSupervision();
  cfg.supervisor.death_timeout_seconds = 0.5;
  Driver driver(cfg);
  SgdMfApp app(&driver, mf);
  ASSERT_TRUE(app.Init(data, 300, 240).ok());

  ASSERT_TRUE(app.RunPass().ok());            // pass 0 is clean
  const Status failed = app.RunPass();        // worker 0 crashes at pass 1
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("lost"), std::string::npos);
}

// ---- End-to-end chaos: LDA ----

// LDA's topic totals are replicated with bounded staleness (snapshot
// broadcast timing is wall-clock dependent), so no bit-for-bit claim —
// the run must complete under faults and still improve the model.
TEST(FaultInjectionE2E, LdaCompletesAndImprovesUnderMessageFaults) {
  CorpusConfig c;
  c.num_docs = 200;
  c.vocab = 300;
  auto corpus = GenerateCorpus(c);

  FaultPlan chaos;
  chaos.seed = 17;
  chaos.drop_prob = 0.05;
  chaos.dup_prob = 0.05;
  chaos.delay_prob = 0.05;

  DriverConfig cfg;
  cfg.num_workers = 4;
  cfg.fault_plan = chaos;
  cfg.supervisor = FastSupervision();
  Driver driver(cfg);
  LdaConfig lda;
  lda.num_topics = 10;
  LdaApp app(&driver, lda);
  ASSERT_TRUE(app.Init(corpus, c.num_docs, c.vocab).ok());

  const f64 ll0 = *app.EvalLogLikelihood();
  for (int p = 0; p < 5; ++p) {
    ASSERT_TRUE(app.RunPass().ok());
  }
  EXPECT_GT(*app.EvalLogLikelihood(), ll0);
  const RuntimeMetrics rm = driver.runtime_metrics();
  EXPECT_GT(rm.faults_dropped + rm.faults_duplicated + rm.faults_delayed, 0u);
  EXPECT_EQ(rm.workers_lost, 0u);
}

}  // namespace
}  // namespace orion
