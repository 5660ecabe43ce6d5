// Wire protocol between the master (driver) and executors.
//
// Every payload is serialized with ByteWriter/ByteReader; the structs here
// are the typed views. Control messages carry a leading ControlOp.
#ifndef ORION_SRC_RUNTIME_PROTOCOL_H_
#define ORION_SRC_RUNTIME_PROTOCOL_H_

#include <string>
#include <vector>

#include "src/common/serde.h"
#include "src/common/simd.h"
#include "src/common/trace.h"
#include "src/common/types.h"
#include "src/dsm/cell_store.h"
#include "src/dsm/key_set.h"
#include "src/net/message.h"
#include "src/runtime/metrics.h"
#include "src/runtime/speculation.h"

namespace orion {

enum class ControlOp : u16 {
  kStartPass = 1,    // master -> worker: run one pass of a compiled loop
  kPassDone = 2,     // worker -> master: pass finished (+ accumulators)
  kGather = 3,       // master -> worker: ship array cells back, drop them
  kDropArray = 4,    // master -> worker: drop local cells of an array
  kStepBarrier = 5,  // worker -> master: wavefront step done
  kStepGo = 6,       // master -> worker: proceed to next wavefront step
  kHeartbeat = 7,    // master <-> worker: liveness ping / pong
  kRetire = 8,       // master -> worker: adopt post-failure configuration
  kRejoin = 9,       // master -> worker: adopt re-expanded configuration
};

struct StartPass {
  i32 loop_id = 0;
  i32 pass = 0;
  // Speculation depth for ordered schedules: how many steps ahead the
  // executor may fetch parameters speculatively. 0 = synchronous fetch
  // (speculation off, or the controller disabled it).
  i32 spec_depth = 0;

  std::vector<u8> Encode() const {
    ByteWriter w(sizeof(u16) + 3 * sizeof(i32));
    w.Put<u16>(static_cast<u16>(ControlOp::kStartPass));
    w.Put<i32>(loop_id);
    w.Put<i32>(pass);
    w.Put<i32>(spec_depth);
    return w.Take();
  }

  static StartPass Decode(const std::vector<u8>& payload) {
    ByteReader r(payload);
    r.Get<u16>();  // op
    StartPass s;
    s.loop_id = r.Get<i32>();
    s.pass = r.Get<i32>();
    s.spec_depth = r.Get<i32>();
    return s;
  }
};

struct PassDone {
  i32 loop_id = 0;
  i32 pass = 0;
  double compute_seconds = 0.0;
  double wait_seconds = 0.0;
  // Comm/compute overlap engine: wall time the worker's comm thread spent
  // sending during the pass (hidden from the compute thread), and wall time
  // pipelined prefetches were in flight under compute (waits that collapsed
  // to a buffer swap because the replies had already arrived).
  double overlap_send_seconds = 0.0;
  double prefetch_hidden_seconds = 0.0;
  // Depth-k prefetch ring: the deepest this worker's ring got during the
  // pass, and the histogram of its blocking reply waits.
  i32 prefetch_ring_depth_used = 0;
  WaitHistogram reply_wait;
  std::vector<f64> accumulators;
  // Span tracer piggyback: the worker's drained spans (empty when tracing
  // is disabled).
  std::vector<trace::Span> spans;
  // Speculative prefetch engine (ordered schedules): slots issued early,
  // slots that needed repair, repair bytes re-fetched, in-flight time hidden
  // under compute, and blocked wait (initial await + repair round trips).
  u32 spec_issued = 0;
  u32 spec_conflicts = 0;
  u64 spec_repair_bytes = 0;
  double spec_hidden_seconds = 0.0;
  double spec_wait_seconds = 0.0;

  std::vector<u8> Encode() const {
    // Fixed fields plus the accumulator vector; the histogram and spans
    // grow the buffer amortized if present.
    ByteWriter w(sizeof(u16) + 3 * sizeof(i32) + 4 * sizeof(double) + sizeof(u64) +
                 accumulators.size() * sizeof(f64) + 64);
    w.Put<u16>(static_cast<u16>(ControlOp::kPassDone));
    w.Put<i32>(loop_id);
    w.Put<i32>(pass);
    w.Put<double>(compute_seconds);
    w.Put<double>(wait_seconds);
    w.Put<double>(overlap_send_seconds);
    w.Put<double>(prefetch_hidden_seconds);
    w.Put<i32>(prefetch_ring_depth_used);
    reply_wait.Serialize(&w);
    w.PutVec(accumulators);
    trace::SerializeSpans(spans, &w);
    w.Put<u32>(spec_issued);
    w.Put<u32>(spec_conflicts);
    w.Put<u64>(spec_repair_bytes);
    w.Put<double>(spec_hidden_seconds);
    w.Put<double>(spec_wait_seconds);
    return w.Take();
  }

  static PassDone Decode(const std::vector<u8>& payload) {
    ByteReader r(payload);
    r.Get<u16>();  // op
    PassDone d;
    d.loop_id = r.Get<i32>();
    d.pass = r.Get<i32>();
    d.compute_seconds = r.Get<double>();
    d.wait_seconds = r.Get<double>();
    d.overlap_send_seconds = r.Get<double>();
    d.prefetch_hidden_seconds = r.Get<double>();
    d.prefetch_ring_depth_used = r.Get<i32>();
    d.reply_wait = WaitHistogram::Deserialize(&r);
    d.accumulators = r.GetVec<f64>();
    d.spans = trace::DeserializeSpans(&r);
    d.spec_issued = r.Get<u32>();
    d.spec_conflicts = r.Get<u32>();
    d.spec_repair_bytes = r.Get<u64>();
    d.spec_hidden_seconds = r.Get<double>();
    d.spec_wait_seconds = r.Get<double>();
    return d;
  }
};

// Liveness probe. The master pings workers it has not heard from recently;
// a worker answers with is_reply = true and its progress watermarks so the
// master can tell "alive but slow" from "dead".
struct Heartbeat {
  bool is_reply = false;
  u32 seq = 0;
  i32 last_started_pass = -1;
  i32 last_completed_pass = -1;

  std::vector<u8> Encode() const {
    ByteWriter w(sizeof(u16) + sizeof(u8) + sizeof(u32) + 2 * sizeof(i32));
    w.Put<u16>(static_cast<u16>(ControlOp::kHeartbeat));
    w.Put<u8>(is_reply ? 1 : 0);
    w.Put<u32>(seq);
    w.Put<i32>(last_started_pass);
    w.Put<i32>(last_completed_pass);
    return w.Take();
  }

  static Heartbeat Decode(const std::vector<u8>& payload) {
    ByteReader r(payload);
    r.Get<u16>();  // op
    Heartbeat h;
    h.is_reply = r.Get<u8>() != 0;
    h.seq = r.Get<u32>();
    h.last_started_pass = r.Get<i32>();
    h.last_completed_pass = r.Get<i32>();
    return h;
  }
};

// Cluster reconfiguration, delivered reliably in two phases (both acked
// with is_ack = true). Phase 0: adopt the new logical rank and ring of
// member physical ranks — after every ack, no pre-reconfiguration message
// can still be produced. Phase 1: drop all local DistArray state and loop
// caches so the driver can re-scatter from the checkpoint.
//
// Two ops share this shape: kRetire shrinks the ring after a failure, and
// kRejoin re-expands it when a recovered rank re-enters (or resets the
// current ring for a point-in-time restore). Acks echo the request's op so
// a rejoin ack collection cannot be satisfied by a stale retire ack.
struct Retire {
  ControlOp op = ControlOp::kRetire;
  i32 phase = 0;
  bool is_ack = false;
  i32 logical_rank = 0;
  std::vector<i32> ring;  // member physical ranks, in logical order

  std::vector<u8> Encode() const {
    ByteWriter w(sizeof(u16) + 2 * sizeof(i32) + sizeof(u8) + sizeof(u64) +
                 ring.size() * sizeof(i32));
    w.Put<u16>(static_cast<u16>(op));
    w.Put<i32>(phase);
    w.Put<u8>(is_ack ? 1 : 0);
    w.Put<i32>(logical_rank);
    w.PutVec(ring);
    return w.Take();
  }

  static Retire Decode(const std::vector<u8>& payload) {
    ByteReader r(payload);
    Retire t;
    t.op = static_cast<ControlOp>(r.Get<u16>());
    t.phase = r.Get<i32>();
    t.is_ack = r.Get<u8>() != 0;
    t.logical_rank = r.Get<i32>();
    t.ring = r.GetVec<i32>();
    return t;
  }
};

// Payload of kBarrier messages. The pass number disambiguates retransmitted
// or delayed barrier traffic across passes (the tag alone carries only the
// step). `release` marks the master -> worker "go" broadcast.
//
// Two optional trailing sections, framed by a section mask that is always
// written:
//   bit 0 — releases while speculation is on carry the dirty-range summary
//           of the kOverwrite writes flushed during this step (present even
//           when empty: "present and empty" proves nothing changed, where
//           absence would force the validator to assume everything did).
//   bit 1 — arrivals piggyback a partial trace-ring drain when the worker's
//           span ring ran >75% full mid-pass, so long wavefront passes stop
//           wrapping rings before PassDone. `span_seq` is a per-worker
//           monotonic batch id: supervision resends ship the same batch and
//           the master appends each batch once.
struct BarrierMsg {
  i32 pass = 0;
  bool release = false;
  bool has_dirty = false;
  StepDirtySummary dirty;
  u32 span_seq = 0;
  std::vector<trace::Span> spans;

  std::vector<u8> Encode() const {
    ByteWriter w(sizeof(i32) + 2 * sizeof(u8));
    w.Put<i32>(pass);
    w.Put<u8>(release ? 1 : 0);
    const u8 mask =
        static_cast<u8>((has_dirty ? 1 : 0) | (spans.empty() ? 0 : 2));
    w.Put<u8>(mask);
    if (has_dirty) {
      dirty.Serialize(&w);
    }
    if (!spans.empty()) {
      w.Put<u32>(span_seq);
      trace::SerializeSpans(spans, &w);
    }
    return w.Take();
  }

  static BarrierMsg Decode(const std::vector<u8>& payload) {
    ByteReader r(payload);
    BarrierMsg b;
    b.pass = r.Get<i32>();
    b.release = r.Get<u8>() != 0;
    const u8 mask = r.Get<u8>();
    if ((mask & 1) != 0) {
      b.has_dirty = true;
      b.dirty = StepDirtySummary::Deserialize(&r);
    }
    if ((mask & 2) != 0) {
      b.span_seq = r.Get<u32>();
      b.spans = trace::DeserializeSpans(&r);
    }
    return b;
  }
};

// ---- Parameter-plane wire format (version 2) ----
//
// Server-hosted arrays exchange parameters in one of two encodings, chosen
// by the array's declared density:
//  - the slab plane (Density::kDense): requests name keys by a bitmap over
//    the key space, replies carry only the values in bit order
//    (kPackedReply), and buffered flushes carry the touched bitmap plus the
//    packed deltas (kPackedApply);
//  - the key-list plane (Density::kSparse): requests carry an i64 key list,
//    and replies and flushes carry key+value CellStores.
// Both name their keys with one KeySet (src/dsm/key_set.h), whose form byte
// tags the encoding. Version 1 had key lists only and no flag byte.
//
//   ParamRequest: u8 version | i32 array | i32 step | u8 flags | KeySet
//                 flags: bit 0 per_key, bit 1 speculative
//   PartData, cell modes:   i32 array | i32 part | u8 mode | CellStore
//   PartData, packed modes: i32 array | i32 part | u8 mode | i32 dim
//                           | [kPackedApply: KeySet] | u64 n | n x f32
// A packed flush whose value count is not popcount x dim is refused, and so
// is a bitmap longer than its key space (KeySet::Deserialize). A packed
// reply's count is checked against the requester's bitmap on install.
inline constexpr u8 kParamPlaneVersion = 2;

// Header for kPartitionData messages: a chunk of DistArray cells.
// `part` is the time-partition index for rotated partitions, -1 otherwise.
enum class PartDataMode : u8 {
  kInstallPart = 0,    // install into the receiver's partition map [part]
  kInstallRange = 1,   // install as the receiver's range-partition cells
  kOverwrite = 2,      // master-side: overwrite authoritative cells
  kApplyBufferUdf = 4, // apply with the registered buffer apply
  kReplicaSnapshot = 5,// full replicated-array refresh
  kPackedReply = 6,    // slab plane reply: values in the request's bit order
  kPackedApply = 7,    // slab plane flush: touched bitmap + packed deltas
};

inline bool IsPacked(PartDataMode mode) {
  return mode == PartDataMode::kPackedReply || mode == PartDataMode::kPackedApply;
}

struct PartData {
  DistArrayId array = kInvalidDistArrayId;
  i32 part = -1;
  PartDataMode mode = PartDataMode::kInstallPart;
  CellStore cells;  // cell modes
  // Packed modes: floats per key, the keys (kPackedApply only) and the
  // values in key order.
  i32 dim = 1;
  KeySet keys;
  std::vector<f32> values;

  std::vector<u8> Encode() const {
    ByteWriter w(EncodedSize());
    w.Put<i32>(array);
    w.Put<i32>(part);
    w.Put<u8>(static_cast<u8>(mode));
    if (!IsPacked(mode)) {
      cells.Serialize(&w);
      return w.Take();
    }
    w.Put<i32>(dim);
    if (mode == PartDataMode::kPackedApply) {
      keys.Serialize(&w);
    }
    w.PutVec(values);
    return w.Take();
  }

  static PartData Decode(const std::vector<u8>& payload) {
    ByteReader r(payload);
    PartData p;
    p.array = r.Get<i32>();
    p.part = r.Get<i32>();
    p.mode = static_cast<PartDataMode>(r.Get<u8>());
    if (!IsPacked(p.mode)) {
      p.cells = CellStore::Deserialize(&r);
      return p;
    }
    p.dim = r.Get<i32>();
    ORION_CHECK(p.dim > 0) << "packed payload with dim" << p.dim;
    if (p.mode == PartDataMode::kPackedApply) {
      p.keys = KeySet::Deserialize(&r);
    }
    p.values = r.GetVec<f32>();
    if (p.mode == PartDataMode::kPackedApply) {
      ORION_CHECK(static_cast<i64>(p.values.size()) == p.keys.size() * p.dim)
          << "packed flush of" << p.values.size() << "floats for" << p.keys.size()
          << "keys of dim" << p.dim;
    } else {
      ORION_CHECK(p.values.size() % static_cast<size_t>(p.dim) == 0)
          << "packed reply of" << p.values.size() << "floats is not a multiple of dim"
          << p.dim;
    }
    return p;
  }

  // Bytes of the cells or packed section alone (no header).
  size_t PayloadBytes() const {
    if (!IsPacked(mode)) {
      return cells.SerializedBytes();
    }
    return sizeof(i32) + (mode == PartDataMode::kPackedApply ? keys.SerializedBytes() : 0) +
           sizeof(u64) + values.size() * sizeof(f32);
  }

  // Exact size Encode() would produce; the fabric meters this when the
  // message travels zero-copy.
  size_t EncodedSize() const {
    return sizeof(i32) + sizeof(i32) + sizeof(u8) + PayloadBytes();
  }
};

// Zero-copy carrier for PartData (kPartitionData / kParamReply /
// kParamUpdate): the struct travels by shared pointer, skipping
// Encode/Decode, while the fabric still charges the exact encoded size.
struct ZeroCopyPart final : ZeroCopyPayload {
  PartData pd;
  // Set by broadcast senders that hand one carrier to several receivers.
  // Receivers of a multi-reader part must always copy: deciding move-vs-copy
  // from use_count() would race, because another receiver's copy-then-release
  // is not synchronized-with a relaxed refcount load observing count == 1.
  bool multi_reader = false;
  size_t EncodedSize() const override { return pd.EncodedSize(); }
};

// Packs `pd` into `m`: by reference when the fabric's zero-copy fast path is
// on, serialized otherwise.
inline void AttachPart(Message* m, PartData pd, bool zero_copy) {
  if (zero_copy) {
    auto z = std::make_shared<ZeroCopyPart>();
    z->pd = std::move(pd);
    m->zc = std::move(z);
  } else {
    m->payload = pd.Encode();
  }
}

// Unpacks a PartData from either representation. A multi-reader payload
// (replica broadcast) is always copied — concurrent receivers may be reading
// it. A single-reader one is moved out when uniquely owned; the use_count()
// check only guards same-queue duplicates, which the one receiver thread
// consumes sequentially, so no concurrent access is possible there.
inline PartData TakePart(Message& m) {
  if (m.zc != nullptr) {
    auto* z = static_cast<ZeroCopyPart*>(m.zc.get());
    PartData out = (!z->multi_reader && m.zc.use_count() == 1) ? std::move(z->pd)
                                                               : PartData(z->pd);
    m.zc.reset();
    return out;
  }
  return PartData::Decode(m.payload);
}

// Bulk-prefetch request: the keys the synthesized access-pattern pass
// recorded, as a bitmap (dense arrays) or a key list (sparse arrays).
struct ParamRequest {
  DistArrayId array = kInvalidDistArrayId;
  i32 step = 0;
  KeySet keys;
  // Marks a coalesced kPerKey storm: the keys travel in one wire message but
  // the exchange is metered as keys.size() per-key request/reply pairs.
  bool per_key = false;
  // Marks a speculative fetch issued against a pinned snapshot while an
  // earlier step still runs; repair re-fetches after validation stay false.
  // Purely observational on the master (counted into spec.requests_served);
  // serving is identical either way.
  bool speculative = false;

  std::vector<u8> Encode() const {
    ByteWriter w(EncodedSize());
    w.Put<u8>(kParamPlaneVersion);
    w.Put<i32>(array);
    w.Put<i32>(step);
    w.Put<u8>(static_cast<u8>((per_key ? 1 : 0) | (speculative ? 2 : 0)));
    keys.Serialize(&w);
    return w.Take();
  }

  static ParamRequest Decode(const std::vector<u8>& payload) {
    ByteReader r(payload);
    const u8 version = r.Get<u8>();
    ORION_CHECK(version == kParamPlaneVersion) << "ParamRequest wire version" << version;
    ParamRequest p;
    p.array = r.Get<i32>();
    p.step = r.Get<i32>();
    const u8 flags = r.Get<u8>();
    p.per_key = (flags & 1) != 0;
    p.speculative = (flags & 2) != 0;
    p.keys = KeySet::Deserialize(&r);
    return p;
  }

  // Exact size Encode() would produce; the fabric meters this when the
  // request travels zero-copy.
  size_t EncodedSize() const {
    return sizeof(u8) + sizeof(i32) + sizeof(i32) + sizeof(u8) + keys.SerializedBytes();
  }
};

// Zero-copy carrier for ParamRequest: in-process requests skip Encode/Decode
// just like replies, while the fabric still charges the exact encoded size.
struct ZeroCopyParamRequest final : ZeroCopyPayload {
  ParamRequest req;
  size_t EncodedSize() const override { return req.EncodedSize(); }
};

inline void AttachParamRequest(Message* m, ParamRequest req, bool zero_copy) {
  if (zero_copy) {
    auto z = std::make_shared<ZeroCopyParamRequest>();
    z->req = std::move(req);
    m->zc = std::move(z);
  } else {
    m->payload = req.Encode();
  }
}

inline ParamRequest TakeParamRequest(Message& m) {
  if (m.zc != nullptr) {
    auto* z = static_cast<ZeroCopyParamRequest*>(m.zc.get());
    ParamRequest out = m.zc.use_count() == 1 ? std::move(z->req) : z->req;
    m.zc.reset();
    return out;
  }
  return ParamRequest::Decode(m.payload);
}

// kPerKey cost modeling for a coalesced request: had the storm really been
// sent, each key would have been its own message — one transport header plus
// one single-key ParamRequest. Meter the batched message as that many
// latencies and the framing bytes of the (n - 1) messages it absorbed; the
// coalesced payload's key set stands in for the keys themselves.
inline void MeterAsPerKeyRequests(Message* m, const ParamRequest& req) {
  const size_t n = static_cast<size_t>(req.keys.size());
  if (!req.per_key || n <= 1) {
    return;
  }
  // Each of the n-1 extra virtual messages repeats the header and the fixed
  // request fields; the shell here is key-less.
  ParamRequest shell;
  shell.per_key = true;
  const size_t per_msg = Message::kHeaderBytes + shell.EncodedSize();
  m->meter_messages = static_cast<u32>(n);
  m->meter_extra_bytes = (n - 1) * per_msg;
}

// Same for the reply: per-key replies each carry a transport header plus an
// empty reply of the same encoding (`shell_bytes`); the value bytes are
// identical whether they travel in one reply or n.
inline void MeterAsPerKeyReplies(Message* m, size_t num_keys, size_t shell_bytes) {
  if (num_keys <= 1) {
    return;
  }
  m->meter_messages = static_cast<u32>(num_keys);
  m->meter_extra_bytes = (num_keys - 1) * (Message::kHeaderBytes + shell_bytes);
}

// Assembles the kParamReply for `req` from `master` (a CellStore, a
// VersionedCellStore flat or paged, or a pinned Snapshot: anything with
// `const f32* Get(i64) const`), so the reply bytes depend only on the keys
// and the values the store holds.
//  - Bitmap request: a kPackedReply with value_dim floats per set bit, in
//    ascending key order (a key the store lacks reads as zeros). `key_bound`
//    must equal the bitmap's key space.
//  - Key list: a kInstallPart CellStore of the hits, copied in request-key
//    order (the order the reply store's insertion-ordered layout makes
//    observable); `key_bound` is the reply store's key bound.
template <typename Store>
Message BuildParamReply(const ParamRequest& req, const Store& master, i32 value_dim,
                        i64 key_bound, bool zero_copy) {
  PartData pd;
  pd.array = req.array;
  pd.part = req.step;
  const size_t dim = static_cast<size_t>(value_dim);
  size_t shell_bytes = 0;
  if (req.keys.is_bitmap()) {
    ORION_CHECK(req.keys.total() == key_bound)
        << "bitmap over" << req.keys.total() << "keys for a key space of" << key_bound;
    pd.mode = PartDataMode::kPackedReply;
    pd.dim = value_dim;
    shell_bytes = pd.EncodedSize();
    pd.values.resize(static_cast<size_t>(req.keys.size()) * dim);
    f32* out = pd.values.data();
    req.keys.ForEach([&](i64 key) {
      const f32* v = master.Get(key);
      if (v != nullptr) {
        simd::CopyF32(out, v, dim);
      }
      out += dim;
    });
  } else {
    pd.mode = PartDataMode::kInstallPart;
    pd.cells = CellStore(value_dim, CellStore::Layout::kHashed, key_bound);
    shell_bytes = pd.EncodedSize();
    pd.cells.Reserve(req.keys.size());
    for (i64 key : req.keys.keys()) {
      const f32* v = master.Get(key);
      if (v != nullptr) {
        simd::CopyF32(pd.cells.GetOrCreate(key), v, dim);
      }
    }
  }
  Message reply;
  reply.from = kMasterRank;
  reply.kind = MsgKind::kParamReply;
  reply.tag = static_cast<u32>(req.step);
  if (req.per_key) {
    MeterAsPerKeyReplies(&reply, static_cast<size_t>(req.keys.size()), shell_bytes);
  }
  AttachPart(&reply, std::move(pd), zero_copy);
  return reply;
}

// kGather / kDropArray control message.
struct ArrayOp {
  ControlOp op = ControlOp::kGather;
  DistArrayId array = kInvalidDistArrayId;

  std::vector<u8> Encode() const {
    ByteWriter w(sizeof(u16) + sizeof(i32));
    w.Put<u16>(static_cast<u16>(op));
    w.Put<i32>(array);
    return w.Take();
  }
};

inline ControlOp PeekControlOp(const std::vector<u8>& payload) {
  ByteReader r(payload);
  return static_cast<ControlOp>(r.Get<u16>());
}

}  // namespace orion

#endif  // ORION_SRC_RUNTIME_PROTOCOL_H_
