// Storage for the cells of one DistArray partition.
//
// Three layouts:
//  - kHashed: holds an arbitrary subset of cells (sparse arrays, server
//    shards, caches). Iteration order is insertion order, so executions are
//    deterministic. Cells live in two parallel vectors (keys_, values_) in
//    insertion order, indexed by the slot table described below.
//  - kDenseRange: holds the contiguous key range [lo, hi] of a dense array
//    (range partitions and rotated partitions of dense parameter arrays).
//    Constant-time, hash-free access — this is the hot path of kernels.
//  - kFullDense: holds every cell of the key space contiguously (small
//    replicated arrays, driver-resident master copies).
//
// All values are f32 spans of length value_dim.
//
// The hashed index: slots_ is a power-of-two table of u32 entries holding
// cell index + 1 (0 means empty), probed linearly from a multiplicative hash
// of the key (an identity hash would pile strided 2-D keys onto a few
// buckets under the mask). Keys are read back from keys_, so there is no
// per-key node: a hashed store owns three allocations whatever its size.
// Invariants:
//  - load <= 1/2, so every probe sequence ends at an empty slot;
//  - lookups never write the table (Get/Contains are const, and
//    GetOrCreate of a present key grows nothing): zero-copy PartData shares
//    one store read-only across threads;
//  - a store holds at most 2^32 - 1 cells (a slot must fit cell index + 1);
//  - when keys_ holds a key twice (only Deserialize of such bytes does
//    that), the index points at its first cell.
// Serialize bytes, iteration order and wire metering depend only on keys_
// and values_, so they do not see the table.
//
// The direct-mapped index: a hashed store may be given a key bound (every
// key lies in [0, bound)). Whenever bound <= 2x the power-of-two table the
// hashed index would allocate for its cells, Rehash builds slots_ with one
// entry per key of the bound instead (slots_[key] = cell index + 1): no
// hash, no probe, no read-back of keys_, and never more than twice the
// hashed table's memory. The invariants above hold for both indexes.
// Inserting a key outside the bound drops the bound for good and rebuilds
// the hashed index; Get of such a key is nullptr while it is absent. The
// bound is not serialized, so a deserialized store is unbounded.
#ifndef ORION_SRC_DSM_CELL_STORE_H_
#define ORION_SRC_DSM_CELL_STORE_H_

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <vector>

#include "src/common/serde.h"
#include "src/common/simd.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace orion {

class CellStore {
 public:
  enum class Layout : u8 { kHashed, kFullDense, kDenseRange };

  CellStore() : CellStore(1, Layout::kHashed, 0) {}
  // `total`: kFullDense holds the keys [0, total); kHashed takes it as its
  // key bound (0 = unbounded), which lets large stores index directly.
  CellStore(i32 value_dim, Layout layout, i64 total) : value_dim_(value_dim), layout_(layout) {
    ORION_CHECK(value_dim > 0);
    ORION_CHECK(layout != Layout::kDenseRange) << "use CellStore::DenseRange";
    ORION_CHECK(total >= 0);
    if (layout_ == Layout::kFullDense) {
      range_lo_ = 0;
      range_hi_ = total - 1;
      values_.assign(static_cast<size_t>(total) * value_dim_, 0.0f);
    } else {
      bound_ = total;
    }
  }

  // A dense block over keys [lo, hi] (inclusive).
  static CellStore DenseRange(i32 value_dim, i64 lo, i64 hi) {
    ORION_CHECK(value_dim > 0);
    ORION_CHECK(hi >= lo - 1);  // hi == lo-1 encodes an empty range
    CellStore s;
    s.value_dim_ = value_dim;
    s.layout_ = Layout::kDenseRange;
    s.range_lo_ = lo;
    s.range_hi_ = hi;
    s.values_.assign(static_cast<size_t>(hi - lo + 1) * static_cast<size_t>(value_dim), 0.0f);
    return s;
  }

  i32 value_dim() const { return value_dim_; }
  Layout layout() const { return layout_; }
  bool IsDense() const { return layout_ != Layout::kHashed; }
  i64 range_lo() const { return range_lo_; }
  i64 range_hi() const { return range_hi_; }
  // Hashed layout: the key bound (0 once dropped or never set), and whether
  // the index is direct-mapped right now.
  i64 key_bound() const { return bound_; }
  bool direct_indexed() const { return direct_; }

  i64 NumCells() const {
    return IsDense() ? range_hi_ - range_lo_ + 1 : static_cast<i64>(keys_.size());
  }

  // Returns the cell value span, or nullptr if absent (hashed layout only).
  const f32* Get(i64 key) const {
    if (IsDense()) {
      if (key < range_lo_ || key > range_hi_) {
        DenseKeyOutOfRange(key);
      }
      return values_.data() + static_cast<size_t>(key - range_lo_) * value_dim_;
    }
    const size_t cell = Find(key);
    return cell == kAbsent ? nullptr : values_.data() + cell * static_cast<size_t>(value_dim_);
  }

  // Returns a mutable span, inserting a zero-initialized cell if absent.
  f32* GetOrCreate(i64 key) {
    if (IsDense()) {
      if (key < range_lo_ || key > range_hi_) {
        DenseKeyOutOfRange(key);
      }
      return values_.data() + static_cast<size_t>(key - range_lo_) * value_dim_;
    }
    if (direct_ && static_cast<u64>(key) < slots_.size()) {
      const u32 slot = slots_[static_cast<size_t>(key)];
      if (slot != 0) {
        return CellAt(slot - 1);
      }
    }
    return GetOrCreateSlow(key);
  }

  // Mutable span of the `*count` consecutive keys from `key`, created as
  // needed. Dense layouts hold the whole run contiguously; a hashed store
  // shortens `*count` to 1 (its cells are in insertion order).
  f32* GetRun(i64 key, i64* count) {
    if (IsDense()) {
      if (key < range_lo_ || key + *count - 1 > range_hi_) {
        DenseKeyOutOfRange(key < range_lo_ ? key : key + *count - 1);
      }
      return values_.data() + static_cast<size_t>(key - range_lo_) * value_dim_;
    }
    *count = 1;
    return GetOrCreate(key);
  }

  bool Contains(i64 key) const {
    if (IsDense()) {
      return key >= range_lo_ && key <= range_hi_;
    }
    return Find(key) != kAbsent;
  }

  // Visits cells in a deterministic order (insertion order for hashed,
  // key order for dense). Templated so hot loops inline the body.
  template <typename F>
  void ForEach(F&& fn) {
    if (IsDense()) {
      for (i64 k = range_lo_; k <= range_hi_; ++k) {
        fn(k, values_.data() + static_cast<size_t>(k - range_lo_) * value_dim_);
      }
      return;
    }
    for (size_t i = 0; i < keys_.size(); ++i) {
      // Insertion order: cell i lives at offset i * value_dim_.
      fn(keys_[i], values_.data() + i * static_cast<size_t>(value_dim_));
    }
  }

  template <typename F>
  void ForEachConst(F&& fn) const {
    if (IsDense()) {
      for (i64 k = range_lo_; k <= range_hi_; ++k) {
        fn(k, values_.data() + static_cast<size_t>(k - range_lo_) * value_dim_);
      }
      return;
    }
    for (size_t i = 0; i < keys_.size(); ++i) {
      fn(keys_[i], values_.data() + i * static_cast<size_t>(value_dim_));
    }
  }

  // Pre-sizes the hashed containers for `additional_cells` upcoming inserts
  // (no-op for dense layouts, which are fully allocated up front).
  void Reserve(i64 additional_cells) {
    if (IsDense() || additional_cells <= 0) {
      return;
    }
    ORION_CHECK(static_cast<u64>(additional_cells) <= kMaxCells - keys_.size())
        << "a hashed CellStore holds at most" << kMaxCells << "cells";
    const size_t total = keys_.size() + static_cast<size_t>(additional_cells);
    // A direct index already names every key of the bound.
    if (!direct_ && 2 * total > slots_.size()) {
      Rehash(total);
    }
    keys_.reserve(total);
    values_.reserve(total * static_cast<size_t>(value_dim_));
  }

  // Visits the `chunk`-th of `num_chunks` contiguous slices of the cell
  // sequence (hashed layout; used for bounded-delay sync rounds).
  template <typename F>
  void ForEachSlice(int chunk, int num_chunks, F&& fn) {
    ORION_CHECK(layout_ == Layout::kHashed);
    ORION_CHECK(chunk >= 0 && chunk < num_chunks);
    const size_t n = keys_.size();
    const size_t begin = n * static_cast<size_t>(chunk) / static_cast<size_t>(num_chunks);
    const size_t end = n * static_cast<size_t>(chunk + 1) / static_cast<size_t>(num_chunks);
    for (size_t i = begin; i < end; ++i) {
      fn(keys_[i], values_.data() + i * static_cast<size_t>(value_dim_));
    }
  }

  const std::vector<i64>& keys() const {
    ORION_CHECK(layout_ == Layout::kHashed);
    return keys_;
  }

  void Clear() {
    if (IsDense()) {
      values_.assign(values_.size(), 0.0f);
      return;
    }
    std::fill(slots_.begin(), slots_.end(), 0u);
    keys_.clear();
    values_.clear();
  }

  // ---- Serialization (fabric payloads & checkpoints) ----

  // Exact number of bytes Serialize() produces — the wire size the fabric
  // charges when the cells travel by reference instead of by value.
  size_t SerializedBytes() const {
    size_t n = sizeof(i32) + sizeof(u8);  // value_dim + layout
    if (IsDense()) {
      return n + 2 * sizeof(i64) + sizeof(u64) + values_.size() * sizeof(f32);
    }
    return n + sizeof(u64) + keys_.size() * sizeof(i64) +  // PutVec(keys_)
           sizeof(u64) + values_.size() * sizeof(f32);     // PutVec(values_)
  }

  void Serialize(ByteWriter* w) const {
    w->Reserve(SerializedBytes());
    w->Put<i32>(value_dim_);
    w->Put<u8>(static_cast<u8>(layout_));
    if (IsDense()) {
      w->Put<i64>(range_lo_);
      w->Put<i64>(range_hi_);
      w->PutVec(values_);
      return;
    }
    w->PutVec(keys_);
    w->PutVec(values_);
  }

  static CellStore Deserialize(ByteReader* r) {
    const i32 value_dim = r->Get<i32>();
    const Layout layout = static_cast<Layout>(r->Get<u8>());
    if (layout != Layout::kHashed) {
      const i64 lo = r->Get<i64>();
      const i64 hi = r->Get<i64>();
      CellStore s = DenseRange(value_dim, lo, hi);
      s.layout_ = layout;
      s.values_ = r->GetVec<f32>();
      ORION_CHECK(static_cast<i64>(s.values_.size()) == (hi - lo + 1) * value_dim);
      return s;
    }
    CellStore s(value_dim, Layout::kHashed, 0);
    s.keys_ = r->GetVec<i64>();
    s.values_ = r->GetVec<f32>();
    ORION_CHECK(s.values_.size() == s.keys_.size() * static_cast<size_t>(value_dim));
    s.Rehash(s.keys_.size());
    return s;
  }

  // Bounds-checked deserialization for untrusted bytes (checkpoint files):
  // returns a descriptive Status instead of CHECK-aborting on truncated or
  // internally inconsistent input. The fabric keeps using Deserialize, whose
  // CHECKs guard against programming errors, not corrupt media.
  static StatusOr<CellStore> TryDeserialize(ByteReader* r) {
    const auto value_dim = r->TryGet<i32>();
    const auto layout_byte = r->TryGet<u8>();
    if (!value_dim.has_value() || !layout_byte.has_value()) {
      return Status::InvalidArgument("cell store header truncated");
    }
    if (*value_dim <= 0) {
      return Status::InvalidArgument("cell store has non-positive value_dim");
    }
    if (*layout_byte > static_cast<u8>(Layout::kDenseRange)) {
      return Status::InvalidArgument("cell store has unknown layout");
    }
    const Layout layout = static_cast<Layout>(*layout_byte);
    if (layout != Layout::kHashed) {
      const auto lo = r->TryGet<i64>();
      const auto hi = r->TryGet<i64>();
      if (!lo.has_value() || !hi.has_value() || *hi < *lo - 1) {
        return Status::InvalidArgument("cell store dense range truncated or inverted");
      }
      auto values = r->TryGetVec<f32>();
      if (!values.has_value()) {
        return Status::InvalidArgument("cell store dense values truncated");
      }
      if (static_cast<i64>(values->size()) != (*hi - *lo + 1) * *value_dim) {
        return Status::InvalidArgument("cell store dense value count mismatch");
      }
      CellStore s = DenseRange(*value_dim, *lo, *hi);
      s.layout_ = layout;
      s.values_ = std::move(*values);
      return s;
    }
    auto keys = r->TryGetVec<i64>();
    auto values = keys.has_value() ? r->TryGetVec<f32>() : std::nullopt;
    if (!keys.has_value() || !values.has_value()) {
      return Status::InvalidArgument("cell store cells truncated");
    }
    if (values->size() != keys->size() * static_cast<size_t>(*value_dim)) {
      return Status::InvalidArgument("cell store key/value count mismatch");
    }
    if (keys->size() > kMaxCells) {
      return Status::InvalidArgument("cell store has too many cells");
    }
    CellStore s(*value_dim, Layout::kHashed, 0);
    s.keys_ = std::move(*keys);
    s.values_ = std::move(*values);
    s.Rehash(s.keys_.size());
    return s;
  }

  // Adds every cell of `other` into this store (cell-wise +=). Used to merge
  // buffered updates with the default additive apply.
  void MergeAdd(const CellStore& other) {
    ORION_CHECK(other.value_dim_ == value_dim_);
    Reserve(other.NumCells());
    other.ForEachConst([this](i64 key, const f32* v) {
      simd::AddF32(GetOrCreate(key), v, static_cast<size_t>(value_dim_));
    });
  }

  // Contiguous backing span, in slot order (dense layouts: key order;
  // hashed: insertion order). Lets the versioned page store paginate and
  // collapse with bulk copies instead of per-cell lookups.
  const std::vector<f32>& raw_values() const { return values_; }
  f32* raw_values_data() { return values_.data(); }

 private:
  static constexpr size_t kAbsent = std::numeric_limits<size_t>::max();
  // Slots hold cell index + 1 in a u32, so cell indices stop at 2^32 - 2.
  static constexpr size_t kMaxCells = std::numeric_limits<u32>::max();

  [[noreturn, gnu::noinline]] void DenseKeyOutOfRange(i64 key) const {
    internal::CheckFailStream(__FILE__, __LINE__, "key >= range_lo_ && key <= range_hi_")
        << "key" << key << "outside dense range [" << range_lo_ << "," << range_hi_ << "]";
    std::abort();  // not reached: the stream's destructor aborts
  }

  f32* CellAt(size_t cell) { return values_.data() + cell * static_cast<size_t>(value_dim_); }

  // GetOrCreate past a direct-index hit: direct inserts, out-of-bound keys
  // and the hashed index. Out of line, so the hit path inlines into callers.
  [[gnu::noinline]] f32* GetOrCreateSlow(i64 key) {
    if (direct_ && static_cast<u64>(key) < slots_.size()) {
      return Append(static_cast<size_t>(key), key);  // the hit path missed
    }
    if (bound_ != 0 && static_cast<u64>(key) >= static_cast<u64>(bound_)) {
      // Out of bound: no direct index can hold this key any more.
      bound_ = 0;
      if (direct_) {
        Rehash(keys_.size() + 1);
      }
    }
    size_t pos = 0;
    if (!slots_.empty()) {
      pos = Probe(key);
      if (slots_[pos] != 0) {
        return CellAt(slots_[pos] - 1);
      }
    }
    // Grow only on a real insert, so a hit never writes the table.
    if (2 * (keys_.size() + 1) > slots_.size()) {
      Rehash(keys_.size() + 1);
      pos = direct_ ? static_cast<size_t>(key) : Probe(key);
    }
    return Append(pos, key);
  }

  // Appends `key` as a new zero cell indexed at slots_[pos].
  f32* Append(size_t pos, i64 key) {
    const size_t offset = values_.size();
    slots_[pos] = static_cast<u32>(keys_.size() + 1);
    values_.resize(offset + static_cast<size_t>(value_dim_), 0.0f);
    keys_.push_back(key);
    return values_.data() + offset;
  }

  // Table position a probe for `key` starts at: the top bits of a Fibonacci
  // multiplicative hash (the low product bits of a strided key repeat).
  size_t Home(i64 key) const {
    return static_cast<size_t>((static_cast<u64>(key) * 0x9E3779B97F4A7C15ull) >> slot_shift_);
  }

  // Position of `key`'s slot, or of the empty slot that ends its probe
  // sequence when absent. Requires a non-empty table.
  size_t Probe(i64 key) const {
    const size_t mask = slots_.size() - 1;
    size_t pos = Home(key);
    while (slots_[pos] != 0 && keys_[slots_[pos] - 1] != key) {
      pos = (pos + 1) & mask;
    }
    return pos;
  }

  // Cell index of `key` in keys_/values_, or kAbsent (hashed layout).
  size_t Find(i64 key) const {
    if (direct_) {
      const u32 slot =
          static_cast<u64>(key) < slots_.size() ? slots_[static_cast<size_t>(key)] : 0;
      return slot == 0 ? kAbsent : slot - 1;
    }
    return FindHashed(key);
  }

  // Find on the hashed index; out of line, so the direct path inlines.
  [[gnu::noinline]] size_t FindHashed(i64 key) const {
    if (slots_.empty()) {
      return kAbsent;
    }
    const u32 slot = slots_[Probe(key)];
    return slot == 0 ? kAbsent : slot - 1;
  }

  // Rebuilds slots_ at the smallest power of two (>= 16) that keeps
  // `min_cells` at load <= 1/2, or as the direct index when the key bound
  // is at most twice that size, indexing keys_ in order. A key keys_ holds
  // twice keeps its first cell.
  void Rehash(size_t min_cells) {
    ORION_CHECK(min_cells <= kMaxCells) << "a hashed CellStore holds at most" << kMaxCells
                                        << "cells";
    int bits = 4;
    while ((size_t{1} << bits) < 2 * min_cells) {
      ++bits;
    }
    // bound_ <= kMaxCells: distinct in-bound keys then never outnumber what
    // a slot can name, so a direct store needs no growth check.
    const u64 bound = static_cast<u64>(bound_);
    direct_ = bound != 0 && bound <= kMaxCells && bound <= (u64{2} << bits);
    if (direct_) {
      slots_.assign(static_cast<size_t>(bound), 0u);
      for (size_t cell = 0; cell < keys_.size(); ++cell) {
        u32& slot = slots_[static_cast<size_t>(keys_[cell])];
        if (slot == 0) {
          slot = static_cast<u32>(cell + 1);
        }
      }
      return;
    }
    slots_.assign(size_t{1} << bits, 0u);
    slot_shift_ = 64 - bits;
    for (size_t cell = 0; cell < keys_.size(); ++cell) {
      const size_t pos = Probe(keys_[cell]);
      if (slots_[pos] == 0) {
        slots_[pos] = static_cast<u32>(cell + 1);
      }
    }
  }

  i32 value_dim_ = 1;
  Layout layout_ = Layout::kHashed;
  i64 range_lo_ = 0;   // dense layouts: first key
  i64 range_hi_ = -1;  // dense layouts: last key (inclusive)
  i64 bound_ = 0;           // hashed: keys lie in [0, bound_); 0 = unbounded
  bool direct_ = false;     // slots_ is indexed by key, not by hash
  std::vector<u32> slots_;  // hashed index: cell index + 1, 0 = empty
  int slot_shift_ = 64;     // 64 - log2(slots_.size()) of the hashed table
  std::vector<i64> keys_;   // insertion order
  std::vector<f32> values_;
};

}  // namespace orion

#endif  // ORION_SRC_DSM_CELL_STORE_H_
