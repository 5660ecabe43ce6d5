// DistArray Buffers (paper Sec. 3.3): per-worker write-back buffers whose
// writes are exempt from dependence analysis.
//
// A buffer accumulates updates locally; on flush the updates are shipped to
// the owning shard and applied cell-by-cell. The default apply is additive
// (cell += update); a user-defined apply function, executed atomically per
// cell, enables adaptive gradient algorithms (AdaGrad / Adaptive Revision)
// because the owner can keep auxiliary state in the cell's value span.
//
// Pending updates live in one of two forms:
//  - a hashed CellStore in first-touch order (the general form);
//  - the slab form, for targets hosted on the server with a bounded dense key
//    space: a dense delta slab over [0, key_bound) plus a bitmap of the
//    touched keys. Accumulate is an add at `key * update_dim`, and a flush
//    packs the touched deltas in key order (DrainPacked).
// Both forms coalesce a key's updates by element-wise addition in arrival
// order, so they hold bit-identical deltas.
#ifndef ORION_SRC_DSM_DIST_ARRAY_BUFFER_H_
#define ORION_SRC_DSM_DIST_ARRAY_BUFFER_H_

#include <functional>
#include <utility>
#include <vector>

#include "src/common/simd.h"
#include "src/dsm/cell_store.h"
#include "src/dsm/key_set.h"

namespace orion {

// Applies one buffered update to one cell. `cell` is the authoritative value
// span (value_dim floats); `update` is the buffered update span
// (update_dim floats, which may differ from value_dim when the update
// carries extra info such as the old parameter value for AdaRevision).
// An empty function is the additive default: cell += update, with
// update_dim == value_dim.
using BufferApplyFn = std::function<void(f32* cell, const f32* update, i32 value_dim)>;

// Applies `update` to `cell` with `apply`, or adds it when `apply` is the
// additive default.
inline void ApplyBufferedUpdate(const BufferApplyFn& apply, f32* cell, const f32* update,
                                i32 value_dim) {
  if (apply) {
    apply(cell, update, value_dim);
  } else {
    simd::AddF32(cell, update, static_cast<size_t>(value_dim));
  }
}

class DistArrayBuffer {
 public:
  // `apply`: the apply UDF, or empty for the additive default. `key_bound`:
  // the target's key-space size (keys lie in [0, key_bound)), the pending
  // store's key bound; 0 = unbounded. `slab`: use the slab form, which needs
  // a key bound.
  DistArrayBuffer(DistArrayId target, i32 update_dim, BufferApplyFn apply = {},
                  i64 key_bound = 0, bool slab = false)
      : target_(target),
        update_dim_(update_dim),
        apply_(std::move(apply)),
        key_bound_(key_bound),
        slab_(slab),
        pending_(update_dim, CellStore::Layout::kHashed, key_bound) {
    if (slab_) {
      ORION_CHECK(key_bound > 0) << "a slab buffer needs a bounded key space";
      delta_.assign(static_cast<size_t>(key_bound) * static_cast<size_t>(update_dim), 0.0f);
      touched_ = KeySet::Bitmap(key_bound);
    }
  }

  DistArrayId target() const { return target_; }
  i32 update_dim() const { return update_dim_; }
  bool additive() const { return !apply_; }
  bool slab() const { return slab_; }
  const BufferApplyFn& apply_fn() const { return apply_; }

  // Buffers an update for `key`, coalescing with any pending update by
  // element-wise addition.
  void Accumulate(i64 key, const f32* update) {
    if (slab_) {
      num_touched_ += touched_.Insert(key) ? 1 : 0;  // refuses a key outside the slab
      simd::AddF32(delta_.data() + static_cast<size_t>(key) * static_cast<size_t>(update_dim_),
                   update, static_cast<size_t>(update_dim_));
      return;
    }
    simd::AddF32(pending_.GetOrCreate(key), update, static_cast<size_t>(update_dim_));
  }

  i64 NumPending() const { return slab_ ? num_touched_ : pending_.NumCells(); }

  // Hashed form: drains the pending updates (leaves the buffer empty). The
  // fresh store is sized for as many cells as were drained, since the next
  // round usually touches about as many keys.
  CellStore Drain() {
    ORION_CHECK(!slab_) << "a slab buffer drains packed (DrainPacked)";
    CellStore out = std::move(pending_);
    pending_ = CellStore(update_dim_, CellStore::Layout::kHashed, key_bound_);
    pending_.Reserve(out.NumCells());
    return out;
  }

  // Slab form: drains the touched keys and their deltas packed in key order
  // (values holds NumPending() * update_dim floats), leaving the buffer
  // empty.
  void DrainPacked(KeySet* keys, std::vector<f32>* values) {
    ORION_CHECK(slab_) << "DrainPacked needs the slab form";
    const size_t dim = static_cast<size_t>(update_dim_);
    values->resize(static_cast<size_t>(num_touched_) * dim);
    f32* out = values->data();
    touched_.ForEach([&](i64 key) {
      f32* d = delta_.data() + static_cast<size_t>(key) * dim;
      simd::CopyF32(out, d, dim);
      simd::ZeroF32(d, dim);
      out += dim;
    });
    *keys = touched_;
    touched_.Clear();
    num_touched_ = 0;
  }

  // Applies the pending updates onto `cells` and keeps them pending (a
  // fresh replica must show this worker's unflushed writes, which are still
  // owed to the master). Replicated targets use the hashed form.
  template <typename Store>
  void ApplyPendingTo(Store* cells) const {
    ApplyTo(cells, pending_, apply_);
  }

  // Applies a drained update store onto authoritative cells. Templated so
  // the master's versioned (copy-on-write) store can stand in for a plain
  // CellStore.
  template <typename Store>
  static void ApplyTo(Store* cells, const CellStore& updates, const BufferApplyFn& apply) {
    cells->Reserve(updates.NumCells());
    const i32 value_dim = cells->value_dim();
    updates.ForEachConst([&](i64 key, const f32* update) {
      ApplyBufferedUpdate(apply, cells->GetOrCreate(key), update, value_dim);
    });
  }

  // Applies a packed slab flush (`values` holds `update_dim` floats per key
  // of `keys`, in key order) onto authoritative cells. The additive default
  // adds each run of consecutive keys with one simd::AddF32 per contiguous
  // stretch of the store (Store::GetRun); a UDF applies key by key.
  template <typename Store>
  static void ApplyPacked(Store* cells, const KeySet& keys, const std::vector<f32>& values,
                          i32 update_dim, const BufferApplyFn& apply) {
    ORION_CHECK(static_cast<i64>(values.size()) == keys.size() * update_dim)
        << "packed flush of" << values.size() << "floats for" << keys.size() << "keys";
    const i32 value_dim = cells->value_dim();
    const size_t dim = static_cast<size_t>(update_dim);
    const f32* in = values.data();
    if (apply) {
      keys.ForEach([&](i64 key) {
        apply(cells->GetOrCreate(key), in, value_dim);
        in += dim;
      });
      return;
    }
    ORION_CHECK(update_dim == value_dim) << "an additive apply needs update_dim == value_dim";
    keys.ForEachRun([&](i64 first, i64 count) {
      while (count > 0) {
        i64 n = count;
        f32* dst = cells->GetRun(first, &n);
        simd::AddF32(dst, in, static_cast<size_t>(n) * dim);
        in += static_cast<size_t>(n) * dim;
        first += n;
        count -= n;
      }
    });
  }

 private:
  DistArrayId target_;
  i32 update_dim_;
  BufferApplyFn apply_;
  i64 key_bound_;
  bool slab_;
  CellStore pending_;      // hashed form
  std::vector<f32> delta_;  // slab form: key_bound * update_dim deltas
  KeySet touched_;          // slab form: keys with a pending delta
  i64 num_touched_ = 0;
};

}  // namespace orion

#endif  // ORION_SRC_DSM_DIST_ARRAY_BUFFER_H_
