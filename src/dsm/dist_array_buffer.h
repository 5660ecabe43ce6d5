// DistArray Buffers (paper Sec. 3.3): per-worker write-back buffers whose
// writes are exempt from dependence analysis.
//
// A buffer accumulates updates locally; on flush the updates are shipped to
// the owning shard and applied cell-by-cell with a user-defined apply
// function executed atomically per cell. The apply UDF enables adaptive
// gradient algorithms (AdaGrad / Adaptive Revision) because the owner can
// keep auxiliary state in the cell's value span.
#ifndef ORION_SRC_DSM_DIST_ARRAY_BUFFER_H_
#define ORION_SRC_DSM_DIST_ARRAY_BUFFER_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "src/common/simd.h"
#include "src/dsm/cell_store.h"

namespace orion {

// Applies one buffered update to one cell. `cell` is the authoritative value
// span (value_dim floats); `update` is the buffered update span
// (update_dim floats, which may differ from value_dim when the update
// carries extra info such as the old parameter value for AdaRevision).
using BufferApplyFn = std::function<void(f32* cell, const f32* update, i32 value_dim)>;

// The default apply: cell += update (update_dim == value_dim).
BufferApplyFn MakeAddApplyFn();

class DistArrayBuffer {
 public:
  // `key_bound`: the target's key-space size (keys lie in [0, key_bound)),
  // the pending store's key bound; 0 = unbounded.
  DistArrayBuffer(DistArrayId target, i32 update_dim, BufferApplyFn apply, i64 key_bound = 0)
      : target_(target),
        update_dim_(update_dim),
        apply_(std::move(apply)),
        key_bound_(key_bound),
        pending_(update_dim, CellStore::Layout::kHashed, key_bound) {}

  DistArrayId target() const { return target_; }
  i32 update_dim() const { return update_dim_; }
  const BufferApplyFn& apply_fn() const { return apply_; }

  // Buffers an update for `key`, coalescing with any pending update by
  // element-wise addition.
  void Accumulate(i64 key, const f32* update) {
    simd::AddF32(pending_.GetOrCreate(key), update, static_cast<size_t>(update_dim_));
  }

  i64 NumPending() const { return pending_.NumCells(); }

  // Drains the pending updates (leaves the buffer empty). The fresh store is
  // sized for as many cells as were drained, since the next round usually
  // touches about as many keys.
  CellStore Drain() {
    CellStore out = std::move(pending_);
    pending_ = CellStore(update_dim_, CellStore::Layout::kHashed, key_bound_);
    pending_.Reserve(out.NumCells());
    return out;
  }

  // Applies the pending updates onto `cells` and keeps them pending (a
  // fresh replica must show this worker's unflushed writes, which are still
  // owed to the master).
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
      apply(cells->GetOrCreate(key), update, value_dim);
    });
  }

 private:
  DistArrayId target_;
  i32 update_dim_;
  BufferApplyFn apply_;
  i64 key_bound_;
  CellStore pending_;
};

}  // namespace orion

#endif  // ORION_SRC_DSM_DIST_ARRAY_BUFFER_H_
