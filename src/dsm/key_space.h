// Maps N-dimensional DistArray indices to flat 64-bit keys and back.
//
// DistArray elements are identified by an N-tuple (paper Sec. 3.1); the
// runtime stores and ships them by a flat row-major key so that storage,
// serialization, and range partitioning operate on a single integer.
#ifndef ORION_SRC_DSM_KEY_SPACE_H_
#define ORION_SRC_DSM_KEY_SPACE_H_

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace orion {

class KeySpace {
 public:
  KeySpace() = default;
  explicit KeySpace(std::vector<i64> dims) : dims_(std::move(dims)) {
    strides_.resize(dims_.size());
    i64 stride = 1;
    // Row-major with the *last* dimension contiguous.
    for (size_t d = dims_.size(); d-- > 0;) {
      ORION_CHECK(dims_[d] > 0) << "dimension" << d << "must be positive";
      strides_[d] = stride;
      stride *= dims_[d];
    }
    total_ = stride;
  }

  int num_dims() const { return static_cast<int>(dims_.size()); }
  const std::vector<i64>& dims() const { return dims_; }
  i64 dim(int d) const { return dims_[static_cast<size_t>(d)]; }
  i64 total() const { return total_; }

  bool Contains(std::span<const i64> idx) const {
    if (idx.size() != dims_.size()) {
      return false;
    }
    for (size_t d = 0; d < dims_.size(); ++d) {
      if (idx[d] < 0 || idx[d] >= dims_[d]) {
        return false;
      }
    }
    return true;
  }

  i64 Encode(std::span<const i64> idx) const {
    ORION_CHECK(Contains(idx)) << "index outside key space";
    return EncodeUnchecked(idx);
  }

  // Hot-path encode without bounds validation (storage layers re-check
  // ownership anyway).
  i64 EncodeUnchecked(std::span<const i64> idx) const {
    if (idx.size() == 1) {
      return idx[0];  // 1-D: the stride is 1
    }
    i64 key = 0;
    for (size_t d = 0; d < dims_.size(); ++d) {
      key += idx[d] * strides_[d];
    }
    return key;
  }

  IndexVec Decode(i64 key) const {
    IndexVec idx(dims_.size());
    DecodeInto(key, idx);
    return idx;
  }

  // Allocation-free decode into a preallocated span (hot path; keys come
  // from trusted stores, so no bounds validation).
  void DecodeInto(i64 key, std::span<i64> idx) const {
    for (size_t d = 0; d < dims_.size(); ++d) {
      idx[d] = key / strides_[d];
      key %= strides_[d];
    }
  }

  const std::vector<i64>& strides() const { return strides_; }

  // Extracts one coordinate without materializing the whole index vector.
  i64 Coord(i64 key, int d) const {
    return (key / strides_[static_cast<size_t>(d)]) % dims_[static_cast<size_t>(d)];
  }

 private:
  std::vector<i64> dims_;
  std::vector<i64> strides_;
  i64 total_ = 0;
};

// Sorts `keys` ascending and drops duplicates (prefetch key lists, which
// repeat each key once per access). When every key lies in [0, total) and
// the key space is small next to the list (total / 64 <= keys.size(), so the
// bitmap has no more words than there are keys), it marks a bitmap and scans
// its words in O(keys + total / 64); otherwise it falls back to sort +
// unique. A key outside [0, total) always takes the sort path.
inline void SortUniqueKeys(std::vector<i64>& keys, i64 total) {
  if (keys.empty()) {
    return;
  }
  const auto [lo, hi] = std::minmax_element(keys.begin(), keys.end());
  if (*lo < 0 || *hi >= total || total / 64 > static_cast<i64>(keys.size())) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return;
  }
  std::vector<u64> bits(static_cast<size_t>(total + 63) / 64, 0);
  for (const i64 k : keys) {
    bits[static_cast<size_t>(k) / 64] |= u64{1} << (k % 64);
  }
  keys.clear();
  for (size_t w = 0; w < bits.size(); ++w) {
    for (u64 word = bits[w]; word != 0; word &= word - 1) {
      keys.push_back(static_cast<i64>(w * 64) + std::countr_zero(word));
    }
  }
}

}  // namespace orion

#endif  // ORION_SRC_DSM_KEY_SPACE_H_
