// The set of flat keys one parameter-plane exchange names: what a prefetch
// recorded, what a ParamRequest asks for, what a packed flush touched, and
// what a speculative repair re-fetches.
//
// Two forms, chosen per server-hosted array by its declared density:
//  - kBitmap (Density::kDense): one bit per key of the bounded key space
//    [0, total). Insert sets a bit, iteration is ascending key order, size()
//    is a popcount, and the wire form is ceil(total / 64) words.
//  - kList (Density::kSparse): an explicit key vector. Insert appends,
//    Normalize() sorts and drops duplicates, and iteration follows the
//    vector's order.
//
// Wire form (Serialize): u8 form, then
//   kList:   u64 n, n x i64 key
//   kBitmap: i64 total, u64 words, words x u64 (bit k of word w is key 64w + k)
// Deserialize refuses an unknown form, a bitmap whose word count is not
// ceil(total / 64), and a set bit at or past `total`.
#ifndef ORION_SRC_DSM_KEY_SET_H_
#define ORION_SRC_DSM_KEY_SET_H_

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <utility>
#include <vector>

#include "src/common/serde.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/dsm/key_space.h"

namespace orion {

class KeySet {
 public:
  enum class Form : u8 { kList = 1, kBitmap = 2 };

  KeySet() = default;
  explicit KeySet(std::vector<i64> keys) : keys_(std::move(keys)) {}

  static KeySet Bitmap(i64 total) {
    ORION_CHECK(total >= 0);
    KeySet s;
    s.form_ = Form::kBitmap;
    s.total_ = total;
    s.words_.assign(static_cast<size_t>((total + 63) / 64), 0);
    return s;
  }

  // An empty set of the same form (and bound) as this one.
  KeySet EmptyLike() const { return is_bitmap() ? Bitmap(total_) : KeySet(); }

  bool is_bitmap() const { return form_ == Form::kBitmap; }
  // Bitmap form: the key-space bound; 0 for lists.
  i64 total() const { return total_; }

  // Adds `key`; returns whether it was absent (lists always append, so they
  // report true). A bitmap refuses a key outside [0, total).
  bool Insert(i64 key) {
    if (form_ == Form::kList) {
      keys_.push_back(key);
      return true;
    }
    if (static_cast<u64>(key) >= static_cast<u64>(total_)) {
      KeyOutOfRange(key);
    }
    u64& word = words_[static_cast<size_t>(key) / 64];
    const u64 before = word;
    word |= u64{1} << (key % 64);
    return word != before;
  }

  // List form: sorts and drops duplicates (`total` is the key-space size,
  // see SortUniqueKeys). A bitmap is always sorted and unique.
  void Normalize(i64 total) {
    if (form_ == Form::kList) {
      SortUniqueKeys(keys_, total);
    }
  }

  i64 size() const {
    if (form_ == Form::kList) {
      return static_cast<i64>(keys_.size());
    }
    i64 n = 0;
    for (const u64 w : words_) {
      n += std::popcount(w);
    }
    return n;
  }

  bool empty() const {
    if (form_ == Form::kList) {
      return keys_.empty();
    }
    for (const u64 w : words_) {
      if (w != 0) {
        return false;
      }
    }
    return true;
  }

  void Clear() {
    keys_.clear();
    std::fill(words_.begin(), words_.end(), 0);
  }

  // Visits every key: ascending for bitmaps, vector order for lists.
  template <typename F>
  void ForEach(F&& fn) const {
    if (form_ == Form::kList) {
      for (const i64 k : keys_) {
        fn(k);
      }
      return;
    }
    for (size_t w = 0; w < words_.size(); ++w) {
      for (u64 word = words_[w]; word != 0; word &= word - 1) {
        fn(static_cast<i64>(w * 64) + std::countr_zero(word));
      }
    }
  }

  // Visits maximal runs of consecutive keys as fn(first, count), ascending
  // (bitmaps); a list visits each entry as a run of one.
  template <typename F>
  void ForEachRun(F&& fn) const {
    if (form_ == Form::kList) {
      for (const i64 k : keys_) {
        fn(k, i64{1});
      }
      return;
    }
    // A run starts at a set bit whose lower neighbour is clear and ends at a
    // set bit whose upper neighbour is clear; neighbours across a word
    // boundary come from the adjacent words. Starts and ends alternate, so
    // each run costs two bit scans.
    const size_t n = words_.size();
    i64 start = 0;
    for (size_t w = 0; w < n; ++w) {
      const u64 word = words_[w];
      if (word == 0) {
        continue;
      }
      const u64 below = w > 0 ? words_[w - 1] >> 63 : 0;
      const u64 above = w + 1 < n ? words_[w + 1] << 63 : 0;
      u64 starts = word & ~((word << 1) | below);
      u64 ends = word & ~((word >> 1) | above);
      const i64 base = static_cast<i64>(w * 64);
      while (ends != 0) {
        const int e = std::countr_zero(ends);
        ends &= ends - 1;
        if (starts != 0 && std::countr_zero(starts) <= e) {
          start = base + std::countr_zero(starts);
          starts &= starts - 1;
        }
        fn(start, base + e - start + 1);
      }
      if (starts != 0) {  // a run that continues into the next word
        start = base + std::countr_zero(starts);
      }
    }
  }

  const std::vector<i64>& keys() const {
    ORION_CHECK(form_ == Form::kList) << "keys() needs the list form";
    return keys_;
  }

  // Exact number of bytes Serialize() produces.
  size_t SerializedBytes() const {
    if (form_ == Form::kList) {
      return sizeof(u8) + sizeof(u64) + keys_.size() * sizeof(i64);
    }
    return sizeof(u8) + sizeof(i64) + sizeof(u64) + words_.size() * sizeof(u64);
  }

  void Serialize(ByteWriter* w) const {
    w->Reserve(SerializedBytes());
    w->Put<u8>(static_cast<u8>(form_));
    if (form_ == Form::kList) {
      w->PutVec(keys_);
      return;
    }
    w->Put<i64>(total_);
    w->PutVec(words_);
  }

  static KeySet Deserialize(ByteReader* r) {
    const u8 form = r->Get<u8>();
    if (form == static_cast<u8>(Form::kList)) {
      return KeySet(r->GetVec<i64>());
    }
    ORION_CHECK(form == static_cast<u8>(Form::kBitmap)) << "unknown key-set form" << form;
    KeySet s;
    s.form_ = Form::kBitmap;
    s.total_ = r->Get<i64>();
    ORION_CHECK(s.total_ >= 0) << "negative bitmap bound";
    s.words_ = r->GetVec<u64>();
    ORION_CHECK(static_cast<i64>(s.words_.size()) == (s.total_ + 63) / 64)
        << "bitmap of" << s.words_.size() << "words for a key space of" << s.total_;
    if (s.total_ % 64 != 0) {
      ORION_CHECK((s.words_.back() >> (s.total_ % 64)) == 0)
          << "bitmap sets a key past its key space" << s.total_;
    }
    return s;
  }

  friend bool operator==(const KeySet& a, const KeySet& b) {
    return a.form_ == b.form_ && a.total_ == b.total_ && a.keys_ == b.keys_ &&
           a.words_ == b.words_;
  }

 private:
  [[noreturn, gnu::noinline, gnu::cold]] void KeyOutOfRange(i64 key) const {
    internal::CheckFailStream(__FILE__, __LINE__, "key < total_")
        << "key" << key << "outside the bitmap's key space [0," << total_ << ")";
    std::abort();  // not reached: the stream's destructor aborts
  }

  Form form_ = Form::kList;
  i64 total_ = 0;
  std::vector<i64> keys_;   // kList
  std::vector<u64> words_;  // kBitmap
};

}  // namespace orion

#endif  // ORION_SRC_DSM_KEY_SET_H_
