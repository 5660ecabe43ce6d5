// Runtime-dispatched SIMD kernels for the data plane's byte-moving loops.
//
// The hot inner loops of the engine — snapshot gathers, deferred applies,
// page clones — all reduce to two primitives over f32 spans: copy and
// lane-wise add. These are dispatched once at startup to the widest
// instruction set the CPU supports (AVX2 > SSE2 > scalar) and can be forced
// down a level for tests and benchmarks.
//
// Determinism contract: AddF32 performs exactly one IEEE-754 addition per
// lane — dst[i] += src[i] — regardless of dispatch level (spans of up to
// kInlineLanes lanes skip dispatch and run the scalar loop inline).
// Vectorization is across the independent lanes of one cell (value_dim),
// never across fold order, so accumulation results are bit-for-bit
// identical to the scalar loop at every level.
#ifndef ORION_SRC_COMMON_SIMD_H_
#define ORION_SRC_COMMON_SIMD_H_

#include <algorithm>
#include <atomic>
#include <cstddef>

#include "src/common/types.h"

namespace orion {
namespace simd {

enum class Level : int {
  kScalar = 0,
  kSSE2 = 1,
  kAVX2 = 2,
};

// Widest level this CPU supports (decided once, at startup).
Level BestSupportedLevel();

// Level the kernels currently dispatch to.
Level ActiveLevel();

const char* LevelName(Level level);

// Test/bench seam: force dispatch to `level`, clamped to what the CPU
// supports. Not thread-safe against concurrent kernel calls in the sense of
// choosing which level serves them (results are identical at every level, so
// a racing call merely runs the old kernel); call from a quiesced state in
// tests anyway.
void ForceLevel(Level level);

// Restores dispatch to BestSupportedLevel().
void ResetLevel();

namespace internal {
using KernelFn = void (*)(f32*, const f32*, size_t);
// The kernels of the active level. Constant-initialized to the scalar ones,
// so calls from other static initializers are safe before startup picks
// the detected level.
extern std::atomic<KernelFn> g_copy;
extern std::atomic<KernelFn> g_add;
}  // namespace internal

// Spans of at most this many lanes (one cell of a scalar or short-vector
// array) run an inline scalar loop: an indirect call costs more than the
// lanes. Longer spans call the active level's kernel directly. A one-lane
// span (a scalar cell) is a single move or add: the compiler turns a
// runtime-length copy or fill loop into a memcpy/memset call, which costs
// several times the lane.
inline constexpr size_t kInlineLanes = 4;

// dst[i] = src[i] for i in [0, n). Spans must not overlap.
inline void CopyF32(f32* dst, const f32* src, size_t n) {
  if (n == 1) {
    *dst = *src;
    return;
  }
  if (n > kInlineLanes) {
    internal::g_copy.load(std::memory_order_relaxed)(dst, src, n);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    dst[i] = src[i];
  }
}

// dst[i] += src[i] for i in [0, n). One IEEE add per lane at every level.
inline void AddF32(f32* dst, const f32* src, size_t n) {
  if (n == 1) {
    *dst += *src;
    return;
  }
  if (n > kInlineLanes) {
    internal::g_add.load(std::memory_order_relaxed)(dst, src, n);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    dst[i] += src[i];
  }
}

// dst[i] = 0 for i in [0, n).
inline void ZeroF32(f32* dst, size_t n) {
  if (n == 1) {
    *dst = 0.0f;
    return;
  }
  std::fill_n(dst, n, 0.0f);
}

}  // namespace simd
}  // namespace orion

#endif  // ORION_SRC_COMMON_SIMD_H_
