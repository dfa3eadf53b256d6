// The seeded shape generator of the planner property harness, shared
// with the reference differential so both see the same 520 shapes.
#pragma once

#include <iterator>
#include <random>

#include "core/shape.hpp"

namespace hj::property {

inline constexpr u64 kSeed = 0x90901234;
inline constexpr int kShapes = 520;       // >= 500 planner trials
inline constexpr u64 kMaxNodes = 1 << 15; // keeps the suite fast under ASan

/// Axis generator mixing the regimes the paper cares about: exact powers
/// of two (Gray-minimal), odd lengths (worst rounding), and the
/// 3*2^a / 7*2^a "paper-shaped" families behind methods 3-4.
inline u64 random_axis(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      return u64{1} << (rng() % 7);  // 1..64, power of two
    case 1:
      return 3 + 2 * (rng() % 31);   // odd in [3, 63]
    case 2: {
      static constexpr u64 paper[] = {3, 5, 6, 7, 9, 11, 12, 14, 17,
                                      21, 23, 24, 25, 28, 48, 56};
      return paper[rng() % std::size(paper)];
    }
    default:
      return 1 + rng() % 64;         // uniform [1, 64]
  }
}

inline Shape random_shape(std::mt19937_64& rng, u32 min_rank, u32 max_rank) {
  for (;;) {
    const u32 rank = min_rank + static_cast<u32>(rng() % (max_rank - min_rank + 1));
    SmallVec<u64, 4> ext;
    u64 nodes = 1;
    for (u32 d = 0; d < rank; ++d) {
      ext.push_back(random_axis(rng));
      nodes *= ext.back();
    }
    if (nodes <= kMaxNodes) return Shape{ext};
  }
}

}  // namespace hj::property
