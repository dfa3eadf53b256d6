// hjembed: packed u64 bitwords for hot-path node bookkeeping.
//
// The batch engine's hot loops used to track "seen this cube node?" /
// "message done?" state in std::vector<bool> or std::set — one bit of
// information behind a proxy reference or a red-black tree node. A
// BitwordSet stores the same membership as raw u64 words: test/set/clear
// are a shift and a mask, count() is a popcount sweep, and iteration
// walks set bits with countr_zero, so scanning a 2^14-node storm cell
// touches 256 cache lines instead of 16k tree nodes. Words are plain
// data, which also makes the type memcpy-cheap to reuse from a
// per-thread scratch arena between verify calls.
#pragma once

#include <bit>
#include <cstring>
#include <vector>

#include "core/common.hpp"

namespace hj {

/// Every mask of exactly `k` set bits among bit positions [0, n), in
/// lexicographic order of the bit positions ({0,1}, {0,2}, ..., {1,2},
/// ...): C(n, k) masks, {0} for k = 0 and none for k > n. Callers that
/// pick the first mask passing a test depend on this order, so it is not
/// the numeric order of the masks.
[[nodiscard]] inline std::vector<u64> masks_of_weight(u32 n, u32 k) {
  std::vector<u64> out;
  if (k > n) return out;
  std::vector<u32> bits(k);
  for (u32 i = 0; i < k; ++i) bits[i] = i;
  for (;;) {
    u64 mask = 0;
    for (const u32 b : bits) mask |= u64{1} << b;
    out.push_back(mask);
    // Advance the last position that can still move; re-pack the rest.
    u32 i = k;
    while (i > 0 && bits[i - 1] + (k - i) + 1 >= n) --i;
    if (i == 0) return out;
    ++bits[i - 1];
    for (u32 j = i; j < k; ++j) bits[j] = bits[j - 1] + 1;
  }
}

/// Fixed-universe bit set over [0, size). All operations are O(1) except
/// the whole-set sweeps (count / for_each_set / reset), which run over
/// size/64 words. Not thread-safe; intended as per-thread scratch.
class BitwordSet {
 public:
  BitwordSet() = default;

  explicit BitwordSet(u64 size) { resize(size); }

  /// Grow/shrink the universe to [0, size). Newly exposed bits are clear;
  /// shrinking clears the tail so a later grow cannot resurrect stale
  /// bits from the old words.
  void resize(u64 size) {
    const u64 want = words_for(size);
    if (size < size_ && want <= words_.size()) {
      // Clear the now-out-of-range tail of the boundary word plus any
      // whole words beyond it, then keep capacity for reuse.
      for (u64 i = size; i < size_ && i < want * 64; ++i)
        words_[i >> 6] &= ~(u64{1} << (i & 63));
      for (u64 w = want; w < words_.size(); ++w) words_[w] = 0;
    }
    words_.resize(want, 0);
    size_ = size;
  }

  [[nodiscard]] u64 size() const noexcept { return size_; }
  [[nodiscard]] u64 words() const noexcept { return words_.size(); }

  void set(u64 i) noexcept {
    assert(i < size_);
    words_[i >> 6] |= u64{1} << (i & 63);
  }

  void clear(u64 i) noexcept {
    assert(i < size_);
    words_[i >> 6] &= ~(u64{1} << (i & 63));
  }

  [[nodiscard]] bool test(u64 i) const noexcept {
    assert(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Set bit i and report whether it was already set — the one-pass
  /// "mark visited, detect collision" operation of the verifier's
  /// injectivity sweep.
  bool test_and_set(u64 i) noexcept {
    assert(i < size_);
    u64& w = words_[i >> 6];
    const u64 mask = u64{1} << (i & 63);
    const bool was = (w & mask) != 0;
    w |= mask;
    return was;
  }

  /// Number of set bits (popcount over the words).
  [[nodiscard]] u64 count() const noexcept {
    u64 n = 0;
    for (u64 w : words_) n += static_cast<u64>(std::popcount(w));
    return n;
  }

  [[nodiscard]] bool none() const noexcept {
    for (u64 w : words_)
      if (w) return false;
    return true;
  }

  [[nodiscard]] bool any() const noexcept { return !none(); }

  /// Zero every bit. O(words); prefer clearing only the bits you set
  /// (via their indices) when the set is sparse relative to the universe.
  void reset() noexcept {
    if (!words_.empty())
      std::memset(words_.data(), 0, words_.size() * sizeof(u64));
  }

  /// Visit the index of every set bit in ascending order.
  template <class Fn>
  void for_each_set(Fn&& fn) const {
    for (u64 wi = 0; wi < words_.size(); ++wi) {
      u64 w = words_[wi];
      while (w) {
        const u64 bit = static_cast<u64>(std::countr_zero(w));
        fn(wi * 64 + bit);
        w &= w - 1;  // drop the lowest set bit
      }
    }
  }

  friend bool operator==(const BitwordSet& a, const BitwordSet& b) noexcept {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  [[nodiscard]] static u64 words_for(u64 size) noexcept {
    return (size + 63) / 64;
  }

  std::vector<u64> words_;
  u64 size_ = 0;
};

}  // namespace hj
