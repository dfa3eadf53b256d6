// hjembed: common integer types and bit utilities.
//
// Part of the reproduction of Ho & Johnsson, "Embedding Three-Dimensional
// Meshes in Boolean Cubes by Graph Decomposition", ICPP 1990.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace hj {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// A node of a Boolean cube, identified by its binary address.
/// The library supports cubes of dimension up to 63.
using CubeNode = u64;

/// Linear index of a node in a mesh (row-major over the mesh shape).
using MeshIndex = u64;

/// Hamming distance between two cube node addresses.
[[nodiscard]] constexpr u32 hamming(CubeNode a, CubeNode b) noexcept {
  return static_cast<u32>(std::popcount(a ^ b));
}

/// ceil(log2(x)) for x >= 1. The number of address bits needed to index
/// x distinct values.
[[nodiscard]] constexpr u32 log2_ceil(u64 x) noexcept {
  assert(x >= 1);
  return x <= 1 ? 0u : static_cast<u32>(64 - std::countl_zero(x - 1));
}

/// floor(log2(x)) for x >= 1.
[[nodiscard]] constexpr u32 log2_floor(u64 x) noexcept {
  assert(x >= 1);
  return static_cast<u32>(63 - std::countl_zero(x));
}

/// The paper's ceil2 operator: 2^ceil(log2 x), the smallest power of two
/// that is >= x. Written |x|_2 in the paper.
[[nodiscard]] constexpr u64 ceil_pow2(u64 x) noexcept {
  return u64{1} << log2_ceil(x);
}

[[nodiscard]] constexpr bool is_pow2(u64 x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// splitmix64's finalizer: a well-mixed 64-bit hash of `x`.
[[nodiscard]] constexpr u64 mix_bits(u64 x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// splitmix64 of counter `x`. Seeded streams (route_balanced's
/// permutations, fault schedules, storms) hash counters with it, so each
/// is a pure function of its seed with no hidden RNG state.
[[nodiscard]] constexpr u64 mix64(u64 x) noexcept {
  return mix_bits(x + 0x9e3779b97f4a7c15ull);
}

/// Throwing precondition check used on public API boundaries. Internal
/// invariants use assert().
inline void require(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}

/// Formatted variant: require(ok, "index %llu out of range [0, %llu)", i, n)
/// throws std::invalid_argument with the offending values interpolated.
/// printf semantics; the message is built only on failure, so the fast path
/// stays a branch.
template <class... Args>
  requires(sizeof...(Args) > 0)
void require(bool cond, const char* fmt, Args... args) {
  if (cond) [[likely]]
    return;
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  throw std::invalid_argument(buf);
}

}  // namespace hj
