// Arena: alignment, growth, reset coalescing, and the STL allocator shim.
#include "util/arena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace nvmsec {
namespace {

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(8, 8);
  void* c = arena.allocate(16, 16);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 16, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
}

TEST(Arena, MakeSpanValueInitializes) {
  Arena arena;
  const auto s = arena.make_span<double>(64);
  ASSERT_EQ(s.size(), 64u);
  for (double v : s) EXPECT_EQ(v, 0.0);
  const auto t = arena.make_span<std::uint32_t>(0);
  EXPECT_EQ(t.size(), 0u);
}

TEST(Arena, GrowsAcrossBlocksAndResetCoalesces) {
  Arena arena;
  // Force several block additions.
  for (int i = 0; i < 8; ++i) (void)arena.make_span<double>(4096);
  EXPECT_GT(arena.block_count(), 1u);
  const std::size_t grown_capacity = arena.capacity();
  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.block_count(), 1u);
  // The coalesced block holds everything the grown arena held, so the next
  // identical allocation sequence never allocates again.
  EXPECT_GE(arena.capacity(), grown_capacity);
  for (int i = 0; i < 8; ++i) (void)arena.make_span<double>(4096);
  EXPECT_EQ(arena.block_count(), 1u);
}

TEST(Arena, ResetReusesTheSameStorage) {
  Arena arena;
  const auto first = arena.make_span<std::uint64_t>(128);
  void* const first_data = first.data();
  arena.reset();
  const auto second = arena.make_span<std::uint64_t>(128);
  EXPECT_EQ(second.data(), first_data);
  // reset() value-initializes on make_span, not on reset: spans are fresh.
  for (std::uint64_t v : second) EXPECT_EQ(v, 0u);
}

TEST(Arena, MakeSpanZeroesBytesAnEarlierRunDirtied) {
  // Blocks are not zero-filled, so make_span() alone must hand out zeros
  // over recycled bytes: first in the reused single block...
  const auto dirty = [](std::span<std::uint64_t> s) {
    std::fill(s.begin(), s.end(), ~std::uint64_t{0});
  };
  const auto all_zero = [](std::span<const std::uint64_t> s) {
    return std::all_of(s.begin(), s.end(),
                       [](std::uint64_t v) { return v == 0; });
  };
  Arena arena;
  const auto first = arena.make_span<std::uint64_t>(512);
  dirty(first);
  arena.reset();
  ASSERT_EQ(arena.block_count(), 1u);
  const auto again = arena.make_span<std::uint64_t>(512);
  ASSERT_EQ(again.data(), first.data());
  EXPECT_TRUE(all_zero(again));

  // ...then across a multi-block run, its coalesced block, and a second
  // pass over that block.
  for (int pass = 0; pass < 3; ++pass) {
    arena.reset();
    for (int i = 0; i < 8; ++i) {
      const auto s = arena.make_span<std::uint64_t>(4096);
      EXPECT_TRUE(all_zero(s)) << "pass " << pass << " span " << i;
      dirty(s);
    }
  }
  EXPECT_EQ(arena.block_count(), 1u);
}

TEST(ArenaAllocator, BacksStdVector) {
  Arena arena;
  std::vector<int, ArenaAllocator<int>> v{ArenaAllocator<int>(&arena)};
  v.reserve(100);
  for (int i = 0; i < 100; ++i) v.push_back(i);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);
  EXPECT_GE(arena.used(), 100 * sizeof(int));
  EXPECT_TRUE(ArenaAllocator<int>(&arena) == ArenaAllocator<long>(&arena));
}

}  // namespace
}  // namespace nvmsec
