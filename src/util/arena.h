// Bump-pointer scratch arena for per-worker hot-loop reuse.
//
// The fleet runner executes hundreds of thousands of short device
// simulations per worker; each one used to malloc (and free) the same
// handful of scratch vectors — event-sim death heaps, per-line state
// arrays, SoA write-count buffers. An Arena turns that steady-state churn
// into pointer bumps: allocate() carves from a growing block list, reset()
// recycles every byte without returning memory to the OS, and after the
// first device warms the arena to its peak footprint, subsequent devices
// allocate without touching the system allocator at all.
//
// reset() also coalesces: when a run overflowed into multiple blocks, the
// next reset replaces them with one block sized to the total, so the
// steady state is a single contiguous block and allocation is one branch
// plus a pointer bump.
//
// Only trivially-destructible types may live in an arena (reset() never
// runs destructors); make_span() enforces this at compile time.
// ArenaAllocator adapts the arena to standard containers for scratch
// vectors/heaps whose capacity should be recycled the same way —
// deallocate() is a no-op, so container growth wastes arena bytes until
// the next reset(), which is exactly the bump-allocator bargain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace nvmsec {

class Arena {
 public:
  explicit Arena(std::size_t initial_capacity = 0);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Carve `bytes` aligned to `align` (a power of two). Never returns
  /// nullptr: grows the block list when the current block is exhausted.
  /// allocate(0) returns a valid, unique, aligned pointer. The bytes are
  /// uninitialized: blocks are not zeroed, so idle headroom costs no RSS.
  [[nodiscard]] void* allocate(std::size_t bytes,
                               std::size_t align = alignof(std::max_align_t));

  /// A value-initialized span of `n` trivially-destructible Ts.
  template <typename T>
  [[nodiscard]] std::span<T> make_span(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena::reset() never runs destructors");
    if (n == 0) return {};
    auto* p = static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < n; ++i) new (p + i) T();
    return {p, n};
  }

  /// Recycle every byte. Capacity is retained; a multi-block arena is
  /// coalesced into one block of at least the combined size so the steady
  /// state allocates from a single contiguous block.
  void reset();

  /// Bytes handed out since the last reset (including alignment padding).
  [[nodiscard]] std::size_t used() const { return used_; }
  /// Total bytes owned across all blocks.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size{0};
    std::size_t used{0};
  };

  /// Append a block with room for at least `min_bytes`.
  void add_block(std::size_t min_bytes);

  static constexpr std::size_t kMinBlockBytes = 4096;

  std::vector<Block> blocks_;
  std::size_t current_{0};  // index of the block being bumped
  std::size_t used_{0};
  std::size_t capacity_{0};
};

/// Standard-allocator adapter over a borrowed Arena. deallocate() is a
/// no-op — memory comes back only via Arena::reset(), so use it for
/// scratch containers whose lifetime ends before the reset.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) noexcept {}

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  template <typename U>
  [[nodiscard]] bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_;
};

}  // namespace nvmsec
