#include "util/arena.h"

#include <algorithm>
#include <bit>

namespace nvmsec {

Arena::Arena(std::size_t initial_capacity) {
  if (initial_capacity > 0) add_block(initial_capacity);
}

void Arena::add_block(std::size_t min_bytes) {
  // Geometric growth over the arena's total footprint keeps the number of
  // blocks (and mallocs) logarithmic in the peak working-set size.
  const std::size_t target =
      std::max({min_bytes, kMinBlockBytes, capacity_});
  Block b;
  b.data = std::make_unique_for_overwrite<std::byte[]>(target);
  b.size = target;
  capacity_ += target;
  blocks_.push_back(std::move(b));
  current_ = blocks_.size() - 1;
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (blocks_.empty()) add_block(bytes + align);
  for (;;) {
    Block& b = blocks_[current_];
    const auto base = reinterpret_cast<std::uintptr_t>(b.data.get());
    const std::size_t aligned =
        (b.used + (align - 1)) & ~(align - 1);
    // `base` is new[]-aligned (max_align_t); offset alignment suffices.
    (void)base;
    const std::size_t want = bytes == 0 ? std::max<std::size_t>(align, 1)
                                        : bytes;
    if (aligned + want <= b.size) {
      used_ += (aligned - b.used) + want;
      b.used = aligned + want;
      return b.data.get() + aligned;
    }
    if (current_ + 1 < blocks_.size()) {
      ++current_;
      continue;
    }
    add_block(want + align);
  }
}

void Arena::reset() {
  if (blocks_.size() > 1) {
    // Coalesce so the steady state is one contiguous block: drop every
    // block and re-allocate their combined size in a single piece.
    const std::size_t total = capacity_;
    blocks_.clear();
    capacity_ = 0;
    add_block(total);
  }
  for (Block& b : blocks_) b.used = 0;
  current_ = 0;
  used_ = 0;
}

}  // namespace nvmsec
