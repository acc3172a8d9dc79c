#include "spare/pcd.h"

#include <stdexcept>

namespace nvmsec {

Pcd::Pcd(std::shared_ptr<const EnduranceMap> endurance,
         std::uint64_t degradation_budget, Rng& rng)
    : num_lines_(endurance->geometry().num_lines()),
      degradation_budget_(degradation_budget),
      rng_(rng.fork()) {
  if (num_lines_ > UINT32_MAX) {
    throw std::invalid_argument("Pcd: device exceeds 2^32 lines");
  }
  if (degradation_budget >= num_lines_) {
    throw std::invalid_argument("Pcd: budget must be < line count");
  }
  reset();
}

PhysLineAddr Pcd::working_line(std::uint64_t idx) const {
  if (idx >= num_lines_) {
    throw std::out_of_range("Pcd::working_line: index out of range");
  }
  return PhysLineAddr{idx};
}

void Pcd::mark_dead(PhysLineAddr line) {
  const auto l = static_cast<std::uint32_t>(line.value());
  if (dead_[l]) return;
  dead_[l] = true;
  ++stats_.line_deaths;
  // O(1) removal from the alive list: swap with the tail.
  const std::uint32_t pos = alive_pos_[l];
  const std::uint32_t tail = alive_list_.back();
  alive_list_[pos] = tail;
  alive_pos_[tail] = pos;
  alive_list_.pop_back();
}

void Pcd::rehome(std::uint64_t idx) {
  if (alive_list_.empty()) {
    throw std::logic_error("Pcd::rehome: no survivors (failure missed)");
  }
  backing_[idx] = alive_list_[static_cast<std::size_t>(
      rng_.uniform_u64(alive_list_.size()))];
  ++stats_.replacements;
  bump_mapping_epoch();
}

PhysLineAddr Pcd::resolve(std::uint64_t idx) {
  if (idx >= num_lines_) {
    throw std::out_of_range("Pcd::resolve: index out of range");
  }
  // Lazy repair: the backing may have died while serving another address
  // (several addresses can share a survivor).
  if (dead_[backing_[idx]]) rehome(idx);
  return PhysLineAddr{backing_[idx]};
}

bool Pcd::on_wear_out(std::uint64_t idx) {
  if (idx >= num_lines_) {
    throw std::out_of_range("Pcd::on_wear_out: index out of range");
  }
  mark_dead(PhysLineAddr{backing_[idx]});
  // A death changes the mapping of every index sharing the dead backing
  // line (each is rehomed lazily), not just `idx` — bump even when
  // rehome() will bump again.
  bump_mapping_epoch();
  if (stats_.line_deaths > degradation_budget_) {
    return false;  // capacity guarantee broken
  }
  rehome(idx);
  return true;
}

SpareSchemeStats Pcd::stats() const {
  SpareSchemeStats s = stats_;
  s.spares_remaining = degradation_budget_ - std::min(degradation_budget_,
                                                      stats_.line_deaths);
  return s;
}

void Pcd::save_state(StateWriter& w) const {
  w.u64(stats_.line_deaths);
  w.u64(stats_.replacements);
  w.vec_u32(backing_);
  // alive_list_ order matters: survivors are picked by position, so the
  // exact swap-remove history must be reproduced.
  w.vec_u32(alive_list_);
  rng_.save_state(w);
}

Status Pcd::load_state(StateReader& r) {
  std::uint64_t line_deaths = 0, replacements = 0;
  if (Status st = r.u64(line_deaths); !st.ok()) return st;
  if (Status st = r.u64(replacements); !st.ok()) return st;
  std::vector<std::uint32_t> backing, alive;
  if (Status st = r.vec_u32(backing); !st.ok()) return st;
  if (Status st = r.vec_u32(alive); !st.ok()) return st;
  if (backing.size() != num_lines_ || alive.size() > num_lines_) {
    return Status::corruption("pcd state: table sizes do not fit geometry");
  }
  std::vector<bool> dead(num_lines_, true);
  std::vector<std::uint32_t> alive_pos(num_lines_, 0);
  for (std::uint32_t i = 0; i < alive.size(); ++i) {
    const std::uint32_t l = alive[i];
    if (l >= num_lines_ || !dead[l]) {
      return Status::corruption("pcd state: alive list invalid");
    }
    dead[l] = false;
    alive_pos[l] = i;
  }
  for (std::uint32_t b : backing) {
    if (b >= num_lines_) {
      return Status::corruption("pcd state: backing line out of range");
    }
  }
  if (num_lines_ - alive.size() != line_deaths) {
    return Status::corruption("pcd state: death count inconsistent");
  }
  if (Status st = rng_.load_state(r); !st.ok()) return st;
  stats_ = {};
  stats_.line_deaths = line_deaths;
  stats_.replacements = replacements;
  backing_ = std::move(backing);
  alive_list_ = std::move(alive);
  dead_ = std::move(dead);
  alive_pos_ = std::move(alive_pos);
  bump_mapping_epoch();
  return Status{};
}

void Pcd::reset() {
  bump_mapping_epoch();
  stats_ = {};
  backing_.resize(num_lines_);
  dead_.assign(num_lines_, false);
  alive_list_.resize(num_lines_);
  alive_pos_.resize(num_lines_);
  for (std::uint64_t i = 0; i < num_lines_; ++i) {
    backing_[i] = static_cast<std::uint32_t>(i);
    alive_list_[i] = static_cast<std::uint32_t>(i);
    alive_pos_[i] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace nvmsec
