#include "attack/mixed.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace nvmsec {

namespace {

std::uint64_t parse_writes(const std::string& tok) {
  if (tok.empty()) {
    throw std::invalid_argument("mixed phases: empty write budget");
  }
  std::uint64_t mult = 1;
  std::string digits = tok;
  switch (tok.back()) {
    case 'k':
    case 'K':
      mult = 1000;
      digits.pop_back();
      break;
    case 'm':
    case 'M':
      mult = 1000000;
      digits.pop_back();
      break;
    case 'g':
    case 'G':
      mult = 1000000000;
      digits.pop_back();
      break;
    default:
      break;
  }
  if (digits.empty()) {
    throw std::invalid_argument("mixed phases: bad write budget '" + tok + "'");
  }
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("mixed phases: bad write budget '" + tok +
                                  "'");
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) {
      throw std::invalid_argument("mixed phases: write budget '" + tok +
                                  "' overflows 64 bits");
    }
    value = value * 10 + digit;
  }
  if (value > kMax / mult) {
    throw std::invalid_argument("mixed phases: write budget '" + tok +
                                "' overflows 64 bits");
  }
  return value * mult;
}

}  // namespace

std::vector<MixedPhaseSpec> parse_mixed_phases(const std::string& spec) {
  std::vector<MixedPhaseSpec> phases;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    const std::size_t colon = entry.find(':');
    if (entry.empty() || colon == std::string::npos || colon == 0) {
      throw std::invalid_argument("mixed phases: bad entry '" + entry +
                                  "' (want name:writes)");
    }
    MixedPhaseSpec p;
    p.attack = entry.substr(0, colon);
    p.writes = parse_writes(entry.substr(colon + 1));
    phases.push_back(std::move(p));
    pos = comma + 1;
  }
  if (phases.empty()) {
    throw std::invalid_argument("mixed phases: empty schedule");
  }
  for (std::size_t i = 0; i + 1 < phases.size(); ++i) {
    if (phases[i].writes == 0) {
      throw std::invalid_argument(
          "mixed phases: unbounded phase (writes 0) must be last");
    }
  }
  return phases;
}

MixedAttack::MixedAttack(std::vector<Phase> phases)
    : phases_(std::move(phases)) {
  if (phases_.empty()) {
    throw std::invalid_argument("MixedAttack: empty schedule");
  }
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (!phases_[i].attack) {
      throw std::invalid_argument("MixedAttack: null phase generator");
    }
    if (phases_[i].writes == 0 && i + 1 < phases_.size()) {
      throw std::invalid_argument(
          "MixedAttack: unbounded phase must be last");
    }
    phase_names_.push_back(phases_[i].attack->name());
    if (phases_[i].attack->batch_contract() > contract_) {
      contract_ = phases_[i].attack->batch_contract();
    }
  }
  cyclic_ = phases_.back().writes != 0;
}

std::uint64_t MixedAttack::phase_remaining() const {
  const Phase& p = phases_[phase_idx_];
  if (p.writes == 0) return std::numeric_limits<std::uint64_t>::max();
  return p.writes - phase_written_;
}

void MixedAttack::advance_if_exhausted() {
  while (phases_[phase_idx_].writes != 0 &&
         phase_written_ >= phases_[phase_idx_].writes) {
    phase_written_ = 0;
    if (++phase_idx_ == phases_.size()) {
      // Only reachable when the last phase is bounded (cyclic schedule).
      phase_idx_ = 0;
    }
  }
}

LogicalLineAddr MixedAttack::next(Rng& rng, std::uint64_t user_lines) {
  advance_if_exhausted();
  ++phase_written_;
  return phases_[phase_idx_].attack->next(rng, user_lines);
}

AttackRun MixedAttack::next_run(Rng& rng, std::uint64_t user_lines,
                                std::uint64_t max_len) {
  advance_if_exhausted();
  const std::uint64_t cap = std::min(max_len, phase_remaining());
  AttackRun run = phases_[phase_idx_].attack->next_run(rng, user_lines, cap);
  phase_written_ += run.count;
  return run;
}

bool MixedAttack::next_counts(Rng& rng, std::uint64_t user_lines,
                              std::uint64_t n_writes, WriteCountVector& out) {
  advance_if_exhausted();
  const std::uint64_t n = std::min(n_writes, phase_remaining());
  if (!phases_[phase_idx_].attack->next_counts(rng, user_lines, n, out)) {
    return false;
  }
  phase_written_ += n;
  return true;
}

void MixedAttack::reset() {
  for (auto& p : phases_) p.attack->reset();
  phase_idx_ = 0;
  phase_written_ = 0;
}

void MixedAttack::save_state(StateWriter& w) const {
  w.u64(static_cast<std::uint64_t>(phase_idx_));
  w.u64(phase_written_);
  for (const auto& p : phases_) p.attack->save_state(w);
}

Status MixedAttack::load_state(StateReader& r) {
  std::uint64_t idx = 0, written = 0;
  if (Status st = r.u64(idx); !st.ok()) return st;
  if (Status st = r.u64(written); !st.ok()) return st;
  if (idx >= phases_.size()) {
    return Status::corruption("mixed attack state: phase index out of range");
  }
  if (phases_[idx].writes != 0 && written > phases_[idx].writes) {
    return Status::corruption("mixed attack state: phase position overflow");
  }
  for (auto& p : phases_) {
    if (Status st = p.attack->load_state(r); !st.ok()) return st;
  }
  phase_idx_ = static_cast<std::size_t>(idx);
  phase_written_ = written;
  return Status{};
}

}  // namespace nvmsec
