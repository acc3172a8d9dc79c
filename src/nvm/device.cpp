#include "nvm/device.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nvmsec {

Device::Device(std::shared_ptr<const EnduranceMap> endurance)
    : endurance_(std::move(endurance)) {
  if (!endurance_) {
    throw std::invalid_argument("Device: endurance map is null");
  }
  const std::uint64_t n = endurance_->geometry().num_lines();
  budget_.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    budget_[i] = endurance_->write_budget(PhysLineAddr{i});
    total_budget_ += static_cast<double>(budget_[i]);
  }
  remaining_ = budget_;
}

WriteOutcome Device::write(PhysLineAddr line) {
  if (!geometry().contains(line)) {
    throw std::out_of_range("Device::write: line out of range");
  }
  if (remaining_[line.value()] == 0) {
    throw std::logic_error(
        "Device::write: write to a worn-out line (spare layer must redirect)");
  }
  return write_unchecked(line);
}

BulkWriteResult Device::write_many(PhysLineAddr line, WriteCount count) {
  if (!geometry().contains(line)) {
    throw std::out_of_range("Device::write_many: line out of range");
  }
  if (count == 0) {
    throw std::invalid_argument("Device::write_many: count must be >= 1");
  }
  WriteCount& rem = remaining_[line.value()];
  if (rem == 0) {
    throw std::logic_error(
        "Device::write_many: write to a worn-out line (spare layer must "
        "redirect)");
  }
  BulkWriteResult res;
  res.absorbed = std::min(count, rem);
  total_writes_ += res.absorbed;
  rem -= res.absorbed;
  if (rem == 0) {
    note_wear_out(line);
    res.wore_out = true;
  }
  return res;
}

BulkCountsResult Device::write_counts(std::span<const std::uint64_t> lines,
                                      std::span<const WriteCount> counts) {
  if (lines.size() != counts.size()) {
    throw std::invalid_argument("Device::write_counts: span length mismatch");
  }
  const std::uint64_t num_lines = geometry().num_lines();
  BulkCountsResult res;
  // Tight SoA loop: two flat input arrays against the flat remaining_
  // vector. No virtual dispatch, no per-write branching — the only cold
  // exit is the first wear-out, which returns control to the engine so the
  // spare layer can rescue and the stale tail can be re-resolved.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::uint64_t l = lines[i];
    if (l >= num_lines) {
      throw std::out_of_range("Device::write_counts: line out of range");
    }
    WriteCount& rem = remaining_[l];
    if (rem == 0) {
      throw std::logic_error(
          "Device::write_counts: write to a worn-out line (spare layer must "
          "redirect)");
    }
    const WriteCount take = std::min(counts[i], rem);
    rem -= take;
    res.absorbed += take;
    if (rem == 0) {
      total_writes_ += res.absorbed;
      res.entries_done = i;
      res.entry_absorbed = take;
      res.wore_out = true;
      note_wear_out(PhysLineAddr{l});
      return res;
    }
  }
  total_writes_ += res.absorbed;
  res.entries_done = lines.size();
  return res;
}

WriteOutcome Device::note_wear_out(PhysLineAddr line) {
  ++worn_out_count_;
  if (wear_outs_ != nullptr) wear_outs_->inc();
  if (obs_.trace != nullptr) {
    obs_.trace->instant(
        "wear_out",
        {{"line", static_cast<double>(line.value())},
         {"region", static_cast<double>(geometry().region_of(line).value())},
         {"worn_out_lines", static_cast<double>(worn_out_count_)}});
  }
  return WriteOutcome::kWornOut;
}

void Device::set_observer(const Observer& obs) {
  obs_ = obs;
  wear_outs_ =
      obs.metrics != nullptr ? &obs.metrics->counter("device.wear_outs")
                             : nullptr;
}

WriteCount Device::write_budget(PhysLineAddr line) const {
  if (!geometry().contains(line)) {
    throw std::out_of_range("Device::write_budget: line out of range");
  }
  return budget_[line.value()];
}

WriteCount Device::remaining(PhysLineAddr line) const {
  if (!geometry().contains(line)) {
    throw std::out_of_range("Device::remaining: line out of range");
  }
  return remaining_[line.value()];
}

bool Device::is_worn_out(PhysLineAddr line) const {
  return remaining(line) == 0;
}

WriteCount Device::writes_to(PhysLineAddr line) const {
  if (!geometry().contains(line)) {
    throw std::out_of_range("Device::writes_to: line out of range");
  }
  return budget_[line.value()] - remaining_[line.value()];
}

void Device::weaken(PhysLineAddr line, WriteCount remaining) {
  if (!geometry().contains(line)) {
    throw std::out_of_range("Device::weaken: line out of range");
  }
  if (remaining == 0) {
    throw std::invalid_argument(
        "Device::weaken: remaining must be >= 1 (the line dies through a "
        "write, not by fiat)");
  }
  WriteCount& rem = remaining_[line.value()];
  if (rem == 0) {
    throw std::logic_error("Device::weaken: line already worn out");
  }
  rem = std::min(rem, remaining);
}

void Device::reset() {
  remaining_ = budget_;
  total_writes_ = 0;
  worn_out_count_ = 0;
}

void Device::rebind(std::shared_ptr<const EnduranceMap> endurance) {
  if (!endurance) {
    throw std::invalid_argument("Device::rebind: endurance map is null");
  }
  endurance_ = std::move(endurance);
  const std::uint64_t n = endurance_->geometry().num_lines();
  budget_.resize(n);
  total_budget_ = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    budget_[i] = endurance_->write_budget(PhysLineAddr{i});
    total_budget_ += static_cast<double>(budget_[i]);
  }
  remaining_ = budget_;
  total_writes_ = 0;
  worn_out_count_ = 0;
  // Fresh-construction equivalence: a new Device has no observer attached.
  obs_ = Observer{};
  wear_outs_ = nullptr;
}

void Device::save_state(StateWriter& w) const {
  w.u64(total_writes_);
  w.u64(worn_out_count_);
  w.vec_u64(remaining_);
}

Status Device::load_state(StateReader& r) {
  std::uint64_t total_writes = 0, worn_out = 0;
  if (Status st = r.u64(total_writes); !st.ok()) return st;
  if (Status st = r.u64(worn_out); !st.ok()) return st;
  std::vector<WriteCount> remaining;
  if (Status st = r.vec_u64(remaining); !st.ok()) return st;
  if (remaining.size() != budget_.size()) {
    return Status::corruption("device state: line count " +
                              std::to_string(remaining.size()) +
                              " != configured " +
                              std::to_string(budget_.size()));
  }
  std::uint64_t dead = 0;
  for (std::uint64_t i = 0; i < remaining.size(); ++i) {
    if (remaining[i] > budget_[i]) {
      return Status::corruption(
          "device state: line " + std::to_string(i) +
          " has more remaining writes than its budget (endurance map "
          "mismatch?)");
    }
    if (remaining[i] == 0) ++dead;
  }
  if (dead != worn_out) {
    return Status::corruption("device state: worn-out count inconsistent");
  }
  remaining_ = std::move(remaining);
  total_writes_ = total_writes;
  worn_out_count_ = worn_out;
  return Status{};
}

}  // namespace nvmsec
