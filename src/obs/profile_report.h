// Reader + renderer for the profile JSON the Profiler writes (schema v1,
// obs/profiler.h). Shared by tools/maxwe_profile (the dedicated viewer),
// maxwe_report and fleet_report (--profile sections), and the overhead
// bench, so every consumer agrees on how phases attach to parents and how
// the attributed-fraction gate is computed.
//
// Timings are wall-clock and therefore non-deterministic run to run; the
// *layout* of the rendering is deterministic (enum order in the file,
// total-descending in the flat view), which is what the smoke tests
// assert.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nvmsec {

/// One observed phase from the profile document, in file (= enum) order.
struct ProfilePhaseRow {
  std::string name;
  /// Immediate static parent; empty = root of the taxonomy.
  std::string parent;
  std::uint64_t count{0};
  std::uint64_t total_ns{0};
  std::uint64_t min_ns{0};
  std::uint64_t max_ns{0};
};

/// One pool driver's busy time from the utilization section.
struct ProfileWorkerRow {
  std::uint64_t busy_ns{0};
  std::uint64_t tasks{0};
};

struct ProfileDoc {
  int version{0};
  std::uint64_t wall_ns{0};
  /// Process peak RSS (KiB) when the document was written; 0 when the
  /// writer predates the field or could not read it.
  std::uint64_t peak_rss_kb{0};
  std::vector<ProfilePhaseRow> phases;
  /// (name, value), nonzero counters only, file (= enum) order.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::uint64_t utilization_wall_ns{0};
  std::vector<ProfileWorkerRow> workers;

  /// Counter value by name; 0 when absent (the writer omits zeros).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  /// Sum of total_ns over phases with no *observed* ancestor — the
  /// numerator of the "attributed fraction of wall time" gate. Walks the
  /// static taxonomy for phase names this build knows, so it matches
  /// Profiler::attributed_root_ns exactly on documents this build wrote.
  [[nodiscard]] std::uint64_t attributed_ns() const;

  /// Index into `phases` of the nearest *observed* ancestor of phase `i`,
  /// or npos when the phase renders at the root.
  [[nodiscard]] std::size_t observed_parent(std::size_t i) const;

  static constexpr std::size_t npos = ~std::size_t{0};
};

/// Parse a profile document. Throws std::runtime_error on malformed JSON,
/// a missing/unsupported version, or wrong-type fields.
[[nodiscard]] ProfileDoc parse_profile(std::string_view text);

/// Full rendering: flat table (total-descending), hierarchy tree (self
/// time clamped at >= 0 — overlapping phases such as engine.rescue inside
/// engine.batch.write make the tree approximate; flat totals are exact),
/// counters with derived cache hit rates, worker utilization, and a final
/// "attributed: NN.N% of wall" line that the overhead bench greps.
void render_profile(std::ostream& os, const ProfileDoc& doc);

/// Compact rendering for report embedding: top phases by total time,
/// cache hit rates, utilization summary, peak RSS, attributed line.
void render_profile_summary(std::ostream& os, const ProfileDoc& doc,
                            std::size_t top_phases = 8);

/// Side-by-side baseline diff: per-phase and per-counter deltas.
void render_profile_compare(std::ostream& os, const ProfileDoc& baseline,
                            const ProfileDoc& current);

}  // namespace nvmsec
