// Append-only completion journal.
//
// The crash-safety store of every fan-out runner: seed and spare sweeps
// (sim/parallel.h) and fleet campaigns (sim/fleet.h). A full-state rewrite
// after every completed item costs O(items_done) bytes per completion and
// O(items^2) over a run; the journal appends one CRC-framed record per
// completed item instead, so a run writes O(total item state) bytes and
// each completion costs O(one item).
//
// File layout:
//
//   offset  size  field
//   0       8     magic "MXWEJRNL"
//   8       4     format version (little-endian u32, currently 1)
//   12      8     header fingerprint (little-endian u64)
//   20      ...   records, back to back
//
// Record layout:
//
//   offset  size  field
//   0       4     payload size n (little-endian u32)
//   4       8     item index (little-endian u64)
//   12      n     payload (the runner's item state)
//   12+n    4     CRC-32 of bytes [4, 12+n) (little-endian u32)
//
// The header fingerprint names what the journal belongs to: a fleet stores
// its population-spec fingerprint, a sweep one fixed sweep tag (each sweep
// record carries its own config fingerprint in the payload instead). A
// replay under a different fingerprint is refused, so a sweep never resumes
// from a fleet's journal or the other way round.
//
// Appends are plain writes + flush, not atomic renames: a SIGKILL can tear
// the last record. Recovery relies on the framing instead — replay() walks
// records until the first short or CRC-failing one and truncates the file
// there, so a torn tail costs exactly the item that was being written
// (which the resumed run re-runs). Records never mutate once their CRC has
// hit the disk, so everything before the tail is trustworthy.
//
// An index may legitimately appear more than once (a resumed run appends to
// the same file); the last valid record for an index wins.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/status.h"

namespace nvmsec {

inline constexpr char kJournalMagic[8] = {'M', 'X', 'W', 'E',
                                          'J', 'R', 'N', 'L'};
inline constexpr std::uint32_t kJournalVersion = 1;

/// One recovered record from Journal::replay().
struct JournalRecord {
  std::uint64_t index{0};
  std::vector<std::uint8_t> payload;
};

class Journal {
 public:
  /// Parse an existing journal at `path`: validate the header against
  /// `fingerprint`, walk the records, truncate any torn tail in place, and
  /// return the valid records in file order. Errors: not_found (no file),
  /// version_mismatch (legacy MXWECKPT checkpoint or a future journal
  /// version), failed_precondition (foreign fingerprint), corruption (bad
  /// magic / header), io_error.
  [[nodiscard]] static Result<std::vector<JournalRecord>> replay(
      const std::string& path, std::uint64_t fingerprint);

  Journal() = default;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open `path` for appending. `truncate` starts a fresh journal (header
  /// rewritten); otherwise records append after the existing valid content
  /// (callers must have run replay() first so the torn tail is gone).
  [[nodiscard]] Status open(const std::string& path, std::uint64_t fingerprint,
                            bool truncate);

  /// Append one item record and flush it to the OS.
  [[nodiscard]] Status append(std::uint64_t index,
                              const std::vector<std::uint8_t>& payload);

  [[nodiscard]] bool is_open() const { return out_.is_open(); }

  /// Bytes this process has appended (header included when it wrote one):
  /// the run's checkpoint-write cost, surfaced in the fleet heartbeat.
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  std::ofstream out_;
  std::string path_;
  std::uint64_t bytes_written_{0};
};

}  // namespace nvmsec
