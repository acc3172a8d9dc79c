// Crash-safe checkpoint files.
//
// A checkpoint is an opaque payload (produced by Engine::save via the
// component save_state() methods) wrapped in a self-validating container:
//
//   offset  size  field
//   0       8     magic "MXWECKPT"
//   8       4     format version (little-endian u32, currently 5)
//   12      8     payload size in bytes (little-endian u64)
//   20      n     payload
//   20+n    4     CRC-32 of the payload (little-endian u32)
//
// Files are written through AtomicFileWriter (temp file + rename), so a
// crash mid-write leaves the previous checkpoint intact; a torn or
// tampered file is rejected by the size/CRC checks with a structured
// error instead of resuming from garbage.
//
// The container holds the engine's single-run snapshots only. Sweeps and
// fleets record finished items in the append-only journal (sim/journal.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace nvmsec {

inline constexpr char kCheckpointMagic[8] = {'M', 'X', 'W', 'E',
                                             'C', 'K', 'P', 'T'};
// v5: the engine payload gained the attack-detector presence flag and
// state (saved after the fault injector), and LifetimeResult records
// gained the detector/adaptive stat fields (windows, alarms, cadence
// changes).
// v4: the engine payload gained the batched-sampling substream RNG state
// (counts_rng_), saved right after the main simulation RNG, so resumed
// fastpath runs of stochastic attacks continue the same counts sequence.
// v3: LifetimeResult records (sweep checkpoints, fleet shard state) gained
// the wear_gini field; earlier versions are refused.
// v2: the engine payload gained the event-log presence flag and byte
// offset (decision flight recorder).
inline constexpr std::uint32_t kCheckpointVersion = 5;

/// Atomically write `payload` as a checkpoint file at `path`.
[[nodiscard]] Status save_checkpoint_file(const std::string& path,
                                          const std::vector<std::uint8_t>& payload);

/// Read and validate a checkpoint file; returns the payload bytes.
/// Errors: not_found (missing file), io_error (short read / unreadable),
/// corruption (bad magic, size mismatch, CRC mismatch), version_mismatch.
[[nodiscard]] Result<std::vector<std::uint8_t>> load_checkpoint_file(
    const std::string& path);

}  // namespace nvmsec
