#include "sim/engine.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/maxwe.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sim/checkpoint.h"
#include "sim/wear_report.h"

namespace nvmsec {

Engine::Engine(Device& device, Attack& attack, WearLeveler& wear_leveler,
               SpareScheme& spare_scheme, Rng& rng)
    : device_(device),
      attack_(attack),
      wl_(wear_leveler),
      spare_(spare_scheme),
      rng_(rng),
      counts_rng_(rng.substream(kCountsStreamTag)) {
  if (wl_.working_lines() != spare_.working_lines()) {
    throw std::invalid_argument(
        "Engine: wear leveler and spare scheme disagree on working size");
  }
}

void Engine::set_observer(const Observer& obs) {
  rec_ = RunRecorder(obs, "engine.device_failure");
  device_.set_observer(obs);
  spare_.set_observer(obs);
}

void Engine::set_checkpointing(std::string path, WriteCount interval,
                               std::uint64_t fingerprint) {
  if (path.empty() || interval == 0) {
    throw std::invalid_argument(
        "Engine::set_checkpointing: need a path and a non-zero interval");
  }
  checkpoint_path_ = std::move(path);
  checkpoint_interval_ = interval;
  fingerprint_ = fingerprint;
}

void Engine::set_fault_injection(MetadataFaultInjector* injector,
                                 MaxWe* scheme) {
  if ((injector == nullptr) != (scheme == nullptr)) {
    throw std::invalid_argument(
        "Engine::set_fault_injection: injector and scheme must be set "
        "together");
  }
  injector_ = injector;
  injector_scheme_ = scheme;
}

void Engine::set_detector(AttackDetector* detector,
                          AdaptiveWearLeveler* adaptive) {
  if (detector == nullptr && adaptive != nullptr) {
    throw std::invalid_argument(
        "Engine::set_detector: adaptive control needs a detector");
  }
  detector_ = detector;
  adaptive_ = adaptive;
}

void Engine::capture_state(StateWriter& w) const {
  w.u64(user_writes_);
  w.u64(absorbed_writes_);
  w.u64(overhead_writes_);
  w.u64(line_deaths_);
  rng_.save_state(w);
  counts_rng_.save_state(w);
  device_.save_state(w);
  attack_.save_state(w);
  wl_.save_state(w);
  spare_.save_state(w);
  w.boolean(buffer_ != nullptr);
  if (buffer_ != nullptr) buffer_->save_state(w);
  w.boolean(injector_ != nullptr);
  if (injector_ != nullptr) injector_->save_state(w);
  // Detector state (window accumulators, hysteresis machine, lifetime
  // stats). The adaptive leveler needs no slot of its own: when adaptive
  // control is on, wl_ IS the AdaptiveWearLeveler and its save_state above
  // already carried the controller + wrapped-leveler state.
  w.boolean(detector_ != nullptr);
  if (detector_ != nullptr) detector_->save_state(w);
  // Event-log byte offset, captured after the checkpoint event itself was
  // emitted and flushed: restore truncates the log back to this point, so
  // a resumed run's stream is byte-identical to an uninterrupted one.
  w.boolean(rec_.events() != nullptr);
  if (rec_.events() != nullptr) w.u64(rec_.events()->offset());
}

void Engine::save_checkpoint() {
  if (EventLog* const events = rec_.events()) {
    events->emit("checkpoint",
                 {{"user_writes", static_cast<double>(user_writes_)}});
    events->flush();
  }
  StateWriter w;
  w.u64(fingerprint_);
  capture_state(w);
  // A failed checkpoint write aborts the run loudly: silently continuing
  // would let the user believe the run is resumable when it is not.
  save_checkpoint_file(checkpoint_path_, w.take()).throw_if_error();
}

Status Engine::restore_state(StateReader& r) {
  if (Status st = r.u64(user_writes_); !st.ok()) return st;
  if (Status st = r.u64(absorbed_writes_); !st.ok()) return st;
  if (Status st = r.u64(overhead_writes_); !st.ok()) return st;
  if (Status st = r.u64(line_deaths_); !st.ok()) return st;
  if (Status st = rng_.load_state(r); !st.ok()) return st;
  if (Status st = counts_rng_.load_state(r); !st.ok()) return st;
  if (Status st = device_.load_state(r); !st.ok()) return st;
  if (Status st = attack_.load_state(r); !st.ok()) return st;
  if (Status st = wl_.load_state(r); !st.ok()) return st;
  if (Status st = spare_.load_state(r); !st.ok()) return st;
  bool has_buffer = false;
  if (Status st = r.boolean(has_buffer); !st.ok()) return st;
  if (has_buffer != (buffer_ != nullptr)) {
    return Status::failed_precondition(
        "checkpoint and configuration disagree on the DRAM front buffer");
  }
  if (buffer_ != nullptr) {
    if (Status st = buffer_->load_state(r); !st.ok()) return st;
  }
  bool has_injector = false;
  if (Status st = r.boolean(has_injector); !st.ok()) return st;
  if (has_injector != (injector_ != nullptr)) {
    return Status::failed_precondition(
        "checkpoint and configuration disagree on metadata fault injection");
  }
  if (injector_ != nullptr) {
    if (Status st = injector_->load_state(r); !st.ok()) return st;
  }
  bool has_detector = false;
  if (Status st = r.boolean(has_detector); !st.ok()) return st;
  if (has_detector != (detector_ != nullptr)) {
    return Status::failed_precondition(
        "checkpoint and configuration disagree on attack detection "
        "(--detect)");
  }
  if (detector_ != nullptr) {
    if (Status st = detector_->load_state(r); !st.ok()) return st;
  }
  bool has_events = false;
  if (Status st = r.boolean(has_events); !st.ok()) return st;
  if (has_events != (rec_.events() != nullptr)) {
    return Status::failed_precondition(
        "checkpoint and configuration disagree on the decision event log "
        "(--events-out)");
  }
  if (rec_.events() != nullptr) {
    std::uint64_t offset = 0;
    if (Status st = r.u64(offset); !st.ok()) return st;
    if (Status st = rec_.events()->truncate_to(offset); !st.ok()) return st;
  }
  if (!r.exhausted()) {
    return Status::corruption("checkpoint payload has trailing bytes");
  }
  resumed_ = true;
  return Status{};
}

LifetimeResult Engine::run(WriteCount max_user_writes) {
  LifetimeResult result;
  result.ideal_lifetime = device_.total_budget();
  const ScopedTimer run_span = rec_.span("engine.run");
  Profiler* const prof = rec_.profiler();
  EventLog* const events = rec_.events();
  const ScopedProfPhase prof_span(prof, ProfPhase::kEngineRun);

  if (buffer_ && max_user_writes == 0) {
    throw std::invalid_argument(
        "Engine::run: a DRAM front buffer can absorb a small-footprint "
        "workload forever; set max_user_writes");
  }

  std::vector<WlPhysWrite> batch;
  if (!resumed_) {
    user_writes_ = 0;      // user writes completed (device or buffer)
    absorbed_writes_ = 0;  // subset absorbed by the front buffer
    overhead_writes_ = 0;  // migration writes the device absorbed
    line_deaths_ = 0;
  }
  const DeviceGeometry& geom = device_.geometry();
  rec_.start(geom, &device_);
  if (checkpoint_interval_ > 0) {
    // First boundary strictly ahead of the current position, so a resumed
    // run re-checkpoints on the original cadence instead of immediately.
    next_checkpoint_at_ =
        (user_writes_ / checkpoint_interval_ + 1) * checkpoint_interval_;
  }

  const std::uint64_t logical_lines = wl_.logical_lines();
  // Combined translate∘resolve cache for fast spans. One u64 per logical
  // line: (version << 32) | physical line. An entry is valid while its
  // version is current and its line is not worn out. A spare rescue does
  // not flush: under the resolve_cacheable() contract it remaps only
  // indices whose backing line just died, and every entry naming that line
  // fails the worn-out test on its next lookup. So the spare epoch bumps
  // made by the engine's own on_wear_out() calls and by a miss's resolve()
  // (PCD's lazy rehome) are absorbed. Any other mapping-epoch change (wear
  // leveler remap, metadata scrub, state load, or a rescue that finds the
  // epoch already moved) flushes the whole cache in O(1) by bumping the
  // version; entries are zero-filled only on the (practically unreachable)
  // u32 version wrap. FreeP declines caching because its resolve() charges
  // checkpointed pointer-walk counters.
  const bool cache_resolves = fastpath_ && spare_.resolve_cacheable() &&
                              geom.num_lines() <= UINT32_MAX &&
                              logical_lines <= UINT32_MAX;
  std::vector<std::uint64_t> line_cache;
  std::uint32_t cache_version = 0;
  std::uint64_t seen_wl_epoch = ~0ull;
  std::uint64_t seen_spare_epoch = ~0ull;
  if (cache_resolves) line_cache.assign(logical_lines, 0);

  // Resolve-cache traffic, counted into plain locals (three predictable
  // adds per lookup) and published once at run end — cheap enough to stay
  // on even with no observer attached.
  std::uint64_t resolve_hits = 0;
  std::uint64_t resolve_misses = 0;
  std::uint64_t resolve_flushes = 0;

  const auto resolve_cached = [&](LogicalLineAddr la) -> PhysLineAddr {
    if (wl_.mapping_epoch() != seen_wl_epoch ||
        spare_.mapping_epoch() != seen_spare_epoch) {
      seen_wl_epoch = wl_.mapping_epoch();
      seen_spare_epoch = spare_.mapping_epoch();
      ++resolve_flushes;
      if (++cache_version == 0) {
        std::fill(line_cache.begin(), line_cache.end(), 0);
        cache_version = 1;
      }
    }
    std::uint64_t& slot = line_cache[la.value()];
    const PhysLineAddr cached{slot & 0xffffffffull};
    if ((slot >> 32) == cache_version && !device_.worn_out_unchecked(cached)) {
      ++resolve_hits;
      return cached;
    }
    ++resolve_misses;
    const PhysLineAddr line = spare_.resolve(wl_.translate(la));
    seen_spare_epoch = spare_.mapping_epoch();  // absorb a repair of `la`
    slot = (static_cast<std::uint64_t>(cache_version) << 32) | line.value();
    return line;
  };

  // Wear-out bookkeeping shared by both paths; bit-identical to the seed
  // per-write branch. Returns false when the failure ends the run. Kept
  // out of line: it is rare, and inlining it at its call sites uses up the
  // inlining budget of run() that the per-entry resolve_cached calls in
  // the counts loops need (measured ~10% on a resolve-bound zipf run).
  const auto handle_wear_out = [&](std::uint64_t working_index,
                                   PhysLineAddr line)
                                   __attribute__((noinline)) -> bool {
    const ScopedProfPhase rescue_span(prof, ProfPhase::kEngineRescue);
    if (prof != nullptr) prof->add(ProfCounter::kRescueEvents);
    ++line_deaths_;
    rec_.line_died(line, static_cast<double>(user_writes_));
    const bool cache_current = spare_.mapping_epoch() == seen_spare_epoch;
    const bool rescued = spare_.on_wear_out(working_index);
    if (cache_current) seen_spare_epoch = spare_.mapping_epoch();
    if (rescued) return true;
    rec_.end_of_life(result, working_index, line,
                     static_cast<double>(user_writes_), line_deaths_);
    return false;
  };

  // Close one due detection window: emit the verdict (the raw signals are
  // what the report's ROC sweep re-thresholds post-mortem), the alarm
  // transition events, and feed the alarm level into the adaptive cadence
  // controller when one is attached.
  const auto close_detector_window = [&] {
    const ScopedProfPhase detect_span(prof, ProfPhase::kEngineDetector);
    if (prof != nullptr) prof->add(ProfCounter::kDetectorWindows);
    const AlarmLevel before = detector_->level();
    const WindowVerdict v = detector_->close_window();
    if (events != nullptr) {
      events->emit(
          "detect_window",
          {{"window", static_cast<double>(v.window_index)},
           {"writes", static_cast<double>(v.writes)},
           {"uniformity", v.uniformity},
           {"occupancy", v.occupancy},
           {"sequential", v.sequential},
           {"anomalous", v.anomalous ? 1.0 : 0.0},
           {"kind", attack_kind_name(v.kind)},
           {"level", alarm_level_name(v.level_after)}});
      if (v.level_after == AlarmLevel::kUnderAttack &&
          before != AlarmLevel::kUnderAttack) {
        events->emit("alarm_raised",
                     {{"window", static_cast<double>(v.window_index)},
                      {"kind", attack_kind_name(detector_->kind())}});
      } else if (before == AlarmLevel::kUnderAttack &&
                 v.level_after == AlarmLevel::kBenign) {
        events->emit("alarm_cleared",
                     {{"window", static_cast<double>(v.window_index)}});
      }
    }
    if (adaptive_ != nullptr) {
      const CadenceChange ch =
          adaptive_->on_window(v.level_after, detector_->kind());
      if (ch.changed && events != nullptr) {
        events->emit(
            "cadence_change",
            {{"old_interval", static_cast<double>(ch.old_interval)},
             {"new_interval", static_cast<double>(ch.new_interval)},
             {"step", static_cast<double>(ch.step)}});
      }
    }
  };

  // Exact per-write pipeline (the seed loop body): wear-leveler write path
  // with migration writes, then device writes one by one.
  batch.reserve(16);
  const auto write_one = [&](LogicalLineAddr la) {
    batch.clear();
    wl_.on_write(la, rng_, batch);
    for (const WlPhysWrite& w : batch) {
      const PhysLineAddr line = spare_.resolve(w.working_index);
      const WriteOutcome outcome = device_.write(line);
      // Count only writes the device absorbed: when failure aborts the
      // batch, the unissued remainder must not inflate the lifetime.
      if (w.is_overhead) {
        ++overhead_writes_;
      } else {
        ++user_writes_;
      }
      if (outcome == WriteOutcome::kWornOut) {
        if (!handle_wear_out(w.working_index, line)) break;
      }
    }
  };

  // Count-vector path (stochastic attacks): instead of one address per RNG
  // call, draw how many of the chunk's writes land on each line (an exact
  // multinomial from the dedicated counts substream) and bulk-decrement the
  // wear counters in one SoA pass. Only legal when the attack's declared
  // contract permits reordering (anything but bit-identical), and only
  // worthwhile on large chunks — tiny chunks would pay the multinomial
  // overhead for no batching win, so they fall back to next_run(). Requires
  // the resolve cache (FreeP's per-resolve counters must see every write).
  constexpr std::uint64_t kMinCountsChunk = 256;
  const bool counts_capable =
      fastpath_ && buffer_ == nullptr && cache_resolves &&
      attack_.batch_contract() != BatchContract::kBitIdentical;
  // Cap a chunk at ~1/128 of the device's total write budget so the
  // within-chunk reorder distortion (the documented equivalence slack) stays
  // a small fraction of any lifetime the run can reach.
  const std::uint64_t counts_chunk_cap = std::max<std::uint64_t>(
      1024, static_cast<std::uint64_t>(device_.total_budget()) / 128);
  WriteCountVector counts_vec;
  std::vector<std::uint64_t> phys_scratch;

  // Chunk-size distributions and the attack's batching contract go to the
  // metrics registry; histograms are looked up once, never per chunk.
  HistogramMetric* counts_chunk_hist = nullptr;
  HistogramMetric* batch_span_hist = nullptr;
  if (MetricsRegistry* const m = rec_.metrics()) {
    counts_chunk_hist = &m->histogram("engine.counts_chunk_writes");
    batch_span_hist = &m->histogram("engine.batch_span_writes");
    m->gauge("engine.batch_contract")
        .set(static_cast<double>(attack_.batch_contract()));
  }

  while (!result.failed &&
         (max_user_writes == 0 || user_writes_ < max_user_writes)) {
    // User-write boundary work, in fixed order so checkpoints capture a
    // deterministic point: fault injection first, then the checkpoint
    // (which must include the injector's advance), then observability.
    rec_.at(static_cast<double>(user_writes_));
    // Detection windows close before fault injection and checkpoints so a
    // checkpoint always captures post-close state (a resumed run never
    // re-closes a window). The loop drains multiple boundaries at once:
    // the wear-out position credit can jump user_writes_ past a boundary.
    if (detector_ != nullptr) {
      while (detector_->window_due(user_writes_)) close_detector_window();
    }
    if (injector_ != nullptr && injector_->due(user_writes_)) {
      injector_->inject_and_scrub(*injector_scheme_, device_);
    }
    if (checkpoint_interval_ > 0 && user_writes_ >= next_checkpoint_at_) {
      const ScopedProfPhase ckpt_span(prof, ProfPhase::kEngineCheckpoint);
      save_checkpoint();
      next_checkpoint_at_ += checkpoint_interval_;
    }
    // Snapshot cadence: one pointer check per user write in the no-op mode,
    // one extra integer compare when a snapshot sink is attached.
    if (rec_.snapshot_due(static_cast<double>(user_writes_))) {
      const ScopedProfPhase snap_span(prof, ProfPhase::kEngineSnapshot);
      rec_.snapshot({&device_, &spare_, &wl_, buffer_,
                     static_cast<double>(user_writes_), overhead_writes_,
                     absorbed_writes_},
                    line_deaths_);
    }

    // Batch cap: a run may never cross the write cap, a checkpoint, a
    // snapshot threshold, or a fault-injection point — those all fire in
    // the boundary block above, at exactly the write counts the per-write
    // loop would see. A DRAM buffer keeps the per-write default: its
    // hit/evict decisions are inherently per-address.
    std::uint64_t limit = 1;
    if (fastpath_ && buffer_ == nullptr) {
      limit = max_user_writes == 0
                  ? std::numeric_limits<std::uint64_t>::max()
                  : max_user_writes - user_writes_;
      if (checkpoint_interval_ > 0) {
        limit = std::min(limit, next_checkpoint_at_ - user_writes_);
      }
      if (injector_ != nullptr) {
        limit = std::min(limit, injector_->writes_until_due(user_writes_));
      }
      limit = std::min(limit, rec_.writes_until_snapshot(
                                  static_cast<double>(user_writes_)));
      if (detector_ != nullptr) {
        limit = std::min(limit, detector_->writes_until_window(user_writes_));
      }
      if (limit == 0) limit = 1;  // defensive: the boundary fired above
    }

    if (counts_capable) {
      // Ramp the chunk with elapsed lifetime: a chunk never spans more than
      // ~1/8 of the run so far, so wear-outs (and the spare allocations
      // they trigger) land within 12.5% of their per-write stream
      // positions even when the static cap exceeds the whole lifetime
      // (spare-limited runs die at a small fraction of the total budget).
      const std::uint64_t chunk = std::min(
          {limit, wl_.writes_until_remap(), counts_chunk_cap,
           std::max(kMinCountsChunk, user_writes_ / 8)});
      if (chunk >= kMinCountsChunk) {
        counts_vec.clear();
        const bool drew = [&] {
          const ScopedProfPhase draw_span(prof, ProfPhase::kEngineCountsDraw);
          return attack_.next_counts(counts_rng_, logical_lines, chunk,
                                     counts_vec);
        }();
        if (drew) {
          // A mixed attack stops a counts draw at its phase boundary, so
          // the vector may total fewer than `chunk` — the fatal-position
          // credit below must use the actual total, not the request.
          const std::uint64_t chunk_total = counts_vec.total();
          if (detector_ != nullptr) detector_->observe_counts(counts_vec);
          // Resolve every entry up front under the current mapping epoch,
          // then stream the whole vector through the device. A wear-out
          // hands control back: the spare layer rescues, the unwritten tail
          // entries on the dead line are re-resolved, and the scan resumes
          // at the stopping entry's unabsorbed remainder.
          const std::size_t n_entries = counts_vec.size();
          phys_scratch.resize(n_entries);
          {
            const ScopedProfPhase resolve_span(
                prof, ProfPhase::kEngineCountsResolve);
            for (std::size_t i = 0; i < n_entries; ++i) {
              phys_scratch[i] =
                  resolve_cached(LogicalLineAddr{counts_vec.addrs[i]}).value();
            }
          }
          std::uint64_t issued = 0;
          std::size_t e = 0;
          while (e < n_entries && !result.failed) {
            const BulkCountsResult res = [&] {
              const ScopedProfPhase write_span(
                  prof, ProfPhase::kEngineCountsWrite);
              return device_.write_counts(
                  std::span<const std::uint64_t>(phys_scratch).subspan(e),
                  std::span<const WriteCount>(counts_vec.counts).subspan(e));
            }();
            user_writes_ += res.absorbed;
            issued += res.absorbed;
            if (!res.wore_out) break;
            const std::size_t stop = e + res.entries_done;
            const LogicalLineAddr la{counts_vec.addrs[stop]};
            const PhysLineAddr dead{phys_scratch[stop]};
            const std::uint64_t entry_total = counts_vec.counts[stop];
            counts_vec.counts[stop] -= res.entry_absorbed;
            if (!handle_wear_out(wl_.translate(la), dead)) {
              // Terminal failure: the per-write stream interleaves the
              // chunk's writes uniformly (the chunk is exchangeable for a
              // stationary attack), so the fatal r-th write to the dead
              // line lands at an expected stream position of
              // r*(C+1)/(c+1) within the chunk — not at the SoA scan
              // position, which undercounts by up to a whole chunk when
              // the chunk spans a large fraction of the lifetime. Credit
              // the difference so the reported lifetime follows the
              // per-write law.
              const double est = static_cast<double>(res.entry_absorbed) *
                                 (static_cast<double>(chunk_total) + 1.0) /
                                 (static_cast<double>(entry_total) + 1.0);
              const std::uint64_t fatal_pos =
                  std::min(chunk_total, static_cast<std::uint64_t>(est));
              if (fatal_pos > issued) {
                // The credited writes never reached the device (it is
                // dead); book them as absorbed so device_writes ==
                // user_writes - absorbed + overhead stays exact.
                user_writes_ += fatal_pos - issued;
                absorbed_writes_ += fatal_pos - issued;
                issued = fatal_pos;
              }
              break;
            }
            e = stop;
            if (counts_vec.counts[e] == 0) ++e;
            // Only entries on the dead line can have moved; re-resolve them
            // in ascending order so PCD's rehome draws keep their order. A
            // rescue that left a flush pending re-resolves the whole tail.
            const bool patch_only = spare_.mapping_epoch() == seen_spare_epoch;
            const ScopedProfPhase resolve_span(
                prof, ProfPhase::kEngineCountsResolve);
            for (std::size_t i = e; i < n_entries; ++i) {
              if (patch_only && phys_scratch[i] != dead.value()) continue;
              phys_scratch[i] =
                  resolve_cached(LogicalLineAddr{counts_vec.addrs[i]}).value();
            }
          }
          wl_.commit_batched_writes(issued);
          if (prof != nullptr) {
            prof->add(ProfCounter::kCountsChunks);
            prof->add(ProfCounter::kCountsWrites, issued);
          }
          if (counts_chunk_hist != nullptr) {
            counts_chunk_hist->observe(static_cast<double>(issued));
          }
          continue;
        }
      }
    }

    const AttackRun run = [&] {
      const ScopedProfPhase draw_span(prof, ProfPhase::kEngineBatchDraw);
      return attack_.next_run(rng_, logical_lines, limit);
    }();
    // Observe the request stream at generation time: the run form updates
    // the detector's counters exactly as per-write observes would, so
    // bit-identical attacks keep byte-identical detector state across
    // fastpath on/off. Buffer-absorbed writes are observed too — the
    // detector watches what the attacker issues, not what reaches the NVM.
    if (detector_ != nullptr) {
      detector_->observe_run(run.start.value(), run.count, run.stride);
    }
    if (buffer_ != nullptr) {
      const ScopedProfPhase buffer_span(prof, ProfPhase::kEngineBuffer);
      // limit == 1, so the run is a single write — identical to next().
      const std::optional<LogicalLineAddr> evicted = buffer_->write(run.start);
      if (!evicted) {
        ++user_writes_;
        ++absorbed_writes_;
        continue;
      }
      write_one(*evicted);  // the write-back carries the data to the NVM
      continue;
    }

    std::uint64_t done = 0;
    while (done < run.count && !result.failed) {
      // Static-mapping horizon: how many writes the wear leveler takes
      // without remapping, migrating, or drawing from the RNG. 0 means the
      // leveler declines batching (or a remap is imminent): take the exact
      // per-write path for this write.
      const std::uint64_t horizon = fastpath_ ? wl_.writes_until_remap() : 0;
      if (horizon == 0) {
        // Coalesce the whole burst of consecutive fallback writes into one
        // span: a leveler that declines batching (TLSR, --no-fastpath)
        // funnels *every* write through here, and a per-write clock pair
        // would cost more than the write itself.
        const ScopedProfPhase perwrite_span(prof, ProfPhase::kEnginePerWrite);
        std::uint64_t burst = 0;
        do {
          write_one(run.addr_at(done));
          ++done;
          ++burst;
        } while (done < run.count && !result.failed &&
                 (fastpath_ ? wl_.writes_until_remap() : 0) == 0);
        if (prof != nullptr) {
          prof->add(ProfCounter::kPerWriteFallback, burst);
        }
        continue;
      }
      const std::uint64_t span = std::min(horizon, run.count - done);
      std::uint64_t issued = 0;
      const ScopedProfPhase batch_span(prof, ProfPhase::kEngineBatchWrite);
      if (run.stride == 0 && cache_resolves) {
        // One address hammered repeatedly: resolve once, bulk-decrement the
        // device budget, re-resolve only after a wear-out rescues the data
        // onto a different backing line (the dead line misses the cache).
        while (issued < span && !result.failed) {
          const PhysLineAddr line = resolve_cached(run.start);
          const BulkWriteResult res =
              device_.write_many(line, span - issued);
          user_writes_ += res.absorbed;
          issued += res.absorbed;
          if (res.wore_out &&
              !handle_wear_out(wl_.translate(run.start), line)) {
            break;
          }
        }
      } else {
        // Distinct addresses (sweep segment), or a spare scheme whose
        // resolve() must run once per write (FreeP's pointer-walk stats).
        while (issued < span && !result.failed) {
          const LogicalLineAddr la = run.addr_at(done + issued);
          const PhysLineAddr line = cache_resolves
                                        ? resolve_cached(la)
                                        : spare_.resolve(wl_.translate(la));
          const WriteOutcome outcome = device_.write_unchecked(line);
          ++user_writes_;
          ++issued;
          if (outcome == WriteOutcome::kWornOut &&
              !handle_wear_out(wl_.translate(la), line)) {
            break;
          }
        }
      }
      // Fast-forward the remap cadence by the writes actually issued (the
      // per-write path would have counted each of them, including a fatal
      // final write, before the remap ever fired).
      wl_.commit_batched_writes(issued);
      done += issued;
      if (prof != nullptr) {
        prof->add(ProfCounter::kBatchRuns);
        prof->add(ProfCounter::kBatchWrites, issued);
      }
      if (batch_span_hist != nullptr) {
        batch_span_hist->observe(static_cast<double>(issued));
      }
    }
  }

  result.user_writes = static_cast<double>(user_writes_);
  result.absorbed_writes = absorbed_writes_;
  result.overhead_writes = overhead_writes_;
  result.device_writes = device_.total_writes();
  result.line_deaths = line_deaths_;
  result.wear_gini = analyze_wear(device_).utilization_gini;
  if (detector_ != nullptr) {
    result.windows_observed = detector_->windows_closed();
    result.anomalous_windows = detector_->anomalous_windows();
    result.alarms_raised = detector_->alarms_raised();
    result.windows_in_alarm = detector_->windows_in_alarm();
  }
  if (adaptive_ != nullptr) {
    result.cadence_changes = adaptive_->cadence_changes();
  }

  rec_.finish(result, {&device_, &spare_, &wl_, buffer_});
  // This engine's own metrics: buffer, resolve cache, detector, adaptive.
  if (MetricsRegistry* const m = rec_.metrics()) {
    m->counter("engine.absorbed_writes").set(absorbed_writes_);
    m->counter("engine.resolve_cache_hits").set(resolve_hits);
    m->counter("engine.resolve_cache_misses").set(resolve_misses);
    m->counter("engine.resolve_cache_flushes").set(resolve_flushes);
    if (buffer_ != nullptr) buffer_->publish_metrics(*m);
    if (detector_ != nullptr) {
      m->counter("detect.windows_closed").set(result.windows_observed);
      m->counter("detect.anomalous_windows").set(result.anomalous_windows);
      m->counter("detect.alarms_raised").set(result.alarms_raised);
      m->counter("detect.windows_in_alarm").set(result.windows_in_alarm);
    }
    if (adaptive_ != nullptr) {
      m->counter("adaptive.cadence_changes").set(result.cadence_changes);
    }
  }
  if (prof != nullptr) {
    prof->add(ProfCounter::kResolveCacheHit, resolve_hits);
    prof->add(ProfCounter::kResolveCacheMiss, resolve_misses);
    prof->add(ProfCounter::kResolveCacheFlush, resolve_flushes);
    if (buffer_ != nullptr) {
      const DramBufferStats& bs = buffer_->stats();
      prof->add(ProfCounter::kBufferHit, bs.hits);
      prof->add(ProfCounter::kBufferMiss, bs.misses);
      prof->add(ProfCounter::kBufferEvict, bs.evictions);
    }
  }
  return result;
}

}  // namespace nvmsec
