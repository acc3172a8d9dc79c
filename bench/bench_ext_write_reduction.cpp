// Extension bench (§3.3.2 / §2.2.2): write reduction and salvaging under
// benign vs adversarial data, at cell granularity.
//
// Reproduces the paper's two prose claims as measurements:
//  * "For Flip-N-Write ... an adversary can always write 0x0000 and 0x5555
//    to the same address in turn" — FNW's lifetime gain over differential
//    write vanishes under that pattern;
//  * ECP's per-line salvaging buys only a bounded lifetime slice ("ECP can
//    correct six hard failures per line"), far from a spare-line scheme's
//    multiples.
//
// Every table cell is one BitDevice of `trials` equal-endurance lines, each
// written to death; a line's lifetime is the writes it absorbed, including
// the one that killed it.

#include <iostream>
#include <memory>

#include "nvm/bit_device.h"
#include "reduction/payload.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

struct LineLifetime {
  double writes{0};           ///< mean writes to death per line
  double cells_per_write{0};  ///< data + flag cells programmed per write
};

LineLifetime lines_to_death(const std::string& codec_name,
                            const std::string& payload_name,
                            std::uint32_t ecp_entries, double cell_endurance,
                            std::uint32_t trials, nvmsec::Rng& rng) {
  using namespace nvmsec;
  BitDeviceParams params;
  params.cell_sigma = 0.15;
  params.ecp_entries = ecp_entries;
  BitDevice device(std::make_shared<const EnduranceMap>(EnduranceMap::uniform(
                       DeviceGeometry::scaled(trials, 1), cell_endurance)),
                   params, rng);
  auto codec = make_codec(codec_name);
  auto payload = make_payload(payload_name);
  double writes = 0;
  for (std::uint64_t l = 0; l < trials; ++l) {
    const PhysLineAddr line{l};
    payload->reset();
    while (device.write(line, payload->next(rng, LogicalLineAddr{0}),
                        *codec) == BitWriteOutcome::kOk) {
    }
    writes += static_cast<double>(device.writes_to(line));
  }
  return {writes / trials,
          static_cast<double>(device.total_cells_programmed()) /
              static_cast<double>(device.total_writes())};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nvmsec;
  CliParser cli("Extension: write-reduction codecs and ECP at cell level");
  cli.add_flag("trials", "independent lines per cell", "6");
  cli.add_flag("cell-endurance", "mean cell endurance (scaled)", "2000");
  cli.add_flag("seed", "RNG seed for cell endurances and payloads", "42");
  if (!cli.parse(argc, argv)) return 0;
  const auto trials = static_cast<std::uint32_t>(cli.get_uint("trials"));
  const double cell_endurance = cli.get_double("cell-endurance");

  Rng rng(cli.get_uint("seed"));

  {
    Table table({"payload", "full-write", "differential", "flip-n-write",
                 "FNW gain over differential", "cells/write diff",
                 "cells/write FNW"});
    table.set_title(
        "Write-reduction codecs - line lifetime in writes (cell-level sim)");
    table.set_precision(2);
    for (const std::string payload_name :
         {"random", "complement", "fnw-adversarial"}) {
      std::vector<Cell> row{Cell{payload_name}};
      LineLifetime diff, fnw;
      for (const std::string codec_name : {"full", "differential", "fnw"}) {
        const LineLifetime r = lines_to_death(codec_name, payload_name, 0,
                                              cell_endurance, trials, rng);
        row.push_back(Cell{static_cast<std::int64_t>(r.writes)});
        if (codec_name == "differential") diff = r;
        if (codec_name == "fnw") fnw = r;
      }
      row.push_back(Cell{fnw.writes / diff.writes});
      row.push_back(Cell{diff.cells_per_write});
      row.push_back(Cell{fnw.cells_per_write});
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << "shape target: FNW gain > 1 for benign data, ~1.0 for the "
                 "0x0000/0x5555 alternation (§3.3.2).\n\n";
  }

  {
    Table table({"ECP entries", "lifetime (writes)", "gain vs no ECP"});
    table.set_title(
        "ECP salvaging - line lifetime under always-program stress");
    table.set_precision(2);
    double base = 0;
    for (std::uint32_t entries : {0u, 1u, 2u, 4u, 6u, 12u}) {
      const LineLifetime r = lines_to_death("full", "random", entries,
                                            cell_endurance, trials, rng);
      if (entries == 0) base = r.writes;
      table.add_row({Cell{static_cast<std::int64_t>(entries)},
                     Cell{static_cast<std::int64_t>(r.writes)},
                     Cell{r.writes / base}});
    }
    table.print(std::cout);
    std::cout << "shape target: monotone but saturating gain in the few-"
                 "percent range — §2.2.2's argument that salvaging cannot "
                 "counter wear-out attacks the way spare-line replacement "
                 "does (Max-WE: multiple-x, see bench_tbl_uaa_lifetime).\n";
  }
  return 0;
}
