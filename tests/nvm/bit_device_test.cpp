#include "nvm/bit_device.h"

#include <gtest/gtest.h>

#include <memory>

#include "reduction/payload.h"

namespace nvmsec {
namespace {

std::shared_ptr<const EnduranceMap> tiny_map(Endurance e = 100.0) {
  return std::make_shared<EnduranceMap>(
      DeviceGeometry::scaled(8, 2), std::vector<Endurance>{e, e});
}

TEST(BitDeviceTest, ConstructionValidation) {
  Rng rng(1);
  EXPECT_THROW(BitDevice(nullptr, {}, rng), std::invalid_argument);
  BitDeviceParams bad;
  bad.cell_sigma = -0.1;
  EXPECT_THROW(BitDevice(tiny_map(), bad, rng), std::invalid_argument);
}

TEST(BitDeviceTest, FullScaleDeviceRejected) {
  Rng rng(1);
  auto big = std::make_shared<EnduranceMap>(
      DeviceGeometry::paper_1gb(), std::vector<Endurance>(2048, 1e8));
  EXPECT_THROW(BitDevice(big, {}, rng), std::invalid_argument);
}

TEST(BitDeviceTest, ReferenceLifetimeMatchesLineBudgets) {
  Rng rng(2);
  BitDevice d(tiny_map(250.0), {}, rng);
  EXPECT_DOUBLE_EQ(d.reference_lifetime(), 8 * 250.0);
}

TEST(BitDeviceTest, FullWriteStressKillsNearLineEndurance) {
  Rng rng(3);
  BitDeviceParams params;
  params.cell_sigma = 0.05;
  BitDevice d(tiny_map(200.0), params, rng);
  auto codec = make_full_write_codec();
  auto payload = make_random_payload();
  const PhysLineAddr line{0};
  WriteCount writes = 0;
  while (d.write(line, payload->next(rng, LogicalLineAddr{0}), *codec) == BitWriteOutcome::kOk) {
    ++writes;
  }
  // Weakest of 520 cells at sigma 0.05 fails at ~0.85x the mean.
  EXPECT_GT(writes, 120u);
  EXPECT_LT(writes, 210u);
  EXPECT_TRUE(d.is_worn_out(line));
  EXPECT_EQ(d.worn_out_count(), 1u);
  EXPECT_THROW(d.write(line, payload->next(rng, LogicalLineAddr{0}), *codec), std::logic_error);
}

TEST(BitDeviceTest, ConstantDataNeverWearsDifferentialWrite) {
  Rng rng(4);
  BitDevice d(tiny_map(50.0), {}, rng);
  auto codec = make_differential_write_codec();
  const LineData data = LineData::filled(0xABCD);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(d.write(PhysLineAddr{1}, data, *codec), BitWriteOutcome::kOk);
  }
  EXPECT_EQ(d.writes_to(PhysLineAddr{1}), 500u);
  // After the first write nothing flips, so only 16 set bits x 8 words were
  // ever programmed.
  EXPECT_LT(d.total_cells_programmed(), 520u);
}

TEST(BitDeviceTest, EcpEntriesExtendLineLifetime) {
  auto run_with_ecp = [](std::uint32_t entries) {
    Rng rng(5);
    BitDeviceParams params;
    params.cell_sigma = 0.2;
    params.ecp_entries = entries;
    BitDevice d(tiny_map(300.0), params, rng);
    auto codec = make_full_write_codec();
    auto payload = make_random_payload();
    WriteCount writes = 0;
    while (d.write(PhysLineAddr{0}, payload->next(rng, LogicalLineAddr{0}), *codec) ==
           BitWriteOutcome::kOk) {
      ++writes;
    }
    return std::pair{writes, d.ecp_used(PhysLineAddr{0})};
  };
  const auto [w0, used0] = run_with_ecp(0);
  const auto [w6, used6] = run_with_ecp(6);
  EXPECT_GT(w6, w0);
  EXPECT_EQ(used0, 0u);
  EXPECT_EQ(used6, 6u);
}

/// A device of `lines` lines with equal 500-program cell endurance
/// (sigma 0.1): small enough to write every line to death in a test.
BitDevice small_device(std::uint32_t ecp_entries, Rng& rng,
                       std::uint64_t lines = 10) {
  BitDeviceParams params;
  params.cell_sigma = 0.1;
  params.ecp_entries = ecp_entries;
  return BitDevice(std::make_shared<const EnduranceMap>(EnduranceMap::uniform(
                       DeviceGeometry::scaled(lines, 1), 500.0)),
                   params, rng);
}

/// Write every line of `d` to death; mean writes per line, the dying write
/// included.
double wear_out_every_line(BitDevice& d, WriteCodec& codec,
                           PayloadModel& payload, Rng& rng) {
  const std::uint64_t n = d.geometry().num_lines();
  double writes = 0;
  for (std::uint64_t l = 0; l < n; ++l) {
    payload.reset();
    while (d.write(PhysLineAddr{l}, payload.next(rng, LogicalLineAddr{0}),
                   codec) == BitWriteOutcome::kOk) {
    }
    writes += static_cast<double>(d.writes_to(PhysLineAddr{l}));
  }
  return writes / static_cast<double>(n);
}

double cells_per_write(const BitDevice& d) {
  return static_cast<double>(d.total_cells_programmed()) /
         static_cast<double>(d.total_writes());
}

TEST(BitDeviceTest, DifferentialOutlivesFullWriteOnRandomData) {
  // Random data flips ~half the cells per write, so differential write
  // roughly doubles the line lifetime versus always-program.
  Rng rng(4);
  auto payload = make_random_payload();
  auto full = make_full_write_codec();
  auto diff = make_differential_write_codec();
  BitDevice d_full = small_device(0, rng);
  BitDevice d_diff = small_device(0, rng);
  const double ratio = wear_out_every_line(d_diff, *diff, *payload, rng) /
                       wear_out_every_line(d_full, *full, *payload, rng);
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.6);
  EXPECT_DOUBLE_EQ(cells_per_write(d_full), 512.0);
  EXPECT_NEAR(cells_per_write(d_diff), 256.0, 16.0);
}

TEST(BitDeviceTest, FnwOutlivesDifferentialOnComplementData) {
  // Alternating complement data: differential pays every cell every write;
  // FNW pays only flag bits (8 cells worn every write, so the flags become
  // the bottleneck — still a big win).
  Rng rng(5);
  auto payload = make_complement_payload(0x0F0F0F0F0F0F0F0FULL);
  auto fnw = make_flip_n_write_codec();
  auto diff = make_differential_write_codec();
  BitDevice d_diff = small_device(0, rng);
  BitDevice d_fnw = small_device(0, rng);
  EXPECT_GT(wear_out_every_line(d_fnw, *fnw, *payload, rng),
            wear_out_every_line(d_diff, *diff, *payload, rng));
  EXPECT_LT(cells_per_write(d_fnw), cells_per_write(d_diff));
}

TEST(BitDeviceTest, AdversarialPatternNullifiesFnw) {
  // §3.3.2: under the 0x0000/0x5555 alternation FNW loses its advantage
  // entirely — its lifetime matches plain differential write.
  Rng rng(6);
  auto payload = make_fnw_adversarial_payload();
  auto fnw = make_flip_n_write_codec();
  auto diff = make_differential_write_codec();
  BitDevice d_diff = small_device(0, rng);
  BitDevice d_fnw = small_device(0, rng);
  const double ratio = wear_out_every_line(d_fnw, *fnw, *payload, rng) /
                       wear_out_every_line(d_diff, *diff, *payload, rng);
  EXPECT_NEAR(ratio, 1.0, 0.15);
}

TEST(BitDeviceTest, EcpGainIsBoundedUnderUniformStress) {
  // §2.2.2's critique, measured: under always-program stress the k-entry
  // gain is the gap between the weakest and the (k+1)-weakest cell — a few
  // percent, nothing like a spare-line scheme's multiples.
  Rng rng(8);
  auto payload = make_random_payload();
  auto codec = make_full_write_codec();
  BitDevice base = small_device(0, rng);
  BitDevice ecp6 = small_device(6, rng);
  const double gain = wear_out_every_line(ecp6, *codec, *payload, rng) /
                      wear_out_every_line(base, *codec, *payload, rng);
  EXPECT_GT(gain, 1.0);
  EXPECT_LT(gain, 1.5);
}

class EcpEntriesTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EcpEntriesTest, MoreEntriesMeanLongerLifetime) {
  Rng rng(7);
  auto payload = make_random_payload();
  auto codec = make_full_write_codec();
  BitDevice base = small_device(0, rng, 8);
  BitDevice with_ecp = small_device(GetParam(), rng, 8);
  EXPECT_GT(wear_out_every_line(with_ecp, *codec, *payload, rng),
            wear_out_every_line(base, *codec, *payload, rng));
  // A line dies on the first failure past its budget, every entry spent.
  for (std::uint64_t l = 0; l < 8; ++l) {
    EXPECT_EQ(with_ecp.ecp_used(PhysLineAddr{l}), GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(EntryCounts, EcpEntriesTest,
                         ::testing::Values(1u, 2u, 6u, 16u));

TEST(BitDeviceTest, OutOfRangeAccessesThrow) {
  Rng rng(6);
  BitDevice d(tiny_map(), {}, rng);
  auto codec = make_full_write_codec();
  EXPECT_THROW(d.write(PhysLineAddr{8}, LineData{}, *codec),
               std::out_of_range);
  EXPECT_THROW(d.is_worn_out(PhysLineAddr{8}), std::out_of_range);
  EXPECT_THROW(d.writes_to(PhysLineAddr{8}), std::out_of_range);
  EXPECT_THROW(d.ecp_used(PhysLineAddr{8}), std::out_of_range);
}

}  // namespace
}  // namespace nvmsec
