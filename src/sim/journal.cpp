#include "sim/journal.h"

#include <cstring>
#include <filesystem>
#include <iterator>
#include <system_error>

#include "sim/checkpoint.h"
#include "util/crc32.h"

namespace nvmsec {

namespace {

constexpr std::size_t kHeaderBytes = 8 + 4 + 8;
// len(u32) + index(u64) + crc(u32); payload excluded.
constexpr std::size_t kRecordOverhead = 4 + 8 + 4;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

}  // namespace

Result<std::vector<JournalRecord>> Journal::replay(
    const std::string& path, std::uint64_t fingerprint) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::not_found("journal '" + path +
                             "' cannot be opened (does it exist?)");
  }
  // Read whole: replay hands every payload back to the caller anyway.
  const std::vector<unsigned char> bytes{std::istreambuf_iterator<char>(in),
                                         std::istreambuf_iterator<char>()};
  in.close();
  const Status short_header = Status::corruption(
      "journal '" + path + "': file shorter than the header");
  if (bytes.size() < sizeof(kJournalMagic)) return short_header;
  if (std::memcmp(bytes.data(), kJournalMagic, sizeof(kJournalMagic)) != 0) {
    if (std::memcmp(bytes.data(), kCheckpointMagic,
                    sizeof(kCheckpointMagic)) == 0) {
      return Status::version_mismatch(
          "'" + path +
          "' is an MXWECKPT checkpoint, not a journal; sweeps and fleets "
          "resume from append-only MXWEJRNL journals only — delete the file "
          "(the run restarts from its first item) or finish it with the "
          "build that wrote it");
    }
    return Status::corruption("'" + path + "' is not a journal (bad magic)");
  }
  if (bytes.size() < kHeaderBytes) return short_header;
  const std::uint32_t version = get_u32(bytes.data() + 8);
  if (version != kJournalVersion) {
    return Status::version_mismatch(
        "journal '" + path + "' has format version " +
        std::to_string(version) + "; this build reads version " +
        std::to_string(kJournalVersion));
  }
  if (get_u64(bytes.data() + 12) != fingerprint) {
    return Status::failed_precondition(
        "journal '" + path +
        "' was written for a different population spec or run kind (fleet "
        "vs sweep); delete it or restore the original spec");
  }

  std::vector<JournalRecord> records;
  std::size_t good_end = kHeaderBytes;
  while (bytes.size() - good_end >= kRecordOverhead) {
    const std::size_t len = get_u32(bytes.data() + good_end);
    if (bytes.size() - good_end - kRecordOverhead < len) break;  // torn tail
    // index + payload: the CRC-covered span.
    const unsigned char* covered = bytes.data() + good_end + 4;
    if (get_u32(covered + 8 + len) != crc32(covered, 8 + len)) break;
    records.push_back({get_u64(covered), {covered + 8, covered + 8 + len}});
    good_end += kRecordOverhead + len;
  }

  if (good_end < bytes.size()) {
    // Torn tail from a mid-append SIGKILL: drop it so the next append does
    // not splice new bytes onto half a record.
    std::error_code ec;
    std::filesystem::resize_file(path, good_end, ec);
    if (ec) {
      return Status::io_error("journal '" + path +
                              "': cannot truncate torn tail: " + ec.message());
    }
  }
  return records;
}

Status Journal::open(const std::string& path, std::uint64_t fingerprint,
                     bool truncate) {
  path_ = path;
  bytes_written_ = 0;
  const auto mode = std::ios::binary | std::ios::out |
                    (truncate ? std::ios::trunc : std::ios::app);
  out_.open(path, mode);
  if (!out_) {
    return Status::io_error("journal '" + path + "': cannot open for " +
                            (truncate ? "writing" : "appending"));
  }
  if (truncate) {
    std::string header;
    header.append(kJournalMagic, sizeof(kJournalMagic));
    put_u32(header, kJournalVersion);
    put_u64(header, fingerprint);
    out_.write(header.data(), static_cast<std::streamsize>(header.size()));
    out_.flush();
    if (!out_) {
      return Status::io_error("journal '" + path + "': header write failed");
    }
    bytes_written_ += header.size();
  }
  return Status::ok_status();
}

Status Journal::append(std::uint64_t index,
                       const std::vector<std::uint8_t>& payload) {
  if (!out_.is_open()) {
    return Status::failed_precondition("journal: append before open");
  }
  if (payload.size() > UINT32_MAX) {
    return Status::failed_precondition(
        "journal: item payload exceeds the u32 record frame");
  }
  std::string rec;
  rec.reserve(kRecordOverhead + payload.size());
  put_u32(rec, static_cast<std::uint32_t>(payload.size()));
  put_u64(rec, index);
  if (!payload.empty()) {
    rec.append(reinterpret_cast<const char*>(payload.data()), payload.size());
  }
  // CRC covers index + payload (everything after the length field).
  rec.append(4, '\0');
  const std::uint32_t crc = crc32(rec.data() + 4, 8 + payload.size());
  for (int i = 0; i < 4; ++i) {
    rec[rec.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<char>(crc >> (8 * i));
  }
  out_.write(rec.data(), static_cast<std::streamsize>(rec.size()));
  out_.flush();
  if (!out_) {
    return Status::io_error("journal '" + path_ + "': append failed");
  }
  bytes_written_ += rec.size();
  return Status::ok_status();
}

}  // namespace nvmsec
