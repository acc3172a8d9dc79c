#include "sim/checkpoint.h"

#include <cstring>
#include <fstream>

#include "util/atomic_file.h"
#include "util/crc32.h"

namespace nvmsec {

namespace {
void put_u32(std::ostream& out, std::uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out.write(buf, sizeof(buf));
}

void put_u64(std::ostream& out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out.write(buf, sizeof(buf));
}

bool get_u32(std::istream& in, std::uint32_t& v) {
  unsigned char buf[4];
  if (!in.read(reinterpret_cast<char*>(buf), sizeof(buf))) return false;
  v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{buf[i]} << (8 * i);
  return true;
}

bool get_u64(std::istream& in, std::uint64_t& v) {
  unsigned char buf[8];
  if (!in.read(reinterpret_cast<char*>(buf), sizeof(buf))) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{buf[i]} << (8 * i);
  return true;
}
}  // namespace

Status save_checkpoint_file(const std::string& path,
                            const std::vector<std::uint8_t>& payload) {
  AtomicFileWriter writer(path);
  if (!writer.is_open()) return writer.open_status();
  std::ofstream& out = writer.stream();
  out.write(kCheckpointMagic, sizeof(kCheckpointMagic));
  put_u32(out, kCheckpointVersion);
  put_u64(out, payload.size());
  if (!payload.empty()) {
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
  }
  put_u32(out, crc32(payload.data(), payload.size()));
  return writer.commit();
}

Result<std::vector<std::uint8_t>> load_checkpoint_file(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::not_found("checkpoint '" + path +
                             "' cannot be opened (does it exist?)");
  }
  char magic[sizeof(kCheckpointMagic)];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0) {
    return Status::corruption("'" + path + "' is not a checkpoint file " +
                              "(bad magic)");
  }
  std::uint32_t version = 0;
  if (!get_u32(in, version)) {
    return Status::io_error("checkpoint '" + path + "': truncated header");
  }
  if (version != kCheckpointVersion) {
    return Status::version_mismatch(
        "checkpoint '" + path + "' has format version " +
        std::to_string(version) + "; this build reads version " +
        std::to_string(kCheckpointVersion));
  }
  std::uint64_t size = 0;
  if (!get_u64(in, size)) {
    return Status::io_error("checkpoint '" + path + "': truncated header");
  }
  // Sanity-bound the declared size by the actual file size before
  // allocating (a corrupt length field must not trigger a huge allocation).
  // Compare against the bytes left after the 4-byte CRC rather than
  // computing size + 4, which wraps for a declared size near 2^64.
  const std::istream::pos_type data_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::istream::pos_type file_end = in.tellg();
  if (data_start < 0 || file_end < data_start ||
      static_cast<std::uint64_t>(file_end - data_start) < 4 ||
      size > static_cast<std::uint64_t>(file_end - data_start) - 4) {
    return Status::corruption("checkpoint '" + path +
                              "': payload truncated (declared " +
                              std::to_string(size) + " bytes)");
  }
  in.seekg(data_start);
  std::vector<std::uint8_t> payload(size);
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(payload.data()),
               static_cast<std::streamsize>(size))) {
    return Status::io_error("checkpoint '" + path + "': short read");
  }
  std::uint32_t stored_crc = 0;
  if (!get_u32(in, stored_crc)) {
    return Status::io_error("checkpoint '" + path + "': missing checksum");
  }
  const std::uint32_t actual = crc32(payload.data(), payload.size());
  if (stored_crc != actual) {
    return Status::corruption("checkpoint '" + path +
                              "': CRC mismatch (file damaged?)");
  }
  return payload;
}

}  // namespace nvmsec
