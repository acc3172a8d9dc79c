// Minimal command-line flag parser for the bench/example binaries.
//
// Supports --name=value and --name value forms plus boolean switches.
// Unknown flags and stray positional arguments are errors, so typos in
// experiment sweeps fail loudly instead of silently running the default
// configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace nvmsec {

class CliParser {
 public:
  CliParser(std::string program_description);

  /// Register flags before parse(). `help` appears in usage output.
  void add_flag(const std::string& name, const std::string& help,
                std::string default_value);
  void add_switch(const std::string& name, const std::string& help);

  /// Parse argv. Returns false (after printing usage) when --help was given.
  /// Throws std::invalid_argument on unknown or malformed flags and on any
  /// argument that is not a flag (no tool takes positional arguments).
  bool parse(int argc, const char* const* argv);

  /// Numeric getters parse the whole value or fail: trailing garbage
  /// ("10x"), overflow, and empty values all raise std::invalid_argument
  /// with a one-line "flag --name: ..." message. get_uint additionally
  /// rejects negative values, so unsigned flags can never be silently
  /// wrapped through a signed cast.
  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  [[nodiscard]] std::string usage() const;

 private:
  struct Flag {
    std::string help;
    std::string value;
    bool is_switch{false};
  };

  std::string description_;
  std::map<std::string, Flag> flags_;
};

}  // namespace nvmsec
