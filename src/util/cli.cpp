#include "util/cli.h"

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace nvmsec {

namespace {

// strtoll/strtoull/strtod with the full error surface mapped to one-line
// messages: empty value, leading junk, trailing junk, and range overflow
// each produce a distinct, actionable diagnostic instead of std::stoul's
// exception text (or, worse, its silent acceptance of "10abc").
[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const std::string& why) {
  throw std::invalid_argument("flag --" + name + ": " + why + ": '" + value +
                              "'");
}

void check_tail(const std::string& name, const std::string& value,
                const char* end) {
  if (end == value.c_str()) bad_value(name, value, "not a number");
  if (*end != '\0') bad_value(name, value, "trailing characters after number");
}

}  // namespace

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {
  add_switch("help", "Show this help message");
}

void CliParser::add_flag(const std::string& name, const std::string& help,
                         std::string default_value) {
  flags_[name] = Flag{help, std::move(default_value), false};
}

void CliParser::add_switch(const std::string& name, const std::string& help) {
  flags_[name] = Flag{help, "false", true};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument '" + arg +
                                  "': every argument must be a --flag");
    }
    arg.erase(0, 2);
    std::string name = arg;
    std::optional<std::string> inline_value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      throw std::invalid_argument("unknown flag: --" + name + "\n" + usage());
    }
    Flag& flag = it->second;
    if (flag.is_switch) {
      if (inline_value && *inline_value != "true" && *inline_value != "false") {
        throw std::invalid_argument("switch --" + name +
                                    " takes only true/false");
      }
      flag.value = inline_value.value_or("true");
    } else if (inline_value) {
      flag.value = *inline_value;
    } else {
      if (i + 1 >= argc) {
        throw std::invalid_argument("flag --" + name + " needs a value");
      }
      flag.value = argv[++i];
    }
  }
  if (get_bool("help")) {
    std::cout << usage();
    return false;
  }
  return true;
}

std::string CliParser::get_string(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::invalid_argument("get_string: unregistered flag --" + name);
  }
  return it->second.value;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  const std::string v = get_string(name);
  if (v.empty()) bad_value(name, v, "empty value, expected an integer");
  errno = 0;
  char* end = nullptr;
  const long long out = std::strtoll(v.c_str(), &end, 10);
  check_tail(name, v, end);
  if (errno == ERANGE) {
    bad_value(name, v, "integer out of range (64-bit signed)");
  }
  return out;
}

std::uint64_t CliParser::get_uint(const std::string& name) const {
  const std::string v = get_string(name);
  if (v.empty()) bad_value(name, v, "empty value, expected a non-negative integer");
  // strtoull happily wraps "-1" to 2^64-1; reject any minus sign up front.
  if (v.find('-') != std::string::npos) {
    bad_value(name, v, "must be a non-negative integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long out = std::strtoull(v.c_str(), &end, 10);
  check_tail(name, v, end);
  if (errno == ERANGE) {
    bad_value(name, v, "integer out of range (64-bit unsigned)");
  }
  return out;
}

double CliParser::get_double(const std::string& name) const {
  const std::string v = get_string(name);
  if (v.empty()) bad_value(name, v, "empty value, expected a number");
  errno = 0;
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  check_tail(name, v, end);
  if (errno == ERANGE) bad_value(name, v, "number out of range");
  return out;
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string v = get_string(name);
  if (v == "true") return true;
  if (v == "false") return false;
  throw std::invalid_argument("flag --" + name + ": not a boolean: " + v);
}

std::string CliParser::usage() const {
  std::ostringstream out;
  out << description_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name;
    if (!flag.is_switch) out << "=<value> (default: " << flag.value << ")";
    out << "\n      " << flag.help << "\n";
  }
  return out.str();
}

}  // namespace nvmsec
