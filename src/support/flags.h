// Minimal command-line flag parser for the bench and example binaries.
// Syntax: --name=value or --name value. The strict form also rejects flag
// names it was not told about, so a typo (or `--help`) fails loudly instead
// of silently running with defaults.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

namespace support {

class Flags {
 public:
  // Parses argv; exits(2) with a message on malformed input.
  Flags(int argc, char** argv);
  // Strict: additionally exits(2), printing `usage` to stderr, when argv
  // names a flag outside `known`.
  Flags(int argc, char** argv, std::initializer_list<std::string_view> known,
        const char* usage);

  bool has(const std::string& name) const { return values_.count(name) > 0; }
  std::string get(const std::string& name, const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace support
