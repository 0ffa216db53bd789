#ifndef CREW_COMMON_FLAGS_H_
#define CREW_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "crew/common/status.h"

namespace crew {

/// Minimal command-line flag parser for the bench/example binaries.
///
/// Accepts `--name=value` and `--name value`; bare `--name` sets "true".
/// Unknown positional arguments are an error. Parse, then check: every
/// Get* call records the name it reads and any value that fails to parse
/// (a malformed value still returns the default), and CheckAllRead() then
/// rejects the command line if a flag was never read or a value was bad.
/// Example:
///
///   FlagParser flags(argc, argv);
///   int samples = flags.GetInt("samples", 256);
///   uint64_t seed = flags.GetUint64("seed", 7);
///   if (Status s = flags.CheckAllRead(); !s.ok()) { /* report, exit */ }
class FlagParser {
 public:
  FlagParser(int argc, char** argv);

  /// Non-OK if the command line was malformed.
  const Status& status() const { return status_; }

  /// InvalidArgument naming every given flag no Get* call has read (a
  /// typo such as --thread for --threads) and every value that failed to
  /// parse, and listing the flags that were read; OK otherwise. Call it
  /// after the last Get*.
  Status CheckAllRead() const;

  bool Has(std::string_view name) const;
  std::string GetString(std::string_view name, std::string_view def) const;
  int GetInt(std::string_view name, int def) const;
  double GetDouble(std::string_view name, double def) const;
  bool GetBool(std::string_view name, bool def) const;
  uint64_t GetUint64(std::string_view name, uint64_t def) const;

 private:
  /// Value of `name` or nullptr; records the name as read.
  const std::string* Find(std::string_view name) const;
  /// Records that the value of `name` did not parse.
  void BadValue(std::string_view name, const std::string& value) const;

  std::map<std::string, std::string, std::less<>> values_;
  Status status_;
  mutable std::set<std::string, std::less<>> read_;
  mutable std::vector<std::string> bad_values_;
};

}  // namespace crew

#endif  // CREW_COMMON_FLAGS_H_
