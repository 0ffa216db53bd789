#include "crew/common/flags.h"

#include "crew/common/string_util.h"

namespace crew {

FlagParser::FlagParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      status_ = Status::InvalidArgument("unexpected positional argument: " +
                                        std::string(arg));
      return;
    }
    arg.remove_prefix(2);
    size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      values_[std::string(arg)] = "true";
    }
  }
}

const std::string* FlagParser::Find(std::string_view name) const {
  read_.emplace(name);
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

void FlagParser::BadValue(std::string_view name,
                          const std::string& value) const {
  bad_values_.push_back("bad value for --" + std::string(name) + ": '" +
                        value + "'");
}

Status FlagParser::CheckAllRead() const {
  std::vector<std::string> problems;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) problems.push_back("unknown flag --" + name);
  }
  problems.insert(problems.end(), bad_values_.begin(), bad_values_.end());
  if (problems.empty()) return Status::Ok();
  std::string message = Join(problems, "; ") + " (known flags:";
  for (const std::string& name : read_) message += " --" + name;
  return Status::InvalidArgument(message + ")");
}

bool FlagParser::Has(std::string_view name) const {
  return Find(name) != nullptr;
}

std::string FlagParser::GetString(std::string_view name,
                                  std::string_view def) const {
  const std::string* value = Find(name);
  return value == nullptr ? std::string(def) : *value;
}

int FlagParser::GetInt(std::string_view name, int def) const {
  const std::string* value = Find(name);
  if (value == nullptr) return def;
  int v = def;
  if (ParseInt(*value, &v)) return v;
  BadValue(name, *value);
  return def;
}

double FlagParser::GetDouble(std::string_view name, double def) const {
  const std::string* value = Find(name);
  if (value == nullptr) return def;
  double v = def;
  if (ParseDouble(*value, &v)) return v;
  BadValue(name, *value);
  return def;
}

bool FlagParser::GetBool(std::string_view name, bool def) const {
  const std::string* value = Find(name);
  if (value == nullptr) return def;
  const std::string v = AsciiLower(*value);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  BadValue(name, *value);
  return def;
}

uint64_t FlagParser::GetUint64(std::string_view name, uint64_t def) const {
  const std::string* value = Find(name);
  if (value == nullptr) return def;
  uint64_t v = def;
  if (ParseUint64(*value, &v)) return v;
  BadValue(name, *value);
  return def;
}

}  // namespace crew
