#include "io/args.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace mobsrv::io {

Args::Args(int argc, const char* const* argv) {
  MOBSRV_CHECK(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
}

std::vector<std::string> Args::flag_names() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& entry : flags_) names.push_back(entry.first);
  return names;  // flags_ is an ordered map, so this is already sorted
}

std::optional<std::string> Args::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_string(const std::string& name, const std::string& fallback) const {
  return get(name).value_or(fallback);
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  try {
    std::size_t used = 0;
    const double parsed = std::stod(*v, &used);
    if (used != v->size()) throw std::invalid_argument(*v);
    return parsed;
  } catch (const std::exception&) {
    throw ContractViolation("flag --" + name + " expects a number, got '" + *v + "'");
  }
}

int Args::get_int(const std::string& name, int fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  try {
    std::size_t used = 0;
    const int parsed = std::stoi(*v, &used);
    if (used != v->size()) throw std::invalid_argument(*v);
    return parsed;
  } catch (const std::exception&) {
    throw ContractViolation("flag --" + name + " expects an integer, got '" + *v + "'");
  }
}

std::uint64_t Args::get_uint64(const std::string& name, std::uint64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  try {
    std::size_t used = 0;
    const unsigned long long parsed = std::stoull(*v, &used);
    if (used != v->size() || v->front() == '-') throw std::invalid_argument(*v);
    return static_cast<std::uint64_t>(parsed);
  } catch (const std::exception&) {
    throw ContractViolation("flag --" + name + " expects an unsigned 64-bit integer, got '" + *v +
                            "'");
  }
}

bool Args::get_bool(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw ContractViolation("flag --" + name + " expects a boolean, got '" + *v + "'");
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> items;
  std::size_t begin = 0;
  while (begin <= value.size()) {
    std::size_t end = value.find(',', begin);
    if (end == std::string::npos) end = value.size();
    std::string item = value.substr(begin, end - begin);
    const auto first = item.find_first_not_of(" \t");
    if (first == std::string::npos) {
      item.clear();
    } else {
      const auto last = item.find_last_not_of(" \t");
      item = item.substr(first, last - first + 1);
    }
    if (!item.empty() && std::find(items.begin(), items.end(), item) == items.end())
      items.push_back(item);
    begin = end + 1;
  }
  return items;
}

}  // namespace mobsrv::io
