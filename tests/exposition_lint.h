// Offline lint for a Prometheus text exposition: the rules of the text
// format that a scraper's rate() and reset detection rely on.
//
//   * every sample's family has exactly one # TYPE line, before its
//     first sample;
//   * each family's samples are contiguous (a histogram's _bucket,
//     _sum and _count series belong to the histogram's family);
//   * every counter family ends in _total;
//   * no family ending in _total is typed gauge.

#ifndef LAXML_TESTS_EXPOSITION_LINT_H_
#define LAXML_TESTS_EXPOSITION_LINT_H_

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace laxml {
namespace testing {

/// One message per rule violation in `text`; empty when it is clean.
inline std::vector<std::string> LintExposition(const std::string& text) {
  auto ends_with = [](std::string_view s, std::string_view suffix) {
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
  };
  std::vector<std::string> errors;
  std::map<std::string, std::string> types;  // family -> type
  std::set<std::string> seen;                // families with samples
  std::string current;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family;
      std::string type;
      fields >> family >> type;
      if (!types.emplace(family, type).second) {
        errors.push_back("second # TYPE: " + line);
      }
      if (type == "counter" && !ends_with(family, "_total")) {
        errors.push_back("counter without _total: " + family);
      }
      if (type == "gauge" && ends_with(family, "_total")) {
        errors.push_back("_total family typed gauge: " + family);
      }
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const std::string name = line.substr(0, line.find_first_of("{ "));
    std::string family = name;
    for (std::string_view suffix : {"_bucket", "_sum", "_count"}) {
      if (!ends_with(name, suffix)) continue;
      const std::string base = name.substr(0, name.size() - suffix.size());
      auto it = types.find(base);
      if (it != types.end() && it->second == "histogram") family = base;
    }
    if (types.count(family) == 0) {
      errors.push_back("sample before its # TYPE: " + line);
    }
    if (family != current) {
      if (!seen.insert(family).second) {
        errors.push_back("family split: " + line);
      }
      current = family;
    }
  }
  return errors;
}

}  // namespace testing
}  // namespace laxml

#endif  // LAXML_TESTS_EXPOSITION_LINT_H_
