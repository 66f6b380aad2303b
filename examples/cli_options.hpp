#pragma once

// `--key value` command-line parsing shared by the example binaries.

#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

namespace fhg::examples {

/// `--key value` option map over `argv[first..]`.  A token that is not
/// `--key`, a key outside `known`, or a trailing key without a value is a
/// usage error, so a misspelled flag cannot silently fall back to a default:
/// `usage` (which must exit) gets the message, with `context` (e.g.
/// " for serve mode") appended to the unknown-key one.
template <typename Usage>
std::map<std::string, std::string> parse_options(int argc, char** argv, int first,
                                                 const std::set<std::string>& known,
                                                 const std::string& context, Usage&& usage) {
  std::map<std::string, std::string> options;
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      usage("expected an option, got '" + key + "'");
    } else if (!known.contains(key.substr(2))) {
      usage("unknown option '" + key + "'" + context);
    } else if (i + 1 == argc) {
      usage("option '" + key + "' needs a value");
    } else {
      options[key.substr(2)] = argv[i + 1];
    }
  }
  return options;
}

/// The unsigned value of `key`, or `fallback` when it was not given.
inline std::uint64_t uint_option(const std::map<std::string, std::string>& options,
                                 const std::string& key, std::uint64_t fallback) {
  const auto it = options.find(key);
  return it == options.end() ? fallback : std::strtoull(it->second.c_str(), nullptr, 10);
}

}  // namespace fhg::examples
