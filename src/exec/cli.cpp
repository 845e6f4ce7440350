#include "exec/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exec/pool.hpp"

namespace isp::exec {

namespace {

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "error: %s\n", why.c_str());
  std::exit(2);
}

/// Find the value of `--name V` / `--name=V`; nullptr when the flag is
/// absent.  A flag present without a value is an immediate exit-2.
const char* flag_value(int argc, char** argv, const char* name) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, name) == 0) {
      if (i + 1 >= argc) die(std::string(name) + " needs a value");
      return argv[i + 1];
    }
    if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
      if (arg[len + 1] == '\0') die(std::string(name) + " needs a value");
      return arg + len + 1;
    }
  }
  return nullptr;
}

}  // namespace

const char* unknown_flag(int argc, char** argv,
                         const std::vector<const char*>& valued,
                         const std::vector<const char*>& switches) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) return arg;  // a stray word
    const std::size_t len = std::strcspn(arg, "=");
    const auto matches = [&](const char* name) {
      return std::strlen(name) == len && std::strncmp(arg, name, len) == 0;
    };
    if (std::any_of(valued.begin(), valued.end(), matches)) {
      if (arg[len] != '=') ++i;  // the next word is the value
    } else if (std::none_of(switches.begin(), switches.end(), matches)) {
      return arg;
    }
  }
  return nullptr;
}

void reject_unknown_flags(int argc, char** argv,
                          const std::vector<const char*>& valued,
                          const std::vector<const char*>& switches) {
  const char* bad = unknown_flag(argc, argv, valued, switches);
  if (bad == nullptr) return;
  std::string accepted;
  for (const auto* names : {&valued, &switches}) {
    for (const char* name : *names) {
      accepted += accepted.empty() ? "" : " ";
      accepted += name;
    }
  }
  const std::string what =
      std::strncmp(bad, "--", 2) == 0
          ? std::string("unknown flag '") + bad + "'"
          : std::string("'") + bad + "' is not a flag or a flag's value";
  die(what + "; this harness takes: " + accepted);
}

bool flag_present(int argc, char** argv, const char* name) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, name) == 0) return true;
    if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
      die(std::string(name) + " takes no value, got '" + arg + "'");
    }
  }
  return false;
}

std::uint64_t u64_flag(int argc, char** argv, const char* name,
                       std::uint64_t fallback, std::uint64_t lo,
                       std::uint64_t hi) {
  const char* text = flag_value(argc, argv, name);
  if (text == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    die(std::string(name) + ": '" + text + "' is not a non-negative integer");
  }
  if (v < lo || v > hi) {
    die(std::string(name) + ": " + std::to_string(v) + " is outside [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

double double_flag(int argc, char** argv, const char* name, double fallback,
                   double lo, double hi) {
  const char* text = flag_value(argc, argv, name);
  if (text == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0' || !std::isfinite(v)) {
    die(std::string(name) + ": '" + text + "' is not a number");
  }
  if (v < lo || v > hi) {
    char range[96];
    std::snprintf(range, sizeof range, ": %g is outside [%g, %g]", v, lo, hi);
    die(name + std::string(range));
  }
  return v;
}

const char* string_flag(int argc, char** argv, const char* name,
                        const char* fallback) {
  const char* text = flag_value(argc, argv, name);
  return text == nullptr ? fallback : text;
}

unsigned jobs_from_args(int argc, char** argv) {
  return static_cast<unsigned>(
      u64_flag(argc, argv, "--jobs", default_jobs(), 1, 1024));
}

std::optional<std::size_t> parse_enum(
    const char* text, const std::vector<const char*>& choices) {
  if (text == nullptr || text[0] == '\0') return std::nullopt;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (std::strcmp(text, choices[i]) == 0) return i;
  }
  return std::nullopt;
}

std::size_t enum_flag(int argc, char** argv, const char* name,
                      const std::vector<const char*>& choices,
                      std::size_t fallback) {
  const char* text = flag_value(argc, argv, name);
  if (text == nullptr) return fallback;
  const auto v = parse_enum(text, choices);
  if (!v.has_value()) {
    std::string accepted;
    for (std::size_t i = 0; i < choices.size(); ++i) {
      if (i > 0) accepted += "|";
      accepted += choices[i];
    }
    die(std::string(name) + ": '" + text + "' is not one of " + accepted);
  }
  return *v;
}

}  // namespace isp::exec
