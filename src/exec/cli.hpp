// Strict shared CLI parsing for the bench harnesses.
//
// Every batch harness takes `--jobs N` (the worker count handed to
// exec::run_batch; absent, hardware concurrency; `--jobs 1` is exactly the
// serial behaviour) and a handful of numeric knobs of its own.  Parsing
// follows the repository's strict convention (PR 2): a malformed,
// out-of-range or valueless flag prints a diagnostic and exits with status 2
// rather than being silently clamped or — worse — atoi'd to zero.  The
// helpers below are that convention in one place, so the harnesses stop
// re-growing private parse-and-validate snippets.  Each harness first hands
// reject_unknown_flags() every flag it reads, split into flags that take a
// value and flags that do not, so a misspelt or retired flag, or a stray
// word, fails loudly instead of running the defaults.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace isp::exec {

/// The first argument that is neither a declared flag nor the value of a
/// declared value-taking flag, or nullptr when there is none (pure —
/// unit-testable without exiting).  `valued` flags take a value (`--name V`
/// or `--name=V`); `switches` take none.  A flag is compared up to any '=',
/// so `--name=V` is `--name`.  The word after a valued flag is its value,
/// whatever it looks like; any other word without the "--" prefix is a
/// stray argument and is returned like an undeclared flag.
[[nodiscard]] const char* unknown_flag(int argc, char** argv,
                                       const std::vector<const char*>& valued,
                                       const std::vector<const char*>& switches);

/// Exit with status 2 when unknown_flag() finds an undeclared flag or a
/// stray word, naming it and the flags the harness takes.
void reject_unknown_flags(int argc, char** argv,
                          const std::vector<const char*>& valued,
                          const std::vector<const char*>& switches = {});

/// True if `--name` appears in argv (boolean flag, no value).  Exits with
/// status 2 on the `--name=V` spelling, which reject_unknown_flags() lets
/// through, so `--quick=1` cannot silently run the full-size defaults.
[[nodiscard]] bool flag_present(int argc, char** argv, const char* name);

/// Parse `--name V` (or `--name=V`) as an unsigned integer in [lo, hi].
/// Returns `fallback` when the flag is absent.  Exits with status 2 on a
/// malformed value, a missing value, or a value outside [lo, hi].
[[nodiscard]] std::uint64_t u64_flag(int argc, char** argv, const char* name,
                                     std::uint64_t fallback, std::uint64_t lo,
                                     std::uint64_t hi);

/// Parse `--name V` (or `--name=V`) as a finite number in [lo, hi].
/// Returns `fallback` when the flag is absent.  Exits with status 2 on a
/// malformed, non-finite or missing value, or a value outside [lo, hi].
[[nodiscard]] double double_flag(int argc, char** argv, const char* name,
                                 double fallback, double lo, double hi);

/// Parse `--name V` (or `--name=V`) as a non-empty string.  Returns
/// `fallback` (which may be nullptr) when the flag is absent.  Exits with
/// status 2 on a missing or empty value.
[[nodiscard]] const char* string_flag(int argc, char** argv, const char* name,
                                      const char* fallback);

/// Parse `--jobs N` (or `--jobs=N`) out of argv.  Returns default_jobs()
/// when the flag is absent.  Exits with status 2 on a malformed value, a
/// value of zero, or a missing argument.
[[nodiscard]] unsigned jobs_from_args(int argc, char** argv);

/// Parse an enumerated flag value against a closed choice list: exact match
/// only — no case folding, no prefixes, no aliases.  Returns the index into
/// `choices` or nullopt on anything else, nullptr and empty strings
/// included (pure — unit-testable without exiting).
[[nodiscard]] std::optional<std::size_t> parse_enum(
    const char* text, const std::vector<const char*>& choices);

/// Parse `--name V` (or `--name=V`) where V must be exactly one of
/// `choices`.  Returns the index of the matched choice, or `fallback` when
/// the flag is absent.  Exits with status 2 on a missing value or a value
/// not in the list, printing the accepted spellings.
[[nodiscard]] std::size_t enum_flag(int argc, char** argv, const char* name,
                                    const std::vector<const char*>& choices,
                                    std::size_t fallback);

}  // namespace isp::exec
